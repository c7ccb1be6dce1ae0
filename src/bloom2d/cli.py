"""Command-line interface.

Subcommands:

* ``bench``       - insert a seeded corpus into one filter and query the
                    selected workloads, emitting a JSON or CSV report.
* ``hash-select`` - run every hash variant through the two-dimensional
                    filter and emit a ranking with a recommendation.
* ``generate``    - write a corpus file (and optionally query-set files
                    with truth sidecars) for external tooling.

Exit status is 0 on success and nonzero on any error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ALL_WORKLOADS,
    BenchConfig,
    _query_set,
    emit_report,
    run_bench,
    run_hash_selection,
)
from .hashing import HashVariant
from .workload import generate_corpus, write_corpus, write_query_set

_VARIANT_NAMES = [v.name for v in HashVariant]


def _add_common_size_args(parser: argparse.ArgumentParser, default_n: int) -> None:
    parser.add_argument("--n", type=int, default=default_n,
                        help=f"corpus size (default {default_n})")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed for all generation (default 1)")


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.001,
                        help="false-positive target used for sizing (default 0.001)")
    parser.add_argument("--query-size", type=int, default=None,
                        help="queries per workload (default: same as --n)")
    parser.add_argument("--mix-ratio", type=float, default=0.5,
                        help="member share of the mixed workload (default 0.5)")
    parser.add_argument("--reps", type=int, default=1,
                        help="repetitions averaged into timing fields (default 1)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None,
                        help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloom2d",
        description="Membership-filter benchmarks: 2D Bloom filter vs. flat baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run insert/lookup benchmarks for one filter")
    bench.add_argument("--filter", choices=("robustbf", "sbf", "cbf"),
                       default="robustbf", dest="filter_kind")
    _add_common_size_args(bench, 100_000)
    bench.add_argument("--workload",
                       choices=ALL_WORKLOADS + ("all",), default="all")
    bench.add_argument("--variant", choices=_VARIANT_NAMES, default="H4",
                       help="hash variant (default H4)")
    _add_query_args(bench)

    select = sub.add_parser("hash-select",
                            help="rank all hash variants on the 2D filter")
    _add_common_size_args(select, 100_000)
    _add_query_args(select)

    generate = sub.add_parser("generate", help="write corpus/query-set files")
    _add_common_size_args(generate, 100_000)
    generate.add_argument("--out", required=True, help="corpus file path")
    generate.add_argument("--workload", choices=ALL_WORKLOADS + ("all",),
                          default=None,
                          help="also write this query set (with truth sidecar)")
    generate.add_argument("--query-size", type=int, default=None)
    generate.add_argument("--mix-ratio", type=float, default=0.5)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    workloads = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    config = BenchConfig(
        filter_kind=args.filter_kind,
        n=args.n,
        epsilon=args.epsilon,
        workloads=workloads,
        query_size=args.query_size,
        seed=args.seed,
        variant=HashVariant.from_label(args.variant),
        mix_ratio=args.mix_ratio,
        reps=args.reps,
    )
    emit_report(run_bench(config), args.format, args.out)
    return 0


def _cmd_hash_select(args: argparse.Namespace) -> int:
    config = BenchConfig(
        n=args.n,
        epsilon=args.epsilon,
        query_size=args.query_size,
        seed=args.seed,
        mix_ratio=args.mix_ratio,
        reps=args.reps,
    )
    emit_report(run_hash_selection(config), args.format, args.out)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    """Build every query set before writing any file, so a rejected size
    or mix ratio leaves no corpus or query set behind.  The sets are the
    ones ``bench`` times for the same seed and sizes."""
    config = BenchConfig(
        n=args.n, query_size=args.query_size, seed=args.seed, mix_ratio=args.mix_ratio
    )
    corpus = generate_corpus(args.n, args.seed)
    kinds = ()
    if args.workload == "all":
        kinds = ALL_WORKLOADS
    elif args.workload is not None:
        kinds = (args.workload,)
    query_sets = {kind: _query_set(config, corpus, kind) for kind in kinds}
    write_corpus(corpus, args.out)
    for kind, queries in query_sets.items():
        write_query_set(queries, f"{args.out}.{kind}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "hash-select":
            return _cmd_hash_select(args)
        return _cmd_generate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

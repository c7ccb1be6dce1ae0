#!/usr/bin/env python3
"""Sweep the three filters across corpus sizes and emit one report per run.

Each printed line puts a filter's logical memory (``memory_bits`` per key,
as the report has it) next to its physical storage: the bytes of the
numpy array it keeps its bits, words or counters in, per key.

Desk-scale example (seconds):

    python scripts/run_comparison.py --out-dir results/

Large-scale sweep (minutes, needs a few GB of RAM at the top end):

    python scripts/run_comparison.py --sizes 10000000 20000000 --out-dir results/
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bloom2d.bench import FILTER_KINDS, BenchConfig, build_filter, emit_report, run_bench


def storage_bits(filt) -> int:
    """Bits of the numpy arrays a filter holds as attributes."""
    return 8 * sum(a.nbytes for a in vars(filt).values() if isinstance(a, np.ndarray))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--epsilon", type=float, default=0.001)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--format", choices=("json", "csv"), default="csv")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in args.sizes:
        for kind in FILTER_KINDS:
            config = BenchConfig(
                filter_kind=kind,
                n=n,
                epsilon=args.epsilon,
                seed=args.seed,
                reps=args.reps,
            )
            report = run_bench(config)
            path = out_dir / f"{kind}_n{n}.{args.format}"
            emit_report(report, args.format, path)
            rows = {row["workload"]: row for row in report["rows"]}
            insert = rows["insert"]
            physical = storage_bits(build_filter(config))
            print(
                f"{kind:9s} n={n:>10,}  insert {insert['mops']:6.2f} MOPS  "
                f"mem {insert['memory_bits']:>12,} bits  "
                f"bits/key {insert['memory_bits'] / n:6.2f} logical "
                f"{physical / n:6.2f} physical  "
                + "  ".join(
                    f"{w}:fpp={rows[w]['fpp']:.6f}"
                    for w in ("mixed", "disjoint", "random")
                    if w in rows
                )
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

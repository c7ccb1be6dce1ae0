"""Benchmark harness: timed insert/lookup runs, hash-family selection,
and CSV/JSON report emission.

Timing wraps only the tight operation loop with a monotonic clock;
corpus and query generation sit outside it.  Every counting field
(geometry, memory, false positives, FPP, accuracy) is fully determined
by the configured seeds, so two runs with the same configuration differ
at most in the ``seconds``/``mops`` fields.

The whole harness is single-threaded by design.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Any

import numpy as np

from .baselines import CountingBloomFilter, StandardBloomFilter
from .core import TwoDBloomFilter
from .hashing import HashVariant, splitmix64
from .workload import KeyCorpus, QueryKind, generate_corpus, make_query_set

SCHEMA_VERSION = 1
FILTER_KINDS = ("robustbf", "sbf", "cbf")
ALL_WORKLOADS = ("same", "mixed", "disjoint", "random")

CSV_COLUMNS = [
    "filter",
    "workload",
    "n",
    "epsilon",
    "variant",
    "k",
    "X",
    "Y",
    "beta",
    "memory_bits",
    "bits_per_element",
    "ops",
    "seconds",
    "mops",
    "fp_count",
    "neg_queries",
    "fpp",
    "accuracy_pct",
]

HASH_SELECT_COLUMNS = (
    ["variant", "block_bytes", "insert_seconds", "insert_mops", "lookup_mops", "max_fpp"]
    + [f"{kind}_{metric}" for kind in ALL_WORKLOADS
       for metric in ("seconds", "mops", "fpp", "accuracy_pct")]
    + ["excluded", "recommended"]
)


@dataclass
class BenchConfig:
    filter_kind: str = "robustbf"
    n: int = 100_000
    epsilon: float = 0.001
    workloads: tuple[str, ...] = ALL_WORKLOADS
    query_size: int | None = None
    seed: int = 1
    variant: HashVariant = HashVariant.H4
    mix_ratio: float = 0.5
    reps: int = 1

    def __post_init__(self) -> None:
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(
                f"filter_kind must be one of {FILTER_KINDS}, got {self.filter_kind!r}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        self.variant = HashVariant(self.variant)
        bad = [w for w in self.workloads if w not in ALL_WORKLOADS]
        if bad:
            raise ValueError(f"unknown workloads {bad}; expected {ALL_WORKLOADS}")

    def effective_query_size(self) -> int:
        return self.query_size if self.query_size is not None else self.n

    def as_dict(self) -> dict[str, Any]:
        return {
            "filter": self.filter_kind,
            "n": self.n,
            "epsilon": self.epsilon,
            "workloads": list(self.workloads),
            "query_size": self.effective_query_size(),
            "seed": self.seed,
            "variant": self.variant.name,
            "mix_ratio": self.mix_ratio,
            "reps": self.reps,
        }


def build_filter(config: BenchConfig):
    if config.filter_kind == "robustbf":
        return TwoDBloomFilter.for_capacity(config.n, config.epsilon, variant=config.variant)
    if config.filter_kind == "sbf":
        return StandardBloomFilter(config.n, config.epsilon, variant=config.variant)
    return CountingBloomFilter(config.n, config.epsilon, variant=config.variant)


def workload_seed(base_seed: int, kind: QueryKind | str) -> int:
    """Stable per-workload generator seed derived from the run seed."""
    offsets = {k: i for i, k in enumerate(ALL_WORKLOADS)}
    return splitmix64(splitmix64(base_seed) + offsets[QueryKind(kind).value])


def _geometry_echo(filt) -> dict[str, Any]:
    if isinstance(filt, TwoDBloomFilter):
        g = filt.geometry
        return {"k": g.hash_count, "X": g.rows, "Y": g.cols, "beta": g.cell_bits}
    return {"k": filt.hash_count, "X": None, "Y": None, "beta": None}


def _base_row(config: BenchConfig, filt) -> dict[str, Any]:
    row: dict[str, Any] = {
        "filter": config.filter_kind,
        "workload": None,
        "n": config.n,
        "epsilon": config.epsilon,
        "variant": config.variant.name,
    }
    row.update(_geometry_echo(filt))
    memory = filt.memory_bits()
    row["memory_bits"] = memory
    row["bits_per_element"] = memory / config.n
    return row


def _mops(ops: int, seconds: float) -> float:
    return ops / (1e6 * seconds) if seconds > 0 else float("inf")


def _query_set(config: BenchConfig, corpus: KeyCorpus, kind: QueryKind | str):
    """The labelled query set a run of ``config`` times for ``kind``: the
    whole corpus for ``same``, else ``effective_query_size()`` queries."""
    kind = QueryKind(kind)
    size = len(corpus) if kind is QueryKind.SAME else config.effective_query_size()
    return make_query_set(kind, corpus, size, workload_seed(config.seed, kind), config.mix_ratio)


def run_insert_bench(config: BenchConfig, corpus: KeyCorpus | None = None):
    """Build the filter and insert the corpus, timed.

    Returns the populated filter (from the last repetition) together with
    its report row, so lookup phases can reuse it.
    """
    if corpus is None:
        corpus = generate_corpus(config.n, config.seed)
    times = []
    filt = None
    for _ in range(config.reps):
        filt = build_filter(config)
        start = time.perf_counter()
        filt.insert_batch(corpus.matrix)
        times.append(time.perf_counter() - start)
    seconds = fmean(times)
    row = _base_row(config, filt)
    row.update(
        workload="insert",
        ops=len(corpus),
        seconds=seconds,
        mops=_mops(len(corpus), seconds),
        fp_count=None,
        neg_queries=None,
        fpp=None,
        accuracy_pct=None,
    )
    return filt, row


def run_lookup_bench(
    config: BenchConfig,
    filt,
    corpus: KeyCorpus,
    kind: QueryKind | str,
    queries=None,
) -> dict[str, Any]:
    """Query one workload against a populated filter, timed and scored.

    ``queries`` overrides the internally generated set (e.g. one loaded
    from files); it must carry truth labels for every query.
    """
    kind = QueryKind(kind)
    if queries is None:
        queries = _query_set(config, corpus, kind)
    if queries.truth is None or len(queries.truth) != len(queries):
        raise ValueError(f"query set for {kind.value!r} lacks usable truth labels")
    times = []
    predicted = None
    for _ in range(config.reps):
        start = time.perf_counter()
        predicted = filt.contains_batch(queries.matrix)
        times.append(time.perf_counter() - start)
    seconds = fmean(times)
    false_positives = int(np.count_nonzero(predicted & ~queries.truth))
    negatives = int(np.count_nonzero(~queries.truth))
    fpp = false_positives / negatives if negatives else 0.0
    row = _base_row(config, filt)
    row.update(
        workload=kind.value,
        ops=len(queries),
        seconds=seconds,
        mops=_mops(len(queries), seconds),
        fp_count=false_positives,
        neg_queries=negatives,
        fpp=fpp,
        accuracy_pct=100.0 * (1.0 - fpp),
    )
    return row


def run_bench(config: BenchConfig) -> dict[str, Any]:
    """Full insert + lookup run for one filter kind."""
    corpus = generate_corpus(config.n, config.seed)
    filt, insert_row = run_insert_bench(config, corpus)
    rows = [insert_row]
    for kind in config.workloads:
        rows.append(run_lookup_bench(config, filt, corpus, kind))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "config": config.as_dict(),
        "rows": rows,
    }


def recommend_variant(rows: list[dict[str, Any]], epsilon: float):
    """Pick the variant to recommend from per-variant summary rows.

    Qualifying variants keep measured FPP at or below the target on
    every workload; among them the best aggregate lookup MOPS wins and
    ties go to the smaller stride.  When no variant qualifies, fall back
    to the smallest worst-case FPP (same tie-breaks) and say so.
    """
    excluded = [r["variant"] for r in rows if r["max_fpp"] > epsilon]
    candidates = [r for r in rows if r["max_fpp"] <= epsilon]
    fallback = not candidates
    if candidates:
        best = min(candidates, key=lambda r: (-r["lookup_mops"], r["block_bytes"]))
    else:
        best = min(rows, key=lambda r: (r["max_fpp"], -r["lookup_mops"], r["block_bytes"]))
    return best["variant"], excluded, fallback


def run_hash_selection(config: BenchConfig) -> dict[str, Any]:
    """Drive the two-dimensional filter with every hash variant and rank them."""
    corpus = generate_corpus(config.n, config.seed)
    # the query sets depend on the seed, not on the variant: built once
    query_sets = {kind: _query_set(config, corpus, kind) for kind in ALL_WORKLOADS}
    rows = []
    for variant in HashVariant:
        cfg = replace(config, filter_kind="robustbf", variant=variant)
        filt, insert_row = run_insert_bench(cfg, corpus)
        lookups = {}
        lookup_ops = 0
        lookup_seconds = 0.0
        for kind in ALL_WORKLOADS:
            lrow = run_lookup_bench(cfg, filt, corpus, kind, queries=query_sets[kind])
            lookups[kind] = {
                "seconds": lrow["seconds"],
                "mops": lrow["mops"],
                "fp_count": lrow["fp_count"],
                "neg_queries": lrow["neg_queries"],
                "fpp": lrow["fpp"],
                "accuracy_pct": lrow["accuracy_pct"],
            }
            lookup_ops += lrow["ops"]
            lookup_seconds += lrow["seconds"]
        rows.append(
            {
                "variant": variant.name,
                "block_bytes": variant.block_bytes,
                "insert_seconds": insert_row["seconds"],
                "insert_mops": insert_row["mops"],
                "lookup_mops": _mops(lookup_ops, lookup_seconds),
                "max_fpp": max(l["fpp"] for l in lookups.values()),
                "lookups": lookups,
            }
        )
    recommended, excluded, fallback = recommend_variant(rows, config.epsilon)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "hash-select",
        "config": {
            "n": config.n,
            "epsilon": config.epsilon,
            "seed": config.seed,
            "query_size": config.effective_query_size(),
            "mix_ratio": config.mix_ratio,
            "reps": config.reps,
        },
        "rows": rows,
        "excluded": excluded,
        "recommended": recommended,
        "fallback": fallback,
    }


def _csv_cell(value: Any) -> Any:
    return "" if value is None else value


def _bench_csv(report: dict[str, Any]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.get("rows", []):
        writer.writerow({col: _csv_cell(row.get(col)) for col in CSV_COLUMNS})
    return out.getvalue()


def _hash_select_csv(report: dict[str, Any]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=HASH_SELECT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    excluded = set(report.get("excluded", []))
    for row in report.get("rows", []):
        flat = {
            "variant": row["variant"],
            "block_bytes": row["block_bytes"],
            "insert_seconds": row["insert_seconds"],
            "insert_mops": row["insert_mops"],
            "lookup_mops": row["lookup_mops"],
            "max_fpp": row["max_fpp"],
            "excluded": int(row["variant"] in excluded),
            "recommended": int(row["variant"] == report.get("recommended")),
        }
        for kind, metrics in row["lookups"].items():
            for metric in ("seconds", "mops", "fpp", "accuracy_pct"):
                flat[f"{kind}_{metric}"] = metrics[metric]
        writer.writerow({col: _csv_cell(flat.get(col)) for col in HASH_SELECT_COLUMNS})
    return out.getvalue()


def render_report(report: dict[str, Any], format: str = "json") -> str:
    if format == "json":
        return json.dumps(report, indent=2) + "\n"
    if format == "csv":
        if report.get("kind") == "hash-select":
            return _hash_select_csv(report)
        return _bench_csv(report)
    raise ValueError(f"unknown report format {format!r}")


def emit_report(report: dict[str, Any], format: str = "json", path=None) -> None:
    """Serialise the report to ``path``, or stdout when no path is given.

    I/O errors propagate to the caller.
    """
    text = render_report(report, format)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")

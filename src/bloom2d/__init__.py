"""Membership filters with a two-dimensional, prime-shaped core.

The package bundles a 2D Bloom filter whose matrix dimensions and
per-cell bit count are primes, a family of variable-stride mixing
hashes (H1..H9), flat standard and counting Bloom filter baselines,
deterministic workload generation, and a benchmark CLI (``bloom2d``).

Importing the package loads only the filters and their sizing.  The
``bench``, ``workload`` and ``snapshot`` submodules, and the names
re-exported from them, load on first attribute access (PEP 562), so a
process that only builds filters never compiles them.
"""

import importlib

from .baselines import CountingBloomFilter, StandardBloomFilter
from .core import TwoDBloomFilter
from .geometry import (
    FilterGeometry,
    GeometryUnderflowError,
    derive_geometry,
    min_supported_items,
    optimal_bits,
    optimal_hash_count,
)
from .hashing import HashVariant, derive_seeds, hash_batch, hash_key, splitmix64
from .primes import PrimeTableExhaustedError, default_table

_LAZY_EXPORTS = {
    "bench": (
        "BenchConfig",
        "emit_report",
        "recommend_variant",
        "run_bench",
        "run_hash_selection",
        "run_insert_bench",
        "run_lookup_bench",
    ),
    "snapshot": ("load_filter", "save_filter"),
    "workload": (
        "KeyCorpus",
        "QueryKind",
        "QuerySet",
        "generate_corpus",
        "make_query_set",
        "membership_oracle",
        "read_corpus",
        "read_query_set",
        "write_corpus",
        "write_query_set",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY_EXPORTS))


__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "CountingBloomFilter",
    "FilterGeometry",
    "GeometryUnderflowError",
    "HashVariant",
    "KeyCorpus",
    "PrimeTableExhaustedError",
    "QueryKind",
    "QuerySet",
    "StandardBloomFilter",
    "TwoDBloomFilter",
    "default_table",
    "derive_geometry",
    "derive_seeds",
    "emit_report",
    "generate_corpus",
    "hash_batch",
    "hash_key",
    "load_filter",
    "make_query_set",
    "membership_oracle",
    "min_supported_items",
    "optimal_bits",
    "optimal_hash_count",
    "read_corpus",
    "read_query_set",
    "recommend_variant",
    "run_bench",
    "run_hash_selection",
    "run_insert_bench",
    "run_lookup_bench",
    "save_filter",
    "splitmix64",
    "write_corpus",
    "write_query_set",
]

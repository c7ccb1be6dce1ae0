"""Membership filters with a two-dimensional, prime-shaped core.

The package bundles a 2D Bloom filter whose matrix dimensions and
per-cell bit count are primes, a family of variable-stride mixing
hashes (H1..H9), flat standard and counting Bloom filter baselines,
deterministic workload generation, and a benchmark CLI (``bloom2d``).
"""

from .baselines import CountingBloomFilter, StandardBloomFilter
from .bench import (
    BenchConfig,
    emit_report,
    recommend_variant,
    run_bench,
    run_hash_selection,
    run_insert_bench,
    run_lookup_bench,
)
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
from .primes import (
    PrimeTable,
    PrimeTableExhaustedError,
    default_table,
    select_prime,
    sieve_primes,
)
from .snapshot import load_filter, save_filter
from .workload import (
    KeyCorpus,
    QueryKind,
    QuerySet,
    generate_corpus,
    make_query_set,
    membership_oracle,
    read_corpus,
    read_query_set,
    write_corpus,
    write_query_set,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "CountingBloomFilter",
    "FilterGeometry",
    "GeometryUnderflowError",
    "HashVariant",
    "KeyCorpus",
    "PrimeTable",
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
    "select_prime",
    "sieve_primes",
    "splitmix64",
    "write_corpus",
    "write_query_set",
]

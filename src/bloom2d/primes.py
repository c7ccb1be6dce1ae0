"""Prime sieve and the ascending prime table that shapes filter dimensions."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

DEFAULT_LIMIT = 10_000_000


class PrimeTableExhaustedError(ValueError):
    """The requested target lies beyond the table's coverage."""


def is_prime(value: int) -> bool:
    """Primality by trial division up to sqrt(value)."""
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    factor = 3
    while factor * factor <= value:
        if value % factor == 0:
            return False
        factor += 2
    return True


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (sieve of Eratosthenes)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Strictly ascending primes covering [2, limit]."""

    primes: np.ndarray
    limit: int

    @classmethod
    def up_to(cls, limit: int = DEFAULT_LIMIT) -> "PrimeTable":
        return cls(primes=sieve_primes(limit), limit=limit)

    def __len__(self) -> int:
        return int(self.primes.size)


_default_table: PrimeTable | None = None
_default_table_lock = threading.Lock()


def default_table(limit: int = DEFAULT_LIMIT) -> PrimeTable:
    """Shared table holding at least every prime <= min(limit, 10**7).

    One table serves the whole process.  It is re-sieved only when a
    caller asks past what it holds, to at least twice its old limit so
    that a run of growing requests sieves O(final limit) numbers in all,
    and never past 10**7.  With no argument it is the full 10**7 table,
    built once; a sizing call asks only for the primes its shape needs.
    """
    global _default_table
    limit = min(limit, DEFAULT_LIMIT)
    # without the lock, a caller could be handed the smaller table of a
    # concurrent request that replaced its own
    with _default_table_lock:
        table = _default_table
        if table is None or table.limit < limit:
            if table is not None:
                limit = min(DEFAULT_LIMIT, max(limit, 2 * table.limit))
            table = _default_table = PrimeTable.up_to(limit)
        return table


def select_prime(table: PrimeTable, target: float) -> int:
    """Index of the first table prime strictly greater than ``target``."""
    primes = table.primes
    if primes.size == 0 or target >= primes[-1]:
        raise PrimeTableExhaustedError(
            f"prime table with limit {table.limit} has no prime above {target}"
        )
    # a prime exceeds target iff it exceeds floor(target); an integer
    # needle keeps numpy from casting the whole table to float64
    return int(np.searchsorted(primes, math.floor(target), side="right"))


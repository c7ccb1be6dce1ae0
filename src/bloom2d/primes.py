"""The shared ascending prime array that shapes filter dimensions."""

from __future__ import annotations

import threading

import numpy as np

DEFAULT_LIMIT = 10_000_000


class PrimeTableExhaustedError(ValueError):
    """The requested target lies beyond the prime array's coverage."""


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


# every prime <= _limit, ascending
_primes = np.empty(0, dtype=np.int64)
_limit = 0
_lock = threading.Lock()


def default_table(limit: int = DEFAULT_LIMIT) -> np.ndarray:
    """Shared ascending array holding at least every prime <= min(limit, 10**7).

    One array serves the whole process.  It is re-sieved (Eratosthenes)
    only when a caller asks past what it holds, to at least twice its old
    limit so that a run of growing requests sieves O(final limit) numbers
    in all, and never past 10**7.  With no argument it is every prime
    below 10**7, built once; a sizing call asks only for the primes its
    shape needs.
    """
    global _primes, _limit
    limit = min(limit, DEFAULT_LIMIT)
    # without the lock, a caller could be handed the smaller array of a
    # concurrent request that replaced its own
    with _lock:
        if _limit < limit:
            limit = min(DEFAULT_LIMIT, max(limit, 2 * _limit))
            flags = np.ones(limit + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, int(limit**0.5) + 1):
                if flags[p]:
                    flags[p * p :: p] = False
            _primes, _limit = np.flatnonzero(flags).astype(np.int64), limit
            _primes.flags.writeable = False  # shared: a caller's write would reshape others' filters
        return _primes

"""Filter sizing: bit budget, hash count, and the prime X-by-Y shape.

The two-dimensional filter is a matrix of 64-bit cells, each using its
low ``beta = 61`` bits (the largest prime not exceeding 64; fixed).  It
is sized from the classic Bloom budget ``m = -n*ln(eps)/ln(2)^2``: the
cell-count target is ``q = m / (2*beta)``, the dimension target is
``t = sqrt(q)``, and the dimensions are the primes sitting three slots
to either side of the first prime above ``t`` in the ascending prime
array, four when three would land on ``beta``.
The filter then uses half the classic hash count.  The resulting matrix
holds roughly half the classic bit budget; see the benchmark reports for
the false-positive behaviour this buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .primes import DEFAULT_LIMIT, PrimeTableExhaustedError, default_table, is_prime

# Bits per cell in the paper's layout, and the usable low bits of each:
# the largest prime not exceeding CELL_WIDTH.
CELL_WIDTH = 64
CELL_BITS = 61
# Dimensions are the primes three slots to either side of the selected
# index, so the selected index must be at least 3.
_DIM_OFFSET = 3


class GeometryUnderflowError(ValueError):
    """Capacity too small to place both dimensions in the prime array."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _check_fp_target(fp_target: float) -> None:
    if not 0.0 < fp_target < 1.0:
        raise ValueError(f"fp_target must lie in (0, 1), got {fp_target}")


def optimal_bits(expected_items: int, fp_target: float) -> int:
    """Classic Bloom bit budget, ceil(-n * ln(eps) / ln(2)^2)."""
    if expected_items < 1:
        raise ValueError(f"expected_items must be >= 1, got {expected_items}")
    _check_fp_target(fp_target)
    return math.ceil(-expected_items * math.log(fp_target) / math.log(2) ** 2)


def optimal_hash_count(bits: int, expected_items: int) -> int:
    """Classic hash-count heuristic round((m/n) * ln 2), never below 1."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if expected_items < 1:
        raise ValueError(f"expected_items must be >= 1, got {expected_items}")
    return max(1, _round_half_up(bits / expected_items * math.log(2)))


@dataclass(frozen=True)
class FilterGeometry:
    """Shape of a two-dimensional filter.

    ``rows``, ``cols`` and ``cell_bits`` are three distinct primes, so
    that ``(d mod rows, d mod cols, d mod cell_bits)`` is a bijection of
    ``d mod rows*cols*cell_bits`` (Chinese remainder theorem).
    ``cell_bits`` counts the usable low bits of each 64-bit cell, at
    most 64 (:func:`derive_geometry` uses :data:`CELL_BITS`; smaller
    primes give small test shapes).  Construction raises
    :class:`ValueError` when any of these invariants, or
    ``hash_count >= 1``, fails.
    """

    rows: int
    cols: int
    cell_bits: int
    hash_count: int

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "cell_bits"):
            if not is_prime(getattr(self, name)):
                raise ValueError(f"{name} must be prime, got {getattr(self, name)}")
        if len({self.rows, self.cols, self.cell_bits}) < 3:
            raise ValueError(
                f"rows, cols and cell_bits must be distinct, got "
                f"{self.rows}, {self.cols} and {self.cell_bits}"
            )
        if self.cell_bits > CELL_WIDTH:
            raise ValueError(f"cell_bits {self.cell_bits} exceeds the {CELL_WIDTH}-bit cell")
        if self.hash_count < 1:
            raise ValueError(f"hash_count must be >= 1, got {self.hash_count}")

    @property
    def memory_bits(self) -> int:
        """The paper's cell footprint, rows * cols * CELL_WIDTH; the filter
        stores only the rows * cols * cell_bits usable bits."""
        return self.rows * self.cols * CELL_WIDTH


def min_supported_items(fp_target: float) -> int:
    """Smallest capacity for which :func:`derive_geometry` succeeds."""
    _check_fp_target(fp_target)
    # the dimension target must reach the third prime, 5
    floor_target = int(default_table(5)[_DIM_OFFSET - 1]) ** 2
    n = max(
        1,
        math.ceil(2 * CELL_BITS * floor_target * math.log(2) ** 2 / -math.log(fp_target)),
    )
    while optimal_bits(n, fp_target) // (2 * CELL_BITS) < floor_target:
        n += 1
    while n > 1 and optimal_bits(n - 1, fp_target) // (2 * CELL_BITS) >= floor_target:
        n -= 1
    return n


def derive_geometry(expected_items: int, fp_target: float) -> FilterGeometry:
    """Derive the prime X-by-Y shape for a capacity and false-positive target.

    ``fp_target`` sets the classic bit budget and hash count, and the
    shape then halves both: it keeps about half the budget as usable
    bits and probes them with half the hash count.  The shape is
    therefore not built for ``fp_target``.  At capacity it delivers the
    Bloom rate of its own usable bits ``m = rows*cols*CELL_BITS`` and
    ``k = hash_count``, ``p* = (1 - (1 - 1/m)^(k*n))^k``: about 0.021 at
    n = 10**5 and 0.036 at n = 10**6 for ``fp_target = 0.001``.  Reaching
    ``fp_target`` would take at least ``log2(1/fp_target)`` bits per item
    (9.97 for 0.001), more than the 6.9 to 8.1 usable bits this shape
    keeps at these sizes.

    The shared prime array is asked only for primes up to
    ``min(10**7, 2*isqrt(q) + 1000)``.  No gap between primes below
    10**7 exceeds 154, so that holds the first prime above ``sqrt(q)``
    and the four after it: a cold process sizing 10**6 items at 0.001
    sieves the numbers up to 1,686, not ten million.  Targets near 10**7
    reach every prime below 10**7.

    A dimension three slots away that equals ``CELL_BITS`` is replaced by
    the prime one slot further out, so that rows, cols and cell bits stay
    pairwise coprime (:class:`FilterGeometry`).

    Raises :class:`GeometryUnderflowError` when the capacity is too small
    for the three-slot dimension offsets, naming the smallest supported
    capacity, and :class:`PrimeTableExhaustedError` when the dimension
    target outruns the primes below 10**7.
    """
    bits = optimal_bits(expected_items, fp_target)
    cells = bits // (2 * CELL_BITS)
    target = math.isqrt(cells)  # a prime exceeds sqrt(cells) iff it exceeds this
    # below the 10**7 cap the array holds the first prime above target and
    # the four after it, so only the full array can run out
    primes = default_table(2 * target + 1000)
    if target >= primes[-1]:
        raise PrimeTableExhaustedError(
            f"prime table with limit {DEFAULT_LIMIT} has no prime above {target}"
        )
    prime_index = int(primes.searchsorted(target, side="right"))
    if prime_index < _DIM_OFFSET:
        raise GeometryUnderflowError(
            f"expected_items={expected_items} is too small for a two-dimensional "
            f"shape at fp_target={fp_target}; the smallest supported value is "
            f"{min_supported_items(fp_target)}"
        )
    if prime_index + _DIM_OFFSET >= len(primes):
        raise PrimeTableExhaustedError(
            f"prime table with limit {DEFAULT_LIMIT} cannot place a dimension "
            f"{_DIM_OFFSET} slots above index {prime_index}"
        )
    rows = int(primes[prime_index + _DIM_OFFSET])
    if rows == CELL_BITS:
        rows = int(primes[prime_index + _DIM_OFFSET + 1])
    cols = int(primes[prime_index - _DIM_OFFSET])
    if cols == CELL_BITS:
        cols = int(primes[prime_index - _DIM_OFFSET - 1])
    half_hashes = max(
        1, _round_half_up(optimal_hash_count(bits, expected_items) / 2)
    )
    return FilterGeometry(
        rows=rows, cols=cols, cell_bits=CELL_BITS, hash_count=half_hashes
    )

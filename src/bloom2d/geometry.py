"""Filter sizing: bit budget, hash count, and the prime X-by-Y shape.

The two-dimensional filter is sized from the classic Bloom budget
``m = -n*ln(eps)/ln(2)^2``: the cell-count target is ``q = m / (2*beta)``
with ``beta`` the largest prime not exceeding the cell width, the
dimension target is ``t = sqrt(q)``, and the dimensions are the primes
sitting three table slots to either side of the first prime above ``t``.
The filter then uses half the classic hash count.  The resulting matrix
holds roughly half the classic bit budget; see the benchmark reports for
the false-positive behaviour this buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .primes import (
    PrimeTable,
    PrimeTableExhaustedError,
    default_table,
    is_prime,
    largest_prime_at_most,
    select_prime,
)

SUPPORTED_CELL_WIDTHS = (8, 16, 32, 64)
# Dimensions are the primes three slots to either side of the selected
# index, so the selected index must be at least 3.
_DIM_OFFSET = 3


class GeometryUnderflowError(ValueError):
    """Capacity too small to place both dimensions in the prime table."""


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def optimal_bits(expected_items: int, fp_target: float) -> int:
    """Classic Bloom bit budget, ceil(-n * ln(eps) / ln(2)^2)."""
    if expected_items < 1:
        raise ValueError(f"expected_items must be >= 1, got {expected_items}")
    if not 0.0 < fp_target < 1.0:
        raise ValueError(f"fp_target must lie in (0, 1), got {fp_target}")
    return math.ceil(-expected_items * math.log(fp_target) / math.log(2) ** 2)


def optimal_hash_count(bits: int, expected_items: int) -> int:
    """Classic hash-count heuristic round((m/n) * ln 2), never below 1."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if expected_items < 1:
        raise ValueError(f"expected_items must be >= 1, got {expected_items}")
    return max(1, _round_half_up(bits / expected_items * math.log(2)))


@dataclass(frozen=True)
class SizingTrace:
    """Intermediate values of the shape derivation, kept for reporting."""

    expected_items: int
    fp_target: float
    bits: int            # classic bit budget m
    cell_target: int     # bits // (2 * cell_bits)
    dim_target: float    # sqrt(cell_target); fraction retained
    prime_index: int     # index of the first prime above dim_target


@dataclass(frozen=True)
class FilterGeometry:
    """Shape of a two-dimensional filter.

    ``rows``, ``cols`` and ``cell_bits`` are prime and rows != cols;
    ``cell_bits`` counts the usable low bits of each physically
    ``cell_width``-bit cell.  Construction raises :class:`ValueError`
    when any of these invariants, or ``hash_count >= 1``, fails.
    """

    rows: int
    cols: int
    cell_bits: int
    hash_count: int
    cell_width: int
    trace: SizingTrace | None = None

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "cell_bits"):
            if not is_prime(getattr(self, name)):
                raise ValueError(f"{name} must be prime, got {getattr(self, name)}")
        if self.rows == self.cols:
            raise ValueError(f"rows and cols must differ, both are {self.rows}")
        if self.cell_width not in SUPPORTED_CELL_WIDTHS:
            raise ValueError(
                f"cell_width must be one of {SUPPORTED_CELL_WIDTHS}, got {self.cell_width}"
            )
        if self.cell_bits > self.cell_width:
            raise ValueError(
                f"cell_bits {self.cell_bits} exceeds cell_width {self.cell_width}"
            )
        if self.hash_count < 1:
            raise ValueError(f"hash_count must be >= 1, got {self.hash_count}")

    @property
    def memory_bits(self) -> int:
        """Physical footprint: rows * cols * cell_width."""
        return self.rows * self.cols * self.cell_width


def min_supported_items(
    fp_target: float, cell_width: int = 64, table: PrimeTable | None = None
) -> int:
    """Smallest capacity for which :func:`derive_geometry` succeeds."""
    table = table if table is not None else default_table()
    cell_bits = largest_prime_at_most(table, cell_width)
    floor_target = int(table.primes[_DIM_OFFSET - 1]) ** 2
    n = max(
        1,
        math.ceil(2 * cell_bits * floor_target * math.log(2) ** 2 / -math.log(fp_target)),
    )
    while optimal_bits(n, fp_target) // (2 * cell_bits) < floor_target:
        n += 1
    while n > 1 and optimal_bits(n - 1, fp_target) // (2 * cell_bits) >= floor_target:
        n -= 1
    return n


def derive_geometry(
    expected_items: int,
    fp_target: float,
    cell_width: int = 64,
    table: PrimeTable | None = None,
) -> FilterGeometry:
    """Derive the prime X-by-Y shape for a capacity and false-positive target.

    ``fp_target`` sets the classic bit budget and hash count, and the
    shape then halves both: it keeps about half the budget as usable
    bits and probes them with half the hash count.  The shape is
    therefore not built for ``fp_target``.  At capacity it delivers the
    Bloom rate of its own usable bits ``m = rows*cols*cell_bits`` and
    ``k = hash_count``, ``p* = (1 - (1 - 1/m)^(k*n))^k``: about 0.021 at
    n = 10**5 and 0.036 at n = 10**6 for ``fp_target = 0.001``.  Reaching
    ``fp_target`` would take at least ``log2(1/fp_target)`` bits per item
    (9.97 for 0.001), more than the 6.9 to 8.1 usable bits this shape
    keeps at these sizes.

    Raises :class:`GeometryUnderflowError` when the capacity is too small
    for the three-slot dimension offsets, naming the smallest supported
    capacity, and propagates :class:`PrimeTableExhaustedError` when the
    dimension target outruns the table.
    """
    if cell_width not in SUPPORTED_CELL_WIDTHS:
        raise ValueError(
            f"cell_width must be one of {SUPPORTED_CELL_WIDTHS}, got {cell_width}"
        )
    table = table if table is not None else default_table()
    cell_bits = largest_prime_at_most(table, cell_width)
    bits = optimal_bits(expected_items, fp_target)
    cell_target = bits // (2 * cell_bits)
    dim_target = math.sqrt(cell_target)
    prime_index = select_prime(table, dim_target)
    if prime_index < _DIM_OFFSET:
        raise GeometryUnderflowError(
            f"expected_items={expected_items} is too small for a two-dimensional "
            f"shape at fp_target={fp_target} and cell_width={cell_width}; the "
            f"smallest supported value is "
            f"{min_supported_items(fp_target, cell_width, table)}"
        )
    if prime_index + _DIM_OFFSET >= len(table):
        raise PrimeTableExhaustedError(
            f"prime table with limit {table.limit} cannot place a dimension "
            f"{_DIM_OFFSET} slots above index {prime_index}"
        )
    rows = int(table.primes[prime_index + _DIM_OFFSET])
    cols = int(table.primes[prime_index - _DIM_OFFSET])
    half_hashes = max(
        1, _round_half_up(optimal_hash_count(bits, expected_items) / 2)
    )
    trace = SizingTrace(
        expected_items=expected_items,
        fp_target=fp_target,
        bits=bits,
        cell_target=cell_target,
        dim_target=dim_target,
        prime_index=prime_index,
    )
    return FilterGeometry(
        rows=rows,
        cols=cols,
        cell_bits=cell_bits,
        hash_count=half_hashes,
        cell_width=cell_width,
        trace=trace,
    )

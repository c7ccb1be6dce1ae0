"""Brute-force references used to check the hash kernel and the 2D filter."""

from __future__ import annotations

import math

from bloom2d.geometry import FilterGeometry
from bloom2d.hashing import hash_key


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0xC6A4A7935BD1E995


def single_pass_digest(key: bytes, seed: int, stride: int) -> int:
    """The H1..H9 digest computed the direct way: one pass over the key that
    loads, mixes and folds each block into the seeded state in turn.

    Written out independently of ``bloom2d.hashing``, whose two-stage
    kernel (mix every block once, then fold per seed) must equal it.
    """
    h = (seed ^ (len(key) * _MULT) ^ (stride * 0x9E3779B97F4A7C15)) & _MASK64
    for off in range(0, len(key), stride):
        k = int.from_bytes(key[off : off + stride], "little")
        k = (k & _MASK64) ^ (k >> 64)
        k = (k * _MULT) & _MASK64
        k ^= k >> 47
        k = (k * _MULT) & _MASK64
        h ^= k
        h = (h * _MULT) & _MASK64
    h ^= h >> 47
    h = (h * _MULT) & _MASK64
    h ^= h >> 47
    return h


class BitMatrixOracle:
    """Literal application of the per-probe OR / guarded-XOR / AND-shift
    rules on a plain Python nested list, with the same digests the real
    filter computes.

    Deliberately naive: this is the independent reference the filter is
    checked against, so it shares no array or addressing code with it.
    """

    def __init__(self, geometry: FilterGeometry, variant, seeds) -> None:
        self.geometry = geometry
        self.variant = variant
        self.seeds = list(seeds)
        self.cells = [[0] * geometry.cols for _ in range(geometry.rows)]

    def _addresses(self, key: bytes):
        for seed in self.seeds:
            digest = hash_key(key, seed, self.variant)
            row = digest % self.geometry.rows
            col = digest % self.geometry.cols
            shift = digest % self.geometry.cell_bits
            yield row, col, shift, 1 << shift

    def insert(self, key: bytes) -> None:
        for row, col, _shift, mask in self._addresses(key):
            self.cells[row][col] = self.cells[row][col] | mask

    def remove(self, key: bytes) -> None:
        for row, col, _shift, mask in self._addresses(key):
            value = self.cells[row][col]
            self.cells[row][col] = (value ^ mask) if (value & mask) == mask else value

    def lookup(self, key: bytes) -> bool:
        for row, col, shift, mask in self._addresses(key):
            if (self.cells[row][col] & mask) >> shift != 1:
                return False
        return True


def designed_fpp(geometry: FilterGeometry, items: int) -> float:
    """False-positive rate a Bloom filter of this shape is built for.

    ``p* = (1 - (1 - 1/m)^(k*n))^k`` (Broder & Mitzenmacher, Internet
    Math. 2004) with ``m = rows*cols*cell_bits`` usable bits, ``k =
    hash_count`` probes and ``n = items`` keys inserted.  Reads only the
    geometry fields, never a filter's cells, so it is fixed before any
    insert.
    """
    m = geometry.rows * geometry.cols * geometry.cell_bits
    k = geometry.hash_count
    return (-math.expm1(k * items * math.log1p(-1 / m))) ** k


def fpp_bound(rate: float, queries: int) -> float:
    """``rate`` plus 4 binomial standard errors over ``queries`` absent queries."""
    return rate + 4 * math.sqrt(rate * (1 - rate) / queries)

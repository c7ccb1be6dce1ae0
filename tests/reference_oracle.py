"""Brute-force references used to check the hash kernel and the filters."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bloom2d.geometry import FilterGeometry


_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0xC6A4A7935BD1E995


@dataclass(frozen=True)
class CellAddress:
    """Where a digest lands: cell (row, col), bit index, and its mask."""

    row: int
    col: int
    bit: int
    mask: int


def cell_address(digest: int, geometry: FilterGeometry) -> CellAddress:
    """Map a 64-bit digest onto (row, col, bit) by independent moduli, as
    the 2D filter's scalar and batch paths do inline."""
    bit = digest % geometry.cell_bits
    return CellAddress(
        row=digest % geometry.rows,
        col=digest % geometry.cols,
        bit=bit,
        mask=1 << bit,
    )


def single_pass_digest(key: bytes, seed: int, stride: int) -> int:
    """The H1..H9 digest computed the direct way: one pass over the key that
    loads, mixes and folds each block into the seeded state in turn.

    Written out independently of ``bloom2d.hashing``, whose kernels (the
    scalar one folds every seed at once in lanes of one int, the batch one
    mixes every block once, then folds per seed) must equal it.
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
    rules on a plain Python nested list, with digests from
    :func:`single_pass_digest`, which must equal the real filter's.

    Deliberately naive: this is the independent reference the filter is
    checked against, so it shares no array or addressing code with it.
    """

    def __init__(self, geometry: FilterGeometry, variant, seeds) -> None:
        self.geometry = geometry
        self.stride = int(variant)
        self.seeds = list(seeds)
        self.cells = [[0] * geometry.cols for _ in range(geometry.rows)]

    def _addresses(self, key: bytes):
        for seed in self.seeds:
            digest = single_pass_digest(key, seed, self.stride)
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


class CrtFlatOracle:
    """The 2D filter as a flat bitmap of ``M = rows*cols*cell_bits`` bits:
    a probe with digest d sets or clears bit ``d mod M`` of a plain
    ``bytearray``, one byte per bit.

    :meth:`cells` maps each set bit p to cell ``(p mod rows, p mod
    cols)``, bit ``p mod cell_bits``.  The three moduli are pairwise
    coprime, so by the Chinese remainder theorem that triple is the
    filter's own address of every digest d with ``d mod M = p``: the
    cells it builds must equal the filter's bit for bit.  It takes its
    digests from the caller and shares no addressing code with the
    filter.
    """

    def __init__(self, geometry: FilterGeometry) -> None:
        self.geometry = geometry
        self.modulus = geometry.rows * geometry.cols * geometry.cell_bits
        self.bitmap = bytearray(self.modulus)

    def set(self, digest: int) -> None:
        self.bitmap[digest % self.modulus] = 1

    def clear(self, digest: int) -> None:
        self.bitmap[digest % self.modulus] = 0

    def cells(self) -> list[list[int]]:
        g = self.geometry
        cells = [[0] * g.cols for _ in range(g.rows)]
        p = self.bitmap.find(1)
        while p >= 0:
            cells[p % g.rows][p % g.cols] |= 1 << (p % g.cell_bits)
            p = self.bitmap.find(1, p + 1)
        return cells


class DoubleHashingOracle:
    """Plain-Python flat Bloom filter: the SBF when ``counting`` is false,
    the CBF with 4-bit saturating counters when it is true.

    Probe positions are ``(h1 + i*h2) mod 2^64 mod bits`` for i in
    [0, hash_count), with h1 and h2 taken from :func:`single_pass_digest`
    under the filter's two seeds.  Storage is a plain list of ints, one per
    position: a bit for the SBF, a counter capped at 15 for the CBF.
    """

    def __init__(self, bits, hash_count, variant, seeds, counting: bool) -> None:
        self.bits = bits
        self.hash_count = hash_count
        self.stride = int(variant)
        self.seeds = list(seeds)
        self.cap = 15 if counting else 1
        self.slots = [0] * bits

    def _positions(self, key: bytes) -> list[int]:
        h1 = single_pass_digest(key, self.seeds[0], self.stride)
        h2 = single_pass_digest(key, self.seeds[1], self.stride)
        return [((h1 + i * h2) % 2**64) % self.bits for i in range(self.hash_count)]

    def insert(self, key: bytes) -> None:
        for pos in self._positions(key):
            self.slots[pos] = min(self.slots[pos] + 1, self.cap)

    def remove(self, key: bytes) -> None:
        """Counting form only: decrement counters neither empty nor capped."""
        for pos in self._positions(key):
            if 0 < self.slots[pos] < self.cap:
                self.slots[pos] -= 1

    def lookup(self, key: bytes) -> bool:
        return all(self.slots[pos] for pos in self._positions(key))

    def words(self) -> list[int]:
        """The bit list packed into 64-bit words, bit i of word w at w*64+i."""
        return [
            sum(bit << i for i, bit in enumerate(self.slots[w : w + 64]))
            for w in range(0, self.bits, 64)
        ]


def key_matrix(keys: list[bytes], length: int) -> np.ndarray:
    """The keys, all ``length`` bytes long, as a (len(keys), length) uint8 matrix."""
    return np.array([list(key) for key in keys], dtype=np.uint8).reshape(len(keys), length)


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


def deletion_fn_rate(geometry: FilterGeometry, removed: int) -> float:
    """Share of kept keys a 2D filter answers absent after ``removed``
    inserted keys are removed, one ``remove`` each.

    A kept key loses a bit when one of the ``k*r`` probes of the removed
    keys lands on one of its ``k`` bits, so ``1 - (1 - 1/m)^(k^2*r)``,
    with ``m = rows*cols*cell_bits`` usable bits, ``k = hash_count`` and
    ``r = removed``: about ``k^2*r/m`` while that is small.  It rests on
    the independence assumption :func:`designed_fpp` makes.
    """
    m = geometry.rows * geometry.cols * geometry.cell_bits
    k = geometry.hash_count
    return -math.expm1(k * k * removed * math.log1p(-1 / m))


def fpp_bound(rate: float, queries: int) -> float:
    """``rate`` plus 4 binomial standard errors over ``queries`` absent queries."""
    return rate + 4 * math.sqrt(rate * (1 - rate) / queries)

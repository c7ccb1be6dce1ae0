"""The two-dimensional Bloom filter.

Each membership probe derives a row, a column and a bit position from a
single 64-bit digest by three independent moduli; an item occupies one
bit in one cell per hash seed.  Insertion ORs those bits in, lookup
requires all of them, and deletion XORs them back out when present.

Deletion caveat: bits are shared, so removing a key that collides with
another inserted key on some probe can introduce a false negative for
the other key.  Callers that need safe deletion under collisions should
use :class:`~bloom2d.baselines.CountingBloomFilter` instead.

A filter instance tolerates one writer or any number of concurrent
readers; there is no internal synchronisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import FilterGeometry, derive_geometry
from .hashing import HashVariant, derive_seeds, fold_batch, fold_key, mix_batch, mix_key


@dataclass(frozen=True)
class CellAddress:
    """Where a digest lands: cell (row, col), bit index, and its mask."""

    row: int
    col: int
    bit: int
    mask: int


def cell_address(digest: int, geometry: FilterGeometry) -> CellAddress:
    """Map a 64-bit digest onto (row, col, bit) by independent moduli."""
    bit = digest % geometry.cell_bits
    return CellAddress(
        row=digest % geometry.rows,
        col=digest % geometry.cols,
        bit=bit,
        mask=1 << bit,
    )


class TwoDBloomFilter:
    """Prime-dimension matrix of fixed-width cells with bit-level deletion.

    ``hash_calls`` counts digest computations (one per probe) and exists
    purely for benchmark instrumentation; ``inserted_count`` is
    bookkeeping and never gates any operation.
    """

    def __init__(
        self,
        geometry: FilterGeometry,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        if seeds is None:
            seeds = derive_seeds(geometry.hash_count)
        if len(seeds) != geometry.hash_count:
            raise ValueError(
                f"need {geometry.hash_count} seeds, got {len(seeds)}"
            )
        self.geometry = geometry
        self.variant = HashVariant(variant)
        self.seeds = tuple(int(s) for s in seeds)
        self.cells = np.zeros((geometry.rows, geometry.cols), dtype=np.uint64)
        self.inserted_count = 0
        self.hash_calls = 0

    @classmethod
    def for_capacity(
        cls,
        expected_items: int,
        fp_target: float,
        cell_width: int = 64,
        variant: HashVariant = HashVariant.H4,
    ) -> "TwoDBloomFilter":
        """Filter with the shape :func:`derive_geometry` gives.

        ``fp_target`` sets the classic budget, which the shape halves, so
        the rate at ``expected_items`` is that shape's Bloom rate p*, not
        ``fp_target``: about 0.021 at 10**5 items and 0.036 at 10**6 for
        ``fp_target = 0.001``.
        """
        return cls(derive_geometry(expected_items, fp_target, cell_width), variant)

    def insert(self, key: bytes) -> None:
        """Set one bit per seed; re-inserting a key changes no cell."""
        blocks = mix_key(key, self.variant)
        for seed in self.seeds:
            addr = cell_address(fold_key(blocks, seed), self.geometry)
            self.cells[addr.row, addr.col] |= np.uint64(addr.mask)
        self.hash_calls += len(self.seeds)
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        """True iff every probe bit is set; never false for an inserted,
        non-deleted key."""
        blocks = mix_key(key, self.variant)
        for seed in self.seeds:
            self.hash_calls += 1
            addr = cell_address(fold_key(blocks, seed), self.geometry)
            if not (int(self.cells[addr.row, addr.col]) >> addr.bit) & 1:
                return False
        return True

    def remove(self, key: bytes) -> None:
        """Clear each probe bit that is currently set (see deletion caveat)."""
        blocks = mix_key(key, self.variant)
        for seed in self.seeds:
            addr = cell_address(fold_key(blocks, seed), self.geometry)
            cell = int(self.cells[addr.row, addr.col])
            if (cell >> addr.bit) & 1:
                self.cells[addr.row, addr.col] = np.uint64(cell ^ addr.mask)
        self.hash_calls += len(self.seeds)
        self.inserted_count = max(0, self.inserted_count - 1)

    def insert_batch(self, keys: np.ndarray) -> None:
        """Insert every row of a ``(count, length)`` uint8 key matrix."""
        blocks = mix_batch(keys, self.variant)
        count = blocks.words.shape[1]
        g = self.geometry
        flat = self.cells.reshape(-1)
        for seed in self.seeds:
            digests = fold_batch(blocks, seed)
            rows = (digests % np.uint64(g.rows)).astype(np.intp)
            cols = (digests % np.uint64(g.cols)).astype(np.intp)
            bits = digests % np.uint64(g.cell_bits)
            np.bitwise_or.at(flat, rows * g.cols + cols, np.uint64(1) << bits)
        self.hash_calls += len(self.seeds) * count
        self.inserted_count += count

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised lookup returning a boolean per row.

        Later probes are only evaluated for keys still alive, mirroring
        the scalar short-circuit, so the digest count per query is at
        most ``hash_count``.  The keys' block words are mixed once and
        each seed folds only the surviving keys' columns of them.
        """
        blocks = mix_batch(keys, self.variant)
        count = blocks.words.shape[1]
        result = np.ones(count, dtype=bool)
        alive = np.arange(count)
        g = self.geometry
        flat = self.cells.reshape(-1)
        for seed in self.seeds:
            if alive.size == 0:
                break
            digests = fold_batch(blocks, seed)
            self.hash_calls += int(alive.size)
            rows = (digests % np.uint64(g.rows)).astype(np.intp)
            cols = (digests % np.uint64(g.cols)).astype(np.intp)
            bits = digests % np.uint64(g.cell_bits)
            hit = ((flat[rows * g.cols + cols] >> bits) & np.uint64(1)).astype(bool)
            result[alive[~hit]] = False
            alive = alive[hit]
            if alive.size < hit.size:
                blocks = blocks._replace(words=blocks.words[:, hit])
        return result

    def memory_bits(self) -> int:
        """Physical footprint in bits: rows * cols * cell_width."""
        return self.geometry.memory_bits

    def count_set_bits(self) -> int:
        return int(np.unpackbits(self.cells.view(np.uint8)).sum())

    def fill_fraction(self) -> float:
        """Fraction of the usable (rows * cols * cell_bits) bits set."""
        g = self.geometry
        return self.count_set_bits() / (g.rows * g.cols * g.cell_bits)

    def save(self, path) -> None:
        from . import snapshot

        snapshot.save_filter(self, path)

    @classmethod
    def load(cls, path) -> "TwoDBloomFilter":
        from . import snapshot

        loaded = snapshot.load_filter(path)
        if not isinstance(loaded, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__} snapshot")
        return loaded

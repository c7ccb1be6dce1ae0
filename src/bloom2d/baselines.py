"""Flat Bloom filter and counting Bloom filter baselines.

Both are sized from the same (expected_items, fp_target) inputs as the
two-dimensional filter and hash with the same digest family, so benchmark
differences reflect structure rather than hash choice.  Probe positions
come from double hashing: two digests h1, h2 per key and positions
``(h1 + i*h2) mod 2^64 mod m`` for i in [0, k).

Concurrency contract matches the core filter: one writer or any number
of readers per instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import optimal_bits, optimal_hash_count
from .hashing import HashVariant, derive_seeds, fold_batch, fold_key, mix_batch, mix_key

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _DoubleHashingFilter:
    """Shared sizing, hashing and probe-position plumbing."""

    def __init__(
        self,
        expected_items: int,
        fp_target: float,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        self.bits = optimal_bits(expected_items, fp_target)
        self.hash_count = optimal_hash_count(self.bits, expected_items)
        self.expected_items = expected_items
        self.fp_target = fp_target
        self.variant = HashVariant(variant)
        if seeds is None:
            seeds = derive_seeds(2)
        if len(seeds) != 2:
            raise ValueError(f"double hashing needs exactly 2 seeds, got {len(seeds)}")
        self.seeds = tuple(int(s) for s in seeds)
        self.inserted_count = 0
        # instrumentation: digests computed / probe positions touched
        self.hash_calls = 0
        self.probe_calls = 0

    def _positions(self, key: bytes) -> list[int]:
        blocks = mix_key(key, self.variant)
        h1 = fold_key(blocks, self.seeds[0])
        h2 = fold_key(blocks, self.seeds[1])
        self.hash_calls += 2
        return [((h1 + i * h2) & _MASK64) % self.bits for i in range(self.hash_count)]

    def _position_matrix(self, keys: np.ndarray) -> np.ndarray:
        """(hash_count, count) probe positions for a uint8 key matrix."""
        blocks = mix_batch(keys, self.variant)
        h1 = fold_batch(blocks, self.seeds[0])
        h2 = fold_batch(blocks, self.seeds[1])
        self.hash_calls += 2 * h1.size
        positions = np.arange(self.hash_count, dtype=np.uint64)[:, None] * h2
        positions += h1
        positions %= np.uint64(self.bits)
        return positions


class StandardBloomFilter(_DoubleHashingFilter):
    """Classic m-bit Bloom filter; no deletion, no false negatives."""

    def __init__(
        self,
        expected_items: int,
        fp_target: float,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        super().__init__(expected_items, fp_target, variant, seeds)
        self.words = np.zeros((self.bits + 63) // 64, dtype=np.uint64)

    def insert(self, key: bytes) -> None:
        for pos in self._positions(key):
            self.words[pos >> 6] |= np.uint64(1 << (pos & 63))
        self.probe_calls += self.hash_count
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        for pos in self._positions(key):
            self.probe_calls += 1
            if not (int(self.words[pos >> 6]) >> (pos & 63)) & 1:
                return False
        return True

    def insert_batch(self, keys: np.ndarray) -> None:
        positions = self._position_matrix(keys)
        for row in positions:
            idx = (row >> np.uint64(6)).astype(np.intp)
            np.bitwise_or.at(self.words, idx, np.uint64(1) << (row & np.uint64(63)))
        self.probe_calls += positions.size
        self.inserted_count += positions.shape[1]

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        positions = self._position_matrix(keys)
        count = positions.shape[1]
        result = np.ones(count, dtype=bool)
        alive = np.arange(count)
        for row in positions:
            if alive.size == 0:
                break
            pos = row[alive]
            self.probe_calls += int(alive.size)
            hit = (self.words[(pos >> np.uint64(6)).astype(np.intp)]
                   >> (pos & np.uint64(63))) & np.uint64(1)
            result[alive[hit == 0]] = False
            alive = alive[hit == 1]
        return result

    def memory_bits(self) -> int:
        """Logical footprint: exactly the sized bit budget m."""
        return self.bits

    def count_set_bits(self) -> int:
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def save(self, path) -> None:
        from . import snapshot

        snapshot.save_filter(self, path)

    @classmethod
    def load(cls, path) -> "StandardBloomFilter":
        from . import snapshot

        loaded = snapshot.load_filter(path)
        if not isinstance(loaded, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__} snapshot")
        return loaded


class CountingBloomFilter(_DoubleHashingFilter):
    """Bloom filter over m four-bit saturating counters, so removal works.

    Counters cap at 15; a capped counter is pinned and never decremented,
    which keeps undercounting (hence false negatives) impossible at the
    cost of the pinned counter never draining.  Logical memory is 4 bits
    per counter even though storage is one byte each.
    """

    COUNTER_MAX = 15

    def __init__(
        self,
        expected_items: int,
        fp_target: float,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        super().__init__(expected_items, fp_target, variant, seeds)
        self.counters = np.zeros(self.bits, dtype=np.uint8)

    def insert(self, key: bytes) -> None:
        for pos in self._positions(key):
            value = int(self.counters[pos])
            if value < self.COUNTER_MAX:
                self.counters[pos] = value + 1
        self.probe_calls += self.hash_count
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        for pos in self._positions(key):
            self.probe_calls += 1
            if self.counters[pos] == 0:
                return False
        return True

    def remove(self, key: bytes) -> None:
        """Decrement the key's counters, skipping saturated and empty ones."""
        for pos in self._positions(key):
            value = int(self.counters[pos])
            if 0 < value < self.COUNTER_MAX:
                self.counters[pos] = value - 1
        self.probe_calls += self.hash_count
        self.inserted_count = max(0, self.inserted_count - 1)

    def insert_batch(self, keys: np.ndarray) -> None:
        positions = self._position_matrix(keys)
        # one saturating add per call: each position's increments are
        # counted in int64 first, so no number of repeats wraps a uint8
        idx, n = np.unique(positions.ravel(), return_counts=True)
        self.counters[idx] = np.minimum(self.counters[idx] + n, self.COUNTER_MAX)
        self.probe_calls += positions.size
        self.inserted_count += positions.shape[1]

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        positions = self._position_matrix(keys)
        count = positions.shape[1]
        result = np.ones(count, dtype=bool)
        alive = np.arange(count)
        for row in positions:
            if alive.size == 0:
                break
            self.probe_calls += int(alive.size)
            hit = self.counters[row[alive].astype(np.intp)] > 0
            result[alive[~hit]] = False
            alive = alive[hit]
        return result

    def memory_bits(self) -> int:
        """Logical footprint: four bits per counter."""
        return 4 * self.bits

    def save(self, path) -> None:
        from . import snapshot

        snapshot.save_filter(self, path)

    @classmethod
    def load(cls, path) -> "CountingBloomFilter":
        from . import snapshot

        loaded = snapshot.load_filter(path)
        if not isinstance(loaded, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__} snapshot")
        return loaded

"""Flat Bloom filter and counting Bloom filter baselines.

Both are sized from the same (expected_items, fp_target) inputs as the
two-dimensional filter and hash with the same digest family, so benchmark
differences reflect structure rather than hash choice.  Probe positions
come from double hashing: two digests h1, h2 per key and positions
``(h1 + i*h2) mod 2^64 mod m`` for i in [0, k).

Positions are derived by a running sum, ``g <- (g + h2) mod 2^64`` from
``g = h1``, one probe at a time.  Lookups derive a position only for keys
still alive, so they stop at a key's first empty slot, and batch paths
never hold the k x count position matrix, except the counting filter's
batch insert, which sorts it once for its saturating add.

Scalar operations read and write storage through a ``memoryview`` made
on each call, as the core filter's do.  Concurrency contract matches the
core filter: one writer or any number of readers per instance.
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

    def _digests(self, key: bytes) -> tuple[int, int]:
        """The key's (h1, h2): its blocks mixed once, folded per seed."""
        blocks = mix_key(key, self.variant)
        self.hash_calls += 2
        return fold_key(blocks, self.seeds[0]), fold_key(blocks, self.seeds[1])

    def _digest_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) as two fresh uint64 arrays for a uint8 key matrix."""
        blocks = mix_batch(keys, self.variant)
        h1 = fold_batch(blocks, self.seeds[0])
        h2 = fold_batch(blocks, self.seeds[1])
        self.hash_calls += 2 * h1.size
        return h1, h2

    def _positions(self, key: bytes) -> list[int]:
        g, step = self._digests(key)
        positions = []
        for _ in range(self.hash_count):
            positions.append(g % self.bits)
            g = (g + step) & _MASK64
        return positions

    def _position_matrix(self, keys: np.ndarray) -> np.ndarray:
        """(hash_count, count) probe positions for a uint8 key matrix."""
        g, step = self._digest_batch(keys)
        m = np.uint64(self.bits)
        positions = np.empty((self.hash_count, g.size), dtype=np.uint64)
        for row in positions:
            np.remainder(g, m, out=row)
            g += step
        return positions

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        """Whether the slot at each uint64 position is nonzero.

        A position is below ``bits``, far below 2^63, so its int64 view
        is the same index.
        """
        raise NotImplementedError

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        g, step = self._digest_batch(keys)
        result = np.ones(g.size, dtype=bool)
        alive = np.arange(g.size)
        m = np.uint64(self.bits)
        for _ in range(self.hash_count):
            self.probe_calls += int(alive.size)
            hit = self._slots_set(g % m)
            if not hit.all():
                result[alive[~hit]] = False
                alive, g, step = alive[hit], g[hit], step[hit]
                if alive.size == 0:
                    break
            g += step  # uint64 arrays wrap mod 2^64
        return result


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
        words = memoryview(self.words)
        for pos in self._positions(key):
            words[pos >> 6] |= 1 << (pos & 63)
        self.probe_calls += self.hash_count
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        words = memoryview(self.words)
        g, step = self._digests(key)
        bits = self.bits
        for i in range(self.hash_count):
            pos = g % bits
            if not (words[pos >> 6] >> (pos & 63)) & 1:
                self.probe_calls += i + 1
                return False
            g = (g + step) & _MASK64
        self.probe_calls += self.hash_count
        return True

    def insert_batch(self, keys: np.ndarray) -> None:
        g, step = self._digest_batch(keys)
        m = np.uint64(self.bits)
        for _ in range(self.hash_count):
            pos = g % m
            idx = (pos >> np.uint64(6)).view(np.int64)
            np.bitwise_or.at(self.words, idx, np.uint64(1) << (pos & np.uint64(63)))
            g += step
        self.probe_calls += self.hash_count * g.size
        self.inserted_count += g.size

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        bit = self.words[(pos >> np.uint64(6)).view(np.int64)]
        bit >>= pos & np.uint64(63)
        bit &= np.uint64(1)
        return bit.astype(bool)

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
        counters = memoryview(self.counters)
        for pos in self._positions(key):
            value = counters[pos]
            if value < self.COUNTER_MAX:
                counters[pos] = value + 1
        self.probe_calls += self.hash_count
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        counters = memoryview(self.counters)
        g, step = self._digests(key)
        bits = self.bits
        for i in range(self.hash_count):
            if not counters[g % bits]:
                self.probe_calls += i + 1
                return False
            g = (g + step) & _MASK64
        self.probe_calls += self.hash_count
        return True

    def remove(self, key: bytes) -> None:
        """Decrement the key's counters, skipping saturated and empty ones."""
        counters = memoryview(self.counters)
        for pos in self._positions(key):
            value = counters[pos]
            if 0 < value < self.COUNTER_MAX:
                counters[pos] = value - 1
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

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        return self.counters[pos.view(np.int64)] != 0

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

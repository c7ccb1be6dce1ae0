"""Flat Bloom filter and counting Bloom filter baselines.

The constructor sizes both from the same (expected_items, fp_target)
inputs as the two-dimensional filter; ``from_shape`` builds one from its
slot count m and probe count k instead, as a snapshot load does.  Both
hash with the 2D filter's digest family, so benchmark differences reflect
structure rather than hash choice.  Probe positions
come from double hashing: two digests h1, h2 per key and positions
``(h1 + i*h2) mod 2^64 mod m`` for i in [0, k).

Positions are derived by a running sum, ``g <- (g + h2) mod 2^64`` from
``g = h1``, one probe at a time; batch paths take ``g mod m`` through the
quotient, ``g - (g // m) * m`` (:func:`~bloom2d.core.mod_batch`), the
same value.  Lookups derive a position only for keys still alive, so
they stop at a key's first empty slot, and batch paths never hold the
k x count position matrix, except the counting filter's batch insert,
which sorts it once per slice of at most ``SLICE_KEYS`` keys (see
:mod:`bloom2d.core`) for its saturating add.

Scalar operations read and write storage through a ``memoryview`` made
on each call, as the core filter's do.  Concurrency contract matches the
core filter: one writer or any number of readers per instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import _Filter, mod_batch
from .geometry import optimal_bits, optimal_hash_count
from .hashing import HashVariant, fold_batch, hash_key_seeds, mix_batch

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _DoubleHashingFilter(_Filter):
    """Shared sizing, hashing and probe-position plumbing.

    ``hash_calls`` counts digests computed, two per key, and
    ``probe_calls`` the probe positions touched.
    """

    def __init__(
        self,
        expected_items: int,
        fp_target: float,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        super().__init__(variant, seeds, 2)
        self.probe_calls = 0
        bits = optimal_bits(expected_items, fp_target)
        self._shape(bits, optimal_hash_count(bits, expected_items))

    @classmethod
    def from_shape(
        cls,
        bits: int,
        hash_count: int,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ):
        """An empty filter of ``bits`` slots and ``hash_count`` probes per key."""
        f = cls(1, 0.5, variant, seeds)  # sized for one item, then reshaped
        f._shape(bits, hash_count)
        return f

    def _shape(self, bits: int, hash_count: int) -> None:
        # the sizing rule gives 1 <= hash_count <= bits for every filter
        if not 1 <= hash_count <= bits:
            raise ValueError(
                f"flat filter needs 1 <= hash_count <= bits, "
                f"got hash_count {hash_count} and bits {bits}"
            )
        self.bits = bits
        self.hash_count = hash_count
        self._allocate()

    def _allocate(self) -> None:
        """Give the filter empty storage for ``bits`` slots."""
        raise NotImplementedError

    def _digests(self, key: bytes) -> tuple[int, int]:
        """The key's (h1, h2), both from one pass over the key."""
        self.hash_calls += 2
        return hash_key_seeds(key, self.seeds, self.variant)

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
        positions = np.empty((self.hash_count, g.size), dtype=np.uint64)
        for row in positions:
            mod_batch(g, self.bits, out=row)
            g += step
        return positions

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        """Whether the slot at each uint64 position is nonzero.

        A position is below ``bits``, far below 2^63, so its int64 view
        is the same index.
        """
        raise NotImplementedError

    def _contains_slice(self, keys: np.ndarray) -> np.ndarray:
        """One bool per key; ``alive`` holds the survivors' row numbers,
        compacted with ``g`` and ``step`` after a probe some key misses,
        and the answers are written once, from the last survivors."""
        g, step = self._digest_batch(keys)
        count = g.size
        alive = np.arange(count)
        for _ in range(self.hash_count):
            self.probe_calls += alive.size
            hit = self._slots_set(mod_batch(g, self.bits))
            if not hit.all():
                keep = np.flatnonzero(hit)
                alive, g, step = alive.take(keep), g.take(keep), step.take(keep)
                if alive.size == 0:
                    break
            g += step  # uint64 arrays wrap mod 2^64
        result = np.zeros(count, dtype=bool)
        result[alive] = True
        return result


class StandardBloomFilter(_DoubleHashingFilter):
    """Classic m-bit Bloom filter; no deletion, no false negatives."""

    def _allocate(self) -> None:
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

    def _insert_slice(self, keys: np.ndarray) -> None:
        g, step = self._digest_batch(keys)
        for _ in range(self.hash_count):
            pos = mod_batch(g, self.bits)
            idx = (pos >> np.uint64(6)).view(np.int64)
            pos &= np.uint64(63)
            # in place: ``np.uint64(1) << (pos & 63)`` ran ~10x slower at
            # 65,536 keys, a scalar left of a temporary above 256 KiB
            np.left_shift(np.uint64(1), pos, out=pos)
            np.bitwise_or.at(self.words, idx, pos)
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


class CountingBloomFilter(_DoubleHashingFilter):
    """Bloom filter over m four-bit saturating counters, so removal works.

    Counters cap at 15; a capped counter is pinned and never decremented,
    which keeps undercounting (hence false negatives) impossible at the
    cost of the pinned counter never draining.  Logical memory is 4 bits
    per counter even though storage is one byte each.
    """

    COUNTER_MAX = 15

    def _allocate(self) -> None:
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

    def _insert_slice(self, keys: np.ndarray) -> None:
        positions = self._position_matrix(keys)
        # one saturating add per slice: each position's increments are
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

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
they stop at a key's first empty slot.  A batch insert holds one slice's
k x count position matrix (see :mod:`bloom2d.core`): the standard filter
sets its bits with :func:`~bloom2d.core.set_bits`, as the 2D filter does;
the counting filter casts it to the narrowest unsigned dtype that holds
m - 1 (uint32 up to m = 2^32) and sorts that for its saturating add.

Storage is bits packed 64 to a ``uint64`` word (standard filter) or
four-bit counters packed two to a byte (counting filter), so each
filter's array holds what its ``memory_bits`` reports, up to the padding
of its last word or byte.  Scalar operations read and write storage
through a ``memoryview`` made on each call, as the core filter's do.
Concurrency contract matches the core filter: one writer or any number
of readers per instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import _Filter, get_bits, mod_batch, set_bits
from .geometry import optimal_bits, optimal_hash_count
from .hashing import HashVariant, fold_batch, hash_key_seeds, mix_batch

_MASK64 = 0xFFFFFFFFFFFFFFFF
# The counting filter's scalar paths, indexed by a counter's parity: the
# mask of its nibble within its byte, and every byte value after one
# increment of that counter (a counter at 15 stays) or one decrement (a
# counter at 0 or 15 stays): one table read per probe is cheaper than
# masking and comparing the nibble.
_NIBBLE = (0x0F, 0xF0)


def _step_table(mask: int, step: int) -> bytes:
    """For each of the 256 byte values, the byte after adding ``step``
    (+1 or -1) to the counter under ``mask``: a counter at 15 stays, and
    so does one at 0 under -1.  Built with numpy, not a generator over
    the bytes, which slowed every cold start."""
    byte = np.arange(256)
    nibble = byte & mask
    stays = (nibble == mask) | ((nibble == 0) & (step < 0))
    return np.where(stays, byte, byte + step * (mask & 0x11)).astype(np.uint8).tobytes()


_INCREMENT = tuple(_step_table(mask, 1) for mask in _NIBBLE)
_DECREMENT = tuple(_step_table(mask, -1) for mask in _NIBBLE)
# ufunc operands of the nibble paths' own dtypes: a Python int operand
# costs each call a conversion
_ONE8, _FOUR8, _LOW8 = np.uint8(1), np.uint8(4), np.uint8(0x0F)


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

    def _digest_batch(self, keys: np.ndarray) -> np.ndarray:
        """(h1, h2) as the rows of one fresh ``(2, count)`` uint64 array."""
        digests = fold_batch(mix_batch(keys, self.variant), self.seeds)
        self.hash_calls += digests.size
        return digests

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
        is the same index.  ``pos`` is the caller's scratch array and
        may be overwritten.
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
        positions = self._position_matrix(keys)
        set_bits(self.words, positions)  # position p is bit p & 63 of word p >> 6
        self.probe_calls += positions.size
        self.inserted_count += positions.shape[1]

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        return get_bits(self.words, pos)

    def memory_bits(self) -> int:
        """Logical footprint: exactly the sized bit budget m."""
        return self.bits

    def count_set_bits(self) -> int:
        return int(np.unpackbits(self.words.view(np.uint8)).sum())


class CountingBloomFilter(_DoubleHashingFilter):
    """Bloom filter over m four-bit saturating counters, so removal works.

    The counters are stored two per byte in ``nibbles``, ``(bits + 1) // 2``
    bytes: counter i sits in the low nibble of byte ``i >> 1`` when i is
    even and in the high nibble when it is odd, and the spare high nibble
    of an odd ``bits`` stays 0.  ``memory_bits`` (4 bits per counter) is
    therefore the physical footprint.  ``counters`` unpacks them into a
    fresh read-only array of one byte per counter.

    Counters cap at 15; a capped counter is pinned and never decremented,
    because saturation has forgotten its true count, so removing inserted
    keys never undercounts it, at the cost of the pinned counter never
    draining.  ``remove`` is only safe for keys that were inserted:
    removing any other key decrements counters that inserted keys share,
    and can make an inserted key test absent (a false negative).
    """

    COUNTER_MAX = 15

    def _allocate(self) -> None:
        self.nibbles = np.zeros((self.bits + 1) // 2, dtype=np.uint8)

    @property
    def counters(self) -> np.ndarray:
        """One byte per counter, unpacked from ``nibbles`` on each access
        into a fresh array (and about ``bits`` bytes of temporaries);
        read-only, writes go through the filter's operations."""
        # each byte widened to a little-endian uint16 whose low byte keeps
        # the low nibble and whose high byte takes the high one; not a
        # stack of two nibble arrays, which is slower
        w = self.nibbles.astype("<u2")
        high = np.multiply(w, 16)
        high &= 0x0F00
        w &= 0x0F
        w |= high
        out = w.view(np.uint8)[: self.bits]
        out.flags.writeable = False
        return out

    def _load_counters(self, counters: np.ndarray) -> None:
        """Pack ``counters``, one uint8 per counter and each at most 15,
        into ``nibbles``: the inverse of :attr:`counters`."""
        # each counter pair read as one little-endian uint16, the spare
        # counter of an odd ``bits`` 0; not two strided reads and a uint8
        # ``<< 4``, which are slower
        w = np.zeros(self.nibbles.size, dtype="<u2")
        w.view(np.uint8)[: self.bits] = counters
        high = w >> 4
        high &= 0xF0
        w &= 0x0F
        np.bitwise_or(w, high, out=self.nibbles, casting="unsafe")

    def insert(self, key: bytes) -> None:
        nibbles = memoryview(self.nibbles)
        for pos in self._positions(key):
            i = pos >> 1
            nibbles[i] = _INCREMENT[pos & 1][nibbles[i]]
        self.probe_calls += self.hash_count
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        nibbles = memoryview(self.nibbles)
        g, step = self._digests(key)
        bits = self.bits
        for i in range(self.hash_count):
            pos = g % bits
            if not nibbles[pos >> 1] & _NIBBLE[pos & 1]:
                self.probe_calls += i + 1
                return False
            g = (g + step) & _MASK64
        self.probe_calls += self.hash_count
        return True

    def remove(self, key: bytes) -> None:
        """Decrement the key's counters, skipping saturated and empty ones.

        Only for a key that was inserted (and not removed since): a key
        that never went in shares some counters with keys that did, and
        decrementing those can turn an inserted key into a false negative.
        """
        nibbles = memoryview(self.nibbles)
        for pos in self._positions(key):
            i = pos >> 1
            nibbles[i] = _DECREMENT[pos & 1][nibbles[i]]
        self.probe_calls += self.hash_count
        self.inserted_count = max(0, self.inserted_count - 1)

    def _insert_slice(self, keys: np.ndarray) -> None:
        positions = self._position_matrix(keys)
        # one saturating add per slice: each position's increments are
        # counted in int64 first, so no number of repeats wraps a counter.
        # Every position is below m, so the cast to the narrowest unsigned
        # dtype that holds m - 1 is exact, and np.unique sorts the narrow
        # copy faster than uint64 positions, cast included
        idx, n = np.unique(
            positions.astype(np.min_scalar_type(self.bits - 1)), return_counts=True
        )
        byte, shift, cur = self._counters_at(idx)
        # delta = min(cur + n, 15) - cur stays inside its own nibble, so
        # adding it shifted never carries into the neighbour counter, and
        # the two counters of one byte may both add into it
        np.minimum(n, self.COUNTER_MAX, out=n)
        delta = n.astype(np.uint8)
        delta += cur
        np.minimum(delta, self.COUNTER_MAX, out=delta)
        delta -= cur
        delta <<= shift
        np.add.at(self.nibbles, byte, delta)
        self.probe_calls += positions.size
        self.inserted_count += positions.shape[1]

    def _counters_at(self, pos: np.ndarray):
        """For counter positions of any unsigned dtype (the insert's
        narrow one, the lookup's uint64): each one's byte, ``pos >> 1``,
        written over ``pos`` (an int64 view of uint64), its nibble's shift
        (0 or 4) and its counter, both uint8."""
        shift = pos.astype(np.uint8)  # the low byte holds the parity
        np.bitwise_and(shift, _ONE8, out=shift)
        # times 4, not << 2: a uint8 left shift by a scalar is numpy's slow
        # path
        np.multiply(shift, _FOUR8, out=shift)
        # by a Python int, which takes pos's own dtype: np.uint64(1) would
        # run a uint32 pos through the slower uint64 loop
        byte = np.right_shift(pos, 1, out=pos)
        if byte.dtype == np.uint64:
            # below 2^63, so the int64 view is the same index, and take
            # reads intp indices without a cast
            byte = byte.view(np.int64)
        value = self.nibbles.take(byte)
        np.right_shift(value, shift, out=value)
        np.bitwise_and(value, _LOW8, out=value)
        return byte, shift, value

    def _slots_set(self, pos: np.ndarray) -> np.ndarray:
        # as bool: np.flatnonzero is much slower on the uint8 counters
        return self._counters_at(pos)[2].astype(bool)

    def memory_bits(self) -> int:
        """Physical footprint: four bits per counter, the size of
        ``nibbles`` less the spare nibble of an odd ``bits``."""
        return 4 * self.bits

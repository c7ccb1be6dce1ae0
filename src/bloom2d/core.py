"""The two-dimensional Bloom filter.

In the paper's layout each membership probe derives a row, a column and
a bit position from a single 64-bit digest d by three moduli, d mod
rows, d mod cols and d mod cell_bits; an item occupies one bit in one
cell per hash seed.  Insertion ORs those bits in, lookup requires all
of them, and deletion clears them.

The three moduli are pairwise coprime primes, so by the Chinese
remainder theorem the triple is exactly ``d mod bits`` with ``bits =
rows * cols * cell_bits``: the filter is, bit for bit, a flat Bloom
filter of ``bits`` bits whose cells are a fixed permutation of them.
It is stored that way.  ``words`` holds probe bit ``p = d mod bits`` at
bit ``p & 63`` of word ``p >> 6``, the layout of
:class:`~bloom2d.baselines.StandardBloomFilter`, so a probe takes one
modulus and the cells' unused high bits take no storage.  The cell
layout exists only in snapshots and in the derived :attr:`cells`.

The scalar operations address with plain Python ints and read and write
``words`` through a ``memoryview`` made on each call, whose items are
Python ints.  The view is never kept on the filter, so an array later
assigned to ``words`` is the one the next call uses.

Deletion caveat: bits are shared, so removing a key that collides with
another inserted key on some probe can introduce a false negative for
the other key.  Callers that need safe deletion under collisions should
use :class:`~bloom2d.baselines.CountingBloomFilter` instead, whose
``remove`` is safe for keys that were inserted.

Batch calls walk the key matrix in row slices of at most
:data:`SLICE_KEYS` keys, so the temporaries of one call stay the size of
one slice however many keys it holds.  The 2D insert takes slices of
``max(1, SLICE_KEYS // k)`` keys, so that the ``(k, count)`` digest and
position matrices it folds, addresses and writes hold at most
``SLICE_KEYS`` values, as a lookup's one-seed rows do.  Slicing changes
no result: bits are ORed, lookups are per key, and the counting filter's
saturating add composes, min(min(c + a, 15) + b, 15) = min(c + a + b, 15).

Batch paths reduce a digest d by a modulus m through its quotient,
d - (d // m) * m (:func:`mod_batch`), which equals d mod m and avoids a
hardware divide per element.  An insert takes a slice's k probes as one
``(k, count)`` matrix and writes them with :func:`set_bits`, the one
storage write of both bit-array filters; a lookup folds one seed at a
time, reads its bits with :func:`get_bits`, the one storage read of
both, keeps the row numbers of the keys still alive, compacts them only
after a probe some key misses, and writes the answers once at the end.

A filter instance tolerates one writer or any number of concurrent
readers; there is no internal synchronisation.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from . import hashing
from .geometry import FilterGeometry, derive_geometry
from .hashing import HashVariant, derive_seeds, fold_batch, hash_key_seeds, mix_batch

# hashing.as_key_matrix (an input check) is reached through the module:
# perfbench's trace times every function imported from hashing by name as
# the hash layer.

# Keys per slice of a batch call: 65,536 keep a slice's temporaries to a
# few MiB, and 32k to 131k keys per slice ran equally fast.  The 2D insert
# cuts SLICE_KEYS // k keys: its (k, count) uint64 matrices, 2.6 MB at
# k = 5 and 65,536 keys, spill a 2 MiB L2.  Smaller slices for every call
# slowed the 2D lookups and the CBF insert, and helped the SBF insert at
# 10**6 keys but slowed it at 10**5.  Read on each call, so a test can
# patch it down.
SLICE_KEYS = 65_536


def mod_batch(
    x: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``x mod m`` for a uint64 array and a modulus ``1 <= m < 2**64``.

    Computed as ``x - (x // m) * m``, equal to ``x % m`` element for
    element: numpy divides by one invariant scalar with a multiply and a
    shift, where ``%`` runs a hardware divide per element.  The result
    goes to ``out`` if given (it must not be ``x``), else to a new array.
    """
    m = np.uint64(m)
    r = np.floor_divide(x, m, out=out)
    r *= m
    return np.subtract(x, r, out=r)


# operands of set_bits and get_bits in their arrays' own dtypes, so no
# call mixes dtypes
_ONE8, _SEVEN8, _THREE, _SEVEN = np.uint8(1), np.uint8(7), np.uint64(3), np.uint64(7)
_ONE, _SIX, _SIXTY_THREE = np.uint64(1), np.uint64(6), np.uint64(63)

# the fewest probes set_bits writes at a time, so that a small filter's
# batch is not cut into many chunks of a few probes each
_MIN_CHUNK = 8192


def set_bits(words: np.ndarray, pos: np.ndarray) -> None:
    """Set bit ``p & 63`` of word ``p >> 6`` of ``words``, a C-contiguous
    uint64 array read flat, for every ``p`` of the uint64 array ``pos``,
    which is overwritten.

    The one storage write of both bit-array batch inserts.  Each probe
    becomes a byte of a uint8 view of ``words`` and a one-bit mask.
    ``pos`` is walked in chunks of at most one probe per four bytes of
    storage (at least ``_MIN_CHUNK``).  A round gathers a chunk's bytes,
    ORs each probe's mask in and writes the results back with
    ``np.maximum.at``, which runs numpy's indexed loop.  The maximum of
    cur | a and cur | b is one of the two, so a round sets no bit no
    probe asked for; where probes with different bits meet in one byte,
    only the highest is set, and the probes whose bit is still clear go
    round again.  Each round sets a pending bit of every byte a probe
    still waits on, so a chunk takes at most 8 rounds, and as a chunk
    puts few probes on one byte, the rounds after the first are small.

    Bit b of word w is in byte ``8w + (b >> 3)`` on little-endian storage
    and ``8w + 7 - (b >> 3)`` on big-endian, taken from ``words``' dtype,
    not from the host.
    """
    flat = words.reshape(-1).view(np.uint8)
    pos = pos.reshape(-1)
    big_endian = words.dtype.str[0] == ">"
    step = max(flat.size // 4, _MIN_CHUNK)
    for start in range(0, pos.size, step):
        _set_chunk(flat, pos[start : start + step], big_endian)


def _set_chunk(flat: np.ndarray, pos: np.ndarray, big_endian: bool) -> None:
    """The rounds of :func:`set_bits` for one chunk of positions."""
    mask = pos.astype(np.uint8)
    mask &= _SEVEN8
    np.left_shift(_ONE8, mask, out=mask)
    byte = np.right_shift(pos, _THREE, out=pos)
    if big_endian:
        byte ^= _SEVEN
    byte = byte.view(np.int64)  # below 2^61
    while True:
        new = flat.take(byte)
        new |= mask
        np.maximum.at(flat, byte, new)
        flat.take(byte, out=new)
        new &= mask
        lost = (new == 0).nonzero()[0]
        if not lost.size:
            return
        byte, mask = byte.take(lost), mask.take(lost)


def get_bits(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Whether bit ``p & 63`` of word ``p >> 6`` of the 1-D uint64 array
    ``words`` is set, as one bool for every ``p`` of the uint64 array
    ``pos``.

    The one storage read of both bit-array lookups.  A position lies
    below the filter's bit count, far below 2^63, so the int64 view of
    its word number is the same index.
    """
    bit = words[(pos >> _SIX).view(np.int64)]
    bit >>= pos & _SIXTY_THREE
    bit &= _ONE
    return bit.astype(bool)


def _rotate_left(x: np.ndarray, by: np.ndarray, width: int) -> np.ndarray:
    """Each ``width``-bit value of the uint64 array ``x`` rotated left by
    the matching uint64 count of ``by``, which lies in [0, width]."""
    out = x << by
    out |= x >> (np.uint64(width) - by)
    out &= np.uint64((1 << width) - 1)
    return out


class _Filter:
    """What every filter holds besides its storage: the hash variant, one
    seed per digest a key needs, the bookkeeping ``inserted_count`` (it
    never gates an operation), the instrumentation counter ``hash_calls``,
    and the snapshot ``save``/``load`` pair.

    It also owns the batch entry points: ``insert_batch`` and
    ``contains_batch`` hand each row slice of at most ``SLICE_KEYS`` keys
    (the 2D insert: ``SLICE_KEYS // k``) to the filter's
    ``_insert_slice``/``_contains_slice``.  A matrix of no more keys than
    that, an empty one included, is handed over whole.
    """

    def __init__(
        self, variant: HashVariant, seeds: Sequence[int] | None, seed_count: int
    ) -> None:
        if seeds is None:
            seeds = derive_seeds(seed_count)
        if len(seeds) != seed_count:
            raise ValueError(f"need {seed_count} seeds, got {len(seeds)}")
        self.variant = HashVariant(variant)
        self.seeds = tuple(operator.index(s) for s in seeds)  # 1.9 raises, not 1
        if len(set(self.seeds)) < seed_count or any(not 0 <= s < 1 << 64 for s in self.seeds):
            raise ValueError(f"seeds must be distinct and in [0, 2**64), got {self.seeds}")
        self.inserted_count = 0
        self.hash_calls = 0

    @staticmethod
    def _slices(keys: np.ndarray, size: int):
        keys = hashing.as_key_matrix(keys)
        if len(keys) <= size:
            return (keys,)
        return (keys[start : start + size] for start in range(0, len(keys), size))

    def insert_batch(self, keys: np.ndarray) -> None:
        """Insert every row of a ``(count, length)`` uint8 key matrix."""
        for part in self._slices(keys, SLICE_KEYS):
            self._insert_slice(part)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """One bool per row of a ``(count, length)`` uint8 key matrix."""
        answers = [self._contains_slice(part) for part in self._slices(keys, SLICE_KEYS)]
        return answers[0] if len(answers) == 1 else np.concatenate(answers)

    def _insert_slice(self, keys: np.ndarray) -> None:
        raise NotImplementedError

    def _contains_slice(self, keys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def save(self, path) -> None:
        from . import snapshot

        snapshot.save_filter(self, path)

    @classmethod
    def load(cls, path):
        """The filter a snapshot holds; ``ValueError`` unless it is a ``cls``."""
        from . import snapshot

        loaded = snapshot.load_filter(path)
        if not isinstance(loaded, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__} snapshot")
        return loaded


class TwoDBloomFilter(_Filter):
    """Prime-dimension matrix of 64-bit cells with bit-level deletion,
    stored as the flat filter of ``bits = rows * cols * cell_bits`` bits
    it equals (see the module docstring).

    ``words`` holds probe bit ``p = d mod bits`` at bit ``p & 63`` of
    word ``p >> 6``, as :class:`~bloom2d.baselines.StandardBloomFilter`
    does; ``cells`` derives the paper's cell matrix from it.
    ``hash_calls`` counts probes evaluated, one digest each (a lookup
    that stops at its first unset bit counts only the probes up to it).
    """

    def __init__(
        self,
        geometry: FilterGeometry,
        variant: HashVariant = HashVariant.H4,
        seeds: Sequence[int] | None = None,
    ) -> None:
        super().__init__(variant, seeds, geometry.hash_count)
        self.geometry = geometry
        self.bits = geometry.rows * geometry.cols * geometry.cell_bits
        self.words = np.zeros((self.bits + 63) // 64, dtype=np.uint64)

    @classmethod
    def for_capacity(
        cls,
        expected_items: int,
        fp_target: float,
        variant: HashVariant = HashVariant.H4,
    ) -> "TwoDBloomFilter":
        """Filter with the shape :func:`derive_geometry` gives.

        ``fp_target`` sets the classic budget, which the shape halves, so
        the rate at ``expected_items`` is that shape's Bloom rate p*, not
        ``fp_target``: about 0.021 at 10**5 items and 0.036 at 10**6 for
        ``fp_target = 0.001``.
        """
        return cls(derive_geometry(expected_items, fp_target), variant)

    def insert(self, key: bytes) -> None:
        """Set one bit per seed; re-inserting a key changes no bit."""
        bits = self.bits
        words = memoryview(self.words)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            p = d % bits
            words[p >> 6] |= 1 << (p & 63)
        self.hash_calls += len(self.seeds)
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        """True iff every probe bit is set; never false for an inserted,
        non-deleted key."""
        bits = self.bits
        words = memoryview(self.words)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            self.hash_calls += 1
            p = d % bits
            if not (words[p >> 6] >> (p & 63)) & 1:
                return False
        return True

    def remove(self, key: bytes) -> None:
        """Clear each probe bit that is currently set (see deletion caveat)."""
        bits = self.bits
        words = memoryview(self.words)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            p = d % bits
            words[p >> 6] &= ~(1 << (p & 63))
        self.hash_calls += len(self.seeds)
        self.inserted_count = max(0, self.inserted_count - 1)

    def insert_batch(self, keys: np.ndarray) -> None:
        """Insert every row of a ``(count, length)`` uint8 key matrix, in
        slices of ``max(1, SLICE_KEYS // k)`` keys: a slice's ``(k, count)``
        digest and position matrices then hold at most ``SLICE_KEYS``
        values, 512 KiB each, and stay in L2 from the fold to the write."""
        for part in self._slices(keys, max(1, SLICE_KEYS // self.geometry.hash_count)):
            self._insert_slice(part)

    def _insert_slice(self, keys: np.ndarray) -> None:
        digests = fold_batch(mix_batch(keys, self.variant), self.seeds)
        self.hash_calls += digests.size
        self.inserted_count += digests.shape[1]
        set_bits(self.words, mod_batch(digests, self.bits))

    def _contains_slice(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised lookup returning a boolean per row.

        Later probes are only evaluated for keys still alive, mirroring
        the scalar short-circuit, so the digest count per query is at
        most ``hash_count``.  The keys' block words are mixed once and
        each seed folds only the surviving keys' columns of them.
        ``alive`` holds the survivors' row numbers; a probe that some
        key misses compacts it and the block words to the keys that hit,
        and the answers are written once, from the last survivors.
        """
        blocks = mix_batch(keys, self.variant)
        count = blocks.words.shape[1]
        alive = np.arange(count)
        for seed in self.seeds:
            digests = fold_batch(blocks, seed)
            self.hash_calls += alive.size
            hit = get_bits(self.words, mod_batch(digests, self.bits))
            if not hit.all():
                keep = np.flatnonzero(hit)
                alive = alive.take(keep)
                if alive.size == 0:
                    break
                blocks = blocks._replace(words=blocks.words.take(keep, axis=1))
        result = np.zeros(count, dtype=bool)
        result[alive] = True
        return result

    def _cell_layout(self):
        """Where flat bit ``p = a * plane + q`` sits in the cells, with
        ``plane = rows * cols``, ``q < plane`` and ``a < cell_bits``.

        p mod rows and p mod cols are q's, so q alone fixes the cell, the
        row-major number ``cell[q]``; the bit in it is ``(a * s + q) mod
        cell_bits``, with s = plane mod cell_bits.  Read the flat bits as
        a ``(cell_bits, plane)`` matrix and take its rows in ``order``,
        ``order[t] = t / s mod cell_bits``: column q of the result, as a
        ``cell_bits``-bit number with row t at bit t, is cell ``cell[q]``
        rotated right by ``turn[q] = q mod cell_bits``.  Returns
        ``cell`` (int64), ``turn`` (uint64) and ``order``; the inverse
        of s is computed here, on each call, and never when a filter is
        built.
        """
        g = self.geometry
        q = np.arange(g.rows * g.cols, dtype=np.uint64)
        cell = mod_batch(q, g.rows)
        cell *= np.uint64(g.cols)
        cell += mod_batch(q, g.cols)
        order = np.arange(g.cell_bits) * pow(g.rows * g.cols, -1, g.cell_bits) % g.cell_bits
        return cell.view(np.int64), mod_batch(q, g.cell_bits), order

    @property
    def cells(self) -> np.ndarray:
        """The ``(rows, cols)`` uint64 cell matrix: flat bit p is bit
        ``p mod cell_bits`` of cell ``(p mod rows, p mod cols)`` (see
        :meth:`_cell_layout`).

        Derived from ``words`` on each access into a fresh read-only
        array, with temporaries of about ``bits`` bytes twice; writes go
        through the filter's operations.
        """
        g = self.geometry
        plane = g.rows * g.cols
        cell, turn, order = self._cell_layout()
        flat = np.unpackbits(self.words.astype("<u8", copy=False).view(np.uint8),
                             bitorder="little")[: self.bits].reshape(g.cell_bits, plane)
        column = np.zeros((64, plane), dtype=np.uint8)
        np.take(flat, order, axis=0, out=column[: g.cell_bits])
        packed = np.packbits(column, axis=0, bitorder="little")  # byte k of each column
        rotated = np.ascontiguousarray(packed.T).view("<u8").reshape(plane)
        cells = np.empty(plane, dtype=np.uint64)
        cells[cell] = _rotate_left(rotated, turn, g.cell_bits)
        cells = cells.reshape(g.rows, g.cols)
        cells.flags.writeable = False
        return cells

    def _load_cells(self, cells: np.ndarray) -> None:
        """Set ``words`` from ``rows * cols`` uint64 cells in row-major
        order, none with a bit at or above ``cell_bits``: the inverse of
        :attr:`cells`."""
        g = self.geometry
        plane = g.rows * g.cols
        cell, turn, order = self._cell_layout()
        turn = np.uint64(g.cell_bits) - turn  # rotate right by turn
        rotated = _rotate_left(cells.reshape(-1)[cell], turn, g.cell_bits)
        column = np.unpackbits(rotated.astype("<u8", copy=False).view(np.uint8)
                               .reshape(plane, 8).T, axis=0, bitorder="little")
        flat = np.zeros(64 * self.words.size, dtype=np.uint8)
        flat[: self.bits].reshape(g.cell_bits, plane)[order] = column[: g.cell_bits]
        self.words[:] = np.packbits(flat, bitorder="little").view("<u8")

    def memory_bits(self) -> int:
        """The paper's cell footprint, rows * cols * 64 bits, which the
        reports compare.  ``words`` physically holds ``bits = rows * cols
        * cell_bits`` rounded up to whole words: the top 64 - cell_bits
        bits of each cell are never stored."""
        return self.geometry.memory_bits

    def count_set_bits(self) -> int:
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def fill_fraction(self) -> float:
        """Fraction of the ``bits = rows * cols * cell_bits`` usable bits set."""
        return self.count_set_bits() / self.bits

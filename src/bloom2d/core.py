"""The two-dimensional Bloom filter.

Each membership probe derives a row, a column and a bit position from a
single 64-bit digest by three independent moduli; an item occupies one
bit in one cell per hash seed.  Insertion ORs those bits in, lookup
requires all of them, and deletion clears them.

The scalar operations address with plain Python ints and read and write
``cells`` through a ``memoryview`` made on each call, whose items are
Python ints.  The view is never kept on the filter, so an array later
assigned to ``cells`` is the one the next call uses.

Deletion caveat: bits are shared, so removing a key that collides with
another inserted key on some probe can introduce a false negative for
the other key.  Callers that need safe deletion under collisions should
use :class:`~bloom2d.baselines.CountingBloomFilter` instead.

Batch calls walk the key matrix in row slices of at most
:data:`SLICE_KEYS` keys, so the temporaries of one call stay the size of
one slice however many keys it holds.  Slicing changes no result: bits
are ORed, lookups are per key, and the counting filter's saturating add
composes, min(min(c + a, 15) + b, 15) = min(c + a + b, 15).

Batch paths reduce a digest d by each modulus m through its quotient,
d - (d // m) * m (:func:`mod_batch`), which equals
d mod m and avoids a hardware divide per element.  A batch lookup keeps
the row numbers of the keys still alive, compacts them only after a
probe some key misses, and writes the answers once at the end.

A filter instance tolerates one writer or any number of concurrent
readers; there is no internal synchronisation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import hashing
from .geometry import FilterGeometry, derive_geometry
from .hashing import HashVariant, derive_seeds, fold_batch, hash_key_seeds, mix_batch

# hashing.as_key_matrix (an input check) is reached through the module:
# perfbench's trace times every function imported from hashing by name as
# the hash layer.

# Keys per slice of a batch call: 65,536 keep a slice's temporaries to a
# few MiB (the counting filter's insert peaks near 26 B per key of the
# whole call at 10**6 keys), and 32k to 131k keys per slice ran equally
# fast.  Read on each call, so a test can patch it down.
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


class _Filter:
    """What every filter holds besides its storage: the hash variant, one
    seed per digest a key needs, the bookkeeping ``inserted_count`` (it
    never gates an operation), the instrumentation counter ``hash_calls``,
    and the snapshot ``save``/``load`` pair.

    It also owns the batch entry points: ``insert_batch`` and
    ``contains_batch`` hand each row slice of at most ``SLICE_KEYS`` keys
    to the filter's ``_insert_slice``/``_contains_slice``.  A matrix of
    no more keys than that, an empty one included, is handed over whole.
    """

    def __init__(
        self, variant: HashVariant, seeds: Sequence[int] | None, seed_count: int
    ) -> None:
        if seeds is None:
            seeds = derive_seeds(seed_count)
        if len(seeds) != seed_count:
            raise ValueError(f"need {seed_count} seeds, got {len(seeds)}")
        self.variant = HashVariant(variant)
        self.seeds = tuple(int(s) for s in seeds)
        self.inserted_count = 0
        self.hash_calls = 0

    @staticmethod
    def _slices(keys: np.ndarray):
        keys = hashing.as_key_matrix(keys)
        size = SLICE_KEYS
        if len(keys) <= size:
            return (keys,)
        return (keys[start : start + size] for start in range(0, len(keys), size))

    def insert_batch(self, keys: np.ndarray) -> None:
        """Insert every row of a ``(count, length)`` uint8 key matrix."""
        for part in self._slices(keys):
            self._insert_slice(part)

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """One bool per row of a ``(count, length)`` uint8 key matrix."""
        answers = [self._contains_slice(part) for part in self._slices(keys)]
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
    """Prime-dimension matrix of fixed-width cells with bit-level deletion.

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
        self.cells = np.zeros((geometry.rows, geometry.cols), dtype=np.uint64)

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
        g = self.geometry
        rows, cols, cell_bits = g.rows, g.cols, g.cell_bits
        cells = memoryview(self.cells)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            cells[d % rows, d % cols] |= 1 << (d % cell_bits)
        self.hash_calls += len(self.seeds)
        self.inserted_count += 1

    def contains(self, key: bytes) -> bool:
        """True iff every probe bit is set; never false for an inserted,
        non-deleted key."""
        g = self.geometry
        rows, cols, cell_bits = g.rows, g.cols, g.cell_bits
        cells = memoryview(self.cells)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            self.hash_calls += 1
            if not (cells[d % rows, d % cols] >> (d % cell_bits)) & 1:
                return False
        return True

    def remove(self, key: bytes) -> None:
        """Clear each probe bit that is currently set (see deletion caveat)."""
        g = self.geometry
        rows, cols, cell_bits = g.rows, g.cols, g.cell_bits
        cells = memoryview(self.cells)
        for d in hash_key_seeds(key, self.seeds, self.variant):
            cells[d % rows, d % cols] &= ~(1 << (d % cell_bits))
        self.hash_calls += len(self.seeds)
        self.inserted_count = max(0, self.inserted_count - 1)

    def _cell_index(self, digests: np.ndarray) -> np.ndarray:
        """Each digest's cell as an int64 index into the flattened cells:
        ``(d mod rows) * cols + d mod cols``, below ``rows * cols``."""
        g = self.geometry
        index = mod_batch(digests, g.rows)
        index *= np.uint64(g.cols)
        index += mod_batch(digests, g.cols)
        return index.view(np.int64)

    def _insert_slice(self, keys: np.ndarray) -> None:
        blocks = mix_batch(keys, self.variant)
        count = blocks.words.shape[1]
        flat = self.cells.reshape(-1)
        for seed in self.seeds:
            digests = fold_batch(blocks, seed)
            bits = mod_batch(digests, self.geometry.cell_bits)
            np.left_shift(np.uint64(1), bits, out=bits)
            np.bitwise_or.at(flat, self._cell_index(digests), bits)
        self.hash_calls += len(self.seeds) * count
        self.inserted_count += count

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
        flat = self.cells.reshape(-1)
        for seed in self.seeds:
            digests = fold_batch(blocks, seed)
            self.hash_calls += alive.size
            word = flat[self._cell_index(digests)]
            word >>= mod_batch(digests, self.geometry.cell_bits)
            word &= np.uint64(1)
            hit = word.astype(bool)
            if not hit.all():
                keep = np.flatnonzero(hit)
                alive = alive.take(keep)
                if alive.size == 0:
                    break
                blocks = blocks._replace(words=blocks.words.take(keep, axis=1))
        result = np.zeros(count, dtype=bool)
        result[alive] = True
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

"""Variable-stride 64-bit mixing hashes and deterministic seed derivation.

The family H1..H9 shares one multiply / xor-shift round structure and
differs only in how many input bytes a round consumes: H1 reads 3 bytes
per round, H2 reads 4, and so on up to H9 at 11.  Input words are loaded
little-endian, so digests are pure functions of (key bytes, seed, variant)
and stable across platforms and runs.

Strides wider than 8 bytes do not fit a 64-bit word; the bytes above the
word boundary are XOR-folded back into the low word before mixing, so
every byte of every block still reaches the digest.

The per-block mix does not depend on the seed, so a key's blocks are
mixed once however many digests a filter takes of it.  The scalar path,
:func:`hash_key_seeds`, makes one pass over a key and folds each mixed
block into all k seed states at once, held in 128-bit lanes of one
Python int.  The batch path keeps two stages: :func:`mix_batch` loads
and mixes every key's blocks once, and :func:`fold_batch` folds them
into one seed's initial state (which also holds the key length and the
stride) and finalizes.  :func:`hash_key` is the scalar path for one seed
and :func:`hash_batch` the batch stages composed for one seed.

The block stage copies no key bytes: one block of every key is read at
once as an unaligned little-endian uint64 view over the key matrix, a
row length apart, masked to the block's width and mixed in place, one
round at a time.  Only the last few rows, whose 8-byte read would pass
the end of the matrix, go through a zero-padded copy.
:func:`as_key_matrix` admits only a 2-D uint8 key matrix, without
casting, and makes it C-contiguous for those views.

The committed golden-vector fixture (newline-delimited
``hex(key),seed,variant,hex(digest)`` records) anchors these digests
bit-for-bit; any change to the constants or round structure below is a
breaking format change.  Sharing the mix between seeds is not: both
paths compute exactly the rounds a single pass per seed would.
"""

from __future__ import annotations

import enum
import functools
import struct
from typing import NamedTuple

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MULT = 0xC6A4A7935BD1E995
_SHIFT = 47
# Folded into the initial state so that each (seed, variant) pair defines
# a distinct function even for the empty key, whose block loop never runs.
_VARIANT_SALT = 0x9E3779B97F4A7C15
# Base for seed derivation: fractional bits of sqrt(2).
_SEED_BASE = 0x6A09E667F3BCC908


class HashVariant(enum.IntEnum):
    """Family member; the integer value is the stride in bytes per round."""

    H1 = 3
    H2 = 4
    H3 = 5
    H4 = 6
    H5 = 7
    H6 = 8
    H7 = 9
    H8 = 10
    H9 = 11

    @property
    def block_bytes(self) -> int:
        return int(self.value)

    @classmethod
    def from_label(cls, label: str) -> "HashVariant":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(
                f"unknown hash variant {label!r}; expected H1..H9"
            ) from None


def splitmix64(value: int) -> int:
    """One splitmix64 scramble step; a bijection on 64-bit integers."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seeds(count: int) -> list[int]:
    """``count`` pairwise-distinct 64-bit seeds.

    Deterministic, and prefix-stable: ``derive_seeds(10)[:5]`` equals
    ``derive_seeds(5)``.  Distinctness holds by construction because
    splitmix64 is a bijection applied to distinct inputs.
    """
    if count < 1:
        raise ValueError(f"seed count must be >= 1, got {count}")
    return [splitmix64(_SEED_BASE ^ j) for j in range(count)]


class KeyBlocks(NamedTuple):
    """Batch block stage output, shared by every seed's fold.

    ``words`` is a ``(rounds, count)`` uint64 array of mixed block words,
    one row per block so that each fold round reads contiguous memory.
    """

    words: np.ndarray
    length: int
    stride: int


@functools.lru_cache(maxsize=256)
def _lanes(seeds: tuple[int, ...]):
    """Lane constants for :func:`hash_key_seeds`: ``sum(2**(128*i))``, the
    lane mask, the packed seeds and an unpacker of every lane's low word."""
    rep = sum(1 << 128 * i for i in range(len(seeds)))
    packed = sum((seed & _MASK64) << 128 * i for i, seed in enumerate(seeds))
    unpack = struct.Struct("<" + "Q8x" * len(seeds)).unpack
    return rep, _MASK64 * rep, packed, unpack, 16 * len(seeds)


def hash_key_seeds(
    key: bytes, seeds: tuple[int, ...], variant: HashVariant = HashVariant.H4
) -> tuple[int, ...]:
    """64-bit digests of ``key`` under each of ``seeds``, in seed order.

    One pass: each block is taken off the key, loaded once as an int,
    mixed once and folded into every seed's state together, seed i's in
    bits [128*i, 128*i + 64) of one int.  A lane's product with the
    multiplier stays below 2**128, so no carry crosses a lane, and the
    shift-xor masks off the bits the next lane brings down.  ``variant``,
    an IntEnum, serves as the stride without an ``int()`` call.
    """
    rep, lane_mask, h, unpack, size = _lanes(seeds)
    length = len(key)
    h ^= ((length * _MULT ^ variant * _VARIANT_SALT) & _MASK64) * rep
    value = int.from_bytes(key, "little")
    bits = 8 * variant
    block = (1 << bits) - 1
    wide = variant > 8  # narrower blocks are below 2**64: no high word
    for _ in range(0, length, variant):
        k = value & block
        value >>= bits
        if wide:
            k = (k & _MASK64) ^ (k >> 64)
        k = k * _MULT & _MASK64
        k ^= k >> _SHIFT
        h = (h ^ (k * _MULT & _MASK64) * rep) * _MULT & lane_mask
    h ^= h >> _SHIFT & lane_mask
    h = h * _MULT & lane_mask
    h ^= h >> _SHIFT & lane_mask
    return unpack(h.to_bytes(size, "little"))


def as_key_matrix(keys: np.ndarray) -> np.ndarray:
    """``keys`` as a C-contiguous ``(count, length)`` uint8 array.

    Any other dtype or rank raises ``ValueError`` rather than being cast:
    a cast would wrap or truncate int, float and bool entries into other
    keys' bytes.
    """
    keys = np.asarray(keys)
    if keys.dtype != np.uint8:
        raise ValueError(f"key matrix must be uint8, got {keys.dtype}")
    if keys.ndim != 2:
        raise ValueError(f"key matrix must be 2-D, got shape {keys.shape}")
    return np.ascontiguousarray(keys)


def _load_column(keys: np.ndarray, offset: int, width: int, out: np.ndarray) -> None:
    """Bytes ``[offset, offset + width)`` of every row of the C-contiguous
    uint8 matrix ``keys``, read little-endian into the uint64 row ``out``;
    ``1 <= width <= 8``.

    Each row's 8-byte read starting at ``offset`` is a view over the
    matrix itself, one row length apart and unaligned.  A read that runs
    past its row picks up the next row's bytes, which the width mask
    drops; the last rows, whose read would pass the end of the buffer,
    go through a zero-padded copy instead.
    """
    count, length = keys.shape
    direct = min(count, max(0, (keys.size - offset - 8) // length + 1))
    if direct:
        view = np.ndarray((direct,), "<u8", buffer=keys, offset=offset, strides=(length,))
        np.bitwise_and(view, np.uint64(_MASK64 >> 64 - 8 * width), out=out[:direct])
    if direct < count:
        tail = np.zeros((count - direct, 8), dtype=np.uint8)
        tail[:, :width] = keys[direct:, offset : offset + width]
        out[direct:] = tail.view("<u8")[:, 0]


def mix_batch(
    keys: np.ndarray, variant: HashVariant = HashVariant.H4
) -> KeyBlocks:
    """Block stage for every row of a ``(count, length)`` uint8 key matrix.

    Round r's block is loaded for every key at once as a little-endian
    uint64 view over the key matrix, masked to the block's width, into
    row r of the output; for strides above 8 the 1-3 bytes above the word
    are loaded the same way and XOR-folded in.  The row is then mixed in
    place while it is still in cache, through one key-sized scratch row.
    Beyond the ``(rounds, count)`` output only that scratch row and the
    tail rows' small padded copies are allocated.  All keys in a matrix
    share one length, hence one initial state.
    """
    keys = as_key_matrix(keys)
    count, length = keys.shape
    stride = int(variant)
    rounds = -(-length // stride)
    words = np.empty((rounds, count), dtype=np.uint64)
    scratch = np.empty(count, dtype=np.uint64)
    mult = np.uint64(_MULT)
    shift = np.uint64(_SHIFT)
    for r, k in enumerate(words):
        offset = r * stride
        width = min(stride, length - offset)
        _load_column(keys, offset, min(width, 8), k)
        if width > 8:
            _load_column(keys, offset + 8, width - 8, scratch)
            k ^= scratch
        k *= mult
        np.right_shift(k, shift, out=scratch)
        k ^= scratch
        k *= mult
    return KeyBlocks(words, length, stride)


def fold_batch(blocks: KeyBlocks, seed: int) -> np.ndarray:
    """Fold stage for a key matrix: one uint64 digest per key under ``seed``.

    Folds only the keys whose columns ``blocks.words`` holds, so a lookup
    that has ruled keys out can pass ``blocks.words[:, alive]``.
    """
    words = blocks.words
    mult = np.uint64(_MULT)
    shift = np.uint64(_SHIFT)
    state = (seed ^ (blocks.length * _MULT) ^ (blocks.stride * _VARIANT_SALT)) & _MASK64
    h = np.full(words.shape[1], state, dtype=np.uint64)
    for k in words:
        h ^= k
        h *= mult
    h ^= h >> shift
    h *= mult
    h ^= h >> shift
    return h


def hash_key(key: bytes, seed: int, variant: HashVariant = HashVariant.H4) -> int:
    """64-bit digest of ``key`` under ``seed`` and the given stride variant.

    Total function: any byte string (including empty) hashes.  The key
    length is part of the initial state, so zero-padding a key changes its
    digest.  Only the low 64 bits of ``seed`` count.
    """
    return hash_key_seeds(key, (seed,), variant)[0]


def hash_batch(
    keys: np.ndarray, seed: int, variant: HashVariant = HashVariant.H4
) -> np.ndarray:
    """Digest every row of a ``(count, length)`` uint8 key matrix.

    Bit-identical to calling :func:`hash_key` on each row; the matrix form
    exists so bulk filter operations can stay vectorised.
    """
    return fold_batch(mix_batch(keys, variant), seed)

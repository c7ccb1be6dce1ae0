"""Variable-stride 64-bit mixing hashes and deterministic seed derivation.

The family H1..H9 shares one multiply / xor-shift round structure and
differs only in how many input bytes a round consumes: H1 reads 3 bytes
per round, H2 reads 4, and so on up to H9 at 11.  Input words are loaded
little-endian, so digests are pure functions of (key bytes, seed, variant)
and stable across platforms and runs.

Strides wider than 8 bytes do not fit a 64-bit word; the bytes above the
word boundary are XOR-folded back into the low word before mixing, so
every byte of every block still reaches the digest.

A digest is computed in two stages, because the per-block mix does not
depend on the seed:

* the **block stage** (:func:`mix_key`, :func:`mix_batch`) loads each
  block of a key, zero-padded to a 64-bit word, and mixes it once;
* the **fold stage** (:func:`fold_key`, :func:`fold_batch`) folds those
  words into one seed's initial state, which also holds the key length
  and the stride, and finalizes.

A filter that needs k digests of a key runs the block stage once and the
fold stage k times.  :func:`hash_key` and :func:`hash_batch` are the two
stages composed for a single seed.

The committed golden-vector fixture (newline-delimited
``hex(key),seed,variant,hex(digest)`` records) anchors these digests
bit-for-bit; any change to the constants or round structure below is a
breaking format change.  Splitting the work into stages is not: the
stages compute exactly the rounds a single pass would.
"""

from __future__ import annotations

import enum
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
    """Seed-free block stage output, shared by every seed's fold.

    ``words`` holds the mixed block words: a list of ints for one key, or
    a ``(rounds, count)`` uint64 array for a key matrix, one row per
    block so that each fold round reads contiguous memory.
    """

    words: list[int] | np.ndarray
    length: int
    stride: int


def _initial_state(blocks: KeyBlocks, seed: int) -> int:
    return (seed ^ (blocks.length * _MULT) ^ (blocks.stride * _VARIANT_SALT)) & _MASK64


def mix_key(key: bytes, variant: HashVariant = HashVariant.H4) -> KeyBlocks:
    """Block stage for one key: its mixed block words as Python ints.

    The final partial block, when the key length is not a multiple of the
    stride, is zero-padded and mixed exactly like a full block.
    """
    stride = int(variant)
    words = []
    for off in range(0, len(key), stride):
        k = int.from_bytes(key[off : off + stride], "little")
        k = ((k & _MASK64) ^ (k >> 64)) * _MULT & _MASK64
        k ^= k >> _SHIFT
        words.append(k * _MULT & _MASK64)
    return KeyBlocks(words, len(key), stride)


def fold_key(blocks: KeyBlocks, seed: int) -> int:
    """Fold stage for one key: its 64-bit digest under ``seed``."""
    h = _initial_state(blocks, seed)
    for k in blocks.words:
        h = (h ^ k) * _MULT & _MASK64
    h ^= h >> _SHIFT
    h = h * _MULT & _MASK64
    return h ^ (h >> _SHIFT)


def mix_batch(
    keys: np.ndarray, variant: HashVariant = HashVariant.H4
) -> KeyBlocks:
    """Block stage for every row of a ``(count, length)`` uint8 key matrix.

    Each block is copied into a zero-filled 8-byte (16-byte for strides
    above 8) slot and the slots are read as little-endian uint64 words in
    one view; the high word of a 16-byte slot is XOR-folded into the low
    one.  All keys in a matrix share one length, hence one initial state.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise ValueError(f"key matrix must be 2-D, got shape {keys.shape}")
    count, length = keys.shape
    stride = int(variant)
    rounds = -(-length // stride)
    slots = np.zeros((rounds, count, 8 if stride <= 8 else 16), dtype=np.uint8)
    for r in range(rounds):
        block = keys[:, r * stride : (r + 1) * stride]
        slots[r, :, : block.shape[1]] = block
    halves = slots.view("<u8").astype(np.uint64, copy=False)
    k = halves[..., 0] if stride <= 8 else halves[..., 0] ^ halves[..., 1]
    mult = np.uint64(_MULT)
    k *= mult
    k ^= k >> np.uint64(_SHIFT)
    k *= mult
    return KeyBlocks(k, length, stride)


def fold_batch(blocks: KeyBlocks, seed: int) -> np.ndarray:
    """Fold stage for a key matrix: one uint64 digest per key under ``seed``.

    Folds only the keys whose columns ``blocks.words`` holds, so a lookup
    that has ruled keys out can pass ``blocks.words[:, alive]``.
    """
    words = blocks.words
    mult = np.uint64(_MULT)
    shift = np.uint64(_SHIFT)
    h = np.full(words.shape[1], _initial_state(blocks, seed), dtype=np.uint64)
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
    digest.
    """
    return fold_key(mix_key(key, variant), seed)


def hash_batch(
    keys: np.ndarray, seed: int, variant: HashVariant = HashVariant.H4
) -> np.ndarray:
    """Digest every row of a ``(count, length)`` uint8 key matrix.

    Bit-identical to calling :func:`hash_key` on each row; the matrix form
    exists so bulk filter operations can stay vectorised.
    """
    return fold_batch(mix_batch(keys, variant), seed)

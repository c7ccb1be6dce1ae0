"""Hash family: golden vectors, the two-stage kernel, determinism,
distribution, tail sensitivity."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bloom2d.hashing import (
    HashVariant,
    derive_seeds,
    fold_batch,
    fold_key,
    hash_batch,
    hash_key,
    mix_batch,
    mix_key,
)
from reference_oracle import single_pass_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "hash_golden_vectors.txt"

ALL_VARIANTS = list(HashVariant)

seeds_st = st.integers(min_value=0, max_value=2**64 - 1)
variants_st = st.sampled_from(ALL_VARIANTS)


def test_variant_labels_map_to_strides():
    assert [v.block_bytes for v in ALL_VARIANTS] == [3, 4, 5, 6, 7, 8, 9, 10, 11]
    assert HashVariant.from_label("h4") is HashVariant.H4
    assert HashVariant.H1.block_bytes == 3
    assert HashVariant.H9.block_bytes == 11
    with pytest.raises(ValueError):
        HashVariant.from_label("H10")


def test_golden_vectors_match_bit_for_bit():
    # fixture written at first build; digests are a frozen format
    records = GOLDEN_PATH.read_text().splitlines()
    assert len(records) == 108
    for record in records:
        key_hex, seed, variant, digest_hex = record.split(",")
        digest = hash_key(bytes.fromhex(key_hex), int(seed), HashVariant[variant])
        assert f"{digest:016x}" == digest_hex, record


@given(key=st.binary(max_size=64), seed=seeds_st, variant=variants_st)
def test_digest_is_deterministic(key, seed, variant):
    assert hash_key(key, seed, variant) == hash_key(key, seed, variant)


@given(seed=seeds_st)
def test_empty_key_digest_fixed_per_seed_and_variant(seed):
    digests = {variant: hash_key(b"", seed, variant) for variant in ALL_VARIANTS}
    assert digests == {variant: hash_key(b"", seed, variant) for variant in ALL_VARIANTS}
    # the variant is folded into the initial state, so even the empty key
    # separates the nine functions
    assert len(set(digests.values())) == len(ALL_VARIANTS)


@given(key=st.binary(min_size=1, max_size=40), seed=seeds_st, variant=variants_st)
def test_zero_padding_changes_digest(key, seed, variant):
    assert hash_key(key, seed, variant) != hash_key(key + b"\x00", seed, variant)


def test_digest_fits_64_bits():
    for variant in ALL_VARIANTS:
        for key in (b"", b"x", b"\xff" * 33):
            assert 0 <= hash_key(key, 2**64 - 1, variant) < 2**64


class TestDeriveSeeds:
    def test_single_seed_is_stable(self):
        assert derive_seeds(1) == derive_seeds(1)

    def test_pairwise_distinct(self):
        seeds = derive_seeds(64)
        assert len(set(seeds)) == 64

    def test_prefix_stability(self):
        assert derive_seeds(10)[:5] == derive_seeds(5)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("length", [0, 1, 5, 8, 11, 20, 24, 37])
def test_batch_matches_scalar(variant, length):
    rng = np.random.default_rng(99)
    matrix = rng.integers(0, 256, size=(64, length), dtype=np.uint8)
    seed = derive_seeds(3)[2]
    batch = hash_batch(matrix, seed, variant)
    for row, digest in zip(matrix, batch):
        assert hash_key(row.tobytes(), seed, variant) == int(digest)


@settings(max_examples=30, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=48),
    seed=seeds_st,
    variant=variants_st,
    corpus_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_matches_scalar_property(length, seed, variant, corpus_seed):
    rng = np.random.default_rng(corpus_seed)
    matrix = rng.integers(0, 256, size=(8, length), dtype=np.uint8)
    batch = hash_batch(matrix, seed, variant)
    for row, digest in zip(matrix, batch):
        assert hash_key(row.tobytes(), seed, variant) == int(digest)


def test_batch_rejects_non_matrix():
    for shape in ((8,), (2, 3, 4)):
        with pytest.raises(ValueError):
            hash_batch(np.zeros(shape, dtype=np.uint8), 1, HashVariant.H4)
        with pytest.raises(ValueError):
            mix_batch(np.zeros(shape, dtype=np.uint8), HashVariant.H4)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_stages_match_single_pass_reference(variant):
    """Block stage once, fold stage per seed, scalar and batch, equals the
    direct one-pass digest at every length up to three blocks and a byte,
    so full blocks, partial tails and the empty key are all covered."""
    stride = variant.block_bytes
    seeds = derive_seeds(3) + [0, 2**64 - 1]
    rng = np.random.default_rng(500 + stride)
    for length in range(3 * stride + 2):
        matrix = rng.integers(0, 256, size=(6, length), dtype=np.uint8)
        matrix[0] = 0xFF  # every slot byte set, including those above 64 bits
        blocks = mix_batch(matrix, variant)
        assert blocks.words.shape == (-(-length // stride), 6)
        for i, row in enumerate(matrix):
            key = row.tobytes()
            scalar = mix_key(key, variant)
            assert scalar == (blocks.words[:, i].tolist(), length, stride)
        for seed in seeds:
            expected = [single_pass_digest(row.tobytes(), seed, stride) for row in matrix]
            assert fold_batch(blocks, seed).tolist() == expected
            assert hash_batch(matrix, seed, variant).tolist() == expected
            assert [fold_key(mix_key(row.tobytes(), variant), seed)
                    for row in matrix] == expected
            assert [hash_key(row.tobytes(), seed, variant) for row in matrix] == expected


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_stages_on_zero_row_matrix(variant):
    for length in (0, 20):
        matrix = np.zeros((0, length), dtype=np.uint8)
        digests = fold_batch(mix_batch(matrix, variant), 7)
        assert digests.dtype == np.uint64 and digests.shape == (0,)
        assert hash_batch(matrix, 7, variant).shape == (0,)


def test_fold_batch_reads_only_the_given_columns():
    """A lookup folds the surviving keys' columns of the shared words; the
    result equals hashing those keys alone."""
    rng = np.random.default_rng(77)
    matrix = rng.integers(0, 256, size=(50, 20), dtype=np.uint8)
    blocks = mix_batch(matrix, HashVariant.H4)
    alive = np.array([3, 4, 17, 49])
    seed = derive_seeds(2)[1]
    subset = blocks._replace(words=blocks.words[:, alive])
    assert np.array_equal(fold_batch(subset, seed),
                          hash_batch(matrix[alive], seed, HashVariant.H4))


@pytest.fixture(scope="module")
def corpus16():
    rng = np.random.default_rng(2024)
    return rng.integers(0, 256, size=(100_000, 16), dtype=np.uint8)


class TestDistribution:
    """Statistical smoke tests on a frozen 100k-key corpus."""

    def test_h4_h5_cross_variant_collisions(self, corpus16):
        seed = derive_seeds(1)[0]
        a = hash_batch(corpus16, seed, HashVariant.H4)
        b = hash_batch(corpus16, seed, HashVariant.H5)
        collisions = int((a == b).sum())
        assert collisions / corpus16.shape[0] < 0.001
        # frozen at first build: zero collisions on this corpus
        assert collisions == 0

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_low_byte_uniformity(self, corpus16, variant):
        seed = derive_seeds(1)[0]
        digests = hash_batch(corpus16, seed, variant)
        counts = np.bincount((digests & np.uint64(0xFF)).astype(np.int64), minlength=256)
        _chi2, p = stats.chisquare(counts)
        assert p > 0.001, f"{variant.name}: p={p}"

    def test_self_collisions_over_10k_corpus(self):
        rng = np.random.default_rng(4242)
        matrix = np.unique(rng.integers(0, 256, size=(10_050, 12), dtype=np.uint8), axis=0)
        matrix = matrix[:10_000]
        assert matrix.shape[0] == 10_000
        seed = derive_seeds(1)[0]
        for variant in ALL_VARIANTS:
            digests = hash_batch(matrix, seed, variant)
            assert matrix.shape[0] - np.unique(digests).size <= 2

    def test_variant_independence_over_10k_corpus(self):
        rng = np.random.default_rng(4242)
        matrix = rng.integers(0, 256, size=(10_000, 12), dtype=np.uint8)
        seed = derive_seeds(1)[0]
        digests = {v: hash_batch(matrix, seed, v) for v in ALL_VARIANTS}
        for a in ALL_VARIANTS:
            for b in ALL_VARIANTS:
                if a < b:
                    differ = float((digests[a] != digests[b]).mean())
                    assert differ >= 0.999, f"{a.name} vs {b.name}: {differ}"


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_every_byte_position_reaches_the_digest(variant):
    """Flipping any single key byte changes the digest, including bytes in
    the partial tail block and bytes above the 64-bit load boundary."""
    stride = variant.block_bytes
    length = 2 * stride + max(1, stride - 1)  # not a multiple of the stride
    rng = np.random.default_rng(1000 + stride)
    base = rng.integers(0, 256, size=(1000, length), dtype=np.uint8)
    seed = derive_seeds(2)[1]
    base_digests = hash_batch(base, seed, variant)
    for position in range(length):
        flipped = base.copy()
        flipped[:, position] ^= 0x80
        assert np.all(hash_batch(flipped, seed, variant) != base_digests), (
            f"{variant.name}: byte {position} of {length} did not avalanche"
        )
    # scalar spot check on one row
    row = base[0].tobytes()
    for position in range(length):
        mutated = bytearray(row)
        mutated[position] ^= 0x01
        assert hash_key(bytes(mutated), seed, variant) != hash_key(row, seed, variant)

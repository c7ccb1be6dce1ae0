"""Hash family: golden vectors, the lane-parallel scalar kernel, the
two-stage batch kernel, determinism, distribution, tail sensitivity."""

import tracemalloc
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
    hash_batch,
    hash_key,
    hash_key_seeds,
    mix_batch,
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
        key = bytes.fromhex(key_hex)
        digest = hash_key(key, int(seed), HashVariant[variant])
        assert f"{digest:016x}" == digest_hex, record
        # the batch path, one key as a one-row matrix, is pinned as well
        matrix = np.frombuffer(key, dtype=np.uint8).reshape(1, len(key))
        (batch,) = hash_batch(matrix, int(seed), HashVariant[variant]).tolist()
        assert f"{batch:016x}" == digest_hex, record


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


@pytest.mark.parametrize("keys", [
    np.array([[300, -1]], dtype=np.int64),
    np.array([[44.7, 255.0]]),
    np.array([[True, False]]),
], ids=["int64", "float", "bool"])
def test_batch_rejects_non_uint8(keys):
    """Entries are not cast to bytes: 300 would wrap to 44 and 44.7
    truncate to 44, so different inputs would hash as one key."""
    with pytest.raises(ValueError, match="uint8"):
        hash_batch(keys, 1, HashVariant.H4)
    with pytest.raises(ValueError, match="uint8"):
        mix_batch(keys, HashVariant.H4)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_stages_match_single_pass_reference(variant):
    """The batch stages (block stage once, fold stage per seed) and the
    scalar lane-parallel kernel equal the direct one-pass digest at every
    length up to three blocks and a byte, so full blocks, partial tails
    and the empty key are all covered."""
    stride = variant.block_bytes
    seeds = derive_seeds(3) + [0, 2**64 - 1]
    rng = np.random.default_rng(500 + stride)
    for length in range(3 * stride + 2):
        matrix = rng.integers(0, 256, size=(6, length), dtype=np.uint8)
        matrix[0] = 0xFF  # every slot byte set, including those above 64 bits
        blocks = mix_batch(matrix, variant)
        assert blocks.words.shape == (-(-length // stride), 6)
        assert (blocks.length, blocks.stride) == (length, stride)
        for seed in seeds:
            expected = [single_pass_digest(row.tobytes(), seed, stride) for row in matrix]
            assert fold_batch(blocks, seed).tolist() == expected
            assert hash_batch(matrix, seed, variant).tolist() == expected
            assert [hash_key(row.tobytes(), seed, variant) for row in matrix] == expected
        for row in matrix:
            key = row.tobytes()
            assert list(hash_key_seeds(key, tuple(seeds), variant)) == [
                single_pass_digest(key, seed, stride) for seed in seeds
            ]


@settings(max_examples=300, deadline=None)
@given(
    variant=variants_st,
    data=st.data(),
    rows=st.integers(min_value=1, max_value=9),
    kind=st.sampled_from(["fresh", "read-only", "row-slice"]),
    seed=seeds_st,
)
def test_block_stage_views_match_single_pass_reference(variant, data, rows, kind, seed):
    """The block stage reads each block as an unaligned uint64 view over
    the key matrix, and a row whose 8-byte read would pass the end of the
    matrix through a zero-padded copy; with at most 9 rows that tail is a
    large share of them.  Its words fold to the direct one-pass digest
    of every row of a fresh matrix, a read-only ``np.frombuffer`` matrix
    and a row slice of a larger matrix (as a multi-slice batch call hands
    one over), and the input is left as it was."""
    stride = variant.block_bytes
    length = data.draw(st.integers(min_value=0, max_value=3 * stride + 1))
    raw = data.draw(st.binary(min_size=rows * length, max_size=rows * length))
    if kind == "fresh":
        matrix = np.frombuffer(raw, dtype=np.uint8).reshape(rows, length).copy()
    elif kind == "read-only":
        matrix = np.frombuffer(raw, dtype=np.uint8).reshape(rows, length)
    else:
        padding = np.full((2, length), 0xFF, dtype=np.uint8)
        whole = np.concatenate(
            [padding, np.frombuffer(raw, dtype=np.uint8).reshape(rows, length), padding]
        )
        matrix = whole[2 : 2 + rows]
    before = matrix.copy()
    blocks = mix_batch(matrix, variant)
    assert blocks.words.shape == (-(-length // stride), rows)
    expected = [single_pass_digest(row.tobytes(), seed, stride) for row in matrix]
    assert fold_batch(blocks, seed).tolist() == expected
    assert np.array_equal(matrix, before)


def test_block_stage_transient_memory_per_key():
    """The block stage allocates its ``(rounds, count)`` words and one
    key-sized scratch row, 8 * (rounds + 1) B per key, and nothing that
    grows with the keys beyond them.  65,536 H4 keys of 20 bytes (4
    rounds) peak at 41.0 B per key; a block stage that zero-filled a
    ``(rounds, count, 8)`` slot array and mixed it whole peaked at 64.0."""
    count, length = 65_536, 20
    keys = np.random.default_rng(5).integers(0, 256, size=(count, length), dtype=np.uint8)
    rounds = -(-length // HashVariant.H4.block_bytes)
    mix_batch(keys, HashVariant.H4)  # one-time allocations are not per key
    tracemalloc.start()
    try:
        mix_batch(keys, HashVariant.H4)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / count < 8 * (rounds + 1) + 4


# seeds at and past the 64-bit edges: only their low 64 bits count
edge_seeds_st = st.sampled_from([0, 2**64 - 1, -1, 2**64 + 5]) | seeds_st


@settings(max_examples=300, deadline=None)
@given(
    variant=variants_st,
    data=st.data(),
    seeds=st.lists(edge_seeds_st, min_size=1, max_size=12),
)
def test_scalar_kernel_matches_single_pass_reference(variant, data, seeds):
    """All k lanes of one pass equal k independent one-pass digests, for
    keys up to three blocks and a byte and for long keys, with seeds
    reduced to their low 64 bits as :func:`hash_key` reduces them."""
    stride = variant.block_bytes
    key = data.draw(st.binary(max_size=3 * stride + 1) | st.binary(min_size=64, max_size=300))
    digests = hash_key_seeds(key, tuple(seeds), variant)
    expected = [single_pass_digest(key, seed & 2**64 - 1, stride) for seed in seeds]
    assert list(digests) == expected
    assert [hash_key(key, seed, variant) for seed in seeds] == expected


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

"""Corpus generation, the four query kinds, truth labels, file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloom2d.workload import (
    KEY_WIDTH,
    QueryKind,
    decode_keys,
    encode_values,
    generate_corpus,
    make_query_set,
    membership_oracle,
    read_corpus,
    read_query_set,
    truth_sidecar_path,
    write_corpus,
    write_query_set,
)

_HALF = 1 << 63


class TestCorpus:
    def test_regeneration_is_bit_identical(self):
        a = generate_corpus(5, 1)
        b = generate_corpus(5, 1)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.matrix, b.matrix)

    def test_keys_are_distinct(self):
        corpus = generate_corpus(50_000, 7)
        assert np.unique(corpus.values).size == 50_000
        assert len(corpus) == 50_000

    def test_keys_are_fixed_width_decimal(self):
        corpus = generate_corpus(100, 3)
        assert corpus.matrix.shape == (100, KEY_WIDTH)
        for key in corpus:
            assert len(key) == KEY_WIDTH
            assert key.isdigit()

    def test_member_partition(self):
        corpus = generate_corpus(10_000, 5)
        assert corpus.universe_tag == "member-half"
        assert int(corpus.values.max()) < _HALF

    def test_different_seeds_do_not_overlap(self):
        a = generate_corpus(10_000, 1)
        b = generate_corpus(10_000, 2)
        assert np.intersect1d(a.values, b.values).size == 0

    def test_key_accessor_matches_iteration(self):
        corpus = generate_corpus(10, 9)
        assert [corpus.key(i) for i in range(10)] == list(corpus)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_corpus(0, 1)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_encode_decode_round_trip(values):
    array = np.array(values, dtype=np.uint64)
    assert np.array_equal(decode_keys(encode_values(array)), array)


def test_encode_is_zero_padded_decimal():
    out = encode_values(np.array([42, 2**64 - 1], dtype=np.uint64))
    assert out[0].tobytes() == b"00000000000000000042"
    assert out[1].tobytes() == b"18446744073709551615"


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(10_000, 21)


class TestQuerySets:
    def test_same_set_is_the_corpus(self, corpus):
        qs = make_query_set("same", corpus, len(corpus), 1)
        assert qs.kind is QueryKind.SAME
        assert np.array_equal(qs.matrix, corpus.matrix)
        assert qs.truth.all()

    def test_same_set_size_must_match(self, corpus):
        with pytest.raises(ValueError):
            make_query_set("same", corpus, 100, 1)

    def test_mixed_set_half_and_half(self, corpus):
        qs = make_query_set("mixed", corpus, 1000, 2, mix_ratio=0.5)
        assert len(qs) == 1000
        assert int(qs.truth.sum()) == 500

    def test_mixed_set_ratio_is_exact(self, corpus):
        qs = make_query_set("mixed", corpus, 1000, 2, mix_ratio=0.25)
        assert int(qs.truth.sum()) == 250

    def test_mixed_truth_matches_exact_oracle(self, corpus):
        qs = make_query_set("mixed", corpus, 2000, 3)
        assert np.array_equal(qs.truth, membership_oracle(corpus, decode_keys(qs.matrix)))

    def test_mixed_ratio_validated(self, corpus):
        for ratio in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                make_query_set("mixed", corpus, 100, 1, mix_ratio=ratio)

    def test_mixed_member_demand_capped_by_corpus(self):
        small = generate_corpus(10, 4)
        with pytest.raises(ValueError):
            make_query_set("mixed", small, 100, 1, mix_ratio=0.9)

    def test_disjoint_set_has_no_members(self, corpus):
        qs = make_query_set("disjoint", corpus, 5000, 5)
        assert not qs.truth.any()
        values = decode_keys(qs.matrix)
        assert int(values.min()) >= _HALF  # non-member half by construction
        assert not membership_oracle(corpus, values).any()

    def test_random_set_truth_is_exact_lookup(self, corpus):
        qs = make_query_set("random", corpus, 5000, 6)
        assert np.array_equal(qs.truth, membership_oracle(corpus, decode_keys(qs.matrix)))

    def test_determinism(self, corpus):
        for kind in QueryKind:
            size = len(corpus) if kind is QueryKind.SAME else 1000
            a = make_query_set(kind, corpus, size, 77)
            b = make_query_set(kind, corpus, size, 77)
            assert np.array_equal(a.matrix, b.matrix)
            assert np.array_equal(a.truth, b.truth)

    def test_seed_changes_queries(self, corpus):
        a = make_query_set("disjoint", corpus, 1000, 1)
        b = make_query_set("disjoint", corpus, 1000, 2)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_size_validated(self, corpus):
        with pytest.raises(ValueError):
            make_query_set("disjoint", corpus, 0, 1)


class TestFiles:
    def test_corpus_round_trip(self, tmp_path):
        corpus = generate_corpus(500, 11)
        path = tmp_path / "corpus.keys"
        write_corpus(corpus, path)
        text = path.read_text()
        assert len(text.splitlines()) == 500
        loaded = read_corpus(path)
        assert np.array_equal(loaded.values, corpus.values)
        assert np.array_equal(loaded.matrix, corpus.matrix)

    def test_query_set_round_trip_with_sidecar(self, tmp_path):
        corpus = generate_corpus(500, 11)
        qs = make_query_set("mixed", corpus, 400, 13)
        path = tmp_path / "queries.keys"
        write_query_set(qs, path)
        assert truth_sidecar_path(path).exists()
        loaded = read_query_set(path, "mixed")
        assert np.array_equal(loaded.matrix, qs.matrix)
        assert np.array_equal(loaded.truth, qs.truth)

    @pytest.mark.parametrize(
        "edit",
        [lambda raw: raw + b"\xff" * 50, lambda raw: raw[:-1] + bytes([raw[-1] | 1])],
        ids=["trailing-bytes", "padding-bit-set"],
    )
    def test_sidecar_must_hold_exactly_the_labels(self, tmp_path, edit):
        corpus = generate_corpus(500, 11)
        path = tmp_path / "queries.keys"
        # 403 labels take 51 bytes and leave 5 zero padding bits
        write_query_set(make_query_set("mixed", corpus, 403, 13), path)
        read_query_set(path, "mixed")
        sidecar = truth_sidecar_path(path)
        sidecar.write_bytes(edit(sidecar.read_bytes()))
        with pytest.raises(ValueError):
            read_query_set(path, "mixed")

    def test_read_without_sidecar_has_no_truth(self, tmp_path):
        corpus = generate_corpus(100, 11)
        path = tmp_path / "corpus.keys"
        write_corpus(corpus, path)
        loaded = read_query_set(path)
        assert loaded.truth is None

    def test_duplicate_corpus_rejected(self, tmp_path):
        path = tmp_path / "dup.keys"
        key = b"00000000000000000001\n"
        path.write_bytes(key * 2)
        with pytest.raises(ValueError):
            read_corpus(path)

    @pytest.mark.parametrize("key", [b"99999999999999999999", b"18446744073709551616"])
    def test_key_of_2_pow_64_or_more_rejected(self, tmp_path, key):
        with pytest.raises(ValueError):
            decode_keys(np.frombuffer(key, dtype=np.uint8).reshape(1, KEY_WIDTH))
        path = tmp_path / "big.keys"
        path.write_bytes(key + b"\n")
        with pytest.raises(ValueError):
            read_corpus(path)

    def test_non_digit_key_rejected(self, tmp_path):
        key = b"0000000000000000000a"
        with pytest.raises(ValueError):
            decode_keys(np.frombuffer(key, dtype=np.uint8).reshape(1, KEY_WIDTH))
        path = tmp_path / "letter.keys"
        path.write_bytes(b"00000000000000000001\n" + key + b"\n")
        with pytest.raises(ValueError):
            read_corpus(path)

    def test_high_half_key_rejected_from_corpus(self, tmp_path):
        """2**64 - 1 is a valid key but not a corpus key: the corpus holds
        the low half only, so that ``disjoint`` queries stay non-members."""
        top = np.array([2**64 - 1, _HALF, _HALF - 1], dtype=np.uint64)
        assert np.array_equal(decode_keys(encode_values(top)), top)
        for value in (2**64 - 1, _HALF):
            path = tmp_path / "high.keys"
            path.write_bytes(b"00000000000000000001\n" + b"%020d\n" % value)
            with pytest.raises(ValueError):
                read_corpus(path)
        path.write_bytes(b"%020d\n" % (_HALF - 1))
        assert read_corpus(path).values.tolist() == [_HALF - 1]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.keys"
        path.write_bytes(b"too-short\n")
        with pytest.raises(ValueError):
            read_corpus(path)

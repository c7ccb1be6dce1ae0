"""Flat Bloom filter and counting Bloom filter baselines."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloom2d import core
from bloom2d.baselines import CountingBloomFilter, StandardBloomFilter
from bloom2d.geometry import optimal_bits, optimal_hash_count
from bloom2d.hashing import hash_key
from bloom2d.workload import generate_corpus, make_query_set
from reference_oracle import DoubleHashingOracle, key_matrix

keys_st = st.binary(min_size=0, max_size=24)


def assert_positions_follow_double_hashing(f, key):
    h1 = hash_key(key, f.seeds[0], f.variant)
    h2 = hash_key(key, f.seeds[1], f.variant)
    expected = [
        ((h1 + i * h2) & 0xFFFFFFFFFFFFFFFF) % f.bits for i in range(f.hash_count)
    ]
    assert f._positions(key) == expected


class TestStandardBloomFilter:
    def test_sizing_matches_formulas(self):
        f = StandardBloomFilter(1_000_000, 0.001)
        assert f.bits == optimal_bits(1_000_000, 0.001)
        assert f.hash_count == optimal_hash_count(f.bits, 1_000_000) == 10
        assert f.memory_bits() == f.bits

    def test_bits_per_element_reference(self):
        f = StandardBloomFilter(1_000_000, 0.001)
        assert round(f.memory_bits() / 1_000_000, 3) == 14.378

    def test_fresh_filter_rejects_everything(self):
        f = StandardBloomFilter(1000, 0.01)
        assert not f.contains(b"anything")

    def test_insert_then_lookup(self):
        f = StandardBloomFilter(1000, 0.01)
        f.insert(b"needle")
        assert f.contains(b"needle")

    @settings(max_examples=100, deadline=None)
    @given(key=keys_st)
    @example(key=b"")
    @example(key=b"double-hash probe")
    def test_positions_follow_double_hashing(self, key):
        assert_positions_follow_double_hashing(StandardBloomFilter(1000, 0.01), key)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(keys_st, min_size=1, max_size=120, unique=True))
    def test_no_false_negatives(self, keys):
        f = StandardBloomFilter(500, 0.01)
        for key in keys:
            f.insert(key)
        assert all(f.contains(key) for key in keys)

    def test_batch_matches_scalar(self):
        corpus = generate_corpus(2000, 13)
        batch = StandardBloomFilter(2000, 0.01)
        batch.insert_batch(corpus.matrix)
        scalar = StandardBloomFilter(2000, 0.01)
        for key in corpus:
            scalar.insert(key)
        assert np.array_equal(batch.words, scalar.words)
        queries = make_query_set("random", corpus, 1500, 3)
        predicted = batch.contains_batch(queries.matrix)
        for i in range(len(queries)):
            assert bool(predicted[i]) == scalar.contains(queries.matrix[i].tobytes())

    def test_fpp_near_target(self):
        corpus = generate_corpus(50_000, 41)
        f = StandardBloomFilter(50_000, 0.001)
        f.insert_batch(corpus.matrix)
        queries = make_query_set("disjoint", corpus, 50_000, 43)
        fpp = float(f.contains_batch(queries.matrix).mean())
        assert 0.0005 <= fpp <= 0.002

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError):
            StandardBloomFilter(1000, 0.01, seeds=[1, 2, 3])


class TestCountingBloomFilter:
    def test_memory_is_four_bits_per_counter(self):
        f = CountingBloomFilter(1_000_000, 0.001)
        assert f.memory_bits() == 4 * f.bits
        assert f.memory_bits() / 1_000_000 == pytest.approx(57.51, abs=0.01)

    @settings(max_examples=100, deadline=None)
    @given(key=keys_st)
    @example(key=b"")
    def test_positions_follow_double_hashing(self, key):
        assert_positions_follow_double_hashing(CountingBloomFilter(1000, 0.01), key)

    def test_remove_of_a_key_never_inserted_can_cause_a_false_negative(self):
        # the documented precondition of remove: b"x569" never went in,
        # but its probes share a counter with b"a"'s, which it empties
        f = CountingBloomFilter(1000, 0.01)
        f.insert(b"a")
        assert set(f._positions(b"a")) & set(f._positions(b"x569"))
        f.remove(b"x569")
        assert not f.contains(b"a")

    def test_counters_view_is_read_only(self):
        f = CountingBloomFilter(1000, 0.01)
        f.insert(b"needle")
        with pytest.raises(ValueError):
            f.counters[f._positions(b"needle")[0]] = 0
        assert f.contains(b"needle")

    def test_insert_remove_round_trip(self):
        f = CountingBloomFilter(1000, 0.01)
        f.insert(b"needle")
        assert f.contains(b"needle")
        f.remove(b"needle")
        assert not f.contains(b"needle")
        assert not f.counters.any()

    def test_double_insert_single_remove_keeps_membership(self):
        f = CountingBloomFilter(1000, 0.01)
        f.insert(b"needle")
        f.insert(b"needle")
        f.remove(b"needle")
        assert f.contains(b"needle")

    def test_counters_saturate_at_fifteen(self):
        f = CountingBloomFilter(1000, 0.01)
        for _ in range(40):
            f.insert(b"hot key")
        assert int(f.counters.max()) == f.COUNTER_MAX

    def test_saturated_counters_are_pinned(self):
        f = CountingBloomFilter(1000, 0.01)
        for _ in range(40):
            f.insert(b"hot key")
        for _ in range(40):
            f.remove(b"hot key")
        # pinned at the cap rather than drained: saturation forgets the
        # true count, so decrementing would risk false negatives
        assert int(f.counters.max()) == f.COUNTER_MAX
        assert f.contains(b"hot key")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_balanced_interleavings_return_to_zero(self, data):
        keys = data.draw(st.lists(keys_st, min_size=1, max_size=40, unique=True))
        f = CountingBloomFilter(500, 0.01)
        inserted = []
        # random interleaving of inserts with removes of already-inserted keys
        for key in keys:
            f.insert(key)
            inserted.append(key)
            if inserted and data.draw(st.booleans()):
                f.remove(inserted.pop(data.draw(st.integers(0, len(inserted) - 1))))
        for key in inserted:
            f.remove(key)
        assert not f.counters.any()

    def test_batch_insert_matches_scalar(self):
        corpus = generate_corpus(2000, 17)
        batch = CountingBloomFilter(2000, 0.01)
        batch.insert_batch(corpus.matrix)
        scalar = CountingBloomFilter(2000, 0.01)
        for key in corpus:
            scalar.insert(key)
        assert np.array_equal(batch.counters, scalar.counters)

    def test_batch_insert_saturation_matches_scalar(self):
        # a batch full of one repeated key exercises duplicate positions
        corpus = generate_corpus(1, 19)
        repeated = np.repeat(corpus.matrix, 50, axis=0)
        batch = CountingBloomFilter(500, 0.01)
        batch.insert_batch(repeated)
        scalar = CountingBloomFilter(500, 0.01)
        for _ in range(50):
            scalar.insert(corpus.key(0))
        assert np.array_equal(batch.counters, scalar.counters)
        assert int(batch.counters.max()) == batch.COUNTER_MAX

    @pytest.mark.parametrize("copies", [256, 300])
    def test_batch_of_many_copies_keeps_membership(self, copies):
        # 256 increments of one uint8 counter wrap it to 0 unless the
        # repeats are counted in a wider type before the saturating add
        corpus = generate_corpus(1, 19)
        batch = CountingBloomFilter(500, 0.01)
        batch.insert_batch(np.repeat(corpus.matrix, copies, axis=0))
        assert batch.contains(corpus.key(0))
        assert batch.contains_batch(corpus.matrix).all()
        scalar = CountingBloomFilter(500, 0.01)
        for _ in range(copies):
            scalar.insert(corpus.key(0))
        assert np.array_equal(batch.counters, scalar.counters)

    def test_contains_batch_matches_scalar(self):
        corpus = generate_corpus(2000, 23)
        f = CountingBloomFilter(2000, 0.01)
        f.insert_batch(corpus.matrix)
        queries = make_query_set("mixed", corpus, 1000, 29)
        predicted = f.contains_batch(queries.matrix)
        for i in range(len(queries)):
            assert bool(predicted[i]) == f.contains(queries.matrix[i].tobytes())

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(keys_st, min_size=1, max_size=120, unique=True))
    def test_no_false_negatives(self, keys):
        f = CountingBloomFilter(500, 0.01)
        for key in keys:
            f.insert(key)
        assert all(f.contains(key) for key in keys)

    def test_fpp_near_target(self):
        corpus = generate_corpus(50_000, 47)
        f = CountingBloomFilter(50_000, 0.001)
        f.insert_batch(corpus.matrix)
        queries = make_query_set("disjoint", corpus, 50_000, 53)
        fpp = float(f.contains_batch(queries.matrix).mean())
        assert 0.0005 <= fpp <= 0.002


@pytest.mark.parametrize("kind", ["sbf", "cbf"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_ops_match_double_hashing_oracle(kind, data):
    """Scalar insert/contains (and remove on the CBF) agree with the
    plain-Python oracle on a random script over a small pool of keys of
    mixed lengths, the empty key among them, and end in equal storage.
    Each step repeats its action up to 20 times, so CBF counters reach
    the cap of 15 and removes meet pinned counters."""
    counting = kind == "cbf"
    f = (CountingBloomFilter if counting else StandardBloomFilter)(20, 0.1)
    oracle = DoubleHashingOracle(f.bits, f.hash_count, f.variant, f.seeds, counting)
    pool = [b""] + data.draw(st.lists(keys_st, min_size=1, max_size=10))
    actions = ["insert", "remove", "lookup"] if counting else ["insert", "lookup"]
    script = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(actions),
                st.integers(0, len(pool) - 1),
                st.integers(1, 20),
            ),
            max_size=40,
        )
    )
    for action, which, times in script:
        key = pool[which]
        for _ in range(times):
            if action == "insert":
                f.insert(key)
                oracle.insert(key)
            elif action == "remove":
                f.remove(key)
                oracle.remove(key)
            else:
                assert f.contains(key) == oracle.lookup(key)
    for key in pool:
        assert f.contains(key) == oracle.lookup(key)
    if counting:
        assert f.counters.tolist() == oracle.slots
    else:
        assert [int(w) for w in f.words] == oracle.words()


@pytest.mark.parametrize("kind", ["sbf", "cbf"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_ops_match_double_hashing_oracle(kind, data):
    """``insert_batch``/``contains_batch`` (and scalar ``remove`` on the
    CBF) agree with the plain-Python oracle on a random script.  Each
    batch takes one key length from a pool of several keys per length,
    the empty key among them, repeats keys up to 20 times (so CBF
    counters reach the cap of 15 inside one batch) and may be empty."""
    counting = kind == "cbf"
    f = (CountingBloomFilter if counting else StandardBloomFilter)(50, 0.05)
    oracle = DoubleHashingOracle(f.bits, f.hash_count, f.variant, f.seeds, counting)
    lengths = [0] + data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True))
    pool = {
        length: data.draw(
            st.lists(st.binary(min_size=length, max_size=length), min_size=1, max_size=8, unique=True)
        )
        for length in lengths
    }
    actions = ["insert", "lookup", "remove"] if counting else ["insert", "lookup"]
    for _ in range(data.draw(st.integers(1, 12))):
        action = data.draw(st.sampled_from(actions))
        length = data.draw(st.sampled_from(lengths))
        if action == "remove":
            key = data.draw(st.sampled_from(pool[length]))
            f.remove(key)
            oracle.remove(key)
            continue
        picks = data.draw(
            st.lists(st.tuples(st.sampled_from(pool[length]), st.integers(1, 20)), max_size=6)
        )
        batch = [key for key, copies in picks for _ in range(copies)]
        matrix = key_matrix(batch, length)
        if action == "insert":
            f.insert_batch(matrix)
            for key in batch:
                oracle.insert(key)
        else:
            answers = f.contains_batch(matrix)
            assert answers.dtype == bool
            assert answers.tolist() == [oracle.lookup(key) for key in batch]
    for length, keys in pool.items():
        answers = f.contains_batch(key_matrix(keys, length))
        assert answers.tolist() == [oracle.lookup(key) for key in keys]
    if counting:
        assert f.counters.tolist() == oracle.slots
    else:
        assert [int(w) for w in f.words] == oracle.words()



@pytest.mark.parametrize("kind", ["sbf", "cbf"])
def test_batch_ops_match_double_hashing_oracle_across_slices(kind, monkeypatch):
    """The batch oracle script above with batches walked 3 keys at a
    time, so most of its batches span several slices and CBF counters
    saturate across slice boundaries."""
    monkeypatch.setattr(core, "SLICE_KEYS", 3)
    test_batch_ops_match_double_hashing_oracle(kind=kind)

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_counters_match_oracle_scalar_path_and_snapshot(data):
    """The nibble-packed CBF at odd and even m, from 1 to 257 counters:
    a random script of scalar inserts, batch inserts (keys repeated up
    to 20 times, so counters saturate inside a batch), scalar removes
    and lookups, with batches walked 3 keys at a time, leaves the
    oracle's counters, a zero spare nibble, and the answers,
    ``hash_calls`` and ``probe_calls`` of the same script run one
    scalar call per key.  Its snapshot round-trips byte for byte, and
    one whose last counter reads 16 is rejected before it is packed."""
    bits = data.draw(st.integers(1, 257), label="bits")
    hash_count = data.draw(st.integers(1, min(bits, 6)), label="hash_count")
    f = CountingBloomFilter.from_shape(bits, hash_count)
    scalar = CountingBloomFilter.from_shape(bits, hash_count)
    oracle = DoubleHashingOracle(bits, hash_count, f.variant, f.seeds, counting=True)
    length = data.draw(st.integers(0, 9), label="length")
    pool = data.draw(
        st.lists(st.binary(min_size=length, max_size=length), min_size=1, max_size=6, unique=True)
    )
    actions = ["insert", "insert_batch", "remove", "lookup", "contains_batch"]
    with mock.patch.object(core, "SLICE_KEYS", 3):
        for _ in range(data.draw(st.integers(1, 12))):
            action = data.draw(st.sampled_from(actions))
            picks = data.draw(
                st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 20)), max_size=4)
            )
            batch = [key for key, copies in picks for _ in range(copies)]
            if action == "contains_batch":
                answers = f.contains_batch(key_matrix(batch, length))
                assert answers.tolist() == [scalar.contains(key) for key in batch]
                assert answers.tolist() == [oracle.lookup(key) for key in batch]
            elif action == "lookup":
                for key in batch:
                    assert f.contains(key) == scalar.contains(key) == oracle.lookup(key)
            elif action == "insert_batch":
                f.insert_batch(key_matrix(batch, length))
                for key in batch:
                    scalar.insert(key)
                    oracle.insert(key)
            else:
                for key in batch:
                    for target in (f, scalar, oracle):
                        getattr(target, action)(key)
    assert f.counters.tolist() == scalar.counters.tolist() == oracle.slots
    assert np.array_equal(f.nibbles, scalar.nibbles)
    assert f.nibbles.size == (bits + 1) // 2
    if bits % 2:
        assert f.nibbles[-1] >> 4 == 0  # the spare nibble
    assert (f.hash_calls, f.probe_calls) == (scalar.hash_calls, scalar.probe_calls)
    # keys of the same length outside the pool, mostly absent: a lookup
    # that read its counter's neighbour nibble would answer some of them
    others = sorted({i.to_bytes(length, "little") for i in range(64) if i < 256**length})
    answers = f.contains_batch(key_matrix(others, length))
    assert answers.tolist() == [oracle.lookup(key) for key in others]
    assert answers.tolist() == [f.contains(key) for key in others]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cbf.snap"
        f.save(path)
        raw = path.read_bytes()
        assert raw[-bits:] == f.counters.tobytes()  # one byte per counter on disk
        CountingBloomFilter.load(path).save(path)
        assert path.read_bytes() == raw
        path.write_bytes(raw[:-1] + bytes([16]))
        with pytest.raises(ValueError):
            CountingBloomFilter.load(path)


def _key_probing_last_counter(oracle):
    """The first 8-byte key one of whose probes is counter ``bits - 1``,
    the largest position the insert's sorted dtype must hold."""
    for i in range(1_000_000):
        key = i.to_bytes(8, "little")
        if oracle.bits - 1 in oracle._positions(key):
            return key
    raise AssertionError("no key probes the last counter")


@pytest.mark.parametrize("slice_keys", [3, core.SLICE_KEYS], ids=["slices-of-3", "whole"])
@pytest.mark.parametrize("copies", [16, 300])
@pytest.mark.parametrize("bits", [255, 256, 257, 65_535, 65_536, 65_537])
def test_packed_counters_at_position_dtype_boundaries(bits, copies, slice_keys):
    """Either side of the m where the insert's sorted positions widen,
    uint8 -> uint16 (m = 256 -> 257) and uint16 -> uint32 (65,536 ->
    65,537): a batch of ``copies`` copies of one key that probes counter
    m - 1, then 200 distinct keys, saturates that key's counters, where
    300 increments held in a uint8 would wrap.  The packed counters, the
    answers, ``hash_calls`` and ``probe_calls`` equal the same keys
    inserted one scalar call each, and the oracle's."""
    hash_count = 7
    f = CountingBloomFilter.from_shape(bits, hash_count)
    scalar = CountingBloomFilter.from_shape(bits, hash_count)
    oracle = DoubleHashingOracle(bits, hash_count, f.variant, f.seeds, counting=True)
    top = _key_probing_last_counter(oracle)
    batch = [top] * copies + [(10**6 + i).to_bytes(8, "little") for i in range(200)]
    with mock.patch.object(core, "SLICE_KEYS", slice_keys):
        f.insert_batch(key_matrix(batch, 8))
        for key in batch:
            scalar.insert(key)
            oracle.insert(key)
        queries = batch[copies - 1 :] + [(2 * 10**6 + i).to_bytes(8, "little") for i in range(64)]
        answers = f.contains_batch(key_matrix(queries, 8)).tolist()
    assert answers == [scalar.contains(key) for key in queries]
    assert answers == [oracle.lookup(key) for key in queries]
    assert oracle.slots[bits - 1] == f.COUNTER_MAX
    assert np.array_equal(f.nibbles, scalar.nibbles)
    assert f.counters.tolist() == scalar.counters.tolist() == oracle.slots
    assert (f.hash_calls, f.probe_calls) == (scalar.hash_calls, scalar.probe_calls)


@pytest.mark.parametrize("cls", [StandardBloomFilter, CountingBloomFilter], ids=["sbf", "cbf"])
def test_from_shape_builds_the_shape_it_is_given(cls):
    f = cls.from_shape(1000, 7, seeds=[3, 4])
    assert (f.bits, f.hash_count, f.seeds) == (1000, 7, (3, 4))
    storage = [a for a in vars(f).values() if isinstance(a, np.ndarray)]
    # 1,000 bits in 16 words, or 1,000 four-bit counters two per byte
    assert [a.size for a in storage] == [16 if cls is StandardBloomFilter else 500]
    assert not storage[0].any()
    assert cls.from_shape(5, 5).hash_count == 5  # hash_count == bits is valid
    f.insert(b"needle")
    assert f.contains(b"needle")
    assert f.probe_calls == 14 and f.hash_calls == 4


@pytest.mark.parametrize("cls", [StandardBloomFilter, CountingBloomFilter], ids=["sbf", "cbf"])
@pytest.mark.parametrize("bits, hash_count, seeds", [
    (64, 0, None),
    (64, 65, None),
    (0, 1, None),
    (64, 3, [1]),
    (64, 3, [1, 2, 3]),
])
def test_from_shape_rejects_invalid_shapes(cls, bits, hash_count, seeds):
    with pytest.raises(ValueError):
        cls.from_shape(bits, hash_count, seeds=seeds)


@pytest.mark.parametrize("cls", [StandardBloomFilter, CountingBloomFilter], ids=["sbf", "cbf"])
def test_lookup_counters_match_scalar(cls):
    """On mixed hits and misses the batch lookup computes the digests and
    makes the probes the scalar short-circuit makes, key by key."""
    corpus = generate_corpus(3000, 31)
    f = cls(3000, 0.01)
    f.insert_batch(corpus.matrix)
    queries = make_query_set("mixed", corpus, 2000, 37)
    f.hash_calls = f.probe_calls = 0
    answers = f.contains_batch(queries.matrix)
    batch_counts = (f.hash_calls, f.probe_calls)
    f.hash_calls = f.probe_calls = 0
    for row in queries.matrix:
        f.contains(row.tobytes())
    assert 0 < answers.sum() < len(queries)
    assert batch_counts == (f.hash_calls, f.probe_calls)
    assert len(queries) < f.probe_calls < f.hash_count * len(queries)


@pytest.mark.parametrize("kind, op", [
    ("sbf", "insert_batch"),
    ("sbf", "contains_batch"),
    ("cbf", "contains_batch"),
])
def test_batch_transient_memory_per_key(kind, op):
    """A batch call holds O(1) uint64 arrays of one entry per key of a
    slice, or for the SBF insert one slice's k x 65,536 position matrix
    and its ``set_bits`` temporaries, not the whole call's k x count
    position matrix (k = 10 here, 80 B/key on its own); the bound sits
    between the two.  Measured for the SBF insert: 31.5 B/key (numpy 2.4)."""
    corpus = generate_corpus(200_000, 59)
    f = (CountingBloomFilter if kind == "cbf" else StandardBloomFilter)(len(corpus), 0.001)
    if op == "contains_batch":
        f.insert_batch(corpus.matrix)  # every key a hit: all k rows stay alive
    tracemalloc.start()
    try:
        getattr(f, op)(corpus.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.hash_count == 10
    assert peak / len(corpus) < 96

"""Two-dimensional filter: addressing, operations, batch equivalence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloom2d import core
from bloom2d.baselines import CountingBloomFilter, StandardBloomFilter
from bloom2d.core import TwoDBloomFilter, mod_batch
from bloom2d.geometry import FilterGeometry, derive_geometry
from bloom2d.hashing import HashVariant, derive_seeds, hash_key
from bloom2d.workload import generate_corpus, make_query_set
from reference_oracle import (
    BitMatrixOracle,
    cell_address,
    designed_fpp,
    fpp_bound,
    key_matrix,
)

TOY = FilterGeometry(rows=13, cols=11, cell_bits=61, hash_count=2, cell_width=64)

keys_st = st.binary(min_size=0, max_size=32)


def toy_filter(hash_count=2):
    geometry = FilterGeometry(
        rows=13, cols=11, cell_bits=61, hash_count=hash_count, cell_width=64
    )
    return TwoDBloomFilter(geometry, HashVariant.H4)


class TestCellAddress:
    def test_hand_worked_digest(self):
        # 200 % 13 = 5, 200 % 11 = 2, 200 % 61 = 17, mask = 1 << 17
        addr = cell_address(200, TOY)
        assert (addr.row, addr.col, addr.bit) == (5, 2, 17)
        assert addr.mask == 131072

    def test_mask_is_single_bit(self):
        for digest in (0, 1, 60, 61, 2**64 - 1, 987654321):
            addr = cell_address(digest, TOY)
            assert addr.mask == 1 << addr.bit
            assert 0 <= addr.row < 13
            assert 0 <= addr.col < 11
            assert 0 <= addr.bit < 61

    def test_or_of_hand_worked_mask(self):
        f = toy_filter()
        addr = cell_address(200, f.geometry)
        f.cells[addr.row, addr.col] |= np.uint64(addr.mask)
        assert int(f.cells[5, 2]) == 131072


# The moduli the filters reduce by: 1, the 2D shape's cell bits, rows and
# columns at 10**6 keys, the flat filters' slot count there, and two
# beyond 32 bits up to the largest uint64.
MODULI = [1, 61, 317, 359, 14_377_588, 2**32 + 15, 2**64 - 1]


@settings(max_examples=200, deadline=None)
@given(
    m=st.one_of(st.sampled_from(MODULI), st.integers(1, 2**64 - 1)),
    digests=st.lists(st.integers(0, 2**64 - 1), max_size=40),
)
@example(m=MODULI[0], digests=[])
@example(m=MODULI[1], digests=[])
@example(m=MODULI[2], digests=[])
@example(m=MODULI[3], digests=[])
@example(m=MODULI[4], digests=[])
@example(m=MODULI[5], digests=[])
@example(m=MODULI[6], digests=[])
def test_mod_batch_equals_remainder(m, digests):
    """``mod_batch`` is ``%`` for every uint64 digest and modulus,
    including 0, m - 1, m, 2**63 and 2**64 - 1, with and without ``out``."""
    values = digests + [0, m - 1, m, 2**63, 2**64 - 1]
    x = np.array(values, dtype=np.uint64)
    expected = [v % m for v in values]
    got = mod_batch(x, m)
    assert got.dtype == np.uint64
    assert got.tolist() == expected == (x % np.uint64(m)).tolist()
    out = np.empty_like(x)
    assert mod_batch(x, m, out=out) is out
    assert out.tolist() == expected
    assert x.tolist() == values  # the input is left as it was


class TestScalarOperations:
    def test_fresh_filter_rejects_everything(self):
        f = toy_filter()
        for key in (b"", b"a", b"some key"):
            assert not f.contains(key)

    def test_insert_then_lookup(self):
        f = toy_filter()
        f.insert(b"needle")
        assert f.contains(b"needle")
        assert f.inserted_count == 1

    def test_reinsert_changes_no_cell(self):
        f = toy_filter()
        f.insert(b"needle")
        snapshot = f.cells.copy()
        f.insert(b"needle")
        assert np.array_equal(f.cells, snapshot)
        assert f.inserted_count == 2  # bookkeeping still counts the call

    def test_single_insert_sets_at_most_hash_count_bits(self):
        f = toy_filter(hash_count=5)
        f.insert(b"needle")
        assert 1 <= f.count_set_bits() <= 5

    def test_remove_on_fresh_filter_is_a_no_op(self):
        f = toy_filter()
        f.remove(b"ghost")
        assert f.count_set_bits() == 0
        assert f.inserted_count == 0  # floored at zero

    def test_insert_remove_round_trip_restores_zero(self):
        f = toy_filter()
        f.insert(b"needle")
        f.remove(b"needle")
        assert f.count_set_bits() == 0
        assert not f.contains(b"needle")

    def test_shared_probe_bit_hazard(self):
        # with one probe, two keys landing on the same (row, col, bit)
        # exist well within a few hundred candidates (8723 slots)
        f = toy_filter(hash_count=1)
        seen = {}
        pair = None
        for i in range(2000):
            key = f"key-{i}".encode()
            digest = hash_key(key, f.seeds[0], f.variant)
            addr = cell_address(digest, f.geometry)
            slot = (addr.row, addr.col, addr.bit)
            if slot in seen and seen[slot] != key:
                pair = (seen[slot], key)
                break
            seen[slot] = key
        assert pair is not None, "no colliding pair found in 2000 candidates"
        first, second = pair
        f.insert(first)
        f.insert(second)
        assert f.contains(first) and f.contains(second)
        f.remove(first)
        # documented hazard: clearing the shared bit drops the other key
        assert not f.contains(second)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(keys_st, min_size=1, max_size=120, unique=True))
def test_no_false_negatives_without_deletion(keys):
    f = TwoDBloomFilter.for_capacity(500, 0.01)
    for key in keys:
        f.insert(key)
    assert all(f.contains(key) for key in keys)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "lookup"]), st.integers(0, 30)),
        max_size=120,
    )
)
def test_bit_hygiene_under_random_operations(ops):
    """No cell ever uses bit positions at or above cell_bits."""
    f = toy_filter(hash_count=3)
    unusable = ~np.uint64((1 << f.geometry.cell_bits) - 1)
    for action, which in ops:
        key = f"k{which}".encode()
        if action == "insert":
            f.insert(key)
        elif action == "remove":
            f.remove(key)
        else:
            f.contains(key)
    assert not np.any(f.cells & unusable)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matches_bit_matrix_oracle(data):
    """Filter agrees with the literal nested-list reference on a random
    insert/remove/lookup script over a small key pool."""
    f = toy_filter(hash_count=2)
    oracle = BitMatrixOracle(f.geometry, f.variant, f.seeds)
    script = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "lookup"]), st.integers(0, 40)
            ),
            max_size=150,
        )
    )
    for action, which in script:
        key = f"pool-{which}".encode()
        if action == "insert":
            f.insert(key)
            oracle.insert(key)
        elif action == "remove":
            f.remove(key)
            oracle.remove(key)
        else:
            assert f.contains(key) == oracle.lookup(key)
    for row in range(f.geometry.rows):
        for col in range(f.geometry.cols):
            assert int(f.cells[row, col]) == oracle.cells[row][col]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_ops_match_bit_matrix_oracle(data):
    """``insert_batch``/``contains_batch``, with scalar ``remove``
    interleaved, agree with the nested-list reference on a random script.
    Each batch takes one key length from a pool of several keys per
    length, the empty key among them, repeats keys (in-batch duplicates)
    and may be empty; the script ends in equal cells.  The filter has
    42 usable bits, so lookups often pass early probes and fail later."""
    geometry = FilterGeometry(rows=3, cols=2, cell_bits=7, hash_count=3, cell_width=64)
    f = TwoDBloomFilter(geometry, HashVariant.H4)
    oracle = BitMatrixOracle(f.geometry, f.variant, f.seeds)
    lengths = [0] + data.draw(st.lists(st.integers(1, 32), min_size=1, max_size=3, unique=True))
    pool = {
        length: data.draw(
            st.lists(st.binary(min_size=length, max_size=length), min_size=1, max_size=8, unique=True)
        )
        for length in lengths
    }
    for _ in range(data.draw(st.integers(1, 12))):
        action = data.draw(st.sampled_from(["insert", "lookup", "remove"]))
        length = data.draw(st.sampled_from(lengths))
        if action == "remove":
            key = data.draw(st.sampled_from(pool[length]))
            f.remove(key)
            oracle.remove(key)
            continue
        picks = data.draw(
            st.lists(st.tuples(st.sampled_from(pool[length]), st.integers(1, 4)), max_size=6)
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
    assert f.cells.tolist() == oracle.cells


class TestBatchEquivalence:
    @pytest.fixture()
    def corpus(self):
        return generate_corpus(3000, 11)

    def test_insert_batch_matches_scalar_inserts(self, corpus):
        batch = TwoDBloomFilter.for_capacity(3000, 0.01)
        batch.insert_batch(corpus.matrix)
        scalar = TwoDBloomFilter.for_capacity(3000, 0.01)
        for key in corpus:
            scalar.insert(key)
        assert np.array_equal(batch.cells, scalar.cells)
        assert batch.inserted_count == scalar.inserted_count == 3000

    def test_contains_batch_matches_scalar(self, corpus):
        f = TwoDBloomFilter.for_capacity(3000, 0.01)
        f.insert_batch(corpus.matrix)
        queries = make_query_set("random", corpus, 2000, 5)
        batch = f.contains_batch(queries.matrix)
        for i in range(len(queries)):
            assert bool(batch[i]) == f.contains(queries.matrix[i].tobytes())

    def test_lookup_digest_budget(self, corpus):
        """Per query, at most hash_count digests; exactly one on an empty
        filter (first probe already rules every key out)."""
        empty = TwoDBloomFilter.for_capacity(3000, 0.01)
        empty.hash_calls = 0
        empty.contains_batch(corpus.matrix)
        assert empty.hash_calls == len(corpus)

        full = TwoDBloomFilter.for_capacity(3000, 0.01)
        full.insert_batch(corpus.matrix)
        k = full.geometry.hash_count
        full.hash_calls = 0
        full.contains_batch(corpus.matrix)  # members walk all probes
        assert full.hash_calls == k * len(corpus)

        full.hash_calls = 0
        queries = make_query_set("disjoint", corpus, 2000, 5)
        full.contains_batch(queries.matrix)
        assert full.hash_calls <= k * len(queries)

    def test_insert_digest_budget(self, corpus):
        f = TwoDBloomFilter.for_capacity(3000, 0.01)
        f.insert_batch(corpus.matrix)
        assert f.hash_calls == f.geometry.hash_count * len(corpus)

    def test_lookup_digest_count_matches_scalar(self, corpus):
        """On mixed hits and misses the batch lookup folds exactly the
        digests the scalar short-circuit computes, key by key."""
        f = TwoDBloomFilter.for_capacity(3000, 0.01)
        f.insert_batch(corpus.matrix)
        queries = make_query_set("mixed", corpus, 2000, 7)
        f.hash_calls = 0
        answers = f.contains_batch(queries.matrix)
        batch_calls = f.hash_calls
        f.hash_calls = 0
        for row in queries.matrix:
            f.contains(row.tobytes())
        assert 0 < answers.sum() < len(queries)
        assert batch_calls == f.hash_calls
        assert len(queries) < batch_calls < f.geometry.hash_count * len(queries)


@pytest.mark.parametrize("make", [
    lambda: TwoDBloomFilter.for_capacity(1000, 0.01),
    lambda: StandardBloomFilter(1000, 0.01),
    lambda: CountingBloomFilter(1000, 0.01),
], ids=["robustbf", "sbf", "cbf"])
def test_empty_batch_is_a_no_op(make):
    f = make()
    storage = [a for a in vars(f).values() if isinstance(a, np.ndarray)]
    empty = np.zeros((0, 20), dtype=np.uint8)
    f.insert_batch(empty)
    answers = f.contains_batch(empty)
    assert answers.dtype == bool and answers.shape == (0,)
    assert storage and not any(a.any() for a in storage)
    assert f.hash_calls == 0 and f.inserted_count == 0


@pytest.mark.parametrize("make", [
    lambda: TwoDBloomFilter.for_capacity(1500, 0.01),
    lambda: StandardBloomFilter(1500, 0.01),
    lambda: CountingBloomFilter(1500, 0.01),
], ids=["robustbf", "sbf", "cbf"])
def test_scalar_and_batch_inserts_give_equal_state(make):
    """Storage, digest count and probe count agree between one
    ``insert_batch`` and a scalar ``insert`` per key, and between the
    sized filter and one its shape constructor rebuilds from its shape."""
    corpus = generate_corpus(1500, 19)
    batch, scalar = make(), make()
    if isinstance(batch, TwoDBloomFilter):
        shaped = TwoDBloomFilter(batch.geometry, batch.variant, batch.seeds)
    else:
        shaped = type(batch).from_shape(batch.bits, batch.hash_count, batch.variant, batch.seeds)
    batch.insert_batch(corpus.matrix)
    shaped.insert_batch(corpus.matrix)
    for key in corpus:
        scalar.insert(key)
    for other in (scalar, shaped):
        assert vars(other).keys() == vars(batch).keys()
        for name, value in vars(batch).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(other, name)), name
        assert batch.hash_calls == other.hash_calls > 0
        assert getattr(batch, "probe_calls", None) == getattr(other, "probe_calls", None)
        assert batch.inserted_count == other.inserted_count == len(corpus)


THREE_FILTERS = {
    "robustbf": lambda n: TwoDBloomFilter.for_capacity(n, 0.001),
    "sbf": lambda n: StandardBloomFilter(n, 0.001),
    "cbf": lambda n: CountingBloomFilter(n, 0.001),
}


def test_batch_ops_match_bit_matrix_oracle_across_slices(monkeypatch):
    """The batch oracle script above with batches walked 3 keys at a
    time, so most of its batches span several slices."""
    monkeypatch.setattr(core, "SLICE_KEYS", 3)
    test_batch_ops_match_bit_matrix_oracle()


@pytest.mark.parametrize("kind", THREE_FILTERS)
def test_multi_slice_batches_match_whole_batch_and_scalar(kind, monkeypatch):
    """One ``insert_batch`` and one ``contains_batch`` walked in slices of
    7 keys leave the same storage, answers, ``hash_calls``,
    ``probe_calls`` and ``inserted_count`` as the same calls made whole
    and as one scalar call per key.  700 copies of one key span 100
    slices, so CBF counters saturate across slice boundaries."""
    corpus = generate_corpus(1000, 23)
    copies = np.repeat(corpus.matrix[500:501], 700, axis=0)
    keys = np.concatenate([corpus.matrix[:500], copies, corpus.matrix[500:]])
    queries = make_query_set("mixed", corpus, 1000, 29).matrix
    make = THREE_FILTERS[kind]
    whole, sliced, scalar = make(1000), make(1000), make(1000)
    whole.insert_batch(keys)
    answers = {"whole": whole.contains_batch(queries)}

    monkeypatch.setattr(core, "SLICE_KEYS", 7)
    sizes = []

    def spy(hook):
        def counted(self, part):
            sizes.append(len(part))
            return hook(self, part)
        return counted

    for name in ("_insert_slice", "_contains_slice"):
        monkeypatch.setattr(type(sliced), name, spy(getattr(type(sliced), name)))
    sliced.insert_batch(keys)
    answers["sliced"] = sliced.contains_batch(queries)
    assert len(sizes) == -(-len(keys) // 7) + -(-len(queries) // 7)
    assert max(sizes) == 7

    for row in keys:
        scalar.insert(row.tobytes())
    answers["scalar"] = np.array([scalar.contains(q.tobytes()) for q in queries])

    assert answers["sliced"].dtype == bool
    assert np.array_equal(answers["sliced"], answers["whole"])
    assert np.array_equal(answers["sliced"], answers["scalar"])
    assert 0 < answers["sliced"].sum() < len(queries)
    for other in (whole, scalar):
        for name, value in vars(sliced).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(other, name)), name
        assert sliced.hash_calls == other.hash_calls
        assert getattr(sliced, "probe_calls", None) == getattr(other, "probe_calls", None)
        assert sliced.inserted_count == other.inserted_count == len(keys)
    if kind == "cbf":
        assert (sliced.counters == CountingBloomFilter.COUNTER_MAX).any()


@pytest.mark.parametrize("kind", THREE_FILTERS)
@pytest.mark.parametrize("op", ["insert_batch", "contains_batch"])
def test_multi_slice_batch_transient_memory_per_key(kind, op, monkeypatch):
    """A call of 16 slices peaks at one slice's temporaries plus the
    answers, not at the whole call's: one unsliced call holds 80-90
    B/key for the 2D filter, 64 for the SBF and the CBF lookup and 343
    for the CBF insert, whose sorted probe matrix sets the larger bound.
    Measured for insert/lookup: 2D 5.1/6.6, SBF 4.0/5.0, CBF 25.4/5.0
    B/key (numpy 2.4)."""
    monkeypatch.setattr(core, "SLICE_KEYS", 4096)
    corpus = generate_corpus(16 * 4096, 61)
    f = THREE_FILTERS[kind](len(corpus))
    if op == "contains_batch":
        f.insert_batch(corpus.matrix)  # every key a hit: all probes stay alive
    tracemalloc.start()
    try:
        getattr(f, op)(corpus.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 40 if (kind, op) == ("cbf", "insert_batch") else 12
    assert peak / len(corpus) < bound


@pytest.mark.parametrize("kind", THREE_FILTERS)
@pytest.mark.parametrize("slice_keys", [65_536, 3], ids=["one-slice", "multi-slice"])
def test_batch_calls_reject_non_matrix_and_skip_empty(kind, slice_keys, monkeypatch):
    """At filter level, 1-D and 3-D key arrays raise ``ValueError`` and
    change nothing, and a ``(0, 20)`` matrix is a no-op, whether the
    call is one slice or many."""
    monkeypatch.setattr(core, "SLICE_KEYS", slice_keys)
    f = THREE_FILTERS[kind](1000)
    for shape in ((40,), (8, 20, 2)):
        for op in (f.insert_batch, f.contains_batch):
            with pytest.raises(ValueError):
                op(np.zeros(shape, dtype=np.uint8))
    empty = np.zeros((0, 20), dtype=np.uint8)
    f.insert_batch(empty)
    answers = f.contains_batch(empty)
    assert answers.dtype == bool and answers.shape == (0,)
    storage = [a for a in vars(f).values() if isinstance(a, np.ndarray)]
    assert storage and not any(a.any() for a in storage)
    assert f.hash_calls == 0 and f.inserted_count == 0
    assert getattr(f, "probe_calls", 0) == 0


def _state(f):
    return {name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in vars(f).items()}


@pytest.mark.parametrize("kind", THREE_FILTERS)
@pytest.mark.parametrize("slice_keys", [65_536, 3], ids=["one-slice", "multi-slice"])
def test_batch_calls_reject_non_uint8_matrices(kind, slice_keys, monkeypatch):
    """int64, float and bool key matrices raise ``ValueError`` and leave
    the filter as it was.  A cast would wrap 300 and -1 to the key
    (44, 255) and truncate 44.7 to 44, so a lookup of floats could
    answer for a key nobody inserted."""
    monkeypatch.setattr(core, "SLICE_KEYS", slice_keys)
    f = THREE_FILTERS[kind](1000)
    f.insert_batch(generate_corpus(50, 43).matrix)
    before = _state(f)
    bad = [
        np.tile(np.array([300, -1], dtype=np.int64), (10, 1)),
        np.full((10, 2), 44.7),
        np.ones((10, 2), dtype=bool),
    ]
    for keys in bad:
        for op in (f.insert_batch, f.contains_batch):
            with pytest.raises(ValueError, match="uint8"):
                op(keys)
    after = _state(f)
    assert after.keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, after[name]), name
        else:
            assert value == after[name], name


@pytest.mark.parametrize("kind", THREE_FILTERS)
@pytest.mark.parametrize("slice_keys", [65_536, 7], ids=["one-slice", "multi-slice"])
@pytest.mark.parametrize("case", ["all-die-at-probe-1", "all-survive", "empty"])
def test_lookup_edges_match_scalar(kind, slice_keys, case, monkeypatch):
    """Batch lookups where every key misses its first probe (an empty
    filter), where every key survives all probes (its own inserted
    keys) and of no keys at all give the scalar answers, ``hash_calls``
    and ``probe_calls`` summed over the keys."""
    monkeypatch.setattr(core, "SLICE_KEYS", slice_keys)
    corpus = generate_corpus(500, 47)
    f = THREE_FILTERS[kind](500)
    if case == "all-survive":
        f.insert_batch(corpus.matrix)
    keys = corpus.matrix[:0] if case == "empty" else corpus.matrix

    def counters():
        return f.hash_calls, getattr(f, "probe_calls", None)

    def reset():
        f.hash_calls = 0
        if hasattr(f, "probe_calls"):
            f.probe_calls = 0

    reset()
    answers = f.contains_batch(keys)
    batch = counters()
    reset()
    scalar = [f.contains(row.tobytes()) for row in keys]
    assert answers.dtype == bool and answers.shape == (len(keys),)
    assert answers.tolist() == scalar
    assert batch == counters()

    if isinstance(f, TwoDBloomFilter):
        k, probes = f.geometry.hash_count, batch[0]
    else:
        k, probes = f.hash_count, batch[1]
        assert batch[0] == 2 * len(keys)
    per_key = {"all-die-at-probe-1": 1, "all-survive": k, "empty": 0}[case]
    assert probes == per_key * len(keys)
    assert answers.all() if case == "all-survive" else not answers.any()


class TestMemoryAccounting:
    def test_toy_memory(self):
        assert toy_filter().memory_bits() == 13 * 11 * 64 == 9152

    def test_reference_memory(self):
        f = TwoDBloomFilter(
            FilterGeometry(rows=1097, cols=1061, cell_bits=61, hash_count=5, cell_width=64)
        )
        assert f.memory_bits() == 74_490_688

    def test_reference_bits_per_element(self):
        g = derive_geometry(10_000_000, 0.001)
        assert round(g.memory_bits / 10_000_000, 2) == 7.45


class TestSeedValidation:
    def test_explicit_seeds_must_match_hash_count(self):
        with pytest.raises(ValueError):
            TwoDBloomFilter(TOY, seeds=[1, 2, 3])

    def test_default_seeds_are_derived(self):
        f = toy_filter()
        assert list(f.seeds) == derive_seeds(2)


MEASURED_N = 100_000
MEASURED_EPSILON = 0.001


@pytest.fixture(scope="module")
def measured():
    corpus = generate_corpus(MEASURED_N, 31)
    f = TwoDBloomFilter.for_capacity(MEASURED_N, MEASURED_EPSILON)
    f.insert_batch(corpus.matrix)
    queries = make_query_set("disjoint", corpus, MEASURED_N, 17)
    hits = f.contains_batch(queries.matrix)
    return f, float(hits.mean())


class TestFalsePositiveBehaviour:
    """Measured false-positive characteristics at a derived geometry."""

    def test_fpp_tracks_fill_fraction_power_law(self, measured):
        """The measured rate matches fill^hash_count, the structural floor
        of all-probes-set lookups."""
        f, fpp = measured
        predicted = f.fill_fraction() ** f.geometry.hash_count
        assert fpp == pytest.approx(predicted, rel=0.15)

    def test_fpp_within_sizing_target(self, measured):
        """Measured FPP over 10**5 guaranteed-absent queries stays within
        the rate the derived shape is built for.

        The bound is p* + 4 binomial standard errors, where p* is the
        Bloom rate of the shape's usable bits and hash count at 10**5
        keys (131x101x61, k=5: p* = 0.02100, bound 0.02281), computed
        from the geometry alone before any insert.  Unlike the companion
        test above it does not lean on the filter's own measured fill,
        and it is one-sided: a hashing or addressing fault that
        correlates probes or shrinks the address space pushes the rate
        above it.

        The sizing target 0.001 itself is out of reach at this
        footprint: the shape keeps 8.07 usable bits per key, and any
        membership structure needs log2(1/0.001) = 9.97 bits per key to
        reach 0.001.
        """
        f, fpp = measured
        rate = designed_fpp(f.geometry, MEASURED_N)
        bound = fpp_bound(rate, MEASURED_N)
        assert fpp <= bound, (
            f"measured fpp={fpp:.6f} above p*+4sigma={bound:.6f} "
            f"(p*={rate:.6f}, sizing target epsilon={MEASURED_EPSILON}) at "
            f"geometry {f.geometry.rows}x{f.geometry.cols}x{f.geometry.cell_bits} "
            f"with k={f.geometry.hash_count}"
        )

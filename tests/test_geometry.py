"""Sizing formulas and the prime X-by-Y shape derivation."""

import math

import numpy as np
import pytest

from bloom2d import geometry, primes
from bloom2d.core import TwoDBloomFilter
from bloom2d.geometry import (
    CELL_BITS,
    CELL_WIDTH,
    FilterGeometry,
    GeometryUnderflowError,
    derive_geometry,
    min_supported_items,
    optimal_bits,
    optimal_hash_count,
)
from bloom2d.primes import PrimeTableExhaustedError
from bloom2d.workload import generate_corpus, make_query_set

from reference_oracle import designed_fpp, fpp_bound
from test_primes import trial_division_is_prime


class TestOptimalBits:
    def test_hand_evaluated_small_cases(self):
        # ceil(0.6931 / 0.4805) and ceil(10 * 4.6052 / 0.4805)
        assert optimal_bits(1, 0.5) == 2
        assert optimal_bits(10, 0.01) == 96

    def test_reference_scale(self):
        bits = optimal_bits(10_000_000, 0.001)
        assert abs(bits - 143_775_877) <= 1

    def test_monotone_in_items(self):
        assert optimal_bits(2_000, 0.01) > optimal_bits(1_000, 0.01)

    @pytest.mark.parametrize("bad_eps", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_fp_target(self, bad_eps):
        with pytest.raises(ValueError):
            optimal_bits(100, bad_eps)

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            optimal_bits(0, 0.01)


class TestOptimalHashCount:
    def test_reference_scale(self):
        assert optimal_hash_count(143_775_877, 10_000_000) == 10

    def test_hand_evaluated(self):
        assert optimal_hash_count(96, 10) == 7  # round(6.65)

    def test_minimum_clamp(self):
        assert optimal_hash_count(5, 5) == 1  # round(0.693) with floor 1
        assert optimal_hash_count(1, 1000) == 1

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            optimal_hash_count(0, 10)
        with pytest.raises(ValueError):
            optimal_hash_count(10, 0)


class TestDeriveGeometry:
    def test_reference_shape(self):
        g = derive_geometry(10_000_000, 0.001)
        assert (g.rows, g.cols, g.cell_bits, g.hash_count) == (1097, 1061, 61, 5)
        assert g.memory_bits == 1097 * 1061 * 64 == 74_490_688

    def test_dimensions_are_distinct_primes(self):
        # three slots from the selected prime lies 61 at 17,000 (rows)
        # and 44,000 (cols), so those shapes take the prime four slots away
        for n, shape in [(17_000, (67, 37)), (44_000, (89, 59))]:
            g = derive_geometry(n, 0.001)
            assert (g.rows, g.cols) == shape
        for n in (250, 10_000, 17_000, 44_000, 1_000_000):
            g = derive_geometry(n, 0.001)
            assert trial_division_is_prime(g.rows)
            assert trial_division_is_prime(g.cols)
            assert trial_division_is_prime(g.cell_bits)
            assert len({g.rows, g.cols, g.cell_bits}) == 3
            assert g.rows > g.cols  # three slots above vs below the target

    @pytest.mark.parametrize("width,expected_cell_bits", [(CELL_WIDTH, 61)])
    def test_cell_bits_is_largest_prime_within_width(self, width, expected_cell_bits):
        largest = max(v for v in range(2, width + 1) if trial_division_is_prime(v))
        assert CELL_BITS == largest == expected_cell_bits
        assert derive_geometry(100_000, 0.01).cell_bits == CELL_BITS

    def test_half_hash_count(self):
        g = derive_geometry(1_000_000, 0.001)
        full = optimal_hash_count(optimal_bits(1_000_000, 0.001), 1_000_000)
        assert full == 10
        assert g.hash_count == 5

    def test_hash_count_floor(self):
        # very loose target -> tiny optimal k, half of it clamps to 1
        g = derive_geometry(100_000, 0.5)
        assert g.hash_count >= 1

    def test_memory_stays_below_classic_budget(self):
        g = derive_geometry(1_000_000, 0.001)
        assert g.memory_bits < optimal_bits(1_000_000, 0.001)

    def test_underflow_names_minimum_capacity(self):
        floor = min_supported_items(0.001)
        assert floor == 213
        with pytest.raises(GeometryUnderflowError) as err:
            derive_geometry(50, 0.001)
        assert "213" in str(err.value)
        # the named floor is tight
        derive_geometry(floor, 0.001)
        with pytest.raises(GeometryUnderflowError):
            derive_geometry(floor - 1, 0.001)

    @pytest.mark.parametrize("bad_eps", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_min_supported_items_rejects_bad_fp_target(self, bad_eps):
        with pytest.raises(ValueError, match=r"fp_target must lie in \(0, 1\)"):
            min_supported_items(bad_eps)

    def test_table_exhaustion_propagates(self):
        # dimension target 3.4e7, past the table's last prime 9,999,991
        with pytest.raises(PrimeTableExhaustedError, match="no prime above"):
            derive_geometry(10**16, 0.001)
        # target 9,999,967: the first prime above it, 9,999,971, is third
        # from the table's end, so no prime lies three slots above it
        with pytest.raises(PrimeTableExhaustedError, match="cannot place a dimension"):
            derive_geometry(848_537_310_177_106, 0.001)


@pytest.fixture(scope="module")
def full_table():
    """Every prime below 10**7, and their squares."""
    table = primes.default_table()
    return table, table * table


def reference_shape(full_table, expected_items, fp_target):
    """The shape read off every prime below 10**7, or the error it meets.

    The selected prime is the first ``p`` with ``p*p > q``, and a
    dimension three slots away that would equal ``CELL_BITS`` moves one
    slot further out.
    """
    table, squares = full_table
    bits = optimal_bits(expected_items, fp_target)
    index = int(np.searchsorted(squares, bits // (2 * CELL_BITS), side="right"))
    if index < 3:
        return GeometryUnderflowError
    if index + 3 >= len(table):
        return PrimeTableExhaustedError
    rows = int(table[index + 3]) if table[index + 3] != CELL_BITS else int(table[index + 4])
    cols = int(table[index - 3]) if table[index - 3] != CELL_BITS else int(table[index - 4])
    half = max(1, math.floor(optimal_hash_count(bits, expected_items) / 2 + 0.5))
    return (rows, cols, CELL_BITS, half)


def derived_shape(expected_items, fp_target):
    try:
        g = derive_geometry(expected_items, fp_target)
    except (GeometryUnderflowError, PrimeTableExhaustedError) as err:
        return type(err)
    return (g.rows, g.cols, g.cell_bits, g.hash_count)


def capacity_where_bound_is_full(fp_target):
    """Smallest n whose table bound 2*isqrt(q) + 1000 reaches 10**7."""
    low, high = 1, 10**16
    while low < high:
        mid = (low + high) // 2
        q = optimal_bits(mid, fp_target) // (2 * CELL_BITS)
        if 2 * math.isqrt(q) + 1000 >= 10**7:
            high = mid
        else:
            low = mid + 1
    return low


class TestSizingPrimeTable:
    @pytest.mark.parametrize("fp_target", [0.1, 0.01, 0.001])
    def test_shapes_match_the_full_table(self, cold_table, full_table, fp_target):
        floor = min_supported_items(fp_target)
        dense = range(floor, floor + 2_001)
        grid = {round(floor * 1.02**step) for step in range(2_000)}
        grid = {n for n in grid if n <= 10**16}
        edge = capacity_where_bound_is_full(fp_target)
        assert 10**14 < edge < 10**15  # about 2e14 at 0.001
        around = range(edge - 50, edge + 50)
        assert min(grid) < edge < max(grid)
        for n in [*dense, *sorted(grid), *around]:
            shape = derived_shape(n, fp_target)
            assert shape == reference_shape(full_table, n, fp_target), n
            if isinstance(shape, tuple):
                rows, cols, cell_bits, _ = shape
                # pairwise coprime, so the cell layout is the CRT bijection
                assert math.gcd(rows, cols) == math.gcd(rows, cell_bits) == 1, n
                assert math.gcd(cols, cell_bits) == 1, n

    def test_sizing_sieves_only_the_primes_it_needs(self, cold_table):
        derive_geometry(10**6, 0.001)
        TwoDBloomFilter.for_capacity(10**6, 0.001)
        assert min_supported_items(0.001) == 213
        table = primes.default_table(1)
        assert int(table[-1]) < 2_000
        assert primes._limit < 2_000

    def test_sizing_reads_the_array_through_the_module_global(self, monkeypatch):
        # the benchmark times sizing's prime array by replacing
        # geometry.default_table with a wrapper, as this spy does
        calls = []
        real = geometry.default_table

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "default_table", spy)
        derive_geometry(10**6, 0.001)
        assert len(calls) == 1
        TwoDBloomFilter.for_capacity(10**6, 0.001)
        assert len(calls) == 2
        assert int(primes.default_table()[-1]) == 9_999_991


# Capacities whose shape held a dimension equal to CELL_BITS before the
# shape skipped it: rows = 61 (61x37) in the first range, cols = 61
# (89x61) in the second.  Such a filter sets bits only where the row or
# column number equals the bit number, and filled to capacity it answers
# nearly every absent query "present".
BETA_RANGES = {
    0.1: ((47_069, 56_232), (128_325, 135_656)),
    0.01: ((23_535, 28_116), (64_163, 67_828)),
    0.001: ((15_690, 18_744), (42_775, 45_218)),
    1e-4: ((11_768, 14_058), (32_082, 33_914)),
}
SWEEP_QUERIES = 20_000


@pytest.fixture(scope="module")
def sweep_keys():
    corpus = generate_corpus(200_000, 41)
    return corpus.matrix, make_query_set("disjoint", corpus, SWEEP_QUERIES, 43).matrix


class TestCapacitySweep:
    @pytest.mark.parametrize("fp_target", sorted(BETA_RANGES))
    def test_filled_filter_meets_its_designed_rate(self, sweep_keys, fp_target):
        """Filled to capacity, every shape's false-positive rate on absent
        queries stays within p* + 4 binomial standard errors: at both
        ends and the middle of each range above, and on a sparse grid."""
        members, queries = sweep_keys
        floor = min_supported_items(fp_target)
        capacities = [
            n for low, high in BETA_RANGES[fp_target] for n in (low, (low + high) // 2, high)
        ]
        capacities += [floor * 4**step for step in range(8) if floor * 4**step <= 200_000]
        for n in capacities:
            f = TwoDBloomFilter.for_capacity(n, fp_target)
            f.insert_batch(members[:n])
            fpp = float(f.contains_batch(queries).mean())
            g = f.geometry
            bound = fpp_bound(designed_fpp(g, n), SWEEP_QUERIES)
            assert fpp <= bound, (n, g.rows, g.cols, g.cell_bits, fpp, bound)


class TestGeometryInvariants:
    VALID = dict(rows=13, cols=11, cell_bits=61, hash_count=2)

    def test_valid_shape_is_accepted(self):
        g = FilterGeometry(**self.VALID)
        assert (g.rows, g.cols, g.cell_bits) == (13, 11, 61)

    @pytest.mark.parametrize(
        "change",
        [
            dict(rows=10, cols=10, cell_bits=64),  # nothing prime, square
            dict(rows=15),                          # rows not prime
            dict(cols=1),                           # cols not prime
            dict(cell_bits=63),                     # cell_bits not prime
            dict(rows=11),                          # rows == cols
            dict(rows=61),                          # rows == cell_bits
            dict(cols=61),                          # cols == cell_bits
            dict(cell_bits=67),                     # prime, wider than the cell
            dict(hash_count=0),
            dict(hash_count=-1),
        ],
        ids=[
            "square-composite", "rows-composite", "cols-one", "cell-bits-composite",
            "rows-equal-cols", "rows-equal-cell-bits", "cols-equal-cell-bits",
            "cell-bits-67-of-64",
            "hash-count-0", "hash-count-negative",
        ],
    )
    def test_invalid_shape_is_rejected(self, change):
        with pytest.raises(ValueError):
            FilterGeometry(**{**self.VALID, **change})

    @pytest.mark.parametrize("width", [CELL_WIDTH])
    def test_derived_shapes_pass_the_checks(self, width):
        for n in (min_supported_items(0.01), 100_000):
            g = derive_geometry(n, 0.01)
            assert g.memory_bits == g.rows * g.cols * width

"""Shared prime array: sieve correctness against trial division, growth,
and the dimension primes that sizing selects from it."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloom2d import primes
from bloom2d.geometry import (
    CELL_BITS,
    GeometryUnderflowError,
    derive_geometry,
    optimal_bits,
)
from bloom2d.primes import PrimeTableExhaustedError, default_table, is_prime


def trial_division_is_prime(value: int) -> bool:
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    factor = 3
    while factor * factor <= value:
        if value % factor == 0:
            return False
        factor += 2
    return True


def test_sieve_matches_trial_division_to_2000(cold_table):
    sieved = set(default_table(2000).tolist())
    assert primes._limit == 2000
    for value in range(2001):
        assert (value in sieved) == trial_division_is_prime(value), value


def test_is_prime_matches_trial_division_reference():
    for value in range(-3, 2001):
        assert is_prime(value) == trial_division_is_prime(value), value
    assert is_prime(1_000_003) and not is_prime(1_000_001)


def test_sieve_small_limits(cold_table):
    assert default_table(1).size == 0
    assert default_table(2).tolist() == [2]
    assert default_table(11).tolist() == [2, 3, 5, 7, 11]
    assert primes._limit == 11


def test_default_table_covers_ten_million():
    table = default_table()
    assert primes._limit == 10_000_000
    assert table.dtype == np.int64
    assert int(table[0]) == 2
    assert int(table[-1]) == 9_999_991  # largest prime below 10**7
    assert np.all(np.diff(table) > 0)
    assert default_table() is table  # built once per process


def test_default_table_is_read_only(cold_table):
    """The one array is shared by every sizing call, so a caller's write
    raises instead of changing the shapes of filters sized after it."""
    for limit in (100, 2000):
        table = default_table(limit)
        with pytest.raises(ValueError):
            table[0] = 4
        assert int(table[0]) == 2
    g = derive_geometry(10**6, 0.001)
    assert (g.rows, g.cols, g.cell_bits) == (359, 317, 61)


def test_default_table_grows_only_when_asked_past_its_limit(cold_table):
    small = default_table(100)
    assert primes._limit == 100 and int(small[-1]) == 97
    assert default_table(50) is small  # a larger array serves smaller asks
    grown = default_table(150)
    assert primes._limit == 200  # at least doubles, so growth is amortised
    assert grown.tolist() == [v for v in range(201) if trial_division_is_prime(v)]
    full = default_table(10**9)
    assert primes._limit == 10_000_000  # never past 10**7
    assert default_table() is full


def capacity_for_cells(cells, fp_target=0.001):
    """Smallest capacity whose cell-count target q is exactly ``cells``."""
    low, high = 1, 10**16
    while low < high:
        mid = (low + high) // 2
        if optimal_bits(mid, fp_target) // (2 * CELL_BITS) >= cells:
            high = mid
        else:
            low = mid + 1
    assert optimal_bits(low, fp_target) // (2 * CELL_BITS) == cells
    return low


def dimensions_at(cells):
    g = derive_geometry(capacity_for_cells(cells), 0.001)
    return g.rows, g.cols


def primes_from(value, step):
    """Primes past ``value``, upward for step 1 and downward to 2 for -1."""
    value += step
    while value >= 2 or step > 0:
        if trial_division_is_prime(value):
            yield value
        value += step


class TestSelectPrime:
    """Sizing selects the first prime strictly above sqrt(q) and takes the
    primes three slots to either side of it as rows and cols."""

    def test_smallest_prime(self):
        # sqrt(25) = 5: the first prime above is 7, whose third prime
        # below is the smallest prime
        assert dimensions_at(25) == (17, 2)
        # sqrt(24) < 5: the first prime above, 5, has two primes below it
        with pytest.raises(GeometryUnderflowError):
            dimensions_at(24)

    def test_next_prime_after_ten(self):
        # 11 for sqrt(100) = 10 and for sqrt(120) = 10.95
        assert dimensions_at(100) == dimensions_at(120) == (19, 3)

    def test_fractional_target(self):
        # trial division over 1080..1090 names 1087 as the next prime
        candidates = [v for v in range(1081, 1091) if trial_division_is_prime(v)]
        assert candidates == [1087]
        assert math.sqrt(1_178_484) == pytest.approx(1085.58, abs=0.01)
        # 1087 and three primes out: 1091, 1093, 1097 and 1069, 1063, 1061
        assert dimensions_at(1_178_484) == (1097, 1061)

    def test_strictness_at_a_prime(self):
        # sqrt(121) = 11 is prime itself, so the selected prime is 13
        assert dimensions_at(121) == (23, 5)

    def test_exhaustion(self, cold_table):
        # 9,999,991 is the largest prime below 10**7: no prime lies above
        # it, and the array never grows past 10**7 to look for one
        with pytest.raises(PrimeTableExhaustedError, match="no prime above"):
            dimensions_at(9_999_991**2)
        assert primes._limit == 10_000_000
        with pytest.raises(PrimeTableExhaustedError, match="no prime above"):
            dimensions_at(10**15)

    def test_linear_and_binary_paths_agree(self, monkeypatch):
        # a cold process's short array and the full one give one shape
        cells = (25, 100, 121, 97**2, 1_178_484, 7919**2)
        short = []
        for q in cells:
            monkeypatch.setattr(primes, "_primes", primes._primes[:0])
            monkeypatch.setattr(primes, "_limit", 0)
            short.append(dimensions_at(q))
            assert primes._limit < 10**5
        default_table()
        assert [dimensions_at(q) for q in cells] == short

    @given(
        expected_items=st.integers(min_value=1, max_value=10**12),
        fp_target=st.sampled_from([0.1, 0.01, 0.001, 1e-4, 1e-6]),
    )
    @example(expected_items=17_000, fp_target=0.001)  # rows would be 61
    @example(expected_items=44_000, fp_target=0.001)  # cols would be 61
    def test_returned_index_is_minimal(self, expected_items, fp_target):
        # rows and cols are the third prime after and before the first
        # prime above sqrt(q), or the fourth where the third is beta
        cells = optimal_bits(expected_items, fp_target) // (2 * CELL_BITS)
        first = next(primes_from(math.isqrt(cells), 1))
        above = list(islice(primes_from(first, 1), 4))
        below = list(islice(primes_from(first, -1), 4))
        if len(below) < 3:
            with pytest.raises(GeometryUnderflowError):
                derive_geometry(expected_items, fp_target)
            return
        rows = above[3] if above[2] == CELL_BITS else above[2]
        cols = below[3] if below[2] == CELL_BITS else below[2]
        g = derive_geometry(expected_items, fp_target)
        assert (g.rows, g.cols) == (rows, cols)

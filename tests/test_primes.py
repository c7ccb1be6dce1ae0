"""Prime table: sieve correctness against trial division, index selection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloom2d import primes
from bloom2d.primes import (
    PrimeTable,
    PrimeTableExhaustedError,
    default_table,
    is_prime,
    select_prime,
    sieve_primes,
)


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


def test_sieve_matches_trial_division_to_2000():
    sieved = set(sieve_primes(2000).tolist())
    for value in range(2001):
        assert (value in sieved) == trial_division_is_prime(value), value


def test_is_prime_matches_trial_division_reference():
    for value in range(-3, 2001):
        assert is_prime(value) == trial_division_is_prime(value), value
    assert is_prime(1_000_003) and not is_prime(1_000_001)


def test_sieve_small_limits():
    assert sieve_primes(1).size == 0
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(11).tolist() == [2, 3, 5, 7, 11]


def test_default_table_covers_ten_million():
    table = default_table()
    assert table.limit == 10_000_000
    assert int(table.primes[0]) == 2
    assert int(table.primes[-1]) == 9_999_991  # largest prime below 10**7
    assert np.all(np.diff(table.primes) > 0)
    assert default_table() is table  # built once per process


def test_default_table_grows_only_when_asked_past_its_limit(monkeypatch):
    monkeypatch.setattr(primes, "_default_table", None)
    small = default_table(100)
    assert small.limit == 100 and int(small.primes[-1]) == 97
    assert default_table(50) is small  # a larger table serves smaller asks
    grown = default_table(150)
    assert grown.limit == 200  # at least doubles, so growth is amortised
    assert grown.primes.tolist() == sieve_primes(200).tolist()
    full = default_table(10**9)
    assert full.limit == 10_000_000  # never past 10**7
    assert default_table() is full


class TestSelectPrime:
    def test_smallest_prime(self):
        table = default_table()
        assert int(table.primes[select_prime(table, 1)]) == 2

    def test_next_prime_after_ten(self):
        table = default_table()
        assert int(table.primes[select_prime(table, 10)]) == 11

    def test_fractional_target(self):
        # trial division over 1080..1090 names 1087 as the next prime
        candidates = [v for v in range(1081, 1091) if trial_division_is_prime(v)]
        assert candidates == [1087]
        table = default_table()
        assert int(table.primes[select_prime(table, 1085.58)]) == 1087

    def test_strictness_at_a_prime(self):
        table = default_table()
        index = select_prime(table, 11)
        assert int(table.primes[index]) == 13

    def test_exhaustion(self):
        table = PrimeTable.up_to(100)
        with pytest.raises(PrimeTableExhaustedError):
            select_prime(table, 97)
        with pytest.raises(PrimeTableExhaustedError):
            select_prime(table, 1000)

    def test_linear_and_binary_paths_agree(self):
        # a short table and the default one select the same prime
        small = PrimeTable.up_to(10_000)
        big = default_table()
        for target in (1, 2, 2.5, 10, 97, 1085.58, 7919):
            i_small = select_prime(small, target)
            i_big = select_prime(big, target)
            assert int(small.primes[i_small]) == int(big.primes[i_big])

    @given(target=st.floats(min_value=0, max_value=9000, allow_nan=False))
    def test_returned_index_is_minimal(self, target):
        table = PrimeTable.up_to(10_000)
        index = select_prime(table, target)
        assert table.primes[index] > target
        if index > 0:
            assert table.primes[index - 1] <= target

"""Shared test fixtures."""

import pytest

from bloom2d import primes
from reference_oracle import BitMatrixOracle


@pytest.fixture
def bit_matrix_oracle_cls():
    return BitMatrixOracle


@pytest.fixture
def cold_table(monkeypatch):
    """Empty the shared prime array for one test, as in a fresh process."""
    monkeypatch.setattr(primes, "_primes", primes._primes[:0])
    monkeypatch.setattr(primes, "_limit", 0)

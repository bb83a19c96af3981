import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import totient
from zsindex.modring import inv, units


def test_units_examples():
    assert units(10) == [1, 3, 7, 9]
    assert len(units(7)) == 6
    assert len(units(175)) == 120


def test_inv_examples():
    assert inv(3, 10) == 7
    assert inv(1, 175) == 1
    assert inv(4, 175) == 44


def test_inv_rejects_non_units():
    with pytest.raises(ValueError):
        inv(5, 10)
    with pytest.raises(ValueError):
        inv(0, 7)


def test_modulus_floor_enforced():
    for fn in (lambda: units(2), lambda: inv(1, 2)):
        with pytest.raises(ValueError):
            fn()


@given(st.integers(3, 5000), st.integers(1, 10**9))
def test_inv_roundtrip(n, m):
    if math.gcd(m, n) != 1:
        m = 1
    r = inv(m, n)
    assert 1 <= r <= n - 1
    assert m * r % n == 1


def test_units_are_ascending_and_coprime():
    for n in (3, 4, 30, 49, 175):
        us = units(n)
        assert us == sorted(set(us))
        assert all(math.gcd(m, n) == 1 and 1 <= m < n for m in us)


def test_units_count_matches_totient():
    # exhaustive on small moduli, deterministic sample up to 10**4
    for n in range(3, 1501):
        assert len(units(n)) == totient(n)
    rng = random.Random(2024)
    for n in sorted(rng.sample(range(1501, 10001), 120)):
        assert len(units(n)) == totient(n)


def test_wide_modulus_arithmetic_is_exact():
    n = 2**31 - 1
    m = 2**30 + 3
    assert math.gcd(m, n) == 1
    assert m * inv(m, n) % n == 1

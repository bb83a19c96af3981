import math

import pytest

from conftest import (
    min_zero_sum4_sequences,
    oracle_count_minimal4,
    oracle_enumerate4,
    oracle_enumerate_triples,
    oracle_orbit_reps,
    oracle_sequence_check,
    totient,
)
from zsindex import enumeration
from zsindex.enumeration import _candidates, iter_min_zero_sum4, iter_orbit_reps
from zsindex.zseq import Sequence, index, is_minimal_zero_sum, nu, scale, units


def test_n5_exact_enumeration():
    assert list(iter_min_zero_sum4(5)) == [(1, 1, 1, 2), (1, 3, 3, 3), (2, 2, 2, 4), (3, 4, 4, 4)]


@pytest.mark.parametrize("n, count", [(5, 4), (7, 12), (11, 50), (25, 624), (35, 1734)])
def test_frozen_counts(n, count):
    assert sum(1 for _ in iter_min_zero_sum4(n)) == count


def test_matches_independent_multiset_oracle():
    for n in range(3, 41):
        assert list(iter_min_zero_sum4(n)) == oracle_enumerate4(n)


@pytest.mark.parametrize("n", [*range(3, 81), 97, 121, 125])
def test_matches_the_triple_filter_in_order(n):
    assert list(iter_min_zero_sum4(n)) == oracle_enumerate_triples(n)


def test_every_yield_is_a_valid_sequence_tuple():
    for n in range(3, 81):
        for t in iter_min_zero_sum4(n):
            assert type(t) is tuple and len(t) == 4 and all(type(x) is int for x in t)
            oracle_sequence_check(n, t)
            assert Sequence(n, t).coeffs == t


def test_matches_the_independent_quadratic_count():
    for n in range(3, 91):
        assert sum(1 for _ in iter_min_zero_sum4(n)) == oracle_count_minimal4(n)


def test_yield_order_is_strictly_lexicographic():
    for n in (12, 23, 30):
        prev = None
        for coeffs in iter_min_zero_sum4(n):
            if prev is not None:
                assert coeffs > prev
            prev = coeffs


def test_every_yield_is_minimal_zero_sum():
    for n in (9, 14, 25):
        for seq in min_zero_sum4_sequences(n):
            assert is_minimal_zero_sum(seq)


def test_closure_under_unit_scaling():
    for n in (10, 13, 21, 24):
        everything = set(iter_min_zero_sum4(n))
        for coeffs in everything:
            seq = Sequence(n, coeffs)
            for m in units(n):
                assert scale(seq, m).coeffs in everything


def test_negation_involution_preserves_the_set_and_swaps_nu():
    for n in range(5, 61):
        everything = set(iter_min_zero_sum4(n))
        by_nu = {1: 0, 2: 0, 3: 0}
        for coeffs in everything:
            mirrored = tuple(sorted(n - x for x in coeffs))
            assert mirrored in everything
            by_nu[nu(Sequence(n, coeffs))] += 1
        assert by_nu[1] == by_nu[3]


def test_orbit_reps_cover_everything_exactly_once():
    for n in (5, 11, 16, 21, 25):
        reps = list(iter_orbit_reps(n))
        everything = set(iter_min_zero_sum4(n))
        assert sum(r.orbit_size for r in reps) == len(everything)
        covered = set()
        for r in reps:
            members = {scale(r.rep, m).coeffs for m in units(n)}
            assert len(members) == r.orbit_size
            assert not members & covered
            covered |= members
        assert covered == everything


def test_index_is_constant_on_each_orbit():
    for n in (13, 20, 25):
        for r in iter_orbit_reps(n):
            values = {index(scale(r.rep, m)).value for m in units(n)}
            assert values == {index(r.rep).value}


def _assert_orbit_reps_match_the_unit_scan(n):
    got = [(r.rep.coeffs, r.orbit_size) for r in iter_orbit_reps(n)]
    everything = list(iter_min_zero_sum4(n))
    assert got == oracle_orbit_reps(n, everything)
    assert sum(size for _, size in got) == len(everything) == oracle_count_minimal4(n)
    assert all(totient(n) % size == 0 for _, size in got)


def test_orbit_reps_match_the_full_unit_scan_up_to_80():
    # Composite moduli reach representatives with x1 = d > 1, down to n/d = 4 (d, d, d, d).
    for n in range(3, 81):
        _assert_orbit_reps_match_the_unit_scan(n)


# 105 has three primes and reps with d > 1; 143 is a coprime6 two-prime modulus in verify-orbits.
@pytest.mark.parametrize("n", [105, 121, 125, 143, 169, 175])
def test_orbit_reps_match_the_full_unit_scan_on_larger_moduli(n):
    _assert_orbit_reps_match_the_unit_scan(n)


def _scanned_candidates(n, x):
    return [m for m in range(1, n) if math.gcd(m, n) == 1 and m * x % n == math.gcd(x, n)]


def test_candidates_match_a_plain_unit_scan():
    for n in range(3, 201):
        for x in range(1, n):
            assert _candidates(x, n, math.gcd(x, n)) == _scanned_candidates(n, x), (n, x)


def test_orbit_reps_cache_the_scanned_candidates(monkeypatch):
    tables = []
    stabiliser_size = enumeration._stabiliser_size

    def spy(coeffs, n, g, candidates):
        tables.append((g, candidates))
        return stabiliser_size(coeffs, n, g, candidates)

    monkeypatch.setattr(enumeration, "_stabiliser_size", spy)
    for n in range(4, 81):  # Z_3 has no minimal zero-sum sequence of length 4
        tables.clear()
        list(iter_orbit_reps(n))
        # One gcd table and one candidate cache per modulus, shared by every call.
        assert len({(id(g), id(c)) for g, c in tables}) == 1
        g, candidates = tables[0]
        assert g == [math.gcd(x, n) for x in range(n)]
        built = [x for x, ms in enumerate(candidates) if ms is not None]
        assert 1 in built
        for x in built:
            assert candidates[x] == _scanned_candidates(n, x), (n, x)

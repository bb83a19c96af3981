import math

import pytest

from conftest import min_zero_sum4_sequences, oracle_minimal_zero_sum
from zsindex.certify import LIFTED, verify_certificate
from zsindex.subgroup import lift_witness, try_subgroup_reduce
from zsindex.zseq import Sequence, index, is_minimal_zero_sum, make_sequence


def test_reduce_examples():
    r = try_subgroup_reduce(make_sequence(35, [5, 5, 5, 20]))
    assert r is not None
    assert r.d == 5 and r.reduced.n == 7 and r.reduced.coeffs == (1, 1, 1, 4)
    assert is_minimal_zero_sum(r.reduced)

    assert try_subgroup_reduce(make_sequence(175, [5, 77, 133, 135])) is None

    r = try_subgroup_reduce(make_sequence(35, [5, 5, 10, 15]))
    assert r is not None
    assert r.d == 5 and r.reduced.coeffs == (1, 1, 2, 3)
    assert oracle_minimal_zero_sum(7, r.reduced.coeffs)


def test_degenerate_subgroup_cannot_occur():
    # A reduction to modulus 2 would need all coefficients equal to n/2, but
    # then any pair already sums to zero, and modulus 1 would need them all 0;
    # so every reduction of a minimal sequence lands on n/d >= 3 unguarded.
    for n in (4, 6, 8, 10, 12):
        assert not is_minimal_zero_sum(Sequence(n, (n // 2,) * 4))
    for n in range(6, 41):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert r.reduced.n >= 3


def test_lift_examples():
    r = try_subgroup_reduce(make_sequence(35, [5, 5, 5, 20]))
    cert = lift_witness(r, 1)
    assert cert.m == 1 and cert.derivation == LIFTED

    r = try_subgroup_reduce(make_sequence(35, [5, 5, 10, 15]))
    cert = lift_witness(r, 1)
    assert cert.m == 1

    # a reduced witness that shares a factor with the big modulus forces t >= 1
    r = try_subgroup_reduce(make_sequence(55, [5, 25, 35, 45]))
    assert r.d == 5 and r.reduced.coeffs == (1, 5, 7, 9)
    cert = lift_witness(r, 5)
    assert cert.m == 5 + 11 == 16
    assert verify_certificate(make_sequence(55, [5, 25, 35, 45]), 16)


def test_lift_rejects_non_witnesses():
    r = try_subgroup_reduce(make_sequence(35, [5, 5, 5, 20]))
    with pytest.raises(ValueError):
        lift_witness(r, 7)  # not a unit mod 7
    with pytest.raises(ValueError):
        lift_witness(r, 3)  # unit, but weight is 3+3+3+5 = 14, not 7


def test_minimality_transfers_both_ways():
    # downward: every reducible minimal sequence reduces to a minimal one
    for n in range(6, 61):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert oracle_minimal_zero_sum(r.reduced.n, r.reduced.coeffs)
    # upward: multiplying a minimal sequence by d stays minimal over d*n
    for n_sub in range(3, 16):
        for seq in min_zero_sum4_sequences(n_sub):
            for d in (2, 3, 5):
                big = Sequence(d * n_sub, tuple(d * x for x in seq.coeffs))
                assert is_minimal_zero_sum(big)
                r = try_subgroup_reduce(big)
                assert r is not None and r.d % d == 0


def test_lift_soundness_for_every_reducible_sequence():
    for n in range(6, 61):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is None:
                continue
            sub = index(r.reduced)
            if sub.value != 1:
                continue  # nothing to lift
            cert = lift_witness(r, sub.witness)
            assert verify_certificate(seq, cert.m)
            # the scan stays within d shifts
            assert (cert.m - sub.witness % r.reduced.n) // r.reduced.n < r.d


def test_index_agrees_across_reduction():
    for n in (20, 28, 45, 50):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert index(seq).value == index(r.reduced).value

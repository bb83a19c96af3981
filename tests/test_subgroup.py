import math
from itertools import combinations_with_replacement

import pytest

from conftest import min_zero_sum4_sequences, oracle_minimal_zero_sum
from zsindex.certify import LIFTED, make_certificate, verify_certificate
from zsindex.subgroup import lift_witness, try_subgroup_reduce
from zsindex.zseq import Sequence, index, is_minimal_zero_sum, make_sequence


def test_reduce_examples():
    r = try_subgroup_reduce(make_sequence(35, [5, 5, 5, 20]))
    assert r == Sequence(7, (1, 1, 1, 4))
    assert is_minimal_zero_sum(r)

    assert try_subgroup_reduce(make_sequence(175, [5, 77, 133, 135])) is None

    r = try_subgroup_reduce(make_sequence(35, [5, 5, 10, 15]))
    assert r == Sequence(7, (1, 1, 2, 3))
    assert oracle_minimal_zero_sum(7, r.coeffs)


def test_degenerate_subgroup_cannot_occur():
    # A reduction to modulus 2 would need all coefficients equal to n/2, but
    # then any pair already sums to zero, and modulus 1 would need them all 0;
    # so every reduction of a minimal sequence lands on n/d >= 3.
    for n in (4, 6, 8, 10, 12):
        assert not is_minimal_zero_sum(Sequence(n, (n // 2,) * 4))
    for n in range(6, 41):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert r.n >= 3


def test_reduction_contract_on_every_sorted_tuple():
    """Any sorted 4-tuple, minimal or not: d = gcd(n, x1..x4) is divided out
    exactly, Sequence rejects n/d < 3, zero sum and minimality agree between
    input and output, and a reduced witness of index 1 lifts to a
    multiplier certifying seq."""
    for n in range(3, 25):
        for coeffs in combinations_with_replacement(range(1, n), 4):
            seq = Sequence(n, coeffs)
            d = math.gcd(n, *coeffs)
            if d == 1:
                assert try_subgroup_reduce(seq) is None
                continue
            if n // d < 3:
                with pytest.raises(ValueError, match="^modulus must be at least 3"):
                    try_subgroup_reduce(seq)
                continue
            r = try_subgroup_reduce(seq)
            assert r == Sequence(n // d, tuple(x // d for x in coeffs))
            assert (sum(coeffs) % n == 0) == (sum(r.coeffs) % r.n == 0)
            assert oracle_minimal_zero_sum(n, coeffs) == oracle_minimal_zero_sum(r.n, r.coeffs)
            sub = index(r)
            if sub.value == 1:
                assert verify_certificate(seq, lift_witness(seq, r, sub.witness))


def test_lift_examples():
    seq = make_sequence(35, [5, 5, 5, 20])
    assert lift_witness(seq, try_subgroup_reduce(seq), 1) == 1

    seq = make_sequence(35, [5, 5, 10, 15])
    assert lift_witness(seq, try_subgroup_reduce(seq), 1) == 1

    # a reduced witness that shares a factor with the big modulus forces t >= 1
    seq = make_sequence(55, [5, 25, 35, 45])
    r = try_subgroup_reduce(seq)
    assert r == Sequence(11, (1, 5, 7, 9))
    assert lift_witness(seq, r, 5) == 5 + 11 == 16
    assert verify_certificate(seq, 16)


def test_lift_rejects_non_witnesses():
    seq = make_sequence(35, [5, 5, 5, 20])
    r = try_subgroup_reduce(seq)
    with pytest.raises(ValueError):
        lift_witness(seq, r, 7)  # not a unit mod 7
    # A unit, but its weight is 3+3+3+5 = 14, not 7: the lift is a multiplier
    # that no certificate accepts.
    lift = lift_witness(seq, r, 3)
    assert not verify_certificate(seq, lift)
    with pytest.raises(ValueError):
        make_certificate(seq, lift, LIFTED)


def test_minimality_transfers_both_ways():
    # downward: every reducible minimal sequence reduces to a minimal one
    for n in range(6, 61):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert oracle_minimal_zero_sum(r.n, r.coeffs)
    # upward: multiplying a minimal sequence by d stays minimal over d*n
    for n_sub in range(3, 16):
        for seq in min_zero_sum4_sequences(n_sub):
            for d in (2, 3, 5):
                big = Sequence(d * n_sub, tuple(d * x for x in seq.coeffs))
                assert is_minimal_zero_sum(big)
                r = try_subgroup_reduce(big)
                assert r is not None and (d * n_sub // r.n) % d == 0


def test_lift_soundness_for_every_reducible_sequence():
    for n in range(6, 61):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is None:
                continue
            sub = index(r)
            if sub.value != 1:
                continue  # nothing to lift
            lift = lift_witness(seq, r, sub.witness)
            assert verify_certificate(seq, lift)
            # the scan stays within d shifts
            assert (lift - sub.witness % r.n) // r.n < n // r.n


def test_lift_certifies_seq_exactly_when_m_sub_certifies_the_reduced_sequence():
    """Every reducible minimal sequence with n <= 60 and every unit m_sub
    mod n/d: the lift is a unit of n congruent to m_sub mod n/d, and it
    certifies seq exactly when m_sub certifies the reduced sequence."""
    lifts = hits = 0
    for n in range(3, 61):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is None:
                continue
            for m_sub in range(1, r.n):
                if math.gcd(m_sub, r.n) != 1:
                    continue
                lift = lift_witness(seq, r, m_sub)
                assert 0 < lift < n and math.gcd(lift, n) == 1
                assert lift % r.n == m_sub
                certifies = verify_certificate(r, m_sub)
                assert verify_certificate(seq, lift) == certifies, (seq, m_sub)
                lifts += 1
                hits += certifies
    assert 0 < hits < lifts


def test_index_agrees_across_reduction():
    for n in (20, 28, 45, 50):
        for seq in min_zero_sum4_sequences(n):
            r = try_subgroup_reduce(seq)
            if r is not None:
                assert index(seq).value == index(r).value

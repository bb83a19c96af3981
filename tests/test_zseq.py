import json
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_index, oracle_minimal_zero_sum, oracle_sequence_check, totient
from zsindex.harness import result_json
from zsindex.zseq import (
    Sequence,
    index,
    is_minimal_zero_sum,
    make_sequence,
    nu,
    scale,
    units,
    weight,
)


@st.composite
def sequences(draw, min_n=3, max_n=60):
    n = draw(st.integers(min_n, max_n))
    coeffs = draw(st.lists(st.integers(1, n - 1), min_size=4, max_size=4))
    return make_sequence(n, coeffs)


def test_units_examples():
    assert units(10) == [1, 3, 7, 9]
    assert len(units(7)) == 6
    assert len(units(175)) == 120


def test_modulus_floor_enforced():
    with pytest.raises(ValueError):
        units(2)


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


def test_make_sequence_examples():
    assert make_sequence(175, [5, 135, 77, 133]).coeffs == (5, 77, 133, 135)
    assert make_sequence(7, [8, 1, 1, 4]).coeffs == (1, 1, 1, 4)


def test_make_sequence_rejections():
    with pytest.raises(ValueError):
        make_sequence(10, [5, 5, 10, 1])  # zero class
    with pytest.raises(ValueError):
        make_sequence(10, [1] * 9)
    with pytest.raises(ValueError):
        make_sequence(2, [1])
    with pytest.raises(ValueError, match="must be a tuple"):
        Sequence(7, [1, 1, 1, 4])  # a list would be unhashable and mutable


@pytest.mark.parametrize(
    "n, coeffs, message",
    [
        (2, (1,), "modulus must be at least 3"),
        (10, (0, 1, 2, 7), r"coefficient 0 outside \[1, 9\] for modulus 10"),
        (10, (1, 2, 3, 10), r"coefficient 10 outside \[1, 9\] for modulus 10"),
        (10, (3, 1, 4, 5), "coefficients must be sorted ascending"),
        (10, (3, 0, 4, 5), r"coefficient 0 outside \[1, 9\]"),  # unsorted too: range comes first
        (10, (), "expected a length-4 sequence, got length 0"),
        (10, (1,) * 9, "expected a length-4 sequence, got length 9"),
        (7, [], "expected a length-4 sequence, got length 0"),
        (10, (0, 1, 2, 3, 4), "expected a length-4 sequence, got length 5"),  # length comes first
    ],
)
def test_sequence_rejection_messages(n, coeffs, message):
    # A list goes in through make_sequence, which leaves the length rule to Sequence.
    build = make_sequence if isinstance(coeffs, list) else Sequence
    with pytest.raises(ValueError, match=message):
        build(n, coeffs)


def _verdict(build, n, coeffs):
    """None when build(n, coeffs) accepts, else the ValueError's message."""
    try:
        build(n, coeffs)
    except ValueError as exc:
        return str(exc)
    return None


def _assert_same_verdict(n, coeffs):
    expected = _verdict(oracle_sequence_check, n, coeffs)
    assert _verdict(Sequence, n, coeffs) == expected
    if expected is None:
        seq = Sequence(n, coeffs)
        assert (seq.n, seq.coeffs) == (n, coeffs)


@pytest.mark.parametrize(
    "n, coeffs",
    [
        (2, (1,)),
        (0, (1, 1, 1, 1)),
        (-5, ()),
        (7, [1, 1, 1, 4]),
        (7, (1, 1, 1, 4)),
        (10, ()),
        (10, (1,)),
        (10, (1, 2)),
        (10, (1, 2, 3, 4)),
        (10, (1,) * 8),
        (10, (1,) * 9),
        (10, (0, 1, 2, 7)),
        (10, (1, 2, 3, 10)),
        (10, (1, 2, 3, 9)),
        (10, (1, 3, 2, 4)),
        (10, (2, 1)),
        (10, (3, 4, 0, 5)),  # 0 is both unsorted and outside: "outside" wins
        (10, (3, 4, 5, 10, 11)),
    ],
)
def test_sequence_check_matches_oracle_on_edge_cases(n, coeffs):
    _assert_same_verdict(n, coeffs)


@st.composite
def raw_sequence_args(draw):
    n = draw(st.integers(-1, 20))
    # Length 4 half the time, so the range and order checks still see most draws.
    size = draw(st.one_of(st.just(4), st.integers(0, 10)))
    coeffs = draw(st.lists(st.integers(-1, max(n, 0) + 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        coeffs.sort()
    return n, draw(st.sampled_from([tuple, tuple, list]))(coeffs)


@settings(max_examples=400)
@given(raw_sequence_args())
def test_sequence_check_matches_oracle(args):
    _assert_same_verdict(*args)


def test_nu_examples():
    assert nu(make_sequence(175, [5, 77, 133, 135])) == 2
    assert nu(make_sequence(7, [1, 1, 1, 4])) == 1
    assert nu(make_sequence(7, [4, 5, 6, 6])) == 3
    with pytest.raises(ValueError):
        nu(make_sequence(7, [1, 1, 1, 3]))  # not zero-sum


def test_minimality_examples():
    assert is_minimal_zero_sum(make_sequence(175, [5, 77, 133, 135]))
    assert not is_minimal_zero_sum(make_sequence(5, [1, 2, 3, 4]))
    assert is_minimal_zero_sum(make_sequence(5, [1, 1, 1, 2]))


def test_pair_rule_matches_subset_oracle_on_every_zero_sum_4_tuple():
    # Every ascending zero-sum 4-tuple of nonzero residues, minimal or not;
    # the random draw below rarely lands on one.
    tuples = 0
    for n in range(3, 41):
        for x1, x2, x3 in combinations_with_replacement(range(1, n), 3):
            x4 = -(x1 + x2 + x3) % n
            if x4 >= x3:
                coeffs = (x1, x2, x3, x4)
                assert is_minimal_zero_sum(Sequence(n, coeffs)) == oracle_minimal_zero_sum(n, coeffs)
                tuples += 1
    assert tuples == 29877


@settings(max_examples=300)
@given(sequences(max_n=30))
def test_minimality_matches_subset_oracle(seq):
    assert is_minimal_zero_sum(seq) == oracle_minimal_zero_sum(seq.n, seq.coeffs)


def test_weight_examples():
    s = make_sequence(175, [5, 77, 133, 135])
    assert weight(s, 4) == 175
    assert weight(s, 2) == 350
    assert weight(make_sequence(7, [1, 1, 1, 4]), 1) == 7
    with pytest.raises(ValueError):
        weight(s, 5)  # not a unit


@settings(max_examples=200)
@given(sequences(max_n=50), st.integers(1, 200))
def test_weight_of_zero_sum_is_multiple_of_n(seq, m):
    # Keep three drawn terms and complete them to a zero-sum 4-tuple.
    x1, x2, x3, _ = seq.coeffs
    fix = -(x1 + x2 + x3) % seq.n
    if fix == 0:
        return
    seq = make_sequence(seq.n, [x1, x2, x3, fix])
    if math.gcd(m, seq.n) != 1:
        m = 1
    assert weight(seq, m) % seq.n == 0


@settings(max_examples=200)
@given(sequences(max_n=40), st.integers(1, 100), st.integers(1, 100))
def test_weight_composes_through_scaling(seq, u, m):
    n = seq.n
    if math.gcd(u, n) != 1:
        u = 1
    if math.gcd(m, n) != 1:
        m = 1
    assert weight(seq, m * u) == weight(scale(seq, u), m)


def test_index_examples():
    r = index(make_sequence(175, [5, 77, 133, 135]))
    assert r.value == 1 and r.witness == 3
    r = index(make_sequence(7, [1, 1, 1, 4]))
    assert r.value == 1 and r.witness == 1
    r = index(make_sequence(49, [1, 19, 32, 46]))
    assert r.value == 1 and r.witness == 8
    # m = 2 is not a unit mod 8, but it reaches weight 2 + 2 + 2 + 2 = 8 first.
    r = index(make_sequence(8, [1, 5, 5, 5]))
    assert r.value == 1 and r.witness == 5
    # every unit below the witness gives weight 2n (7 is not a unit mod 49)
    assert all(
        weight(make_sequence(49, [1, 19, 32, 46]), m) == 98
        for m in range(1, 8)
        if math.gcd(m, 49) == 1
    )


def test_index_of_non_zero_sum_is_fractional():
    r = index(make_sequence(7, [1, 1, 1, 3]))
    assert r.value.denominator > 1
    assert r.value == Fraction(
        min(weight(make_sequence(7, [1, 1, 1, 3]), m) for m in units(7)), 7
    )


def test_index_one_value_is_a_plain_fraction_one():
    seq = make_sequence(175, [5, 77, 133, 135])
    r = index(seq)
    assert r.value == 1 and type(r.value) is Fraction
    back = pickle.loads(pickle.dumps(r))
    assert back == r and type(back.value) is Fraction
    want = '{"seq": [5, 77, 133, 135], "value": 1, "witness": 3}'
    assert json.dumps(result_json(seq, r)) == json.dumps(result_json(seq, back)) == want


def test_index_shares_its_one_value_only_at_weight_n():
    one = index(make_sequence(175, [5, 77, 133, 135])).value
    assert index(make_sequence(7, [1, 1, 1, 4])).value is one
    two = index(make_sequence(8, [1, 4, 5, 6])).value
    assert two == Fraction(2) and type(two) is Fraction and two is not one
    # A non-zero-sum weight is never a multiple of n, so it never stops the scan at n.
    frac = index(make_sequence(7, [1, 1, 1, 3])).value
    assert frac == Fraction(6, 7) and frac is not one


@settings(max_examples=150)
@given(sequences(max_n=40))
def test_index_matches_full_scan_oracle(seq):
    r = index(seq)
    value, witness = oracle_index(seq.n, seq.coeffs)
    assert r.value == value
    assert r.witness == witness


def _scan_without_unit_test(n, coeffs):
    """index's scan with its gcd test left out: accepts a non-unit that lowers the weight."""
    best_w, best_m = sum(coeffs), 1
    for m in range(2, n):
        if best_w == n:
            break
        w = sum(m * x % n for x in coeffs)
        if w < best_w:
            best_w, best_m = w, m
    return Fraction(best_w, n), best_m


def test_index_matches_full_scan_oracle_on_every_small_tuple():
    # Every ascending 4-tuple of nonzero residues, zero-sum or not, for 3 <= n <= 12.
    tuples = missed = 0
    for n in range(3, 13):
        for coeffs in combinations_with_replacement(range(1, n), 4):
            r = index(Sequence(n, coeffs))
            expected = oracle_index(n, coeffs)
            assert (r.value, r.witness) == expected, (n, coeffs)
            tuples += 1
            missed += _scan_without_unit_test(n, coeffs) != expected
    # On these tuples a non-unit would change the answer unless its gcd is tested.
    assert (tuples, missed) == (3002, 1638)


def test_index_matches_full_scan_oracle_on_every_minimal_sequence_to_30():
    count = 0
    for n in range(3, 31):
        for x1, x2, x3 in combinations_with_replacement(range(1, n), 3):
            coeffs = (x1, x2, x3, -(x1 + x2 + x3) % n)
            if coeffs[3] >= x3 and oracle_minimal_zero_sum(n, coeffs):
                r = index(Sequence(n, coeffs))
                assert (r.value, r.witness) == oracle_index(n, coeffs), (n, coeffs)
                count += 1
    assert count == 8566


@settings(max_examples=100)
@given(sequences(max_n=30), st.integers(2, 60))
def test_index_is_unit_invariant(seq, u):
    if math.gcd(u, seq.n) != 1:
        u = 1
    scaled = scale(seq, u)
    assert index(seq).value == index(scaled).value
    mine = sorted(weight(seq, m) for m in units(seq.n))
    theirs = sorted(weight(scaled, m) for m in units(seq.n))
    assert mine == theirs


def test_index_one_iff_weight_n_witness():
    for coeffs, n in (((1, 11, 18, 20), 25), ((5, 77, 133, 135), 175), ((1, 4, 5, 6), 8)):
        seq = make_sequence(n, list(coeffs))
        r = index(seq)
        has_weight_n = any(weight(seq, m) == n for m in units(n))
        assert (r.value == 1) == has_weight_n

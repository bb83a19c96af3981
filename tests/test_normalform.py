import math

import pytest

from conftest import min_zero_sum4_sequences, nu, scale
from zsindex.normalform import (
    TAG_ALL_BIG,
    TAG_ALL_SMALL,
    TAG_NORMAL,
    TAG_NU1,
    TAG_NU3,
    TAG_OPAQUE,
    ModulusCache,
    NormalForm,
    ReductionOutcome,
    _OPAQUE,
    _forced,
    classify,
    normal_form_sequence,
)
from zsindex.zseq import is_minimal_zero_sum, make_sequence, weight


def all_normal_forms(n):
    """All arithmetic (a, b, c) triples for one modulus; c = a + b - 1 < n/2."""
    for a in range(2, n):
        if 2 * (2 * a - 1) >= n:
            break
        for b in range(a, n):
            c = a + b - 1
            if 2 * c >= n:
                break
            yield NormalForm(n, a, b, c)


def unit_led_copy(n, coeffs):
    """(m, sorted m*coeffs) for m the inverse of the smallest unit coefficient, or None."""
    units = [x for x in coeffs if math.gcd(x, n) == 1]
    if not units:
        return None
    m = pow(units[0], -1, n)
    return m, tuple(sorted(m * y % n for y in coeffs))


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_classify_copy_route_examples(cached):
    def run(n, coeffs):
        return classify(make_sequence(n, coeffs), ModulusCache(n) if cached else None)

    # The smallest unit coefficient is inverted: 2^-1 = 7 mod 13, not 5^-1 = 8.
    assert run(13, [2, 5, 7, 12]) == ReductionOutcome(TAG_NORMAL, None, NormalForm(13, 3, 4, 6), 7)
    # 3^-1 = 9 mod 13; the ladder settles the copy (1, 7, 8, 10): all big, multiplier 2.
    assert run(13, [3, 4, 8, 11]) == ReductionOutcome(TAG_ALL_BIG, 2, None, 9)
    assert run(175, [5, 77, 133, 135]) is _OPAQUE


def test_classify_scales_by_the_inverse_of_the_smallest_unit_coefficient():
    # Every minimal sequence over n = 5..60 that its own ladder leaves split,
    # even moduli and multiples of 3 included, uncached and cached.
    for n in range(5, 61):
        cache = ModulusCache(n)
        for seq in min_zero_sum4_sequences(n):
            if _forced(n, seq.coeffs) is not None:
                continue
            unit_led = unit_led_copy(n, seq.coeffs)
            for out in (classify(seq), classify(seq, cache)):
                if unit_led is None:
                    assert out is _OPAQUE, seq
                else:
                    assert out.scaling == unit_led[0], seq
            assert unit_led is None or unit_led[1] in cache.copies, seq


def test_classify_examples():
    out = classify(make_sequence(7, [4, 5, 6, 6]))
    assert out.tag == TAG_NU3 and out.forced_multiplier == 6
    assert sum(7 - x for x in (4, 5, 6, 6)) == 7

    out = classify(make_sequence(11, [4, 5, 5, 8]))
    assert out.tag == TAG_ALL_SMALL and out.forced_multiplier == 9
    assert weight(make_sequence(11, [4, 5, 5, 8]), 9) == 11

    out = classify(make_sequence(25, [1, 11, 18, 20]))
    assert out.tag == TAG_NORMAL
    assert (out.normal_form.a, out.normal_form.b, out.normal_form.c) == (5, 7, 11)
    assert out.scaling == 1

    out = classify(make_sequence(11, [2, 6, 7, 7]))
    assert out.tag == TAG_ALL_BIG and out.forced_multiplier == 2
    assert weight(make_sequence(11, [2, 6, 7, 7]), 2) == 11


def test_classify_opaque_when_no_coefficient_is_a_unit():
    out = classify(make_sequence(175, [5, 77, 133, 135]))
    assert out.tag == TAG_OPAQUE
    assert out.forced_multiplier is None and out.normal_form is None


def test_classify_reapplies_ladder_after_scaling():
    # (3,5,9,13)/15 has the nu=2 split shape, but rescaling by inv(13)=7
    # produces (1,3,5,6) whose coefficient sum is 15, so the scaled copy is
    # certified by multiplier 1.
    out = classify(make_sequence(15, [3, 5, 9, 13]))
    assert out.tag == TAG_NU1
    assert out.forced_multiplier == 1
    assert out.scaling == 7
    assert weight(make_sequence(15, [3, 5, 9, 13]), 7) == 15


def test_classify_routes_even_boundary_to_opaque():
    # x2 = n/2 exactly; the would-be forced multipliers are not units mod 10
    out = classify(make_sequence(10, [1, 5, 6, 8]))
    assert out.tag == TAG_OPAQUE


def test_classify_rejects_invalid_input():
    with pytest.raises(ValueError, match=r"^\(1, 2, 3, 4\) over 5 is not minimal zero-sum$"):
        classify(make_sequence(5, [1, 2, 3, 4]))
    with pytest.raises(ValueError, match=r"^\(1, 1, 1, 1\) over 7 is not minimal zero-sum$"):
        classify(make_sequence(7, [1, 1, 1, 1]))  # not even zero-sum
    # Other lengths never reach classify: Sequence rejects them.
    with pytest.raises(ValueError, match="^expected a length-4 sequence, got length 3$"):
        make_sequence(7, [1, 2, 4])  # minimal zero-sum, but length 3
    with pytest.raises(ValueError, match="^expected a length-4 sequence, got length 2$"):
        make_sequence(5, [1, 4])


def test_normal_form_sequence_examples():
    assert normal_form_sequence(NormalForm(25, 5, 7, 11)).coeffs == (1, 11, 18, 20)
    assert normal_form_sequence(NormalForm(49, 3, 17, 19)).coeffs == (1, 19, 32, 46)
    assert normal_form_sequence(NormalForm(25, 2, 4, 5)).coeffs == (1, 5, 21, 23)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm(25, 5, 7, 12)  # 1 + c != a + b
    with pytest.raises(ValueError):
        NormalForm(25, 1, 5, 5)  # a must exceed 1
    with pytest.raises(ValueError):
        NormalForm(25, 7, 5, 11)  # a <= b
    with pytest.raises(ValueError):
        NormalForm(20, 4, 7, 10)  # c < n/2


def test_classify_is_total_with_consistent_fields():
    for n in range(3, 45):
        for seq in min_zero_sum4_sequences(n):
            out = classify(seq)
            if out.tag == TAG_NU1:
                assert out.forced_multiplier == 1
            elif out.tag == TAG_NU3:
                assert out.forced_multiplier == n - 1
            elif out.tag == TAG_ALL_SMALL:
                assert out.forced_multiplier == n - 2
            elif out.tag == TAG_ALL_BIG:
                assert out.forced_multiplier == 2
            elif out.tag == TAG_NORMAL:
                assert out.normal_form is not None
            else:
                assert out.tag == TAG_OPAQUE
                assert out.forced_multiplier is None and out.normal_form is None


def test_forced_multipliers_reach_weight_n():
    for n in range(3, 61):
        for seq in min_zero_sum4_sequences(n):
            out = classify(seq)
            if out.forced_multiplier is None:
                continue
            assert weight(scale(seq, out.scaling), out.forced_multiplier) == n
            composed = (out.forced_multiplier * out.scaling) % n
            assert weight(seq, composed) == n


def test_scaling_is_a_unit_and_one_exactly_when_the_outcome_describes_the_input():
    for n in range(3, 61):
        for seq in min_zero_sum4_sequences(n):
            out = classify(seq)
            x1, x2, x3, _ = coeffs = seq.coeffs
            assert 1 <= out.scaling < n and math.gcd(out.scaling, n) == 1
            split = nu(seq) == 2 and 2 * x2 < n < 2 * x3
            has_unit = any(math.gcd(x, n) == 1 for x in coeffs)
            # The input's own ladder decides, no unit can rescale it, or its
            # unit-led copy is itself: then a split input is a normal form.
            describes_input = not split or not has_unit or x1 == 1
            assert (out.scaling == 1) == describes_input, seq
            if split and has_unit and x1 == 1:
                assert out.tag == TAG_NORMAL
            # The outcome describes the copy scale(seq, scaling), which classify settles unscaled.
            copy = classify(scale(seq, out.scaling))
            assert copy == ReductionOutcome(out.tag, out.forced_multiplier, out.normal_form), seq


def test_forced_is_none_exactly_on_the_split():
    # Each sequence and the unit-led copy classify rescales it to; the
    # enumeration is closed under unit scaling, so every copy is covered.
    opaque_moduli = set()
    for n in range(3, 61):
        for seq in min_zero_sum4_sequences(n):
            unit_led = unit_led_copy(n, seq.coeffs)
            for t in (seq.coeffs,) if unit_led is None else (seq.coeffs, unit_led[1]):
                hit = _forced(n, t)
                split = sum(t) == 2 * n and 2 * t[1] < n < 2 * t[2]
                assert (hit is None) == split, (n, t)
                if hit is not None and hit[1] is None:
                    assert hit[0] == TAG_OPAQUE and n % 2 == 0, (n, t)
                    opaque_moduli.add(n)
    assert opaque_moduli == set(range(6, 61, 2))


def test_normal_branch_soundness():
    for n in range(5, 61):
        for seq in min_zero_sum4_sequences(n):
            out = classify(seq)
            if out.tag != TAG_NORMAL:
                continue
            nf = out.normal_form
            assert 1 + nf.c == nf.a + nf.b
            assert 1 < nf.a <= nf.b < nf.c and 2 * nf.c < n
            associated = normal_form_sequence(nf)
            assert associated == scale(seq, out.scaling)
            assert is_minimal_zero_sum(associated)
            assert nu(associated) == 2


def test_round_trip_for_all_normal_forms_up_to_200():
    for n in range(5, 201):
        for nf in all_normal_forms(n):
            out = classify(normal_form_sequence(nf))
            assert out.tag == TAG_NORMAL
            assert out.scaling == 1
            assert out.normal_form == nf

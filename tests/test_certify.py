import math
import random
import sys
from collections import Counter

import pytest

from conftest import (
    factorize,
    min_zero_sum4_sequences,
    oracle_finalize,
    oracle_search_interval,
    units,
)
from test_normalform import all_normal_forms
from zsindex import certify
from zsindex.certify import (
    BRUTE_FORCE,
    FORCED,
    HALF_INTERVAL,
    INTERVAL,
    MAJORITY_SMALL,
    Certificate,
    CertificateMiss,
    CounterexampleReport,
    find_certificate,
    finalize,
    make_certificate,
    search_half_interval,
    search_interval,
    search_majority_small,
    shape_stats,
    small_a_certificate,
    verify_certificate,
)
from zsindex.normalform import (
    TAG_ALL_BIG,
    TAG_ALL_SMALL,
    TAG_NU1,
    TAG_NU3,
    TAG_OPAQUE,
    ModulusCache,
    NormalForm,
    classify,
    normal_form_sequence,
)
from zsindex.zseq import Sequence, index, make_sequence, weight


def in_two_prime_power_domain(n):
    return math.gcd(n, 6) == 1 and len(factorize(n)) <= 2


def test_verify_certificate_examples():
    s = make_sequence(175, [5, 77, 133, 135])
    assert verify_certificate(s, 4) is True
    assert verify_certificate(make_sequence(7, [1, 1, 1, 4]), 1) is True
    assert verify_certificate(s, 2) is False
    assert verify_certificate(s, 5) is False  # not a unit
    # A non-unit is a plain False, never weight's ValueError: m = 0 mod n,
    # and m sharing each prime factor of the composite moduli 175 and 35.
    t = make_sequence(35, [1, 4, 12, 18])
    for seq in (s, t):
        for m in (0, seq.n, -seq.n, 2 * seq.n, 5, 7, 10, 14, 35, seq.n + 5):
            assert verify_certificate(seq, m) is False


def test_make_certificate_rejects_non_witnesses():
    s = make_sequence(175, [5, 77, 133, 135])
    for m in (2, 0, 7, 35):  # a unit of the wrong weight, then non-units
        with pytest.raises(ValueError, match=rf"^multiplier {m} does not certify \(5, 77, 133, 135\) over 175$"):
            make_certificate(s, m, FORCED)


def test_certificate_tags_are_the_stage_names():
    with pytest.raises(ValueError, match="unknown derivation tag 'bogus'"):
        Certificate(m=1, derivation="bogus")
    stages = [name for name, _ in certify._FORM_STAGES + certify._INPUT_STAGES]
    assert certify.DERIVATIONS == {FORCED, *stages}
    assert len(certify.DERIVATIONS) == 7
    for name in certify.DERIVATIONS:
        assert Certificate(m=1, derivation=name).derivation == name


@pytest.mark.parametrize(
    "nf, s, k1",
    [
        (NormalForm(25, 5, 7, 11), 1, 1),
        (NormalForm(49, 3, 17, 19), 5, 3),
        (NormalForm(25, 2, 4, 5), 2, 1),
    ],
)
def test_shape_stats_examples(nf, s, k1):
    assert shape_stats(nf) == (s, k1)


def test_shape_stats_definition_holds():
    from fractions import Fraction

    for n in (49, 121, 175):
        for nf in all_normal_forms(n):
            s, k1 = shape_stats(nf)
            assert s == nf.b // nf.a
            assert 1 <= k1 <= nf.b

            def interval_has_integer(k):
                lo, hi = Fraction(k * n, nf.c), Fraction(k * n, nf.b)
                return math.ceil(lo) < hi  # [lo, hi) contains an integer

            assert interval_has_integer(k1)
            assert k1 == 1 or not interval_has_integer(k1 - 1)
            assert not any(
                interval_has_integer(k) and not interval_has_integer(k - 1)
                for k in range(k1 + 1, nf.b + 1)
            )


@pytest.mark.parametrize(
    "nf, k, m, weights",
    [
        (NormalForm(25, 5, 7, 11), 1, 3, (3, 8, 4, 10)),
        (NormalForm(49, 3, 17, 19), 3, 8, (8, 5, 11, 25)),
        (NormalForm(25, 2, 4, 5), 1, 6, (6, 5, 1, 13)),
    ],
)
def test_search_interval_examples(nf, k, m, weights):
    assert search_interval(nf) == (k, m)
    seq = normal_form_sequence(nf)
    assert tuple((m * x) % nf.n for x in seq.coeffs) == weights
    assert sum(weights) == nf.n


def test_interval_certificates_satisfy_the_interval_conditions():
    for n in (25, 49, 91, 143):
        for nf in all_normal_forms(n):
            hit = search_interval(nf)
            if hit is None:
                continue
            k, m = hit
            assert 1 <= k <= nf.b
            assert k * n <= m * nf.c
            assert m * nf.b <= k * n
            assert m * nf.a < n
            assert verify_certificate(normal_form_sequence(nf), m)


def test_interval_membership_with_small_ratio_forces_the_product_bound():
    # whenever a <= b/k, any unit in [k*n/c, k*n/b] automatically has m*a < n
    # (a non-unit can sit exactly on the k*n/b endpoint, so coprimality matters)
    for n in (49, 121, 175, 245):
        for nf in all_normal_forms(n):
            for k in range(1, nf.b + 1):
                if nf.a * k > nf.b:
                    continue
                lo = -(-k * n // nf.c)
                hi = (k * n) // nf.b
                for m in range(lo, hi + 1):
                    if math.gcd(m, n) == 1:
                        assert m * nf.a < n


def test_search_interval_matches_the_oracle_on_every_normal_form_up_to_150():
    for n in range(5, 151):
        for nf in all_normal_forms(n):
            assert search_interval(nf) == oracle_search_interval(n, nf.a, nf.b, nf.c), nf


def test_search_interval_matches_the_oracle_on_random_large_normal_forms():
    rng = random.Random(20261018)
    misses = 0
    for _ in range(2000):
        n = rng.randint(500, 50_000)
        a = rng.randint(2, (n + 1) // 4)
        b = rng.randint(a, (n + 1) // 2 - a)
        nf = NormalForm(n, a, b, a + b - 1)
        expected = oracle_search_interval(n, a, b, nf.c)
        assert search_interval(nf) == expected, nf
        misses += expected is None
    assert 0 < misses < 2000


def test_weight_identity_on_every_normal_form_and_unit_up_to_40():
    """On the sequence (1, c, n-b, n-a) of a normal form, a unit m with
    j = ceil(ma/n) and k = ceil(mb/n) has weight n*(j + k - floor(mc/n)):
    the m terms cancel because 1 + c = a + b.  Since floor(mc/n) <= j + k - 1
    the bracket is at least 1, so m certifies iff m*c >= (j + k - 1)*n."""
    pairs = 0
    for n in range(5, 41):
        for nf in all_normal_forms(n):
            seq = normal_form_sequence(nf)
            for m in units(n):
                j, k = -(-m * nf.a // n), -(-m * nf.b // n)
                w = weight(seq, m)
                assert w == n * (j + k - m * nf.c // n), (nf, m)
                assert (w == n) == (m * nf.c >= (j + k - 1) * n), (nf, m)
                pairs += 1
    assert pairs == 19462


def test_search_interval_finds_the_least_certificate_with_m_times_a_below_n():
    """search_interval's certificates are exactly the units m with m*a < n
    and weight n (the j = 1 cells of the identity above), and it returns
    the least of them, or None when there is none."""
    forms = hits = 0
    for n in range(5, 101):
        unit_list = units(n)
        for nf in all_normal_forms(n):
            seq = normal_form_sequence(nf)
            least = next((m for m in unit_list if m * nf.a < n and weight(seq, m) == n), None)
            hit = search_interval(nf)
            assert (None if hit is None else hit[1]) == least, nf
            forms += 1
            hits += hit is not None
    assert (forms, hits) == (19000, 18040)


def test_search_interval_miss_visits_a_bounded_number_of_k(monkeypatch):
    nf = NormalForm(32305, 4307, 11818, 16124)
    visits = 0
    ceil_div = certify._ceil_div

    def counting_ceil_div(p, q):
        nonlocal visits
        visits += 1
        return ceil_div(p, q)

    monkeypatch.setattr(certify, "_ceil_div", counting_ceil_div)
    assert search_interval(nf) is None
    bound = min(nf.b, ((nf.n - 1) // nf.a) * nf.c // nf.n + 1)
    assert bound == 4
    assert visits <= bound


def test_find_certificate_after_a_large_interval_miss():
    cert = find_certificate(make_sequence(32305, [1233, 13317, 19794, 30266]))
    assert isinstance(cert, Certificate)
    assert (cert.m, cert.derivation) == (14908, MAJORITY_SMALL)


def test_search_majority_small_frozen_and_conditions():
    nf = NormalForm(49, 3, 17, 19)
    assert search_majority_small(nf) == 8
    assert 2 * ((8 * 17) % 49) > 49 and 2 * ((8 * 19) % 49) < 49
    nf = NormalForm(25, 2, 4, 5)
    assert search_majority_small(nf) == 6
    assert 2 * ((6 * 4) % 25) > 25 and 2 * ((6 * 5) % 25) < 25


def test_multiplier_one_never_qualifies_for_majority_small():
    # a, b, c < n/2 means only the third inequality can ever hold at M = 1
    for n in (25, 49, 55, 121):
        for nf in all_normal_forms(n):
            hits = 0
            if 2 * (nf.a % n) > n:
                hits += 1
            if 2 * (nf.b % n) > n:
                hits += 1
            if 2 * (nf.c % n) < n:
                hits += 1
            assert hits == 1


def test_search_half_interval_examples():
    assert search_half_interval(NormalForm(49, 3, 17, 19)) == 13
    assert search_half_interval(NormalForm(25, 2, 4, 5)) == 11
    with pytest.raises(ValueError):
        search_half_interval(NormalForm(25, 5, 7, 11))  # s = 1: not applicable


def test_half_interval_hits_satisfy_the_two_big_inequalities():
    for n in (49, 125, 175):
        for nf in all_normal_forms(n):
            if nf.b // nf.a < 2:
                continue
            mid = search_half_interval(nf)
            if mid is None:
                continue
            assert math.gcd(mid, n) == 1
            assert 2 * ((mid * nf.a) % n) > n
            assert 2 * ((mid * nf.b) % n) > n


def test_finalize_examples():
    cert = finalize(make_sequence(49, [1, 19, 32, 46]), 13, "half_interval")
    assert cert is not None and cert.m == 13
    cert = finalize(make_sequence(25, [1, 5, 21, 23]), 11, "half_interval")
    assert cert is not None and cert.m == 11
    cert = finalize(make_sequence(7, [1, 1, 1, 4]), 1, "majority_small")
    assert cert is not None and cert.m == 1
    with pytest.raises(ValueError):
        finalize(make_sequence(25, [1, 5, 21, 23]), 10, "half_interval")  # 10 is no unit
    with pytest.raises(ValueError):
        finalize(make_sequence(25, [1, 5, 21, 22]), 11, "half_interval")  # not zero-sum
    with pytest.raises(ValueError, match="^expected a length-4 sequence, got length 3$"):
        make_sequence(7, [1, 2, 4])  # never reaches finalize


def test_finalize_matches_the_four_factor_trial_on_every_minimal_sequence_up_to_35():
    pairs = 0
    for n in range(3, 36):
        unit_list = units(n)
        for seq in min_zero_sum4_sequences(n):
            for mid in unit_list:
                cert = finalize(seq, mid, MAJORITY_SMALL)
                got = None if cert is None else cert.m
                assert got == oracle_finalize(n, seq.coeffs, mid), (seq, mid)
                pairs += 1
    assert pairs == 275_336


def test_small_a_examples():
    assert small_a_certificate(NormalForm(25, 2, 4, 5)) == 12
    assert weight(make_sequence(25, [1, 5, 21, 23]), 12) == 25

    assert small_a_certificate(NormalForm(25, 2, 5, 6)) == 9
    assert weight(make_sequence(25, [1, 6, 20, 23]), 9) == 25

    with pytest.raises(ValueError):
        small_a_certificate(NormalForm(25, 5, 7, 11))


def test_small_a_even_b_always_certifies():
    for n in range(5, 201, 2):
        for b in range(2, n, 2):
            if 2 * (b + 1) >= n:
                break
            assert small_a_certificate(NormalForm(n, 2, b, b + 1)) == (n - 1) // 2


def test_small_a_odd_b_known_misses():
    # The construction scans every odd candidate m in [n/b, 2n/(b+1)); for
    # these forms that window is {5}, which shares a factor with n.  The
    # general searches still certify the associated sequences (see test
    # below).
    for n, b in ((25, 7), (35, 9), (55, 15)):
        with pytest.raises(CertificateMiss):
            small_a_certificate(NormalForm(n, 2, b, b + 1))


def test_pipeline_covers_small_a_misses():
    for n, b in ((25, 7), (35, 9), (55, 15)):
        seq = normal_form_sequence(NormalForm(n, 2, b, b + 1))
        outcome = find_certificate(seq)
        assert isinstance(outcome, Certificate)
        assert outcome.derivation not in (BRUTE_FORCE,)
        assert verify_certificate(seq, outcome.m)


def test_find_certificate_examples():
    outcome = find_certificate(make_sequence(175, [5, 77, 133, 135]))
    assert isinstance(outcome, Certificate)
    assert outcome.m == 3 and outcome.derivation == BRUTE_FORCE

    outcome = find_certificate(make_sequence(25, [1, 11, 18, 20]))
    assert outcome.m == 3 and outcome.derivation == INTERVAL and outcome.k == 1

    outcome = find_certificate(make_sequence(5, [1, 1, 1, 2]))
    assert outcome.m == 1 and outcome.derivation == FORCED


def test_find_certificate_trace_names_the_stages():
    trace = []
    find_certificate(make_sequence(175, [5, 77, 133, 135]), trace=trace)
    assert any(line.startswith("classify:") for line in trace)
    assert any(line.startswith("brute_force:") for line in trace)


@pytest.mark.parametrize(
    "n, coeffs",
    [(7, [1, 2, 4]), (7, [1, 2, 3, 4, 4]), (7, [1, 6, 1, 6]), (7, [1, 1, 1, 1])],
)
def test_find_certificate_rejects_non_minimal_and_non_length_4(n, coeffs):
    # Another length never reaches find_certificate: make_sequence rejects it.
    if len(coeffs) != 4:
        with pytest.raises(ValueError, match="^expected a length-4 sequence, got length"):
            make_sequence(n, coeffs)
        return
    # A valid Sequence that is not minimal zero-sum is classify's ValueError.
    seq = make_sequence(n, coeffs)
    with pytest.raises(ValueError, match="is not minimal zero-sum$"):
        find_certificate(seq)


def test_a_failing_stage_is_an_internal_error_not_bad_input(monkeypatch):
    # classify accepts the sequence, so a stage's ValueError is the pipeline's fault.
    monkeypatch.setattr(certify, "search_interval", lambda nf: (1, 2))
    failure = r"^interval stage failed on \(1, 11, 18, 20\) over 25: multiplier 2"
    with pytest.raises(AssertionError, match=failure):
        find_certificate(make_sequence(25, [1, 11, 18, 20]))
    # Under a cache it fails the same way, again when the memo replays the
    # bad walk, and the cache keeps no certificate for the rejected multiplier.
    cache = ModulusCache(25)
    for _ in range(2):
        with pytest.raises(AssertionError, match=failure):
            find_certificate(make_sequence(25, [1, 11, 18, 20]), cache=cache)
    assert cache.certificates == {}
    # The lifted stage's recursive call fails the same way, and its
    # AssertionError passes through unwrapped.
    with pytest.raises(AssertionError, match=failure):
        find_certificate(make_sequence(50, [2, 22, 36, 40]))
    # Bad input is still classify's ValueError under the same patch.
    for n, coeffs in [(7, [1, 6, 1, 6]), (7, [1, 1, 1, 1])]:
        seq = make_sequence(n, coeffs)
        with pytest.raises(ValueError, match="is not minimal zero-sum$"):
            find_certificate(seq)


def test_pipeline_checks_each_sequence_once(monkeypatch):
    """Over gcd(n, 6) = 1, 5 <= n <= 60, without and then with one
    ModulusCache per modulus: minimality is checked exactly once
    per classify call and nowhere else, each find_certificate
    call (recursive ones included) makes one verify_certificate call, no
    (n, coeffs, m) weight check repeats within one top-level call, and
    shape_stats (whose k1 the pipeline does not need) is never called.
    Below classify nothing re-checks the input: no make_sequence call,
    and a call without subgroup reduction builds no Sequence at all."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zsindex"]
    calls = Counter()
    seen = set()
    repeats = []

    def patch(home, name, wrapper_of):
        original = getattr(sys.modules[f"zsindex.{home}"], name)
        wrapper = wrapper_of(original)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    def counted(name):
        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return wrapper_of

    def checked_once(original):
        def wrapper(seq, m):
            key = (seq.n, seq.coeffs, m)
            if key in seen:
                repeats.append(key)
            seen.add(key)
            return original(seq, m)

        return wrapper

    def reductions_counted(original):
        def wrapper(seq):
            calls["try_subgroup_reduce"] += 1
            result = original(seq)
            calls["reduced"] += result is not None
            return result

        return wrapper

    for home, name in [
        ("zseq", "is_minimal_zero_sum"),
        ("normalform", "classify"),
        ("certify", "shape_stats"),
        ("certify", "find_certificate"),
        ("certify", "verify_certificate"),
        ("zseq", "make_sequence"),
    ]:
        patch(home, name, counted(name))
    patch("subgroup", "try_subgroup_reduce", reductions_counted)
    patch("zseq", "weight", checked_once)
    build_sequence = Sequence.__init__

    def init(seq, n, coeffs):
        calls["Sequence"] += 1
        build_sequence(seq, n, coeffs)

    monkeypatch.setattr(Sequence, "__init__", init)

    for cached in (False, True):
        calls.clear()
        sequences = 0
        most_built = 0
        for n in range(5, 61):
            if math.gcd(n, 6) != 1:
                continue
            cache = ModulusCache(n) if cached else None
            for seq in min_zero_sum4_sequences(n):
                seen.clear()
                built, reduced = calls["Sequence"], calls["reduced"]
                certify.find_certificate(seq, cache=cache)
                sequences += 1
                if calls["reduced"] == reduced:
                    most_built = max(most_built, calls["Sequence"] - built)
        assert calls["classify"] >= sequences
        assert calls["find_certificate"] > sequences  # recursion through subgroup reduction
        assert calls["verify_certificate"] == calls["find_certificate"]
        assert calls["is_minimal_zero_sum"] == calls["classify"]
        assert repeats == []
        assert calls["shape_stats"] == 0
        assert calls["make_sequence"] == 0
        assert calls["reduced"] > 0
        assert most_built == 0


def test_a_modulus_cache_changes_no_result_and_no_trace():
    """For every minimal sequence with 3 <= n <= 60, one ModulusCache per
    modulus gives find_certificate's uncached result: the same (m, k,
    derivation), or the same counterexample, and the same trace lines."""
    def key(outcome):
        if isinstance(outcome, Certificate):
            return outcome.m, outcome.k, outcome.derivation
        return outcome.result.value, outcome.result.witness

    derivations = Counter()
    for n in range(3, 61):
        cache = ModulusCache(n)
        for seq in min_zero_sum4_sequences(n):
            plain, traced = [], []
            expected = key(find_certificate(seq, plain))
            assert key(find_certificate(seq)) == expected, seq
            assert key(find_certificate(seq, cache=cache)) == expected, seq
            assert key(find_certificate(seq, traced, cache)) == expected, seq
            assert traced == plain, seq
            derivations[expected[-1] if len(expected) == 3 else "counterexample"] += 1
    # Every path is exercised, the cache-free ones included, but half_interval,
    # which certifies no sequence in this range.
    assert set(derivations) == certify.DERIVATIONS - {HALF_INTERVAL} | {"counterexample"}
    assert 0 < len(cache.forms) < len(cache.copies)


def test_a_modulus_cache_shares_forced_outcomes_and_certificates():
    """For every n <= 60 coprime to 6, cached calls over one ModulusCache
    return one Certificate object per (m, derivation, k) and one
    ReductionOutcome per tag that the forced ladder reads off the input
    itself, and each equals the uncached result.  Inputs with no unit
    share one opaque outcome, cached or not."""
    opaque = []
    for n in range(5, 61):
        if math.gcd(n, 6) != 1:
            continue
        cache = ModulusCache(n)
        outcomes, certificates = {}, {}
        for seq in min_zero_sum4_sequences(n):
            plain, out = classify(seq), classify(seq, cache)
            assert out == plain, seq
            if out.forced_multiplier is not None and out.scaling == 1:
                assert outcomes.setdefault(out.tag, out) is out, seq
            if out.tag == TAG_OPAQUE:
                opaque += [plain, out]
            cert = find_certificate(seq, cache=cache)
            assert isinstance(cert, Certificate) and cert == find_certificate(seq), seq
            assert certificates.setdefault((cert.m, cert.derivation, cert.k), cert) is cert, seq
        assert sorted(map(id, cache.forced.values())) == sorted(map(id, outcomes.values()))
        assert list(map(id, cache.certificates.values())) == list(map(id, certificates.values()))
    assert set(outcomes) == {TAG_NU1, TAG_NU3, TAG_ALL_SMALL, TAG_ALL_BIG}
    assert opaque and all(out is opaque[0] for out in opaque)


def test_a_traced_call_replays_the_cached_walk(monkeypatch):
    """Once untraced calls have filled a ModulusCache(25), a traced call on
    every minimal sequence over Z_25 runs no form search: it reads each
    form's walk from the memo, misses included, and its trace is the
    uncached traced call's."""
    sequences = list(min_zero_sum4_sequences(25))
    expected = []
    for seq in sequences:
        expected.append([])
        find_certificate(seq, expected[-1])
    cache = ModulusCache(25)
    for seq in sequences:
        find_certificate(seq, cache=cache)
    calls = Counter()
    for name in ("small_a_certificate", "search_interval",
                 "search_half_interval", "search_majority_small"):
        def counted(*args, _name=name, _original=getattr(certify, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(certify, name, counted)
    for seq, want in zip(sequences, expected):
        trace = []
        find_certificate(seq, trace, cache)
        assert trace == want, seq
    assert calls == Counter()
    # The replayed walks include misses, the case a first-hit memo would lose.
    assert any(line.endswith(": miss") for want in expected for line in want[1:-1])


def test_a_cache_serves_one_modulus():
    cache = ModulusCache(25)
    assert cache.inverses[:5] == [0, 1, 13, 17, 19]
    assert cache.inverses[5] == cache.inverses[10] == 0
    for trace in (None, []):  # a traced call checks its cache too
        with pytest.raises(ValueError, match="cache for modulus 25"):
            find_certificate(make_sequence(35, [1, 4, 12, 18]), trace, cache)
    with pytest.raises(ValueError):
        ModulusCache(2)


def test_find_certificate_agrees_with_oracle_everywhere():
    for n in range(3, 41):
        for seq in min_zero_sum4_sequences(n):
            outcome = find_certificate(seq)
            oracle = index(seq)
            if isinstance(outcome, Certificate):
                assert oracle.value == 1
                assert verify_certificate(seq, outcome.m)
            else:
                assert isinstance(outcome, CounterexampleReport)
                assert oracle.value >= 2
                assert outcome.result == oracle


def test_all_searches_sound_on_every_normal_form_up_to_200():
    for n in range(5, 201):
        for nf in all_normal_forms(n):
            seq = normal_form_sequence(nf)
            hit = search_interval(nf)
            if hit is not None:
                assert verify_certificate(seq, hit[1])
            if nf.b // nf.a >= 2:
                mid = search_half_interval(nf)
                if mid is not None:
                    cert = finalize(seq, mid, "half_interval")
                    if cert is not None:
                        assert verify_certificate(seq, cert.m)
            mid = search_majority_small(nf)
            if mid is not None:
                cert = finalize(seq, mid, "majority_small")
                if cert is not None:
                    assert verify_certificate(seq, cert.m)
            if nf.a == 2 and n % 2 == 1:
                try:
                    m = small_a_certificate(nf)
                except CertificateMiss:
                    continue
                assert verify_certificate(seq, m)


def test_structural_bound_when_half_intervals_have_no_coprime_integer():
    # over two-prime-power moduli coprime to 6, an empty half-interval scan
    # forces floor(b/a) <= 7
    checked = 0
    for n in range(5, 501):
        if not in_two_prime_power_domain(n):
            continue
        for nf in all_normal_forms(n):
            s = nf.b // nf.a
            if s < 2:
                continue
            if search_half_interval(nf) is None:
                assert s <= 7, (nf, s)
                checked += 1
    assert checked > 0

import concurrent.futures
import json
import math
import random

import pytest

from conftest import factorize, min_zero_sum4_sequences
from zsindex import certify, harness
from zsindex.enumeration import iter_min_zero_sum4, iter_orbit_reps
from zsindex.harness import (
    find_counterexample,
    in_constructive_domain,
    report_to_json,
    verify_modulus,
    verify_range,
)


def test_verify_modulus_n5():
    report = verify_modulus(5, "full")
    assert report.sequences_checked == 4
    assert report.orbits_checked == 0
    assert report.derivation_histogram == {"forced": 4}
    assert report.pipeline_gaps == 0
    assert report.counterexamples == []


def test_verify_modulus_n8_finds_counterexamples():
    report = verify_modulus(8, "full")
    assert report.sequences_checked == 18
    coeffs = [hit.sequence.coeffs for hit in report.counterexamples]
    assert coeffs == [(1, 4, 5, 6), (2, 3, 4, 7)]
    assert all(hit.result.value == 2 for hit in report.counterexamples)


def test_verify_modulus_orbit_mode_matches_full_counts():
    for n in (11, 16, 25):
        full = verify_modulus(n, "full")
        orbits = verify_modulus(n, "orbits")
        assert orbits.sequences_checked == full.sequences_checked
        assert orbits.orbits_checked > 0
        assert bool(orbits.counterexamples) == bool(full.counterexamples)


def test_a_failing_stage_raises_assertion_error_not_oracle_disagreement(monkeypatch):
    monkeypatch.setattr(certify, "search_interval", lambda nf: (1, 2))
    # AssertionError, not OracleDisagreement: the oracle was never asked.
    with pytest.raises(AssertionError, match="interval stage failed"):
        verify_modulus(25)


def test_verify_modulus_rejects_unknown_modes():
    assert tuple(harness.MODES) == ("full", "orbits")
    expected = r"unknown mode 'sample', expected one of \('full', 'orbits'\)"
    with pytest.raises(ValueError, match=expected):
        verify_modulus(25, "sample")


@pytest.mark.parametrize("mode", ["full", "orbits"])
@pytest.mark.parametrize("n", [25, 35, 49, 77])
def test_oracle_sees_a_seeded_one_in_100_draw_of_the_processed_stream(monkeypatch, n, mode):
    seen = []
    real_index = harness.index

    def recording_index(seq):
        seen.append(seq.coeffs)
        return real_index(seq)

    monkeypatch.setattr(harness, "index", recording_index)
    verify_modulus(n, mode)
    if mode == "full":
        stream = list(min_zero_sum4_sequences(n))
    else:
        stream = [orbit.rep for orbit in iter_orbit_reps(n)]
    rng = random.Random(f"0:{n}")
    drawn = [seq.coeffs for seq in stream if rng.random() < 1 / 100]
    # No draw hits among the 32 orbits of n = 25 or the 116 of n = 49, so
    # the oracle falls back to the last representative processed.
    assert bool(drawn) != ((mode, n) in {("orbits", 25), ("orbits", 49)})
    assert seen == (drawn or [stream[-1].coeffs])


def test_sequences_checked_matches_independent_recount():
    for n in (9, 21, 25):
        report = verify_modulus(n, "full")
        assert report.sequences_checked == sum(1 for _ in iter_min_zero_sum4(n))


def test_verify_range_filters_and_order():
    reports = list(verify_range(5, 30, "coprime6", "orbits"))
    moduli = [r.n for r in reports]
    assert moduli == [n for n in range(5, 31) if math.gcd(n, 6) == 1]
    assert moduli == sorted(moduli)

    reports = list(verify_range(25, 40, "two_prime_powers", "orbits"))
    assert [r.n for r in reports] == [25, 29, 31, 35, 37]


def test_verify_range_rejects_bad_bounds():
    # No list(): the check runs when verify_range is called, not when drawn from.
    with pytest.raises(ValueError, match="need 3 <= from <= to"):
        verify_range(2, 10)
    with pytest.raises(ValueError, match="need 3 <= from <= to"):
        verify_range(10, 5)
    with pytest.raises(ValueError, match="unknown filter 'bogus'"):
        verify_range(5, 10, "bogus")
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            verify_range(5, 10, jobs=jobs)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        verify_range(5, 10, mode="bogus")


def test_verify_range_parallel_equals_serial():
    serial = [report_to_json(r) for r in verify_range(5, 40, "coprime6", "full", jobs=1)]
    parallel = [report_to_json(r) for r in verify_range(5, 40, "coprime6", "full", jobs=4)]
    assert serial == parallel


def test_counterexamples_cross_the_process_boundary():
    # Over all moduli 5..21 the workers pickle CounterexampleReports back,
    # each a Sequence and an IndexResult holding a Fraction.
    serial = [report_to_json(r) for r in verify_range(5, 21, "all", "full", jobs=1)]
    parallel = [report_to_json(r) for r in verify_range(5, 21, "all", "full", jobs=2)]
    assert serial == parallel
    assert sum(len(json.loads(line)["counterexamples"]) for line in serial) == 162


def test_worker_count_is_capped_by_moduli_and_cores(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert harness._worker_count(5000, 39) == 4
    assert harness._worker_count(5000, 3) == 3
    assert harness._worker_count(2, 39) == 2
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness._worker_count(5000, 39) == 1


def test_verify_range_starts_no_pool_for_one_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    reports = list(verify_range(5, 13, "coprime6", "full", jobs=5000))
    assert [r.n for r in reports] == [5, 7, 11, 13]


def test_repeated_runs_are_identical():
    one = [report_to_json(r) for r in verify_range(5, 35, "all", "full")]
    two = [report_to_json(r) for r in verify_range(5, 35, "all", "full")]
    assert one == two


def test_report_json_is_stable_and_complete():
    report = verify_modulus(8, "full")
    line = report_to_json(report)
    payload = json.loads(line)
    assert list(payload) == [
        "n",
        "mode",
        "sequences_checked",
        "orbits_checked",
        "derivation_histogram",
        "pipeline_gaps",
        "counterexamples",
    ]
    assert payload["counterexamples"][0] == {"seq": [1, 4, 5, 6], "value": 2, "witness": 1}
    assert "wall_time" not in payload


def test_find_counterexample_examples():
    assert find_counterexample(25) is None
    assert find_counterexample(35) is None
    hit = find_counterexample(6)
    assert hit is not None
    assert hit.sequence.coeffs == (1, 3, 4, 4)
    assert hit.result.value == 2


def test_constructive_domain_predicate():
    assert in_constructive_domain(25)
    assert in_constructive_domain(35)
    assert in_constructive_domain(343)
    assert not in_constructive_domain(8)  # gcd(8, 6) = 2
    assert not in_constructive_domain(15)  # gcd(15, 6) = 3
    assert not in_constructive_domain(385)  # three distinct primes


def test_constructive_domain_is_coprime_to_6_with_at_most_two_primes():
    for n in range(3, 20001):
        assert in_constructive_domain(n) == (math.gcd(n, 6) == 1 and len(factorize(n)) <= 2), n

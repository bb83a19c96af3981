import json
import math

import pytest

from zsindex import harness
from zsindex.enumeration import iter_min_zero_sum4
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
    coeffs = [seq.coeffs for seq, _ in report.counterexamples]
    assert coeffs == [(1, 4, 5, 6), (2, 3, 4, 7)]
    assert all(res.value == 2 for _, res in report.counterexamples)


def test_verify_modulus_orbit_mode_matches_full_counts():
    for n in (11, 16, 25):
        full = verify_modulus(n, "full")
        orbits = verify_modulus(n, "orbits")
        assert orbits.sequences_checked == full.sequences_checked
        assert orbits.orbits_checked > 0
        assert bool(orbits.counterexamples) == bool(full.counterexamples)


def test_verify_modulus_sample_mode_is_a_subset():
    full = verify_modulus(35, "full")
    sample = verify_modulus(35, "sample")
    assert 0 < sample.sequences_checked < full.sequences_checked


def test_sequences_checked_matches_independent_recount():
    for n in (9, 21, 25):
        report = verify_modulus(n, "full")
        assert report.sequences_checked == sum(1 for _ in iter_min_zero_sum4(n))


def test_verify_range_filters_and_order():
    reports = list(verify_range(5, 30, "coprime6", "sample"))
    moduli = [r.n for r in reports]
    assert moduli == [n for n in range(5, 31) if math.gcd(n, 6) == 1]
    assert moduli == sorted(moduli)

    reports = list(verify_range(25, 40, "two_prime_powers", "sample"))
    assert [r.n for r in reports] == [25, 29, 31, 35, 37]


def test_verify_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        list(verify_range(2, 10))
    with pytest.raises(ValueError):
        list(verify_range(10, 5))
    with pytest.raises(ValueError):
        list(verify_range(5, 10, "bogus"))


def test_verify_range_parallel_equals_serial():
    serial = [report_to_json(r) for r in verify_range(5, 40, "coprime6", "full", jobs=1)]
    parallel = [report_to_json(r) for r in verify_range(5, 40, "coprime6", "full", jobs=4)]
    assert serial == parallel


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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
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
    seq, result = hit
    assert seq.coeffs == (1, 3, 4, 4)
    assert result.value == 2


def test_constructive_domain_predicate():
    assert in_constructive_domain(25)
    assert in_constructive_domain(35)
    assert in_constructive_domain(343)
    assert not in_constructive_domain(8)  # gcd(8, 6) = 2
    assert not in_constructive_domain(15)  # gcd(15, 6) = 3
    assert not in_constructive_domain(385)  # three distinct primes

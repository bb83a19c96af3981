"""Fast self-tests of the benchmark: metric names and units, correctness gates, trace counters.

    PYTHONPATH=src python3 -m pytest -q perfbench

The workloads are shrunk (moduli 5..40, a few hundred queries) so that the
whole file runs in well under a minute; the shrunk verify reports have their
own recorded digests in expected.json.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import refclock
import run
import worker
import zsindex
from tracer import load_spans

SMALL_FULL = ["--from", "5", "--to", "40", "--filter", "coprime6", "--mode", "full"]
SMALL_ORBITS = ["--from", "5", "--to", "40", "--filter", "coprime6", "--mode", "orbits"]


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload and keep run artefacts in their own directory."""
    monkeypatch.setattr(run, "OUT", run.ROOT / ".perfbench" / "selftest")
    monkeypatch.setattr(run, "PASS_QUERIES", 200)
    monkeypatch.setattr(run, "PROBE_QUERIES", 100)
    monkeypatch.setattr(run, "SETUP_PROBES", 3)
    monkeypatch.setattr(run, "WORKLOADS", {
        "verify-full": {"verify": SMALL_FULL, "moduli": [5, 40, "coprime6"]},
        "verify-orbits": {"verify": SMALL_ORBITS, "moduli": [5, 40, "coprime6"]},
        "queries": {"moduli": [50, 600, "all"]},
    })


def bench(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def expected_small(args: list[str]) -> dict:
    return run.load_expected()["verify"][run.verify_key(args)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verify-full", "verify-orbits", "queries"])
def test_every_metric_is_printed_with_its_unit(small, capsys, workload, trace):
    context, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.metric_table(bool(trace))
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, m["name"]
    for key in ("nproc", "python", "seed", "source_sha256", "inputs"):
        assert context[key] is not None
    assert context["failure_share"] == 0


def test_benchmark_json_follows_its_own_contract():
    bench_spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench_spec["workloads"]} == set(run.WORKLOADS)
    names = [m["name"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_a_corrupted_report_is_a_failure(small, capsys, monkeypatch):
    real_run_cli = worker.run_cli

    def corrupting(argv):
        report, code = real_run_cli(argv)
        return report.replace(b'"forced"', b'"f0rced"', 1), code

    monkeypatch.setattr(worker, "run_cli", corrupting)
    monkeypatch.setattr(run, "run_worker", lambda spec, env: dict(worker.handle(spec), peak_rss_mb=1.0))
    context, result = bench(capsys, "verify-full", 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert context["failure_share"] == 1 / result["attempted"]
    assert "sha256" in context["failures"][0]["problem"]


class SteadyClock(worker.RefClock):
    """A reference clock whose every tick reads `tick_s`, without running the kernel."""

    def __init__(self, tick_s: float) -> None:
        super().__init__()
        self.tick_s = tick_s

    def tick(self) -> float:
        self.ticks.append(self.tick_s)
        return self.tick_s


@pytest.mark.parametrize("speed", [1, 2])
def test_scaled_times_follow_the_reference_clock(speed):
    clock = SteadyClock(refclock.REFERENCE_S * speed)
    probes = []
    done = worker.verify_pass(SMALL_FULL, clock, lambda: probes.append(len(clock.ticks)))
    moduli = run.report_summary(done["report"])["moduli"]
    assert run.check_report(done["report"], done["exit_code"], expected_small(SMALL_FULL)) is None
    assert done["scaled_wall_s"] == pytest.approx(done["wall_s"] / speed)
    assert probes == [2 * (i + 1) for i in range(moduli)]  # after each modulus and its two ticks
    queries = worker.make_queries("clock", [50, 300, "all"], 2 * worker.BLOCK_QUERIES + 1)
    out = worker.run_pass(queries, clock=clock)
    assert len(clock.ticks) == 2 * moduli + 4
    assert out["scaled"]["wall_s"] == pytest.approx(out["raw"]["wall_s"] / speed)
    assert out["scaled"]["witness_p50_us"] == pytest.approx(out["raw"]["witness_p50_us"] / speed)


def test_a_tick_is_near_its_reference():
    clock = refclock.RefClock()
    ticks = [clock.tick() for _ in range(5)]
    assert clock.ticks == ticks
    assert refclock.REFERENCE_S / 10 < statistics.median(ticks) < refclock.REFERENCE_S * 10
    assert refclock.kernel() == refclock.kernel()


def test_a_wrong_exit_code_is_a_failure():
    expected = expected_small(SMALL_FULL)
    good = subprocess.run(
        [sys.executable, "-m", "zsindex.cli", "verify", *SMALL_FULL],
        env=run.child_env(), capture_output=True, check=True,
    ).stdout
    assert run.check_report(good, 0, expected) is None
    assert "exit code" in run.check_report(good, 1, expected)


def test_a_wrong_certificate_is_a_failure(monkeypatch):
    queries = worker.make_queries("selftest", [50, 300, "all"], 50)
    real = zsindex.find_certificate

    def off_by_one(seq):
        cert = real(seq)
        if isinstance(cert, zsindex.Certificate):
            return zsindex.Certificate(m=cert.m + 1, derivation=cert.derivation)
        return cert

    assert worker.run_pass(queries)["failures"] == []
    monkeypatch.setattr(zsindex, "find_certificate", off_by_one)
    failures = worker.run_pass(queries)["failures"]
    assert failures
    assert all({"n", "seq", "problem"} <= set(f) for f in failures)


def test_check_query_catches_each_kind_of_wrong_answer():
    n, coeffs = 25, (1, 11, 18, 20)
    seq = zsindex.make_sequence(n, coeffs)
    cert, result = zsindex.find_certificate(seq), zsindex.index(seq)
    assert worker.check_query(n, coeffs, cert, result) is None
    assert "weight" in worker.check_query(n, coeffs, zsindex.Certificate(m=5, derivation="forced"), result)
    miss = zsindex.CounterexampleReport(sequence=seq, result=result)
    assert "no certificate" in worker.check_query(n, coeffs, miss, result)
    wrong_index = zsindex.IndexResult(value=result.value, witness=result.witness + 1)
    assert "index witness" in worker.check_query(n, coeffs, cert, wrong_index)


def test_an_overrun_is_listed_by_input(monkeypatch):
    monkeypatch.setattr(worker, "DEADLINE_S", 0.05)

    def stuck(seq):
        while True:
            pass

    monkeypatch.setattr(zsindex, "index", stuck)
    queries = worker.make_queries("overrun", [50, 100, "all"], 2)
    out = worker.run_pass(queries)
    assert [f["n"] for f in out["failures"]] == [n for n, _ in queries]
    assert all("overran" in f["problem"] for f in out["failures"])


def test_traced_histogram_equals_the_cli_report():
    expected = expected_small(SMALL_FULL)
    out = worker.trace_workload({"seed": 0, "verify": {"args": SMALL_FULL, **expected}})
    assert out["failures"] == []
    report, code = worker.run_cli(["verify", *SMALL_FULL])
    assert code == 0
    m = out["metrics"]
    traced = {d: m[f"certify.find_certificate.{d}.count"] for d in worker.CERTIFIED}
    summary = run.report_summary(report)
    assert {d: c for d, c in traced.items() if c} == summary["histogram"]
    assert m["enumeration.iter_min_zero_sum4.yielded"] == summary["sequences"]
    assert zsindex.find_certificate.__module__ == "zsindex.certify"  # wrappers removed


def test_orbit_sizes_add_up_to_the_enumerated_count():
    expected = expected_small(SMALL_ORBITS)
    out = worker.trace_workload({"seed": 0, "verify": {"args": SMALL_ORBITS, **expected}})
    assert out["failures"] == []
    m = out["metrics"]
    assert m["enumeration.iter_orbit_reps.orbit_size_sum"] == m["enumeration.iter_min_zero_sum4.yielded"] > 0
    assert m["enumeration.iter_orbit_reps.self_s"] <= m["enumeration.iter_orbit_reps.s"]


def test_spans_round_trip():
    path = run.ROOT / ".perfbench" / "selftest" / "spans" / "tiny.spans"
    queries = worker.make_queries("spans", [50, 200, "all"], 20)
    tracer = worker.Tracer()
    with tracer:
        worker.run_pass(queries, tracer)
    tracer.write(path)
    names, spans = load_spans(path)
    assert len(spans["start"]) == tracer.span_count > 0
    assert set(spans["request"]) <= set(range(len(queries)))
    assert all(s <= e for s, e in zip(spans["start"], spans["end"]))
    assert "certify.find_certificate" in names


def test_tail_leaves_ten_samples_beyond_it():
    assert worker.tail_percentile(20_000) == 99.95
    values = sorted(float(i) for i in range(20_000))
    tail = worker.percentile(values, 99.95)
    assert sum(v > tail for v in values) == 10


def test_without_sources_it_fails_without_a_result():
    bare = run.ROOT / ".perfbench" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""zsindex benchmark: one command, three workloads, every metric checked and named.

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (zsindex is imported from ./src).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
End-to-end times are scaled by the reference clock of refclock.py.  The
line before it holds the run's context: machine, interpreter, source
version, seed, input sizes, raw times and every failure by input.  Both
also land in .perfbench/results/.  See perfbench/NOTES.md for what each
workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SRC = ROOT / "src"

PASS_QUERIES = 20_000
# Single-query passes on the verify workloads, one after each modulus: small
# passes (their tail is p99, the 10th slowest of 1,000), so that they sample
# the whole run, and many of them, so that their medians are steady.
PROBE_QUERIES = 1_000
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 165  # a traced verify-full run takes about 50 s; a whole run must end within 180 s

WORKLOADS = {
    "verify-full": {
        "verify": ["--from", "5", "--to", "120", "--filter", "coprime6", "--mode", "full"],
        "moduli": [5, 120, "coprime6"],
    },
    "verify-orbits": {
        "verify": ["--from", "5", "--to", "130", "--filter", "coprime6", "--mode", "orbits"],
        "moduli": [5, 130, "coprime6"],
    },
    "queries": {"moduli": [500, 10_000, "all"]},
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (as opposed to a wrong answer)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(argv: list[str], env: dict[str, str]) -> Child:
    """Run argv to the end (killed after CHILD_TIMEOUT_S) and collect its own peak RSS."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err) as proc:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024)


def run_worker(spec: dict, env: dict[str, str]) -> dict:
    done = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], env)
    if done.returncode != 0:
        raise BenchmarkError(f"worker failed ({done.returncode}): {done.stderr.decode()[-2000:]}")
    return dict(json.loads(done.stdout.decode().splitlines()[-1]), peak_rss_mb=done.peak_rss_mb)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def verify_key(args: list[str]) -> str:
    return " ".join(args)


# -- context ------------------------------------------------------------------


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zsindex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# -- measurements ---------------------------------------------------------------


def setup_seconds(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Fresh interpreter start plus `import zsindex`, up to where the first call
    would run: (raw, scaled) seconds per probe, each probe between two ticks."""
    probe = [sys.executable, "-c", "import time, zsindex; print(repr(time.perf_counter()))"]
    run_child(probe, env)  # unmeasured: compiles the bytecode cache on a fresh checkout
    clock = RefClock()
    before = clock.tick()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        done = run_child(probe, env)
        if done.returncode != 0:
            raise BenchmarkError(f"cannot import zsindex: {done.stderr.decode()[-2000:]}")
        raw.append(float(done.stdout) - start)
        after = clock.tick()
        scaled.append(raw[-1] * clock.factor(before, after))
        before = after
    return raw, scaled


def report_summary(report: bytes) -> dict:
    """Moduli, sequences, orbits and summed derivation histogram of a verify report
    (manifest line skipped); all zero when the report does not parse."""
    summary = {"moduli": 0, "sequences": 0, "orbits": 0, "histogram": {}}
    try:
        for line in report.decode().splitlines()[1:]:
            row = json.loads(line)
            summary["moduli"] += 1
            summary["sequences"] += row["sequences_checked"]
            summary["orbits"] += row["orbits_checked"]
            for tag, count in row["derivation_histogram"].items():
                summary["histogram"][tag] = summary["histogram"].get(tag, 0) + count
    except (ValueError, KeyError, TypeError, AttributeError):
        return {"moduli": 0, "sequences": 0, "orbits": 0, "histogram": {}}
    return summary


def check_report(report: bytes, exit_code: int, expected: dict) -> str | None:
    """Why a verify run's output differs from the recorded one, or None."""
    if exit_code != expected["exit_code"]:
        return f"exit code {exit_code}, expected {expected['exit_code']}"
    if hashlib.sha256(report).hexdigest() != expected["sha256"]:
        return "report bytes differ from the recorded sha256"
    return None


def summarize(out: dict, workload: dict, label: str) -> dict[str, float]:
    """End-to-end metric values from the worker's passes, `raw` or `scaled`."""
    passes = [p[label] for p in out["query_passes"]]
    queries = sum(p["queries"] for p in out["query_passes"])
    query_time = sum(p["wall_s"] for p in passes)

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    values = {
        "queries_per_s": queries / query_time,
        "witness_p50_us": med("witness_p50_us"),
        "witness_tail_us": med("witness_tail_us"),
        "index_p50_us": med("index_p50_us"),
        "index_tail_us": med("index_tail_us"),
    }
    if "verify" in workload:
        key = "wall_s" if label == "raw" else "scaled_wall_s"
        values["wall_s"] = statistics.median(r[key] for r in out["rounds"])
        values["sequences_per_s"] = out["summary"]["sequences"] / values["wall_s"]
    else:
        # The mean pass: a few slow calls hold most of a pass's time, so
        # every pass counts in full.
        values["wall_s"] = query_time / len(passes)
        values["sequences_per_s"] = values["queries_per_s"]
    return values


def end_to_end(args: argparse.Namespace, env: dict[str, str]) -> tuple[dict, dict, int, list]:
    """Untraced run: (metric values, input sizes, attempted, failures).

    Timing metrics are scaled by the reference clock; the raw ones go into
    the input sizes, which land in the context line.
    """
    workload = WORKLOADS[args.workload]
    setup_raw, setup_scaled = setup_seconds(env)
    spec = {
        "kind": "measure",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "moduli": workload["moduli"],
        "pass_queries": PASS_QUERIES,
        "probe_queries": PROBE_QUERIES,
    }
    if "verify" in workload:
        expected = load_expected()["verify"][verify_key(workload["verify"])]
        spec["verify"] = {"args": workload["verify"], **expected}
    out = run_worker(spec, env)
    values = summarize(out, workload, "scaled")
    values.update(setup_s=statistics.median(setup_scaled), peak_rss_mb=out["peak_rss_mb"])
    raw = summarize(out, workload, "raw")
    raw.update(setup_s=statistics.median(setup_raw))
    passes = out["query_passes"]
    attempted = sum(p["queries"] for p in passes)
    if "verify" in workload:
        attempted += len(out["rounds"])
    sizes = {key: out["summary"].get(key, 0) for key in ("moduli", "sequences", "orbits")}
    sizes.update(
        passes=len(out["rounds"]),
        pass_wall_s=[r["scaled_wall_s"] if "verify" in workload else r["scaled"]["wall_s"] for r in out["rounds"]],
        queries=sum(p["queries"] for p in passes),
        query_passes=len(passes),
        queries_per_pass=passes[0]["queries"],
        tail_percentile=passes[0]["tail_percentile"],
        normal_forms=None,  # counted by the traced run
        setup_samples=len(setup_raw),
        raw=raw,
        refclock=out["clock"],
    )
    return values, sizes, attempted, out["failures"]


def traced(args: argparse.Namespace, env: dict[str, str]) -> tuple[dict, dict, int, list]:
    """Traced replay: (per-layer metric values, input sizes, attempted, failures)."""
    workload = WORKLOADS[args.workload]
    spec = {
        "kind": "trace",
        "workload": args.workload,
        "seed": args.seed,
        "spans_path": str(OUT / "spans" / f"{args.workload}.spans"),
    }
    if "verify" in workload:
        expected = load_expected()["verify"][verify_key(workload["verify"])]
        spec["verify"] = {"args": workload["verify"], **expected}
    else:
        spec["queries"] = {"label": args.workload, "moduli": workload["moduli"], "count": PASS_QUERIES}
    out = run_worker(spec, env)
    m = out["metrics"]
    sizes = {
        "moduli": m["harness.verify_modulus.calls"],
        "sequences": m["enumeration.iter_min_zero_sum4.yielded"],
        "orbits": m["enumeration.iter_orbit_reps.yielded"],
        "queries": PASS_QUERIES if "verify" not in workload else 0,
        "normal_forms": m["certify.normal_forms"],
        "spans": m["trace.spans"],
        "spans_file": spec["spans_path"],
        "worker_peak_rss_mb": out["peak_rss_mb"],
    }
    return m, sizes, out["attempted"], out["failures"]


# -- output -------------------------------------------------------------------


def metric_table(trace: bool) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def assemble(values: dict, trace: bool) -> dict:
    """Every metric BENCHMARK.json names, with its unit, in its order."""
    table = metric_table(trace)
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "zsindex" / "__init__.py").is_file():
        print(f"error: no zsindex sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        ctx = context(args)
        measure = traced if args.trace else end_to_end
        values, sizes, attempted, failures = measure(args, env)
        metrics = assemble(values, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    ctx.update(inputs=sizes, failure_share=len(failures) / attempted, failures=failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.joinpath("results", name).write_text(json.dumps({"context": ctx, "result": result}, indent=1) + "\n")
    for key, metric in metrics.items():
        print(f"{key:48} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

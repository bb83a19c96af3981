"""In-process side of the benchmark: single-sequence queries and the traced replay.

Run as `python3 perfbench/worker.py '<json spec>'` with zsindex on
PYTHONPATH; prints one JSON object.  Two kinds of spec:

  {"kind": "measure", "workload", "seed", "seconds", "moduli": [lo, hi, filter],
   "verify": {"args", "sha256", "exit_code"} | absent,
   "pass_queries", "probe_queries"}
      the untraced workload (see `measure`): verify passes run in this
      process, and passes of seeded random minimal zero-sum sequences, each
      sent to find_certificate and then to index, one after the other (a
      closed loop with one client).  Every unit of work is timed between
      ticks of the reference clock (refclock.py), so both raw and scaled
      times come back.
  {"kind": "trace", "workload", "seed", "verify": {...} | "queries": {...}}
      the workload once untraced and once traced (see tracer.py), in this
      process, followed by the stage replay; returns per-layer metrics.

Every answer is checked here with arithmetic of the benchmark's own, not
with zsindex's helpers.
"""

from __future__ import annotations

import io
import json
import math
import random
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import zsindex
from zsindex import certify, cli, harness, normalform

from refclock import REFERENCE_S, RefClock
from run import check_report, report_summary
from tracer import Tracer

# A single call may take this long before it is stopped and counted as a
# failure.  The slowest call seen at n <= 10^4 takes about 0.4 s.
DEADLINE_S = 2.0
STAGES = ("small_a", "interval", "half_interval", "majority_small")
CERTIFIED = ("forced", "small_a", "interval", "half_interval", "majority_small", "lifted", "brute_force")
DERIVATIONS = CERTIFIED + ("counterexample",)
TAGS = ("nu1", "nu3", "all_small", "all_big", "normal", "opaque")
TAIL_LADDER = (99.999, 99.995, 99.99, 99.95, 99.9, 99.5, 99.0, 90.0, 50.0)
# Queries between two ticks of the reference clock: about a quarter second
# on `queries`, a few milliseconds on the verify workloads' small moduli.
BLOCK_QUERIES = 500


# -- inputs ---------------------------------------------------------------


def passes_filter(n: int, filter_name: str) -> bool:
    return filter_name == "all" or math.gcd(n, 6) == 1


def is_minimal_zero_sum4(n: int, coeffs: tuple[int, ...]) -> bool:
    """Zero-sum mod n with every nonempty proper sub-multiset nonzero mod n."""
    if sum(coeffs) % n:
        return False
    return all(
        sum(x for i, x in enumerate(coeffs) if mask >> i & 1) % n
        for mask in range(1, 15)
    )


def make_queries(seed: str, moduli: list, count: int) -> list[tuple[int, tuple[int, ...]]]:
    """`count` random minimal zero-sum sequences; n uniform over the moduli
    [lo, hi] that pass the filter, then three uniform nonzero residues
    completed to a zero sum, redrawn until minimal."""
    lo, hi, filter_name = moduli
    pool = [n for n in range(lo, hi + 1) if passes_filter(n, filter_name)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(pool)
        head = [rng.randrange(1, n) for _ in range(3)]
        coeffs = tuple(sorted(head + [-sum(head) % n]))
        if coeffs[0] and is_minimal_zero_sum4(n, coeffs):
            out.append((n, coeffs))
    return out


# -- checking -------------------------------------------------------------


def weight(n: int, coeffs: tuple[int, ...], m: int) -> int:
    return sum(m * x % n for x in coeffs)


def check_query(n: int, coeffs: tuple[int, ...], outcome, result) -> str | None:
    """Why the pair (find_certificate outcome, index result) is wrong, or None.

    A certificate must be a unit with weight exactly n; the index witness
    must be a unit whose weight is value * n; and find_certificate must
    return a certificate exactly when the index is 1.
    """
    value = result.value
    if math.gcd(result.witness, n) != 1 or weight(n, coeffs, result.witness) != value * n:
        return f"index witness {result.witness} does not give value {value}"
    m = getattr(outcome, "m", None)
    if m is None:
        if value == 1:
            return "no certificate although the index is 1"
        return None
    if math.gcd(m, n) != 1 or weight(n, coeffs, m) != n:
        return f"certificate m={m} does not have weight n"
    if value != 1:
        return f"certificate m={m} although the index is {value}"
    return None


# -- one pass of queries ----------------------------------------------------


class DeadlineExceeded(Exception):
    """Raised into a call that ran past DEADLINE_S."""


class _Alarm:
    armed = False

    def __call__(self, signum, frame) -> None:
        if self.armed:
            raise DeadlineExceeded


_ALARM = _Alarm()


def timed_call(fn, seq):
    """(result or exception, seconds); a call past DEADLINE_S is interrupted."""
    _ALARM.armed = True
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = perf_counter()
    try:
        result = fn(seq)
    except Exception as exc:  # a failed call is counted, never fatal
        result = exc
    finally:
        _ALARM.armed = False
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed


def tail_percentile(count: int) -> float:
    """Highest percentile on the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if count * (100 - p) / 100 >= 10 - 1e-9:
            return p
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def run_pass(queries, tracer: Tracer | None = None, clock: RefClock | None = None) -> dict:
    """Send every query to find_certificate, then index; time each call.

    With a clock, the queries run in blocks of BLOCK_QUERIES with a tick
    between blocks, and each call's time is also scaled by its block's
    factor (see refclock.py).  Without one (traced runs, self-tests), the
    scaled figures equal the raw ones.
    """
    signal.signal(signal.SIGALRM, _ALARM)
    seqs = [zsindex.make_sequence(n, coeffs) for n, coeffs in queries]
    answers = []
    witness_s = []
    index_s = []
    factors = []
    wall = scaled_wall = 0.0
    size = BLOCK_QUERIES if clock is not None else max(len(seqs), 1)
    before = clock.tick() if clock is not None else None
    for first in range(0, len(seqs), size):
        block = seqs[first:first + size]
        start = perf_counter()
        for i, seq in enumerate(block, first):
            if tracer is not None:
                tracer.request = i
            outcome, w = timed_call(zsindex.find_certificate, seq)
            result, x = timed_call(zsindex.index, seq)
            answers.append((outcome, result))
            witness_s.append(w)
            index_s.append(x)
        block_wall = perf_counter() - start
        factor = 1.0
        if clock is not None:
            after = clock.tick()
            factor, before = clock.factor(before, after), after
        factors.extend([factor] * len(block))
        wall += block_wall
        scaled_wall += block_wall * factor

    failures = []
    for (n, coeffs), (outcome, result) in zip(queries, answers):
        problem = None
        for call, got in (("find_certificate", outcome), ("index", result)):
            if isinstance(got, DeadlineExceeded):
                problem = f"{call} overran the {DEADLINE_S} s deadline"
            elif isinstance(got, Exception):
                problem = f"{call} raised {got!r}"
            if problem:
                break
        if problem is None:
            problem = check_query(n, coeffs, outcome, result)
        if problem:
            failures.append({"n": n, "seq": list(coeffs), "problem": problem})

    p_tail = tail_percentile(len(queries))
    out = {"queries": len(queries), "tail_percentile": p_tail, "failures": failures}
    for label, scale in (("raw", [1.0] * len(factors)), ("scaled", factors)):
        w = sorted(t * f for t, f in zip(witness_s, scale))
        x = sorted(t * f for t, f in zip(index_s, scale))
        out[label] = {
            "wall_s": wall if label == "raw" else scaled_wall,
            "witness_p50_us": percentile(w, 50) * 1e6,
            "witness_tail_us": percentile(w, p_tail) * 1e6,
            "index_p50_us": percentile(x, 50) * 1e6,
            "index_tail_us": percentile(x, p_tail) * 1e6,
        }
    return out


def verify_pass(args: list[str], clock: RefClock, between=None) -> dict:
    """`zsindex verify <args> --jobs 1` in this process, timed modulus by modulus.

    Each modulus runs between two ticks and is scaled by them; the rest of
    the pass (argument parsing, the manifest line) is scaled by the median
    tick.  `between()`, if given, runs after each modulus; its time and the
    ticks' are taken out of the pass's wall time.
    """
    real = harness.verify_modulus
    units = []  # (raw, scaled) seconds per modulus
    aside = 0.0

    def paced(*a, **kw):
        nonlocal aside
        start = perf_counter()
        before = clock.tick()
        begin = perf_counter()
        try:
            return real(*a, **kw)
        finally:
            end = perf_counter()
            after = clock.tick()
            units.append((end - begin, (end - begin) * clock.factor(before, after)))
            if between is not None:
                between()
            aside += perf_counter() - start - (end - begin)

    harness.verify_modulus = paced
    try:
        first = len(clock.ticks)
        start = perf_counter()
        report, code = run_cli(["verify", *args, "--jobs", "1"])
        wall = perf_counter() - start - aside
    finally:
        harness.verify_modulus = real
    rest = wall - sum(raw for raw, _ in units)
    scaled = sum(s for _, s in units) + rest * REFERENCE_S / statistics.median(clock.ticks[first:] or [REFERENCE_S])
    return {"report": report, "exit_code": code, "wall_s": wall, "scaled_wall_s": scaled}


def measure(spec: dict) -> dict:
    """The untraced workload, repeated while another round fits in `seconds`.

    verify: a verify pass with a `probe_queries`-query pass over the same
    moduli after each modulus, so that the single-call latencies sample the
    whole run.  queries: one `pass_queries`-query pass.  Every query pass
    draws fresh inputs from (seed, round, pass).
    """
    clock = RefClock()
    verify = spec.get("verify")
    rounds, query_passes, failures = [], [], []
    summary: dict = {}
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        label = f"{spec['seed']}:{spec['workload']}:{len(rounds)}"
        if verify:
            def probe():
                queries = make_queries(f"{label}:{len(query_passes)}", spec["moduli"], spec["probe_queries"])
                query_passes.append(run_pass(queries, clock=clock))

            done = verify_pass(verify["args"], clock, probe)
            problem = check_report(done["report"], done["exit_code"], verify)
            if problem:
                failures.append({"pass": len(rounds), "command": "zsindex verify " + " ".join(verify["args"]),
                                 "problem": problem})
            summary = report_summary(done.pop("report"))
            rounds.append(done)
        else:
            queries = make_queries(label, spec["moduli"], spec["pass_queries"])
            query_passes.append(run_pass(queries, clock=clock))
            rounds.append(query_passes[-1])
        round_s = perf_counter() - round_start
        if perf_counter() - begin + round_s > spec["seconds"]:
            break
    for i, p in enumerate(query_passes):
        failures += [dict(f, query_pass=i) for f in p.pop("failures")]
    return {
        "rounds": rounds,
        "query_passes": query_passes,
        "failures": failures,
        "summary": summary,
        "clock": {"reference_s": REFERENCE_S, "ticks": len(clock.ticks),
                  "median_tick_s": statistics.median(clock.ticks)},
    }


# -- traced replay ------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[bytes, int]:
    """`zsindex <argv>` in this process; (stdout bytes, exit code)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue().encode(), code


def _layer_hooks(normal_forms: list, by_derivation: dict) -> tuple[dict, dict]:
    def classified(tr, args, result, duration, outermost):
        tr.counts[f"normalform.classify.{result.tag}"] += 1
        if result.normal_form is not None:
            normal_forms.append(result.normal_form)

    def certified(tr, args, result, duration, outermost):
        if outermost:
            derivation = getattr(result, "derivation", "counterexample")
            tr.counts[f"certify.find_certificate.{derivation}.count"] += 1
            by_derivation[derivation] = by_derivation.get(derivation, 0.0) + duration

    def reduced(tr, args, result, duration, outermost):
        if result is not None:
            tr.counts["subgroup.try_subgroup_reduce.reduced"] += 1

    def enumerated(tr, args, item, duration, outermost):
        tr.counts["enumeration.iter_min_zero_sum4.yielded"] += 1

    def orbit(tr, args, item, duration, outermost):
        tr.counts["enumeration.iter_orbit_reps.yielded"] += 1
        tr.counts["enumeration.iter_orbit_reps.orbit_size_sum"] += item.orbit_size

    def modulus(tr, args, result, duration, outermost):
        tr.durations["harness.verify_modulus"].append(duration)

    def hit_counter(key):
        def count(tr, args, result, duration, outermost):
            if result:
                tr.counts[key] += 1
        return count

    hooks = {
        "normalform.classify": classified,
        "certify.find_certificate": certified,
        "subgroup.try_subgroup_reduce": reduced,
        "enumeration.iter_min_zero_sum4": enumerated,
        "enumeration.iter_orbit_reps": orbit,
        "harness.verify_modulus": modulus,
    }
    hooks.update({f"replay.{stage}": hit_counter(f"certify.{stage}.hits") for stage in STAGES})
    return hooks, {"harness.verify_modulus": lambda args: args[0]}


def replay_stages(tracer: Tracer, normal_forms: list) -> None:
    """The pipeline's search stages on every normal form classify produced,
    in pipeline order, each finished through finalize, up to the first hit.

    Calls the unwrapped search functions, one `replay.<stage>` span per attempt.
    """
    small_a = certify.small_a_certificate.__wrapped__
    interval = certify.search_interval.__wrapped__
    half = certify.search_half_interval.__wrapped__
    majority = certify.search_majority_small.__wrapped__
    finalize = certify.finalize.__wrapped__

    def try_small_a(nf, seq):
        try:
            small_a(nf)
        except certify.CertificateMiss:
            return False
        return True

    def try_interval(nf, seq):
        return interval(nf) is not None

    def try_half(nf, seq):
        mid = half(nf)
        return mid is not None and finalize(seq, mid, certify.HALF_INTERVAL) is not None

    def try_majority(nf, seq):
        mid = majority(nf)
        return mid is not None and finalize(seq, mid, certify.MAJORITY_SMALL) is not None

    tracer.request = -1
    for nf in normal_forms:
        seq = normalform.normal_form_sequence(nf)
        plan = []
        if nf.a == 2 and nf.n % 2 == 1:
            plan.append(("small_a", try_small_a))
        plan.append(("interval", try_interval))
        if nf.b // nf.a >= 2:
            plan.append(("half_interval", try_half))
        plan.append(("majority_small", try_majority))
        for stage, attempt in plan:
            if tracer.span(f"replay.{stage}", attempt, nf, seq):
                break


def layer_metrics(tr: Tracer, by_derivation: dict, normal_forms: int,
                  traced_wall: float, untraced_wall: float) -> dict:
    counts = tr.counts
    certificates = sum(counts[f"certify.find_certificate.{d}.count"] for d in CERTIFIED)
    constructive = certificates - counts["certify.find_certificate.brute_force.count"]
    per_modulus = sorted(tr.durations["harness.verify_modulus"])
    m = {
        "enumeration.iter_min_zero_sum4.s": tr.inclusive["enumeration.iter_min_zero_sum4"],
        "enumeration.iter_min_zero_sum4.yielded": counts["enumeration.iter_min_zero_sum4.yielded"],
        "enumeration.iter_orbit_reps.s": tr.inclusive["enumeration.iter_orbit_reps"],
        "enumeration.iter_orbit_reps.self_s": tr.self_time["enumeration.iter_orbit_reps"],
        "enumeration.iter_orbit_reps.yielded": counts["enumeration.iter_orbit_reps.yielded"],
        "enumeration.iter_orbit_reps.orbit_size_sum": counts["enumeration.iter_orbit_reps.orbit_size_sum"],
        "normalform.classify.s": tr.inclusive["normalform.classify"],
        "normalform.classify.calls": tr.calls["normalform.classify"],
    }
    for tag in TAGS:
        m[f"normalform.classify.{tag}"] = counts[f"normalform.classify.{tag}"]
    m["certify.find_certificate.s"] = tr.inclusive["certify.find_certificate"]
    m["certify.find_certificate.self_s"] = tr.self_time["certify.find_certificate"]
    m["certify.find_certificate.calls"] = tr.calls["certify.find_certificate"]
    for d in DERIVATIONS:
        m[f"certify.find_certificate.{d}.s"] = by_derivation.get(d, 0.0)
        m[f"certify.find_certificate.{d}.count"] = counts[f"certify.find_certificate.{d}.count"]
    for stage in STAGES:
        m[f"certify.{stage}.attempts"] = tr.calls[f"replay.{stage}"]
        m[f"certify.{stage}.hits"] = counts[f"certify.{stage}.hits"]
        m[f"certify.{stage}.s"] = tr.inclusive[f"replay.{stage}"]
    m["certify.normal_forms"] = normal_forms
    m["certify.shape_stats.s"] = tr.inclusive["certify.shape_stats"]
    m["certify.constructive_share"] = constructive / certificates if certificates else 0.0
    m["certify.constructive_share.base"] = certificates
    m["subgroup.try_subgroup_reduce.s"] = tr.inclusive["subgroup.try_subgroup_reduce"]
    m["subgroup.try_subgroup_reduce.calls"] = tr.calls["subgroup.try_subgroup_reduce"]
    m["subgroup.try_subgroup_reduce.reduced"] = counts["subgroup.try_subgroup_reduce.reduced"]
    m["subgroup.lift_witness.s"] = tr.inclusive["subgroup.lift_witness"]
    m["subgroup.lift_witness.calls"] = tr.calls["subgroup.lift_witness"]
    m["zseq.index.s"] = tr.inclusive["zseq.index"]
    m["zseq.index.calls"] = tr.calls["zseq.index"]
    m["harness.verify_modulus.calls"] = tr.calls["harness.verify_modulus"]
    m["harness.verify_modulus.p50_s"] = statistics.median(per_modulus) if per_modulus else 0.0
    m["harness.verify_modulus.max_s"] = per_modulus[-1] if per_modulus else 0.0
    m["harness.verify_modulus.self_s"] = tr.self_time["harness.verify_modulus"]
    m["harness.report_to_json.s"] = tr.inclusive["harness.report_to_json"]
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = tr.span_count
    return m


def trace_workload(spec: dict, spans_path: Path | None = None) -> dict:
    """Untraced, then traced replay of one workload; per-layer metrics and checks."""
    failures = []
    attempted = 0
    normal_forms: list = []
    by_derivation: dict = {}
    hooks, request_of = _layer_hooks(normal_forms, by_derivation)
    tracer = Tracer(hooks, request_of)
    verify = spec.get("verify")
    if verify:
        argv = ["verify", *verify["args"], "--jobs", "1"]
        start = perf_counter()
        report, code = run_cli(argv)
        untraced = perf_counter() - start
        with tracer:
            start = perf_counter()
            traced_report, traced_code = run_cli(argv)
            replay_stages(tracer, normal_forms)
            traced = perf_counter() - start
        for label, data, exit_code in (("untraced", report, code), ("traced", traced_report, traced_code)):
            attempted += 1
            problem = check_report(data, exit_code, verify)
            if problem:
                failures.append({"pass": label, "problem": problem})
        pipeline = {
            d: tracer.counts[f"certify.find_certificate.{d}.count"]
            for d in CERTIFIED if tracer.counts[f"certify.find_certificate.{d}.count"]
        }
        attempted += 1
        if not failures and pipeline != report_summary(traced_report)["histogram"]:
            failures.append({"problem": "traced derivation histogram differs from the report's"})
        if tracer.calls["enumeration.iter_orbit_reps"]:
            attempted += 1
            if (tracer.counts["enumeration.iter_orbit_reps.orbit_size_sum"]
                    != tracer.counts["enumeration.iter_min_zero_sum4.yielded"]):
                failures.append({"problem": "orbit sizes do not add up to the enumerated count"})
    else:
        q = spec["queries"]
        queries = make_queries(f"{spec['seed']}:{q['label']}:0", q["moduli"], q["count"])
        untraced_pass = run_pass(queries)
        untraced = untraced_pass["raw"]["wall_s"]
        with tracer:
            traced_pass = run_pass(queries, tracer)
            start = perf_counter()
            replay_stages(tracer, normal_forms)
            traced = traced_pass["raw"]["wall_s"] + perf_counter() - start
        attempted += 2 * len(queries)
        failures.extend(untraced_pass["failures"] + traced_pass["failures"])
    metrics = layer_metrics(tracer, by_derivation, len(normal_forms), traced, untraced)
    if spans_path is not None:
        tracer.write(spans_path)
    return {"metrics": metrics, "attempted": attempted, "failures": failures}


def handle(spec: dict) -> dict:
    if spec["kind"] == "measure":
        return measure(spec)
    if spec["kind"] == "trace":
        spans = spec.get("spans_path")
        return trace_workload(spec, Path(spans) if spans else None)
    raise SystemExit(f"unknown worker spec kind {spec['kind']!r}")


def main(argv: list[str]) -> int:
    print(json.dumps(handle(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

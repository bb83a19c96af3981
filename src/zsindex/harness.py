"""Range verification: run the certificate pipeline over every sequence of every modulus.

A verification run produces one report per modulus: how many sequences and
orbits were checked, a histogram of certificate derivations, the number of
pipeline gaps (brute-force fallbacks on unit-leading sequences over moduli
that the constructive machinery is expected to cover), and any sequences
whose brute-force index is 2 or more.

Reports serialize to one JSON object per line with a stable key order and
no timings, so repeated runs are byte-identical and diffable.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .certify import BRUTE_FORCE, Certificate, CounterexampleReport, find_certificate
from .enumeration import iter_min_zero_sum4, iter_orbit_reps
from .zseq import IndexResult, Sequence, index

__all__ = [
    "FILTERS",
    "MODES",
    "OracleDisagreement",
    "VerificationReport",
    "find_counterexample",
    "in_constructive_domain",
    "report_to_json",
    "select_moduli",
    "verify_modulus",
    "verify_range",
]

MODES = ("full", "orbits")
FILTERS = ("coprime6", "two_prime_powers", "all")

SAMPLE_INTERVAL = 100
SEED = 0


class OracleDisagreement(RuntimeError):
    """An internal failure on a sequence the harness enumerated itself.

    Raised when the certificate pipeline and the brute-force oracle
    disagree, or when the pipeline fails its own certificate check.  Never
    a verdict about the sequence.
    """


@dataclass
class VerificationReport:
    n: int
    mode: str
    sequences_checked: int
    orbits_checked: int
    derivation_histogram: dict[str, int]
    pipeline_gaps: int
    counterexamples: list[tuple[Sequence, IndexResult]]


def _distinct_prime_factors(n: int) -> int:
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        count += 1
    return count


def in_constructive_domain(n: int) -> bool:
    """Moduli the certificate searches are expected to cover without brute force:
    gcd(n, 6) = 1 and at most two distinct prime factors."""
    return math.gcd(n, 6) == 1 and _distinct_prime_factors(n) <= 2


def _is_unit_leading(seq: Sequence) -> bool:
    return any(math.gcd(x, seq.n) == 1 for x in seq.coeffs)


def _passes_filter(n: int, filter_name: str) -> bool:
    if filter_name == "coprime6":
        return math.gcd(n, 6) == 1
    if filter_name == "two_prime_powers":
        return in_constructive_domain(n)
    if filter_name == "all":
        return True
    raise ValueError(f"unknown filter {filter_name!r}, expected one of {FILTERS}")


def verify_modulus(n: int, mode: str = "full") -> VerificationReport:
    """Verify one modulus.

    full:   run find_certificate on every minimal zero-sum length-4 sequence.
    orbits: run it on one representative per unit orbit (index is constant
            on orbits).  This saves certificate work, up to phi(n) times
            less of it, but representatives are still filtered out of the
            full O(n^3/6) enumeration, which bounds the mode's time.

    In both modes a deterministic 1-in-K sample (seeded by n, K =
    SAMPLE_INTERVAL) of the processed sequences is cross-checked against
    the full brute-force index, and so is the last one if the draw picks
    none, so no modulus goes unchecked.  A disagreement raises
    OracleDisagreement, and so does a ValueError from find_certificate:
    the sequences are the enumerator's own, so either means the pipeline
    failed, not the input.
    """
    if mode == "full":
        stream = ((seq, 1) for seq in iter_min_zero_sum4(n))
        orbit_step = 0
    elif mode == "orbits":
        stream = ((orbit.rep, orbit.orbit_size) for orbit in iter_orbit_reps(n))
        orbit_step = 1
    else:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    rng = random.Random(f"{SEED}:{n}")
    histogram: dict[str, int] = {}
    counterexamples: list[tuple[Sequence, IndexResult]] = []
    gaps = 0
    sequences_checked = 0
    orbits_checked = 0
    domain = in_constructive_domain(n)
    drawn = False
    for seq, count in stream:
        sequences_checked += count
        orbits_checked += orbit_step
        try:
            outcome = find_certificate(seq)
        except ValueError as exc:
            raise OracleDisagreement(f"certificate pipeline failed: {exc}") from exc
        if isinstance(outcome, Certificate):
            histogram[outcome.derivation] = histogram.get(outcome.derivation, 0) + 1
            if outcome.derivation == BRUTE_FORCE and domain and _is_unit_leading(seq):
                gaps += 1
        else:
            counterexamples.append((seq, outcome.result))
        if rng.randrange(SAMPLE_INTERVAL) == 0:
            drawn = True
            _cross_check(seq, outcome)
    if sequences_checked and not drawn:
        _cross_check(seq, outcome)
    return VerificationReport(
        n=n,
        mode=mode,
        sequences_checked=sequences_checked,
        orbits_checked=orbits_checked,
        derivation_histogram=histogram,
        pipeline_gaps=gaps,
        counterexamples=counterexamples,
    )


def _cross_check(seq: Sequence, outcome: Certificate | CounterexampleReport) -> None:
    """Raise OracleDisagreement unless the brute-force index agrees with the pipeline."""
    oracle = index(seq)
    if isinstance(outcome, Certificate) != (oracle.value == 1):
        raise OracleDisagreement(
            f"pipeline/oracle disagreement on {seq.coeffs} over {seq.n}: "
            f"pipeline={outcome!r} oracle={oracle!r}"
        )


def verify_range(
    from_n: int,
    to_n: int,
    filter_name: str = "coprime6",
    mode: str = "full",
    *,
    jobs: int = 1,
) -> Iterator[VerificationReport]:
    """Yield one report per qualifying modulus in [from_n, to_n], in ascending n order.

    Moduli are independent work units; with jobs > 1 they are verified in a
    process pool of `_worker_count` processes, but emission order stays
    ascending regardless of completion order.
    """
    moduli = select_moduli(from_n, to_n, filter_name)
    worker = partial(verify_modulus, mode=mode)
    workers = _worker_count(jobs, len(moduli))
    if workers <= 1:
        for n in moduli:
            yield worker(n)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, moduli)


def select_moduli(from_n: int, to_n: int, filter_name: str = "coprime6") -> list[int]:
    """The moduli in [from_n, to_n] that pass the filter, ascending: verify_range's work list."""
    if not 3 <= from_n <= to_n:
        raise ValueError(f"need 3 <= from <= to, got from={from_n} to={to_n}")
    return [n for n in range(from_n, to_n + 1) if _passes_filter(n, filter_name)]


def _worker_count(jobs: int, moduli: int) -> int:
    """Pool size for verify_range: more workers than moduli or cores would only
    add idle processes, and the pool starts all of them up front."""
    return min(jobs, moduli, os.cpu_count() or 1)


def find_counterexample(n: int) -> tuple[Sequence, IndexResult] | None:
    """First (lexicographic) minimal zero-sum length-4 sequence with index >= 2, if any.

    Uses the brute-force index directly; the certificate pipeline is not
    consulted, so this is an independent oracle scan.
    """
    for seq in iter_min_zero_sum4(n):
        result = index(seq)
        if result.value > 1:
            return seq, result
    return None


def _fraction_json(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def report_to_json(report: VerificationReport) -> str:
    """One-line JSON form with stable key order."""
    payload = {
        "n": report.n,
        "mode": report.mode,
        "sequences_checked": report.sequences_checked,
        "orbits_checked": report.orbits_checked,
        "derivation_histogram": dict(sorted(report.derivation_histogram.items())),
        "pipeline_gaps": report.pipeline_gaps,
        "counterexamples": [
            {"seq": list(seq.coeffs), "value": _fraction_json(res.value), "witness": res.witness}
            for seq, res in report.counterexamples
        ],
    }
    return json.dumps(payload, separators=(", ", ": "))

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
from dataclasses import dataclass
from functools import partial
from itertools import repeat

from .certify import BRUTE_FORCE, Certificate, CounterexampleReport, find_certificate
from .enumeration import iter_min_zero_sum4, iter_orbit_reps
from .normalform import ModulusCache
from .zseq import IndexResult, Sequence, index

__all__ = [
    "FILTERS",
    "MODES",
    "OracleDisagreement",
    "VerificationReport",
    "find_counterexample",
    "in_constructive_domain",
    "report_to_json",
    "result_json",
    "select_moduli",
    "verify_modulus",
    "verify_range",
]

# Mode name -> the (sequence, sequences, orbits) stream verify_modulus checks.
MODES = {
    "full": lambda n: zip(map(Sequence, repeat(n), iter_min_zero_sum4(n)), repeat(1), repeat(0)),
    "orbits": lambda n: ((orbit.rep, orbit.orbit_size, 1) for orbit in iter_orbit_reps(n)),
}

SAMPLE_INTERVAL = 100
SEED = 0


class OracleDisagreement(RuntimeError):
    """The certificate pipeline and the brute-force oracle disagree on a
    sequence the harness enumerated itself.  Never a verdict about the
    sequence.
    """


@dataclass(slots=True)
class VerificationReport:
    """What verify_modulus found on one modulus.  `counterexamples` holds the
    pipeline's own CounterexampleReports, in enumeration order."""

    n: int
    mode: str
    sequences_checked: int
    orbits_checked: int
    derivation_histogram: dict[str, int]
    pipeline_gaps: int
    counterexamples: list[CounterexampleReport]


def in_constructive_domain(n: int) -> bool:
    """Moduli the certificate searches are expected to cover without brute force:
    gcd(n, 6) = 1 and at most two distinct prime factors."""
    if math.gcd(n, 6) != 1:
        return False
    primes = 0
    p = 5
    while p * p <= n:
        if n % p == 0:
            primes += 1
            while n % p == 0:
                n //= p
        p += 2
    return primes + (n > 1) <= 2


# Filter name -> which moduli a verification run keeps.
FILTERS = {
    "coprime6": lambda n: math.gcd(n, 6) == 1,
    "two_prime_powers": in_constructive_domain,
    "all": lambda n: True,
}


def verify_modulus(n: int, mode: str = "full") -> VerificationReport:
    """Verify one modulus, in one of the modes of MODES.

    full:   run find_certificate on every minimal zero-sum length-4 sequence.
    orbits: run it on one representative per unit orbit (index is constant
            on orbits).  This saves certificate work, up to phi(n) times
            less of it, but representatives are still filtered out of the
            full enumeration's plain tuples, which bounds the mode's time;
            only the representatives become Sequences.

    In both modes each processed sequence is cross-checked against the
    full brute-force index when a uniform draw, seeded by n, falls below
    1/K (K = SAMPLE_INTERVAL), and so is the last one if the draw picks
    none, so no modulus goes unchecked.  A disagreement raises
    OracleDisagreement; a failed stage raises find_certificate's
    AssertionError.

    One ModulusCache lives for the call and is dropped with it: classify
    decides each unit-leading copy once and find_certificate's memo holds
    each normal form's walk over the form stages, misses included, which
    traced calls replay.  Both also share their immutable results:
    classify returns one ReductionOutcome per forced (tag, multiplier) and
    find_certificate one Certificate per (m, derivation, k); ModulusCache
    gives the counts over 5..120.  What depends on the sequence itself,
    its validation, minimality and weight checks and the lifted and
    brute-force stages, still runs for every sequence, so the report is
    the one an uncached run gives.
    """
    stream = _lookup(MODES, "mode", mode)(n)
    draw = random.Random(f"{SEED}:{n}").random
    histogram: dict[str, int] = {}
    counterexamples: list[CounterexampleReport] = []
    gaps = 0
    sequences_checked = 0
    orbits_checked = 0
    domain = in_constructive_domain(n)
    drawn = False
    cache = ModulusCache(n)
    for seq, sequences, orbits in stream:
        sequences_checked += sequences
        orbits_checked += orbits
        outcome = find_certificate(seq, cache=cache)
        if isinstance(outcome, Certificate):
            histogram[outcome.derivation] = histogram.get(outcome.derivation, 0) + 1
            if outcome.derivation == BRUTE_FORCE and domain:
                gaps += any(math.gcd(x, n) == 1 for x in seq.coeffs)  # unit-leading
        else:
            counterexamples.append(outcome)
        if draw() < 1 / SAMPLE_INTERVAL:
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
    """An iterator of one report per qualifying modulus in [from_n, to_n], in ascending n order.

    The input is checked here, at the call: a bad range or filter (see
    select_moduli), an unknown mode or jobs < 1 raises ValueError before
    any modulus is verified.  Moduli are independent work units; with
    jobs > 1 they are verified in a process pool of `_worker_count`
    processes, started on the first draw, but emission order stays
    ascending regardless of completion order.
    """
    moduli = select_moduli(from_n, to_n, filter_name)
    _lookup(MODES, "mode", mode)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    worker = partial(verify_modulus, mode=mode)
    workers = _worker_count(jobs, len(moduli))
    if workers <= 1:
        return map(worker, moduli)
    return _pooled(worker, moduli, workers)


def _pooled(worker, moduli: list[int], workers: int) -> Iterator[VerificationReport]:
    """verify_range's pool: started on the first draw, shut down once drained or closed."""
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, moduli)


def select_moduli(from_n: int, to_n: int, filter_name: str = "coprime6") -> list[int]:
    """The moduli in [from_n, to_n] that pass the filter, ascending: verify_range's work list."""
    if not 3 <= from_n <= to_n:
        raise ValueError(f"need 3 <= from <= to, got from={from_n} to={to_n}")
    keep = _lookup(FILTERS, "filter", filter_name)
    return [n for n in range(from_n, to_n + 1) if keep(n)]


def _lookup(table: dict, kind: str, name: str):
    """table[name], or ValueError naming the known names of this kind."""
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}, expected one of {tuple(table)}")
    return table[name]


def _worker_count(jobs: int, moduli: int) -> int:
    """Pool size for verify_range: more workers than moduli or cores would only
    add idle processes, and the pool starts all of them up front."""
    return min(jobs, moduli, os.cpu_count() or 1)


def find_counterexample(n: int) -> CounterexampleReport | None:
    """The first (lexicographic) minimal zero-sum length-4 sequence with index >= 2,
    with its index, or None if there is none.

    Uses the brute-force index directly; the certificate pipeline is not
    consulted, so this is an independent oracle scan.
    """
    for seq in map(Sequence, repeat(n), iter_min_zero_sum4(n)):
        result = index(seq)
        if result.value > 1:
            return CounterexampleReport(seq, result)
    return None


def result_json(seq: Sequence, result: IndexResult) -> dict:
    """The JSON fields of an index result: "seq", "value" (an int, or "p/q"
    if fractional) and "witness"."""
    value = result.value
    return {
        "seq": list(seq.coeffs),
        "value": int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}",
        "witness": result.witness,
    }


def report_to_json(report: VerificationReport) -> str:
    """One-line JSON form with stable key order."""
    payload = {
        "n": report.n,
        "mode": report.mode,
        "sequences_checked": report.sequences_checked,
        "orbits_checked": report.orbits_checked,
        "derivation_histogram": dict(sorted(report.derivation_histogram.items())),
        "pipeline_gaps": report.pipeline_gaps,
        "counterexamples": [result_json(c.sequence, c.result) for c in report.counterexamples],
    }
    return json.dumps(payload)

"""Constructive certificate searches proving that a sequence has index 1.

A certificate is a unit multiplier m with sum(|m*x_i|_n) = n.  For a normal
form (a, b, c) the searches are, in pipeline order:

  small_a          a = 2 special construction (odd n)
  interval         m in [k*n/c, k*n/b] with gcd(m, n) = 1, k <= b and m*a < n;
                   the weight then telescopes to m + (mc-kn) + (kn-mb) + (n-ma) = n.
                   m <= (n-1)//a bounds the scan: k stops once k*n/c passes it
  half_interval    for t = 0..floor(s/2)-1 with s = floor(b/a), an integer
                   coprime to n inside [(2s-2t-1)n/2b, (s-t)n/b]; such M has
                   |Ma|_n > n/2 and |Mb|_n > n/2
  majority_small   M <= n/2 coprime to n with at least two of
                   |Ma|_n > n/2, |Mb|_n > n/2, |Mc|_n < n/2

Every stage returns a multiplier, not a certificate.  The last two
searches give an intermediate M under which at least three scaled
coefficients drop below n/2, and the finishing factor is read off
classify's forced ladder.  What they miss falls through to subgroup
reduction, which lifts a multiplier, and finally to the brute-force
index scan, the oracle of record.  `find_certificate` checks each call's
multiplier against its own input in one place; with a `ModulusCache` it
then returns the cache's one `Certificate` for (m, derivation, k).

All interval comparisons are cross-multiplied integer comparisons; no
floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .normalform import ModulusCache, NormalForm, ReductionOutcome, _forced, classify
from .subgroup import lift_witness, try_subgroup_reduce
from .zseq import IndexResult, Sequence, index, slot_setters, weight

__all__ = [
    "DERIVATIONS",
    "BRUTE_FORCE",
    "FORCED",
    "HALF_INTERVAL",
    "INTERVAL",
    "LIFTED",
    "MAJORITY_SMALL",
    "SMALL_A",
    "Certificate",
    "CertificateMiss",
    "CounterexampleReport",
    "find_certificate",
    "finalize",
    "make_certificate",
    "search_half_interval",
    "search_interval",
    "search_majority_small",
    "shape_stats",
    "small_a_certificate",
    "verify_certificate",
]

FORCED = "forced"
SMALL_A = "small_a"
INTERVAL = "interval"
HALF_INTERVAL = "half_interval"
MAJORITY_SMALL = "majority_small"
LIFTED = "lifted"
BRUTE_FORCE = "brute_force"

class CertificateMiss(Exception):
    """A constructive search that is expected to succeed found nothing."""


@dataclass(frozen=True, slots=True, init=False)
class Certificate:
    """A unit multiplier m with weight n for the sequence it certifies.

    k is the interval index, present only when classify's scaling is 1;
    m then satisfies k*n <= m*c, m*b <= k*n, 1 <= k <= b and m*a < n
    against the sequence's own normal form.
    """

    m: int
    derivation: str
    k: int | None = None

    def __init__(self, m: int, derivation: str, k: int | None = None) -> None:
        if derivation not in DERIVATIONS:
            raise ValueError(f"unknown derivation tag {derivation!r}")
        _SET_M(self, m)
        _SET_DERIVATION(self, derivation)
        _SET_K(self, k)


_SET_M, _SET_DERIVATION, _SET_K = slot_setters(Certificate)


@dataclass(frozen=True, slots=True)
class CounterexampleReport:
    """A minimal zero-sum sequence whose brute-force index is 2 or more."""

    sequence: Sequence
    result: IndexResult


def verify_certificate(seq: Sequence, m: int) -> bool:
    """True iff gcd(m, n) = 1 and the weight of seq under m is exactly n."""
    try:
        return weight(seq, m) == seq.n
    except ValueError:  # weight's one fault: m is not a unit
        return False


def make_certificate(
    seq: Sequence, m: int, derivation: str, k: int | None = None, shared: dict | None = None
) -> Certificate:
    """Construct a certificate, checking the weight-n property against seq.

    With `shared`, a dict keyed by (m, derivation, k), the checked
    certificate is the dict's, built and kept there the first time.
    """
    if not verify_certificate(seq, m):
        raise ValueError(f"multiplier {m} does not certify {seq.coeffs} over {seq.n}")
    if shared is None:
        return Certificate(m, derivation, k)
    cert = shared.get((m, derivation, k))
    if cert is None:
        cert = shared[m, derivation, k] = Certificate(m, derivation, k)
    return cert


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def shape_stats(nf: NormalForm) -> tuple[int, int]:
    """The pair (s, k1) of a normal form: s = floor(b/a) and the interval index k1.

    k1 is the largest k >= 1 such that [(k-1)n/c, (k-1)n/b) contains no
    integer (equivalently ceil((k-1)n/c) = ceil((k-1)n/b)) while
    [k*n/c, k*n/b) contains one; it always exists and satisfies k1 <= b.
    The pipeline never calls it; perfbench's tracer wraps it by name.
    """
    n, a, b, c = nf.n, nf.a, nf.b, nf.c
    k1 = 0
    prev_nonempty = False  # the k = 0 interval [0, 0) is empty
    for k in range(1, b + 1):
        nonempty = _ceil_div(k * n, c) * b < k * n  # [k*n/c, k*n/b) holds an integer
        if nonempty and not prev_nonempty:
            k1 = k
        prev_nonempty = nonempty
    # Existence: any interval of index >= b has length > 2, so the first
    # nonempty interval qualifies and no index past b can.
    assert 1 <= k1 <= b, f"no interval index found for {nf}"
    return b // a, k1


def search_interval(nf: NormalForm) -> tuple[int, int] | None:
    """First (k, m), k ascending then m ascending, with m in [k*n/c, k*n/b],
    gcd(m, n) = 1, 1 <= k <= b and m*a < n; None on a miss.

    Both interval endpoints are closed; an endpoint with m*c = k*n or
    m*b = k*n can never be coprime to n, so the convention costs nothing.

    m*a < n is the same as m <= top = (n-1)//a, so m runs only up to
    min(k*n//b, top).  The lower end lo = ceil(k*n/c) is nondecreasing in
    k, so once lo > top no later k can hit either and the search stops.
    Both cuts skip only pairs that fail m*a < n, so the first (k, m) is
    the one the full scan over k <= b would find.  lo > top holds as soon
    as k*n > top*c, so a miss visits at most min(b, top*c//n + 1) values
    of k, whatever the size of b.
    """
    n, a, b, c = nf.n, nf.a, nf.b, nf.c
    top = (n - 1) // a
    for k in range(1, b + 1):
        lo = _ceil_div(k * n, c)
        if lo > top:
            break
        for m in range(lo, min(k * n // b, top) + 1):
            if math.gcd(m, n) == 1:
                return k, m
    return None


def search_majority_small(nf: NormalForm) -> int | None:
    """Smallest M in [1, n/2] coprime to n for which at least two of
    |Ma|_n > n/2, |Mb|_n > n/2, |Mc|_n < n/2 hold.

    Any such M leaves at least three of the four scaled coefficients of the
    normal-form sequence below n/2; the forced ladder of that image finishes it.
    """
    n, a, b, c = nf.n, nf.a, nf.b, nf.c
    for cand in range(1, n // 2 + 1):
        if math.gcd(cand, n) != 1:
            continue
        hits = 0
        if 2 * ((cand * a) % n) > n:
            hits += 1
        if 2 * ((cand * b) % n) > n:
            hits += 1
        if 2 * ((cand * c) % n) < n:
            hits += 1
        if hits >= 2:
            return cand
    return None


def search_half_interval(nf: NormalForm) -> int | None:
    """First integer coprime to n in [(2s-2t-1)n/2b, (s-t)n/b] for t = 0, 1, ...

    Applicable only when s = floor(b/a) >= 2 (raises ValueError otherwise,
    which is distinct from a plain miss); t runs up to floor(s/2) - 1.
    """
    n, a, b = nf.n, nf.a, nf.b
    s = b // a
    if s < 2:
        raise ValueError(f"half-interval search needs floor(b/a) >= 2, got s={s}")
    for t in range(s // 2):
        lo = _ceil_div((2 * s - 2 * t - 1) * n, 2 * b)
        hi = ((s - t) * n) // b
        for cand in range(lo, hi + 1):
            if math.gcd(cand, n) == 1:
                return cand
    return None


def _finisher(n: int, coeffs: tuple[int, ...], mid: int) -> int | None:
    """|f*mid|_n for the forced multiplier f of the sorted image of coeffs under mid, or None."""
    hit = _forced(n, tuple(sorted(mid * x % n for x in coeffs)))
    if hit is None or hit[1] is None:
        return None
    return hit[1] * mid % n


def finalize(seq: Sequence, mid: int, derivation: str) -> Certificate | None:
    """Finish an intermediate multiplier with the forced multiplier of its image.

    Reads f off classify's ladder on the sorted image of seq under mid and
    certifies with |f*mid|_n: f is the first of 1, n-1, n-2, 2 that works.
    None when the ladder gives no multiplier: the image (nu = 2) splits
    strictly around n/2, where all four weigh 2n, or, for even n, any other
    nu = 2 image, where n-2 and 2 are not units.  ValueError unless mid is
    a unit and seq zero-sum.  The pipeline never calls it; perfbench's replay reads it by name.
    """
    n, coeffs = seq.n, seq.coeffs
    if math.gcd(mid, n) != 1:
        raise ValueError(f"{mid} is not a unit modulo {n}")
    if sum(coeffs) % n != 0:
        raise ValueError(f"finalize needs a zero-sum sequence, got {coeffs} over {n}")
    m = _finisher(n, coeffs, mid)
    return None if m is None else make_certificate(seq, m, derivation)


def small_a_certificate(nf: NormalForm) -> int:
    """Multiplier certifying the sequence of a normal form with a = 2 over an odd modulus.

    The sequence is (1, b+1, n-b, n-2).  For even b = 2t the multiplier
    (n-1)/2 works outright: the weight telescopes to m + (m-t) + t + 1 = n.
    For odd b = 2t+1, scaling by (n-1)/2 yields the normal form
    (a', b', c') = (t+1, (n-b)/2, (n-1)/2); every k >= ceil((n-b)/2b) puts
    the odd number 2k+1 inside [k*n/c', k*n/b'], so the scan takes the first
    such 2k+1 that is coprime to n and keeps (2k+1)*a' < n, then composes
    back through (n-1)/2.  The candidates are thus the odd m in
    [n/b, 2n/(b+1)), and CertificateMiss is raised exactly when every one
    of them shares a factor with n; the pipeline then falls through to the
    general searches.  Over odd n <= 300 this happens for 576 of the 10878
    a=2 forms, at moduli up to n = 297, and up to n = 295 when
    gcd(n, 6) = 1 (e.g. n = 265, odd b = 75..87).  Every miss there with
    gcd(n, 6) = 1 has 5 | n and candidate set {5} or {5, 7}.
    """
    n, a, b = nf.n, nf.a, nf.b
    if a != 2:
        raise ValueError(f"small_a_certificate requires a = 2, got a={a}")
    if n % 2 == 0:
        raise ValueError("small_a_certificate requires an odd modulus")
    half = (n - 1) // 2
    if b % 2 == 0:
        return half
    t = (b - 1) // 2
    k = _ceil_div(n - b, 2 * b)
    while (2 * k + 1) * (t + 1) < n:  # t + 1 is the rescaled shape's a'
        m_odd = 2 * k + 1
        if math.gcd(m_odd, n) == 1:
            return (m_odd * half) % n
        k += 1
    raise CertificateMiss(
        f"no odd multiplier certifies the b-odd construction for {nf}"
    )


# A stage takes what its table is given, the normal form of the classified
# copy for a form stage and seq itself for an input stage, and returns None
# when it does not apply, or (m, k, note).  _walk turns each answer into a
# row (name, m, k, note): m is a multiplier for what the stage was given
# (the form's sequence (1, c, n-b, n-a), or seq), None on a miss, or brute
# force's CounterexampleReport; k is the interval index or None; note is
# extra detail for the trace.  A form's rows depend on the form alone, so
# a ModulusCache keeps them, misses included, for a whole modulus.
_Step = tuple[int | CounterexampleReport | None, int | None, str] | None


def _small_a_stage(nf: NormalForm) -> _Step:
    if nf.a != 2 or nf.n % 2 == 0:
        return None
    try:
        return small_a_certificate(nf), None, ""
    except CertificateMiss as miss:
        return None, None, str(miss)


def _interval_stage(nf: NormalForm) -> _Step:
    hit = search_interval(nf)
    if hit is None:
        return None, None, ""
    k, m = hit
    return m, k, ""


def _finish(nf: NormalForm, mid: int | None) -> _Step:
    """Finish an intermediate multiplier of the form's sequence through the forced ladder."""
    if mid is None:
        return None, None, ""
    n = nf.n
    m = _finisher(n, (1, nf.c, n - nf.b, n - nf.a), mid)
    return m, None, f"M={mid}" if m is not None else f"M={mid}, no finisher certified"


def _half_interval_stage(nf: NormalForm) -> _Step:
    if nf.b // nf.a < 2:
        return None
    return _finish(nf, search_half_interval(nf))


def _majority_small_stage(nf: NormalForm) -> _Step:
    return _finish(nf, search_majority_small(nf))


def _lifted_stage(seq: Sequence) -> _Step:
    reduced = try_subgroup_reduce(seq)
    if reduced is None:
        return None, None, "not reducible"
    note = f"d={seq.n // reduced.n} reduced modulus={reduced.n}"
    sub = find_certificate(reduced)
    if not isinstance(sub, Certificate):
        return None, None, f"{note}, reduced sequence has no certificate"
    return lift_witness(seq, reduced, sub.m), None, f"{note}, reduced by {sub.derivation} m={sub.m}"


def _brute_force_stage(seq: Sequence) -> _Step:
    result = index(seq)
    if result.value == 1:
        return result.witness, None, ""
    return CounterexampleReport(sequence=seq, result=result), None, ""


# (name, stage): the pipeline in order, after the forced multiplier that
# classify names.  The form stages run on a normal form; the input stages
# answer for seq itself, and brute force, the last, always decides.
_FORM_STAGES = (
    (SMALL_A, _small_a_stage),
    (INTERVAL, _interval_stage),
    (HALF_INTERVAL, _half_interval_stage),
    (MAJORITY_SMALL, _majority_small_stage),
)
_INPUT_STAGES = (
    (LIFTED, _lifted_stage),
    (BRUTE_FORCE, _brute_force_stage),
)

# The derivation tags a Certificate may carry: forced and the stage tables' names.
DERIVATIONS = frozenset((FORCED, *(name for name, _ in _FORM_STAGES + _INPUT_STAGES)))


def _classify_line(out: ReductionOutcome) -> str:
    nf = out.normal_form
    nf_txt = f" normal_form=(a={nf.a}, b={nf.b}, c={nf.c})" if nf else ""
    return (
        f"classify: tag={out.tag} forced_multiplier={out.forced_multiplier}"
        f" scaling={out.scaling}{nf_txt}"
    )


def _stage_line(
    name: str, verdict: Certificate | CounterexampleReport | None, note: str
) -> str:
    if isinstance(verdict, Certificate):
        text = f"hit m={verdict.m}" + (f" k={verdict.k}" if verdict.k is not None else "")
    elif verdict is None:
        text = "miss"
    else:
        text = f"counterexample index={verdict.result.value} at m={verdict.result.witness}"
    return f"{name}: {text}" + (f" ({note})" if note else "")


def _failure(name: str, seq: Sequence, exc: ValueError) -> AssertionError:
    return AssertionError(f"{name} stage failed on {seq.coeffs} over {seq.n}: {exc}")


def _walk(stages: tuple, arg: NormalForm | Sequence, seq: Sequence) -> tuple[tuple, ...]:
    """The row of every stage attempted on arg, in table order, up to the first hit.

    seq only names the input in a stage's failure.
    """
    rows = []
    for name, stage in stages:
        try:
            step = stage(arg)
        except ValueError as exc:
            raise _failure(name, seq, exc) from exc
        if step is not None:
            rows.append((name, *step))
            if step[0] is not None:
                break
    return tuple(rows)


def find_certificate(
    seq: Sequence, trace: list[str] | None = None, cache: ModulusCache | None = None
) -> Certificate | CounterexampleReport:
    """Run the full certificate pipeline on a minimal zero-sum length-4 sequence.

    Stage order (cheapest first): the forced multiplier from classification,
    then on a normal form the a=2 construction, the interval search, the
    half-interval and majority-small searches (each finished through the
    forced ladder), then subgroup reduction with witness lifting, and
    finally the brute-force scan.  The first stage that decides wins.  Every
    stage returns a multiplier, checked against seq in one place,
    `make_certificate`.  A counterexample is a value, not an error.
    ValueError means classify rejected seq as bad input; once seq is
    accepted, a stage's ValueError is the pipeline's fault, raised as
    AssertionError naming the stage.  Each attempted stage leaves a row;
    with `trace`, one line is appended for the classification and one per
    row, each prefixed with the stage name, once the verdict is made.

    A `cache` for seq's modulus goes to classify, and its memo holds each
    normal form's walk over the four form stages, misses included; a
    traced call replays those misses.  Lifted, brute-force and
    counterexample rows depend on seq itself and are never kept.  Once seq
    passes its weight check, the call returns the cache's one Certificate
    for (m, derivation, k); ModulusCache gives the counts.  Either way the
    result and the trace equal an uncached call's.
    """
    out = classify(seq, cache)
    nf = out.normal_form
    scaling = out.scaling
    if out.forced_multiplier is not None:
        rows = ()
        name, m, k, note = FORCED, out.forced_multiplier, None, ""
    else:
        if nf is None:
            rows = ()
        elif cache is None:
            rows = _walk(_FORM_STAGES, nf, seq)
        else:
            rows = cache.forms.get(nf)
            if rows is None:
                rows = cache.forms[nf] = _walk(_FORM_STAGES, nf, seq)
        if not rows or rows[-1][1] is None:
            scaling = 1  # input stages answer for seq itself
            rows += _walk(_INPUT_STAGES, seq, seq)
        name, m, k, note = rows[-1]
    if isinstance(m, CounterexampleReport):
        verdict = m
    else:
        # m is for the classified copy (each |scaling*x_i|_n, sorted), so seq's
        # multiplier is |m*scaling|_n.  k is kept only when scaling is 1: on any
        # other copy it no longer satisfies the k-interval inequalities.
        try:
            verdict = make_certificate(
                seq, m * scaling % seq.n, name, k if scaling == 1 else None,
                None if cache is None else cache.certificates,
            )
        except ValueError as exc:
            raise _failure(name, seq, exc) from exc
    if trace is not None:
        trace.append(_classify_line(out))
        trace.extend(_stage_line(miss, None, why) for miss, _, _, why in rows[:-1])
        trace.append(_stage_line(name, verdict, note))
    return verdict

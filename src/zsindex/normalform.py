"""Reduction of length-4 minimal zero-sum sequences to forced multipliers or (a, b, c) form.

Writing nu for (sum of coefficients)/n, the classification ladder is:

  nu = 1            -> multiplier 1 already has weight n
  nu = 3            -> multiplier n-1: sum(n - x_i) = n
  nu = 2, x3 < n/2  -> multiplier n-2 (odd n only)
  nu = 2, x2 > n/2  -> multiplier 2   (odd n only)

What survives is nu = 2 with x2 < n/2 < x3.  If some coefficient is a unit,
the sequence is rescaled so its smallest unit coefficient becomes 1 and the
ladder is applied again to the scaled tuple (scaling need not preserve nu
or the n/2 split).  A scaled tuple (1, y2, y3, y4) that still has nu = 2
and y2 < n/2 < y3 is recorded as the normal form

  a = n - y4,  b = n - y3,  c = y2,

which satisfies 1 + c = a + b and 1 < a <= b < c < n/2.  Everything else
is opaque and handled downstream by subgroup reduction or brute force.

`classify` checks its input once: minimal zero-sum (`Sequence` checks the
length).  Its one helper, the ladder `_forced`, trusts that check and
works on plain tuples.  It reads nu as sum // n, and the scaled tuple needs
no check either, since scaling by a unit keeps every coefficient nonzero
and the sum zero mod n.

Many inputs over one modulus share a unit-leading copy.  A `ModulusCache`
lets classify look up each unit's inverse and decide each copy once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .zseq import Sequence, check_modulus, is_minimal_zero_sum, slot_setters

__all__ = [
    "TAG_ALL_BIG",
    "TAG_ALL_SMALL",
    "TAG_NORMAL",
    "TAG_NU1",
    "TAG_NU3",
    "TAG_OPAQUE",
    "ModulusCache",
    "NormalForm",
    "ReductionOutcome",
    "classify",
    "normal_form_sequence",
]

TAG_NU1 = "nu1"
TAG_NU3 = "nu3"
TAG_ALL_SMALL = "all_small"
TAG_ALL_BIG = "all_big"
TAG_NORMAL = "normal"
TAG_OPAQUE = "opaque"


@dataclass(frozen=True, slots=True, init=False)
class NormalForm:
    """The triple (a, b, c) with 1 + c = a + b and 1 < a <= b < c < n/2.

    Its associated sequence is (1, c, n-b, n-a); the arithmetic constraints
    already force that sequence to be minimal zero-sum with nu = 2.
    """

    n: int
    a: int
    b: int
    c: int

    def __init__(self, n: int, a: int, b: int, c: int) -> None:
        if 1 + c != a + b:
            raise ValueError(f"normal form needs 1 + c = a + b, got a={a} b={b} c={c}")
        if not (1 < a <= b < c):
            raise ValueError(f"normal form needs 1 < a <= b < c, got a={a} b={b} c={c}")
        if not 2 * c < n:
            raise ValueError(f"normal form needs c < n/2, got c={c} n={n}")
        _SET_NF_N(self, n)
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_C(self, c)


@dataclass(frozen=True, slots=True, init=False)
class ReductionOutcome:
    """Result of classifying a sequence.

    `scaling` is the unit u whose copy (|u*x_i|_n, sorted) of S the tag,
    forced multiplier and normal form describe; 1, the default, when that
    copy is S itself.  A forced multiplier fm certifies S via (fm*scaling) % n.
    """

    tag: str
    forced_multiplier: int | None = None
    normal_form: NormalForm | None = None
    scaling: int = 1

    def __init__(
        self,
        tag: str,
        forced_multiplier: int | None = None,
        normal_form: NormalForm | None = None,
        scaling: int = 1,
    ) -> None:
        _SET_TAG(self, tag)
        _SET_FORCED(self, forced_multiplier)
        _SET_FORM(self, normal_form)
        _SET_SCALING(self, scaling)


_SET_NF_N, _SET_A, _SET_B, _SET_C = slot_setters(NormalForm)
_SET_TAG, _SET_FORCED, _SET_FORM, _SET_SCALING = slot_setters(ReductionOutcome)

_OPAQUE = ReductionOutcome(TAG_OPAQUE)  # the one outcome of every input with no unit


class ModulusCache:
    """What classify and find_certificate decide once per modulus n, not once per input.

    inverses[x] is the inverse of x mod n, or 0 when x is not a unit.
    copies maps a sorted unit-leading copy to its (tag, forced multiplier,
    normal form); forms, the memo, maps a NormalForm to find_certificate's
    walk over the form stages, misses included, which traced calls replay.
    forced maps a (tag, multiplier) that `_forced` reads off an input to
    the one ReductionOutcome classify returns for it, and certificates
    maps (m, derivation, k) to the one Certificate find_certificate
    returns once an input passes its weight check.  Full mode over 5..120
    (coprime to 6) keeps 30,646 copies, 11,120 forms, 156 outcomes and
    6,545 certificates in all, about n^2/6 copies at one modulus (2,297
    copies, 4 outcomes and 322 certificates at n = 119).  The copies and forms memos
    serve full mode, where 305,238 of 335,884 copy and 128,051 of 139,171 form lookups
    hit; in orbit mode all miss (1,354 of each over 5..130), since a representative
    with a unit coefficient starts with 1 and is its own copy.
    Every entry depends on n and its key alone, never on the input that
    first reached it.  One cache serves one modulus; classify rejects an
    input over any other.
    """

    __slots__ = ("n", "inverses", "copies", "forms", "forced", "certificates")

    def __init__(self, n: int) -> None:
        self.n = check_modulus(n)
        self.inverses = [pow(x, -1, n) if math.gcd(x, n) == 1 else 0 for x in range(n)]
        self.copies: dict[tuple[int, ...], tuple[str, int | None, NormalForm | None]] = {}
        self.forms: dict[NormalForm, tuple] = {}
        self.forced: dict[tuple[str, int | None], ReductionOutcome] = {}
        self.certificates: dict[tuple[int, str, int | None], object] = {}


def _forced(n: int, coeffs: tuple[int, ...]) -> tuple[str, int | None] | None:
    """Forced ladder on a sorted zero-sum tuple: (tag, multiplier), or None for the split.

    None exactly when nu = 2 and x2 < n/2 < x3.  (TAG_OPAQUE, None) for the
    other nu = 2 tuples over even n, where n-2 and 2 are not units.  The one
    statement of the ladder: classify runs it on its input and, at its one
    copy site, on the unit-leading copy, and `certify._finisher` on the
    image under an intermediate multiplier.  nu is read as sum // n
    without a check: both callers have checked the zero sum, and a unit
    image keeps it.
    """
    v = sum(coeffs) // n
    if v == 1:
        return TAG_NU1, 1
    if v == 3:
        return TAG_NU3, n - 1
    if 2 * coeffs[1] < n < 2 * coeffs[2]:
        return None
    if n % 2 == 0:  # n-2 and 2 are units only for odd n
        return TAG_OPAQUE, None
    if 2 * coeffs[2] < n:
        return TAG_ALL_SMALL, n - 2
    return TAG_ALL_BIG, 2


def classify(seq: Sequence, cache: ModulusCache | None = None) -> ReductionOutcome:
    """Classify a minimal zero-sum sequence per the reduction ladder.

    Total: every valid input lands in exactly one of the six outcomes.  Even
    moduli route the 2*x = n boundary and the even-forced-multiplier shapes
    to opaque, because their would-be multipliers n-2 and 2 are not units.

    An input the ladder leaves split takes one route, cached or not: m
    inverts its smallest unit coefficient (opaque if none is a unit), and
    the ladder decides the sorted copy m*seq, returned with scaling m.
    With a `cache` for seq's modulus, m is read from its inverse table,
    each copy is decided once and kept for the cache's lifetime, one
    modulus (`verify_modulus` makes one per call; ModulusCache gives the
    counts), and an input the ladder settles gets the cache's one outcome
    for its (tag, multiplier).  The input itself is still checked on every
    call, and the outcome equals an uncached call's.
    """
    n, coeffs = seq.n, seq.coeffs
    if not is_minimal_zero_sum(seq):
        raise ValueError(f"{coeffs} over {n} is not minimal zero-sum")
    if cache is not None and cache.n != n:
        raise ValueError(f"a cache for modulus {cache.n} cannot classify {coeffs} over {n}")
    # ReductionOutcome(tag, forced_multiplier, normal_form, scaling), by position.
    hit = _forced(n, coeffs)
    if hit is not None:
        if cache is None:
            return ReductionOutcome(*hit)
        out = cache.forced.get(hit)
        if out is None:
            out = cache.forced[hit] = ReductionOutcome(*hit)
        return out
    x1, x2, x3, x4 = coeffs
    if cache is None:
        m = 0
        for x in coeffs:
            if math.gcd(x, n) == 1:
                m = pow(x, -1, n)
                break
    else:
        inverses = cache.inverses
        m = inverses[x1] or inverses[x2] or inverses[x3] or inverses[x4]  # the smallest unit's
    if not m:  # no unit coefficient
        return _OPAQUE
    scaled = tuple(sorted((m * x1 % n, m * x2 % n, m * x3 % n, m * x4 % n)))
    copy = None if cache is None else cache.copies.get(scaled)
    if copy is None:
        hit = _forced(n, scaled)
        if hit is None:
            _, y2, y3, y4 = scaled
            copy = TAG_NORMAL, None, NormalForm(n, n - y4, n - y3, y2)
        else:
            copy = (*hit, None)
        if cache is not None:
            cache.copies[scaled] = copy
    return ReductionOutcome(*copy, m)


def normal_form_sequence(nf: NormalForm) -> Sequence:
    """The sequence (1, c, n-b, n-a) associated with a normal form.

    NormalForm's invariants make the tuple sorted and in [1, n-1]; Sequence still checks
    it.  The pipeline never calls it; perfbench's replay reads it by name.
    """
    return Sequence(nf.n, (1, nf.c, nf.n - nf.b, nf.n - nf.a))

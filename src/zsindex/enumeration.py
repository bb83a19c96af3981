"""Exhaustive generation of length-4 minimal zero-sum sequences, plus unit orbits.

The enumerator iterates all ordered triples (x1, x2, x3) and solves for the
unique x4, so it costs O(n^3/6) per modulus.  No cleverer sieve is used on
purpose: this stream is the trusted ground truth that every verification
mode builds on, and it must stay simple enough to audit by eye.

Orbit representatives are filtered out of that same stream.  The lex-least
member of a unit orbit starts with d = min gcd(x_i, n), so a sequence whose
first coefficient is not that d is dropped in O(1); the rest are tested
only against the units that send one of their gcd-d coefficients to d,
which are the only units that could map them to a smaller tuple.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .modring import check_modulus, units
from .zseq import Sequence, _minimal_zero_sum4_raw

__all__ = ["OrbitRep", "iter_min_zero_sum4", "iter_orbit_reps", "orbit_canonical"]


@dataclass(frozen=True)
class OrbitRep:
    """Lexicographically least member of a unit orbit and the orbit's size."""

    rep: Sequence
    orbit_size: int


def iter_min_zero_sum4(n: int) -> Iterator[Sequence]:
    """Yield every minimal zero-sum length-4 sequence over Z_n exactly once.

    Tuples come out in strictly increasing lexicographic order: for each
    ascending (x1, x2, x3) the last coefficient is forced by the zero-sum
    condition, and it is kept only when x4 >= x3 and the 14 proper subset
    sums are all nonzero mod n.
    """
    check_modulus(n)
    for x1 in range(1, n):
        for x2 in range(x1, n):
            s12 = x1 + x2
            for x3 in range(x2, n):
                x4 = -(s12 + x3) % n
                if x4 < x3:  # covers x4 == 0 as well
                    continue
                if _minimal_zero_sum4_raw(n, x1, x2, x3, x4):
                    yield Sequence(n, (x1, x2, x3, x4))


def orbit_canonical(seq: Sequence) -> OrbitRep:
    """Canonical representative of the unit orbit of a length-4 sequence.

    The representative is the lexicographically least sorted coefficient
    tuple among all unit-scaled copies; orbit_size counts the distinct
    copies (it always divides phi(n)).
    """
    if len(seq.coeffs) != 4:
        raise ValueError("orbit_canonical expects a length-4 sequence")
    n = seq.n
    coeffs = seq.coeffs
    seen = set()
    best = coeffs
    for m in units(n):
        t = tuple(sorted((m * x) % n for x in coeffs))
        seen.add(t)
        if t < best:
            best = t
    return OrbitRep(Sequence(n, best), len(seen))


def iter_orbit_reps(n: int) -> Iterator[OrbitRep]:
    """Yield one OrbitRep per unit orbit of minimal zero-sum length-4 sequences.

    A sequence of iter_min_zero_sum4(n) is emitted iff it is the lex-least
    member of its own orbit, so the union of the emitted orbits recovers
    that stream with multiplicity orbit_size, and reps come out in its
    ascending order.  Streaming: no per-n materialization.

    Every element y of a scaled copy satisfies y >= gcd(y, n), and some
    unit sends a coefficient with the least gcd d to d itself, so a
    representative has x1 = d: x1 divides n and no gcd(x_i, n) is below
    it.  A sequence passing that test can only be beaten by a unit m with
    m*x = d for one of its coefficients x of gcd d, that is by a unit
    m = (x/d)^-1 (mod n/d); it is a representative iff no such candidate
    sorts to a smaller tuple.  The candidates that give the sequence back
    are its whole stabiliser, so orbit_size = phi(n) / |stabiliser|.
    """
    us = units(n)
    by_divisor: dict[int, dict[int, list[int]]] = {}
    for seq in iter_min_zero_sum4(n):
        coeffs = seq.coeffs
        d = coeffs[0]
        if n % d or (d > 1 and min(math.gcd(x, n) for x in coeffs[1:]) < d):
            continue
        groups = by_divisor.get(d)
        if groups is None:
            groups = by_divisor[d] = {}
            for m in us:
                groups.setdefault(m % (n // d), []).append(m)
        stabiliser = _stabiliser_size(coeffs, n, d, groups)
        if stabiliser:
            yield OrbitRep(seq, len(us) // stabiliser)


def _stabiliser_size(coeffs: tuple[int, ...], n: int, d: int, groups: dict[int, list[int]]) -> int:
    """Number of units that map coeffs to itself, or 0 if one maps it lower.

    Only the candidate units m = (x/d)^-1 (mod n/d), for the distinct
    coefficients x with gcd(x, n) = d, are tried; groups maps each residue
    mod n/d to the units in that class.
    """
    stabiliser = 0
    for x in set(coeffs):
        if math.gcd(x, n) != d:
            continue
        for m in groups[pow(x // d, -1, n // d)]:
            image = tuple(sorted((m * y) % n for y in coeffs))
            if image < coeffs:
                return 0
            if image == coeffs:
                stabiliser += 1
    return stabiliser

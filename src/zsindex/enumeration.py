"""Exhaustive generation of length-4 minimal zero-sum sequences, plus unit orbits.

The enumerator iterates all ordered triples (x1, x2, x3), solves for the
unique x4 and keeps the tuple when no pair through x1 sums to 0 mod n
(zseq.is_minimal_zero_sum says why that is minimality), so it costs
O(n^3/6) per modulus.  No cleverer sieve is used on purpose: this stream
is the trusted ground truth that every verification mode builds on, and it
must stay simple enough to audit by eye.

Unit orbits follow one candidate rule.  The lex-least member of an orbit
starts with d = min gcd(x_i, n), and only the candidate units, those
m = (x/d)^-1 (mod n/d) that send a coefficient x of gcd d to d, can give a
copy that starts with d.  iter_orbit_reps filters the enumerated stream:
a sequence whose first coefficient is not that d is dropped in O(1), and
the rest are tested against their candidates only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .zseq import Sequence, check_modulus, units

__all__ = ["OrbitRep", "iter_min_zero_sum4", "iter_orbit_reps"]


@dataclass(frozen=True)
class OrbitRep:
    """Lexicographically least member of a unit orbit and the orbit's size."""

    rep: Sequence
    orbit_size: int


def iter_min_zero_sum4(n: int) -> Iterator[Sequence]:
    """Yield every minimal zero-sum length-4 sequence over Z_n exactly once.

    Tuples come out in strictly increasing lexicographic order: for each
    ascending (x1, x2, x3) the last coefficient is forced by the zero-sum
    condition, and it is kept only when x4 >= x3 and no pair through x1
    sums to 0 mod n, the minimality rule of zseq.is_minimal_zero_sum.
    """
    check_modulus(n)
    for x1 in range(1, n):
        for x2 in range(x1, n):
            s12 = x1 + x2
            if s12 == n:
                continue
            for x3 in range(x2, n):
                x4 = -(s12 + x3) % n
                # Terms lie in [1, n-1], so a pair vanishes iff it sums to n,
                # and x1 + x4 vanishes iff x2 + x3 does; x4 >= x3 rules out x4 = 0.
                if x4 >= x3 and x1 + x3 != n and x2 + x3 != n:
                    yield Sequence(n, (x1, x2, x3, x4))


def iter_orbit_reps(n: int) -> Iterator[OrbitRep]:
    """Yield one OrbitRep per unit orbit of minimal zero-sum length-4 sequences.

    A sequence of iter_min_zero_sum4(n) is emitted iff it is the lex-least
    member of its own orbit, so the union of the emitted orbits recovers
    that stream with multiplicity orbit_size, and reps come out in its
    ascending order.  Streaming: no per-n materialization.

    Every element y of a scaled copy satisfies y >= gcd(y, n), and some
    unit sends a coefficient with the least gcd d to d itself, so a
    representative has x1 = d: x1 divides n and no gcd(x_i, n) is below
    it.  A sequence passing that test can only be beaten by one of its
    candidate units; it is a representative iff no candidate sorts it to a
    smaller tuple.  The candidates that give the sequence back are its
    whole stabiliser, so orbit_size = phi(n) / |stabiliser|.
    """
    phi = len(units(n))
    for seq in iter_min_zero_sum4(n):
        coeffs = seq.coeffs
        d = coeffs[0]
        if n % d or (d > 1 and min(math.gcd(x, n) for x in coeffs[1:]) < d):
            continue
        stabiliser = _stabiliser_size(coeffs, n, d)
        if stabiliser:
            yield OrbitRep(seq, phi // stabiliser)


def _candidates(coeffs: tuple[int, ...], n: int, d: int) -> Iterator[int]:
    """The units m = (x/d)^-1 (mod n/d) for each distinct coefficient x with gcd(x, n) = d.

    These are exactly the units that send some gcd-d coefficient to d.
    """
    step = n // d
    for x in set(coeffs):
        if math.gcd(x, n) == d:
            for m in range(pow(x // d, -1, step), n, step):
                if math.gcd(m, n) == 1:
                    yield m


def _stabiliser_size(coeffs: tuple[int, ...], n: int, d: int) -> int:
    """Number of units that map coeffs to itself, or 0 if one maps it lower.

    Only the _candidates are tried, which is enough because iter_orbit_reps
    calls it only on coeffs that start with d = min gcd(x_i, n).
    """
    stabiliser = 0
    for m in _candidates(coeffs, n, d):
        image = tuple(sorted((m * y) % n for y in coeffs))
        if image < coeffs:
            return 0
        if image == coeffs:
            stabiliser += 1
    return stabiliser

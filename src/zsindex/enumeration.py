"""Exhaustive generation of length-4 minimal zero-sum sequences, plus unit orbits.

For x1 <= x2 and x3 + x4 = nu*n - x1 - x2 (nu = 1, 2, 3) the enumerator
walks only the x3 with x2 <= x3 <= x4 <= n - 1 and keeps the tuple when no
pair through x1 sums to 0 mod n (zseq.is_minimal_zero_sum says why that
is minimality), so nearly every step yields: about n^3/24 per modulus.  No
other sieve is used on purpose: this stream is the trusted ground truth
that every verification mode builds on, simple enough to audit by eye.
It yields plain coefficient tuples; a caller that certifies one wraps it
in a Sequence, so only checked sequences pay for the validated build.

Unit orbits follow one candidate rule.  The lex-least member of an orbit
starts with d = min gcd(x_i, n), and only the candidate units, those
m = (x/d)^-1 (mod n/d) that send a coefficient x of gcd d to d, can give a
copy that starts with d.  iter_orbit_reps filters the enumerated tuples:
one whose first coefficient is not that d is dropped in O(1), the rest
are tested against their candidates only, and just the representatives
become Sequences.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .zseq import Sequence, check_modulus

__all__ = ["OrbitRep", "iter_min_zero_sum4", "iter_orbit_reps"]


@dataclass(frozen=True, slots=True)
class OrbitRep:
    """Lexicographically least member of a unit orbit and the orbit's size."""

    rep: Sequence
    orbit_size: int


def iter_min_zero_sum4(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield every minimal zero-sum length-4 sequence over Z_n exactly once,
    as its ascending coefficient tuple (x1, x2, x3, x4); Sequence(n, t) wraps one.

    Tuples come out in strictly increasing lexicographic order: with x3 + x4
    = r = nu*n - x1 - x2, the bounds x2 <= x3 <= x4 <= n - 1 say exactly
    max(x2, r - n + 1) <= x3 <= r // 2, a range that rises with nu.  A tuple
    is kept when no pair through x1 sums to 0 mod n (zseq.is_minimal_zero_sum).
    """
    check_modulus(n)
    for x1 in range(1, n):
        for x2 in range(x1, n):
            s12 = x1 + x2
            if s12 == n:
                continue
            # Terms lie in [1, n-1], so a pair vanishes iff it sums to n, and
            # x1 + x4 vanishes iff x2 + x3 does: x3 must avoid n - x1 and n - x2.
            c1, c2 = n - x1, n - x2
            for r in (n - s12, 2 * n - s12, 3 * n - s12):
                for x3 in range(max(x2, r - n + 1), r // 2 + 1):
                    if x3 != c1 and x3 != c2:
                        yield (x1, x2, x3, r - x3)


def iter_orbit_reps(n: int) -> Iterator[OrbitRep]:
    """Yield one OrbitRep per unit orbit of minimal zero-sum length-4 sequences.

    A tuple of iter_min_zero_sum4(n) is emitted, wrapped in a Sequence,
    iff it is the lex-least member of its own orbit, so the union of the
    emitted orbits recovers that stream with multiplicity orbit_size, and
    reps come out in its ascending order.  Streaming: no per-n
    materialization.  Both tests below run on the plain tuple, against a
    gcd table and candidate lists built once per modulus.

    Every element y of a scaled copy satisfies y >= gcd(y, n), and some
    unit sends a coefficient with the least gcd d to d itself, so a
    representative has x1 = d: x1 divides n and no gcd(x_i, n) is below
    it.  A tuple passing that test can only be beaten by one of its
    candidate units; it is a representative iff no candidate sorts it to a
    smaller tuple.  The candidates that give the tuple back are its
    whole stabiliser, so orbit_size = phi(n) / |stabiliser|.
    """
    g = [math.gcd(x, n) for x in range(n)]
    phi = g.count(1)  # the units in [1, n-1]; g[0] = n is not 1
    candidates: list[list[int] | None] = [None] * n
    for coeffs in iter_min_zero_sum4(n):
        d = coeffs[0]
        if n % d or (d > 1 and min(g[coeffs[1]], g[coeffs[2]], g[coeffs[3]]) < d):
            continue
        stabiliser = _stabiliser_size(coeffs, n, g, candidates)
        if stabiliser:
            yield OrbitRep(Sequence(n, coeffs), phi // stabiliser)


def _candidates(x: int, n: int, d: int) -> list[int]:
    """The units m = (x/d)^-1 (mod n/d) for a coefficient x with gcd(x, n) = d:
    exactly the units with m*x = d (mod n)."""
    step = n // d
    return [m for m in range(pow(x // d, -1, step), n, step) if math.gcd(m, n) == 1]


def _stabiliser_size(coeffs: tuple[int, ...], n: int, g: list[int], candidates: list) -> int:
    """Number of units that map coeffs to itself, or 0 if one maps it lower.

    Only the _candidates of the coefficients x with g[x] = d = coeffs[0]
    are tried, each list built into candidates[x] on first use; that is
    enough because iter_orbit_reps calls it only when d = min gcd(x_i, n).
    """
    x1, x2, x3, x4 = coeffs
    stabiliser = 0
    for x in {x1, x2, x3, x4}:
        if g[x] == x1:
            ms = candidates[x]
            if ms is None:
                ms = candidates[x] = _candidates(x, n, x1)
            for m in ms:
                image = tuple(sorted((m * x1 % n, m * x2 % n, m * x3 % n, m * x4 % n)))
                if image < coeffs:
                    return 0
                if image == coeffs:
                    stabiliser += 1
    return stabiliser

"""Subgroup reduction: divide out a common factor of all coefficients and lift witnesses back.

When d = gcd(x1, x2, x3, x4, n) exceeds 1 the sequence lives inside the
subgroup of index d, where it becomes a minimal zero-sum sequence over
Z_{n/d} (subset sums scale exactly by d, so minimality transfers both
ways).  A certificate m for the reduced sequence lifts back by shifting in
steps of n/d until the result is coprime to n, which takes fewer than d
steps: for each prime p dividing d but not n/d the shift walks through all
residue classes mod p, and the primes shared with n/d never obstruct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certify import LIFTED, Certificate, make_certificate
from .normalform import _require_minimal4
from .zseq import Sequence

__all__ = ["SubgroupReduction", "lift_witness", "try_subgroup_reduce"]


@dataclass(frozen=True, slots=True)
class SubgroupReduction:
    """A divisor d > 1 common to all coefficients and n, the reduced sequence and the original."""

    d: int
    reduced: Sequence
    original: Sequence


def try_subgroup_reduce(seq: Sequence) -> SubgroupReduction | None:
    """Reduce by d = gcd(all coefficients, n) when d > 1.  Minimality gives n/d >= 3:
    n/d = 2 would make every pair sum to zero, n/d = 1 every coefficient 0."""
    _require_minimal4(seq)
    n = seq.n
    d = n
    for x in seq.coeffs:
        d = math.gcd(d, x)
    if d <= 1:
        return None
    reduced = Sequence(n // d, tuple(x // d for x in seq.coeffs))
    return SubgroupReduction(d=d, reduced=reduced, original=seq)


def lift_witness(reduction: SubgroupReduction, m_sub: int) -> Certificate:
    """Lift a certificate of the reduced sequence to the original modulus.

    Precondition: m_sub is a unit mod n/d and certifies the reduced
    sequence.  The lifted multiplier is m_sub + t*(n/d) for the first
    t >= 0 making it coprime to n; since |m * d * y|_n = d * |m * y|_{n/d},
    its weight against the original sequence is d * (n/d) = n.
    """
    n = reduction.original.n
    d = reduction.d
    n_sub = reduction.reduced.n
    if math.gcd(m_sub, n_sub) != 1:
        raise ValueError(f"{m_sub} is not a unit modulo {n_sub}")
    # No weight check on the reduced sequence: the lift's weight is d times
    # m_sub's weight there, so make_certificate below rejects any m_sub
    # that does not certify it.
    base = m_sub % n_sub
    for t in range(d):
        m = base + t * n_sub
        if math.gcd(m, n) == 1:
            return make_certificate(reduction.original, m, LIFTED)
    raise AssertionError("unreachable: a coprime lift exists within d steps")

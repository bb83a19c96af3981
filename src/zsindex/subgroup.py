"""Subgroup reduction: divide out a common factor of all coefficients and lift witnesses back.

When d = gcd(n, x1, x2, x3, x4) exceeds 1 the sequence lives inside the
subgroup of index d and reduces to (x1/d, ..., x4/d) over Z_{n/d}.  Every
subset sum scales exactly by d, so zero sum and minimality carry over in
both directions, whatever the input.  A multiplier m for the reduced
sequence lifts back by shifting in steps of n/d until the result is coprime
to n, which takes fewer than d steps: for each prime p dividing d but not
n/d the shift walks through all residue classes mod p, and the primes
shared with n/d never obstruct.
"""

from __future__ import annotations

import math

from .zseq import Sequence

__all__ = ["lift_witness", "try_subgroup_reduce"]


def try_subgroup_reduce(seq: Sequence) -> Sequence | None:
    """The sequence divided by d = gcd(n, all coefficients), or None when d = 1.

    Sequence rejects a reduced modulus n/d < 3, which no minimal zero-sum
    input reaches: n/d = 2 would make every pair sum to zero, n/d = 1
    every coefficient 0.
    """
    n, coeffs = seq.n, seq.coeffs
    d = math.gcd(n, *coeffs)
    if d == 1:
        return None
    return Sequence(n // d, tuple(x // d for x in coeffs))


def lift_witness(seq: Sequence, reduced: Sequence, m_sub: int) -> int:
    """Lift a multiplier m_sub of `reduced`, seq divided by d = seq.n // reduced.n, to seq.

    The lift is m_sub + t*(n/d) for the first t >= 0 making it coprime to n.
    Since |m * d * y|_n = d * |m * y|_{n/d}, seq's weight under the lift is
    d times the reduced sequence's weight under m_sub, so the lift certifies
    seq exactly when m_sub certifies the reduced sequence.  No weight is
    checked here; ValueError unless m_sub is a unit mod n/d.
    """
    n, n_sub = seq.n, reduced.n
    if math.gcd(m_sub, n_sub) != 1:
        raise ValueError(f"{m_sub} is not a unit modulo {n_sub}")
    base = m_sub % n_sub
    for t in range(n // n_sub):
        m = base + t * n_sub
        if math.gcd(m, n) == 1:
            return m
    raise AssertionError("unreachable: a coprime lift exists within d steps")

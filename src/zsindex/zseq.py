"""Sequences over Z_n: the minimal zero-sum predicate, unit weights, brute-force index.

The brute-force index scan in this module is the ground-truth oracle for
everything else in the package: certificate searches are validated against
it and counterexample reports carry its result.  Python integers are
unbounded, so all arithmetic is overflow-safe for arbitrarily large moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

__all__ = [
    "IndexResult",
    "Sequence",
    "check_modulus",
    "index",
    "is_minimal_zero_sum",
    "make_sequence",
    "weight",
]

_ONE = Fraction(1)  # every index-1 result shares it; a Fraction is immutable


def check_modulus(n: int) -> int:
    """Validate a modulus; every construction in this package needs n >= 3."""
    if n < 3:
        raise ValueError(f"modulus must be at least 3, got {n}")
    return n


@dataclass(frozen=True, slots=True, init=False)
class Sequence:
    """Four nonzero residues modulo n, stored as an ascending tuple; the one length check."""

    n: int
    coeffs: tuple[int, ...]

    def __init__(self, n: int, coeffs: tuple[int, ...]) -> None:
        if n < 3:
            check_modulus(n)
        if not isinstance(coeffs, tuple):
            raise ValueError(f"coefficients must be a tuple, got {type(coeffs).__name__}")
        # One chained comparison settles a valid input; the branch only names the fault.
        if len(coeffs) != 4 or not 1 <= coeffs[0] <= coeffs[1] <= coeffs[2] <= coeffs[3] < n:
            if len(coeffs) != 4:
                raise ValueError(f"expected a length-4 sequence, got length {len(coeffs)}")
            prev = 1
            for x in coeffs:
                if not prev <= x < n:
                    if not 1 <= x < n:
                        raise ValueError(f"coefficient {x} outside [1, {n - 1}] for modulus {n}")
                    raise ValueError("coefficients must be sorted ascending")
                prev = x
        _SET_N(self, n)
        _SET_COEFFS(self, coeffs)


@dataclass(frozen=True, slots=True, init=False)
class IndexResult:
    """Minimal weight over all unit multipliers, as a fraction of n, with its witness.

    For a zero-sum sequence the value is a positive integer; value 1 means
    some unit m satisfies sum(|m*x_i|_n) = n and `witness` is the smallest
    such m.
    """

    value: Fraction
    witness: int

    def __init__(self, value: Fraction, witness: int) -> None:
        _SET_VALUE(self, value)
        _SET_WITNESS(self, witness)


def slot_setters(cls: type) -> tuple:
    """Each field's slot setter, in field order: it stores past a frozen class's __setattr__."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_SET_N, _SET_COEFFS = slot_setters(Sequence)
_SET_VALUE, _SET_WITNESS = slot_setters(IndexResult)


def make_sequence(n: int, coeffs: list[int] | tuple[int, ...]) -> Sequence:
    """Build a sequence: reduce each entry to its least positive residue, sort ascending.

    Entries congruent to 0 mod n are rejected; a zero term would itself be a
    zero-sum subsequence.  Sequence checks the length.
    """
    check_modulus(n)
    reduced = []
    for x in coeffs:
        r = x % n
        if r == 0:
            raise ValueError(f"coefficient {x} is divisible by {n} (zero class not allowed)")
        reduced.append(r)
    return Sequence(n, tuple(sorted(reduced)))


def is_minimal_zero_sum(seq: Sequence) -> bool:
    """True when seq is zero-sum and no nonempty proper sub-multiset sums to 0 mod n.

    A zero-sum length-4 sequence is minimal iff no pair through x1 sums
    to 0.  Every term lies in [1, n-1], so no single term vanishes, and a
    zero 3-term sum would leave the fourth term 0; a zero pair forces its
    complementary pair to 0, and every pair is x1's or the complement of
    one.  Sequence has only length 4, so this is the whole rule.
    """
    n, coeffs = seq.n, seq.coeffs
    if sum(coeffs) % n != 0:
        return False
    x1, x2, x3, x4 = coeffs
    return (x1 + x2) % n != 0 and (x1 + x3) % n != 0 and (x1 + x4) % n != 0


def weight(seq: Sequence, m: int) -> int:
    """Sum of the least positive residues of m*x_i; m must be a unit mod n.

    For a zero-sum sequence the result is always a positive multiple of n,
    so n itself is the smallest achievable weight.
    """
    n = seq.n
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m} is not a unit modulo {n}")
    x1, x2, x3, x4 = seq.coeffs  # no term is 0: m is a unit and each x a nonzero class
    return m * x1 % n + m * x2 % n + m * x3 % n + m * x4 % n


def index(seq: Sequence) -> IndexResult:
    """Minimal weight over all units as a fraction of n, with the smallest witness.

    Scans m in ascending order.  A weight of exactly n is a proven
    global minimum for any sequence (zero-sum weights are positive
    multiples of n; non-zero-sum weights are never congruent to 0), so the
    scan stops early at the first such hit, which makes the witness both
    the first and the smallest one.  The scan starts from m = 1, which is
    a unit of every modulus.  After it, gcd(m, n) is tested only when m's
    weight beats the best so far, so a non-unit is rejected exactly where
    it would improve the minimum.
    """
    n = seq.n
    x1, x2, x3, x4 = seq.coeffs
    gcd = math.gcd
    best_w = x1 + x2 + x3 + x4
    best_m = 1
    for m in range(2, n):
        if best_w == n:
            break
        w = m * x1 % n + m * x2 % n + m * x3 % n + m * x4 % n
        if w < best_w and gcd(m, n) == 1:
            best_w, best_m = w, m
    return IndexResult(_ONE if best_w == n else Fraction(best_w, n), best_m)

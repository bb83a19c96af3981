"""Shared independent oracles for the test suite.

These deliberately reimplement functionality with different algorithms
(itertools subsets instead of bitmasks, factorization-based totient, full
unit scans) so that library code is always checked against a second route.
units, nu and scale state the paper's unit group, (sum of coefficients)/n
and unit scaling for the tests; the package computes each inline where it
needs it.  min_zero_sum4_sequences is no oracle: it wraps the library's
enumerated tuples in Sequences for the tests that need them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat

from zsindex.enumeration import iter_min_zero_sum4
from zsindex.zseq import Sequence


def totient(n: int) -> int:
    """Euler phi via trial-division factorization."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def oracle_minimal_zero_sum(n: int, coeffs: tuple[int, ...]) -> bool:
    """Subset-based minimality oracle, independent of the library's checks."""
    if sum(coeffs) % n != 0:
        return False
    idx = range(len(coeffs))
    for size in range(1, len(coeffs)):
        for subset in combinations(idx, size):
            if sum(coeffs[i] for i in subset) % n == 0:
                return False
    return True


def oracle_enumerate4(n: int) -> list[tuple[int, ...]]:
    """All minimal zero-sum ascending 4-tuples over Z_n by full multiset scan."""
    out = []
    for tup in combinations_with_replacement(range(1, n), 4):
        if oracle_minimal_zero_sum(n, tup):
            out.append(tup)
    return out


def oracle_enumerate_triples(n: int) -> list[tuple[int, ...]]:
    """All minimal zero-sum ascending 4-tuples over Z_n, in lexicographic order:
    every ascending (x1, x2, x3) with x4 solved from the zero sum, O(n^3/6)."""
    out = []
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
                    out.append((x1, x2, x3, x4))
    return out


def units(n: int) -> list[int]:
    """All m in [1, n-1] coprime to n, in ascending order; ValueError for n < 3."""
    if n < 3:
        raise ValueError(f"modulus must be at least 3, got {n}")
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def nu(seq: Sequence) -> int:
    """The integer (sum of coefficients)/n of a zero-sum sequence, always 1, 2
    or 3; ValueError if seq is not zero-sum."""
    q, r = divmod(sum(seq.coeffs), seq.n)
    if r:
        raise ValueError("nu requires a zero-sum sequence")
    return q


def scale(seq: Sequence, u: int) -> Sequence:
    """The copy of seq with each coefficient |u*x_i|_n, re-sorted; ValueError
    unless u is a unit mod n."""
    n = seq.n
    if math.gcd(u, n) != 1:
        raise ValueError(f"{u} is not a unit modulo {n}")
    return Sequence(n, tuple(sorted((u * x) % n for x in seq.coeffs)))


def min_zero_sum4_sequences(n: int):
    """Each coefficient tuple t of iter_min_zero_sum4(n) as Sequence(n, t), in
    order: the enumerated stream for tests that need sequences."""
    return map(Sequence, repeat(n), iter_min_zero_sum4(n))


def oracle_sequence_check(n, coeffs) -> None:
    """Raise the ValueError that Sequence(n, coeffs) must raise, or return None.

    Sequence's checks as a length test and then one per-coefficient loop,
    without its chained comparison.
    """
    if n < 3:
        raise ValueError(f"modulus must be at least 3, got {n}")
    if not isinstance(coeffs, tuple):
        raise ValueError(f"coefficients must be a tuple, got {type(coeffs).__name__}")
    if len(coeffs) != 4:
        raise ValueError(f"expected a length-4 sequence, got length {len(coeffs)}")
    prev = 1
    for x in coeffs:
        if not prev <= x < n:
            if not 1 <= x < n:
                raise ValueError(f"coefficient {x} outside [1, {n - 1}] for modulus {n}")
            raise ValueError("coefficients must be sorted ascending")
        prev = x


def oracle_count_minimal4(n: int) -> int:
    """Number of minimal zero-sum ascending 4-tuples over Z_n, counted in O(n^2).

    Such a tuple is minimal iff no pair sums to 0 mod n, and x1 + x4
    vanishes iff x2 + x3 does.  For each x1 <= x2 with x1 + x2 != n, the
    pair x3 <= x4 sums to t = kn - x1 - x2 for k = 1, 2 or 3, and x3 ranges
    over [max(x2, t - n + 1), t // 2]; n - x1 and n - x2 are then taken out.
    """
    count = 0
    for x1 in range(1, n):
        for x2 in range(x1, n):
            s = x1 + x2
            if s == n:
                continue
            for t in (n - s, 2 * n - s, 3 * n - s):
                lo, hi = max(x2, t - n + 1), t // 2
                if lo <= hi:
                    count += hi - lo + 1 - sum(lo <= x3 <= hi for x3 in {n - x1, n - x2})
    return count


def oracle_index(n: int, coeffs: tuple[int, ...]) -> tuple[Fraction, int]:
    """Full unit scan without early exit; returns (value, smallest witness)."""
    best_w = None
    best_m = None
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        w = sum((m * x) % n or n for x in coeffs)
        if best_w is None or w < best_w:
            best_w, best_m = w, m
    assert best_w is not None and best_m is not None
    return Fraction(best_w, n), best_m


def oracle_orbit_reps(n: int, sequences) -> list[tuple[tuple[int, ...], int]]:
    """(coeffs, orbit_size) for each tuple, in input order, that no unit maps to a
    lex-smaller sorted tuple: a scan over all phi(n) units of every tuple."""
    us = [m for m in range(1, n) if math.gcd(m, n) == 1]
    out = []
    for coeffs in sequences:
        images = set()
        for m in us:
            image = tuple(sorted((m * x) % n for x in coeffs))
            if image < coeffs:
                break
            images.add(image)
        else:
            out.append((coeffs, len(images)))
    return out


def oracle_search_interval(n: int, a: int, b: int, c: int) -> tuple[int, int] | None:
    """Least (k, m) with k*n <= m*c, m*b <= k*n, 1 <= k <= b, m*a < n and
    gcd(m, n) = 1, found by scanning m instead of k: for each such unit m only
    the least k with m*b <= k*n can give the least pair."""
    best = None
    for m in range(1, n):
        if m * a >= n:
            break
        k = -(-m * b // n)
        if math.gcd(m, n) == 1 and k <= b and k * n <= m * c and (best is None or (k, m) < best):
            best = (k, m)
    return best


def oracle_finalize(n: int, coeffs: tuple[int, ...], mid: int) -> int | None:
    """The first of |f*mid|_n for f = 1, n-1, n-2, 2 that is a unit with weight
    n against coeffs, or None: a trial over the four forced multipliers."""
    for factor in (1, n - 1, n - 2, 2):
        m = (factor * mid) % n
        if math.gcd(m, n) == 1 and sum((m * x) % n for x in coeffs) == n:
            return m
    return None

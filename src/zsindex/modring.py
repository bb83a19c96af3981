"""Unit-group arithmetic over Z_n.

Python integers are unbounded, so all operations are overflow-safe for
arbitrarily large moduli.
"""

from __future__ import annotations

import math

__all__ = ["check_modulus", "inv", "units"]


def check_modulus(n: int) -> int:
    """Validate a modulus; every construction in this package needs n >= 3."""
    if n < 3:
        raise ValueError(f"modulus must be at least 3, got {n}")
    return n


def units(n: int) -> list[int]:
    """All m in [1, n-1] coprime to n, in ascending order.

    The ascending order is load-bearing: every "first witness" scan in the
    package inherits its determinism from it.
    """
    check_modulus(n)
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def inv(m: int, n: int) -> int:
    """Multiplicative inverse of a unit m modulo n, returned in [1, n-1]."""
    check_modulus(n)
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m} is not a unit modulo {n}")
    # pow with exponent -1 runs the extended Euclidean algorithm in C.
    return pow(m, -1, n)

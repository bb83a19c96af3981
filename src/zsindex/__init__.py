"""Exact index computation and verification for zero-sum sequences over Z_n.

A length-4 sequence of nonzero residues over Z_n is *minimal zero-sum* when
its terms sum to 0 mod n while no nonempty proper sub-multiset does.  Its
*index* is the minimum of sum(|m*x_i|_n)/n over all multipliers m coprime
to n, where |x|_n is the least positive residue.  This package computes the
index exactly, searches for constructive unit-multiplier certificates that
prove index 1, and verifies the "index is always 1 when gcd(n, 6) = 1"
claim exhaustively over ranges of moduli with brute-force cross-checks.
"""

from .zseq import *
from .enumeration import *
from .normalform import *
from .certify import *
from .subgroup import *
from .harness import *
from . import certify, enumeration, harness, normalform, subgroup, zseq

__version__ = "0.1.0"

# Each library module states its public names once, in its own __all__;
# the cli module is the command line, not API, and is not re-exported.
__all__ = (
    zseq.__all__
    + enumeration.__all__
    + normalform.__all__
    + certify.__all__
    + subgroup.__all__
    + harness.__all__
)

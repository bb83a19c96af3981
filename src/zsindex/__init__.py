"""Exact index computation and verification for zero-sum sequences over Z_n.

A length-4 sequence of nonzero residues over Z_n is *minimal zero-sum* when
its terms sum to 0 mod n while no nonempty proper sub-multiset does.  Its
*index* is the minimum of sum(|m*x_i|_n)/n over all multipliers m coprime
to n, where |x|_n is the least positive residue.  This package computes the
index exactly, searches for constructive unit-multiplier certificates that
prove index 1, and verifies the "index is always 1 when gcd(n, 6) = 1"
claim exhaustively over ranges of moduli with brute-force cross-checks.
"""

from .zseq import (
    IndexResult,
    Sequence,
    index,
    is_minimal_zero_sum,
    is_zero_sum,
    make_sequence,
    nu,
    scale,
    units,
    weight,
)
from .enumeration import OrbitRep, iter_min_zero_sum4, iter_orbit_reps
from .normalform import ModulusCache, NormalForm, ReductionOutcome, classify, normal_form_sequence
from .certify import (
    Certificate,
    CertificateMiss,
    CounterexampleReport,
    ShapeStats,
    find_certificate,
    finalize,
    search_half_interval,
    search_interval,
    search_majority_small,
    shape_stats,
    small_a_certificate,
    verify_certificate,
)
from .subgroup import lift_witness, try_subgroup_reduce
from .harness import (
    VerificationReport,
    find_counterexample,
    report_to_json,
    verify_modulus,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateMiss",
    "CounterexampleReport",
    "IndexResult",
    "ModulusCache",
    "NormalForm",
    "OrbitRep",
    "ReductionOutcome",
    "Sequence",
    "ShapeStats",
    "VerificationReport",
    "classify",
    "find_certificate",
    "find_counterexample",
    "finalize",
    "index",
    "is_minimal_zero_sum",
    "is_zero_sum",
    "iter_min_zero_sum4",
    "iter_orbit_reps",
    "lift_witness",
    "make_sequence",
    "normal_form_sequence",
    "nu",
    "report_to_json",
    "scale",
    "search_half_interval",
    "search_interval",
    "search_majority_small",
    "shape_stats",
    "small_a_certificate",
    "try_subgroup_reduce",
    "units",
    "verify_certificate",
    "verify_modulus",
    "verify_range",
    "weight",
]

"""Exact arithmetic for the min(i, j) matrix family.

Matrix constructions, closed-form determinants with an elimination
oracle, elementary symmetric functions of the eigenvalues by six
mutually-verifying methods, the characteristic polynomial, Fibonacci
identities, and a Monte-Carlo random-walk covariance demonstration.
"""

__version__ = "0.1.0"

from .determinants import (
    delta_det_closed,
    det_bareiss,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from .fibonacci import fib, fibonacci_identity
from .matrices import (
    ExactMatrix,
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
    prefix_sums,
)
from .simulation import (
    CovEstimate,
    SimConfig,
    covariance_deviation,
    min_matrix_float,
    simulate_covariance,
)
from .symmetric import (
    BRUTE_FORCE_CAP,
    METHODS,
    BruteForceCapExceeded,
    CharPoly,
    SymTable,
    binomial,
    binomial_identity_check,
    build_sym_table,
    char_matrix,
    charpoly,
    symfun,
    symfun_closed,
    symfun_minor_sum,
    symfun_nested,
    symfun_ratio,
    symfun_rec6,
    symfun_rec7,
)
from .verification import SUITES, CheckResult, run_suites

__all__ = [
    "ExactMatrix",
    "prefix_sums",
    "build_min_matrix",
    "build_c_matrix",
    "build_delta_matrix",
    "build_theta_matrix",
    "det_bareiss",
    "delta_det_closed",
    "theta_det_closed",
    "det_min_matrix",
    "det_c_matrix",
    "binomial",
    "symfun",
    "symfun_closed",
    "symfun_minor_sum",
    "symfun_nested",
    "symfun_rec6",
    "symfun_rec7",
    "symfun_ratio",
    "binomial_identity_check",
    "charpoly",
    "char_matrix",
    "CharPoly",
    "SymTable",
    "build_sym_table",
    "BruteForceCapExceeded",
    "BRUTE_FORCE_CAP",
    "METHODS",
    "fib",
    "fibonacci_identity",
    "SimConfig",
    "CovEstimate",
    "simulate_covariance",
    "covariance_deviation",
    "min_matrix_float",
    "run_suites",
    "SUITES",
    "CheckResult",
    "__version__",
]

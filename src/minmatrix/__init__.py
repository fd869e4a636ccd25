"""Exact arithmetic for the min(i, j) matrix family.

Matrix constructions, closed-form determinants with an elimination
oracle, elementary symmetric functions of the eigenvalues by six
mutually-verifying methods, the characteristic polynomial, Fibonacci
identities, and a Monte-Carlo random-walk covariance demonstration.

`import minmatrix` loads no submodule. Each public name, and each
submodule name such as `minmatrix.symmetric`, imports its submodule on
first access (PEP 562), so a process pays only for the modules it uses.
"""

__version__ = "0.1.0"

# The argparse choices and the limits that the CLI shares with the modules
# that use them, defined here so that building its parser imports none of
# those modules.
#: Symmetric-function methods, in the order `symfun --method all` reports.
METHODS = ("closed", "minors", "nested", "rec6", "rec7", "ratio")
#: Verification suites, in the order `verify --suite all` runs them.
SUITES = ("dets", "symfun", "binomial", "fibonacci")
#: Step distributions of the covariance simulation.
DISTRIBUTIONS = ("rademacher", "uniform", "gaussian")
#: Largest dimension of a dense n x n array, 2**24 entries: the matrix that
#: `matrix` and `det --method bareiss|both` build, and the float64
#: covariance accumulator of `simulate`, 134 MB.
DIM_LIMIT = 4096
# Largest n_max run_suites accepts, from a budget of 60 s for verify
# --suite all on a 2-vCPU x86-64 host with Python 3.11, set when 600 took
# 32 s and 700 took 64 s. A fresh `verify --suite all --n-max 600` process
# now takes 4.3 s on one pinned CPU of a shared host whose speed varies
# (three runs); in process the dets suite takes 0.18-0.25 s of it (one
# elimination of A_600 and two of shifted matrices, each reading n_max**2
# entries to find D's band and subtracting O(n_max) of them, and 16
# eliminations of drawn lists at dimension n_max), the symfun suite
# 1.5-1.7 s, the binomial suite 1.1 s and the fibonacci suite 1.2 s, three
# runs each.
_N_MAX_LIMIT = 600

# Each lazily imported public name, and the submodule that defines it.
_SOURCES = {
    "ExactMatrix": "matrices",
    "prefix_sums": "matrices",
    "build_min_matrix": "matrices",
    "build_c_matrix": "matrices",
    "build_delta_matrix": "matrices",
    "build_theta_matrix": "matrices",
    "det_bareiss": "determinants",
    "delta_det_closed": "determinants",
    "theta_det_closed": "determinants",
    "det_min_matrix": "determinants",
    "det_c_matrix": "determinants",
    "binomial": "symmetric",
    "symfun": "symmetric",
    "symfun_closed": "symmetric",
    "symfun_minor_sum": "symmetric",
    "symfun_nested": "symmetric",
    "symfun_rec6": "symmetric",
    "symfun_rec7": "symmetric",
    "symfun_ratio": "symmetric",
    "charpoly": "symmetric",
    "char_matrix": "symmetric",
    "CharPoly": "symmetric",
    "SymTable": "symmetric",
    "build_sym_table": "symmetric",
    "BruteForceCapExceeded": "symmetric",
    "BRUTE_FORCE_CAP": "symmetric",
    "fib": "fibonacci",
    "fibonacci_identity": "fibonacci",
    "SimConfig": "simulation",
    "CovEstimate": "simulation",
    "simulate_covariance": "simulation",
    "covariance_deviation": "simulation",
    "run_suites": "verification",
    "CheckResult": "verification",
}

_SUBMODULES = {*_SOURCES.values(), "cli"}

__all__ = [*_SOURCES, "METHODS", "SUITES", "__version__"]


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES, *_SUBMODULES})

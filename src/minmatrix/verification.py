"""Self-verification sweeps over the package's exact identities.

Each identity has one check here: a function that takes its cases and
returns one CheckResult, with the first counterexample when it fails.
Each suite runs a family of checks over cases up to a size bound; the
CLI `verify` command runs the suites. The acceptance tests call the same
checks with their own, larger case lists.
"""

import math
import random
from dataclasses import dataclass, field

from . import SUITES
from .determinants import (
    delta_det_closed,
    det_bareiss,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from .fibonacci import fib, fibonacci_identity
from .matrices import (
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
)
from .symmetric import (
    METHODS,
    binomial_identity_check,
    build_sym_table,
    symfun_closed,
)

#: Every method but the exponential minor enumeration.
POLYNOMIAL_METHODS = ("closed", "nested", "rec6", "rec7", "ratio")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    notes: list = field(default_factory=list)


def _sweep(name, cases, predicate, describe):
    """Run predicate over cases, reporting the first counterexample. A
    check with no cases passes with a note saying it was vacuous."""
    checked = 0
    for case in cases:
        if not predicate(case):
            return CheckResult(name, False, detail=f"counterexample: {describe(case)}")
        checked += 1
    return CheckResult(name, True, notes=[] if checked else ["vacuous: no cases"])


def _n(n):
    return f"n={n}"


def _nk(nk):
    return f"n={nk[0]}, k={nk[1]}"


def _inc(inc):
    return f"inc={inc}"


def check_min_dets(ns):
    return _sweep(
        "min matrix determinant equals 1",
        ns,
        lambda n: det_bareiss(build_min_matrix(n)) == det_min_matrix(n),
        _n,
    )


def check_c_dets(cases):
    return _sweep(
        "shifted matrix determinant equals its shift",
        cases,
        lambda nk: det_bareiss(build_c_matrix(*nk)) == det_c_matrix(*nk),
        _nk,
    )


def check_delta_dets(increments):
    return _sweep(
        "product closed form matches elimination (delta family)",
        increments,
        lambda inc: delta_det_closed(inc) == det_bareiss(build_delta_matrix(inc)),
        _inc,
    )


def check_theta_dets(increments):
    return _sweep(
        "dropped-term closed form matches elimination (theta family)",
        increments,
        lambda inc: theta_det_closed(inc) == det_bareiss(build_theta_matrix(inc)),
        _inc,
    )


def _scales(case):
    inc, t = case
    scaled = det_bareiss(build_delta_matrix([inc[0] * t] + inc[1:]))
    return scaled == t * det_bareiss(build_delta_matrix(inc))


def check_delta_scaling(cases):
    """Cases are (increments, t) pairs. Both sides are det_bareiss of a
    delta matrix, so a wrong elimination can fail the check."""
    return _sweep(
        "scaling the first increment scales the determinant",
        cases,
        _scales,
        lambda case: f"inc={case[0]}, t={case[1]}",
    )


def random_increments(rng, dim_cap):
    """Draw 100 delta and 100 theta increment lists with entries in 1..9,
    then 100 of each with entries in -4..4, a delta list and a theta list
    in turn. Delta lists have 1..dim_cap entries, theta lists 3..dim_cap + 1;
    there are no theta lists when dim_cap < 2."""
    delta, theta = [], []
    for low, high in ((1, 9), (-4, 4)):
        for _ in range(100):
            n = rng.randint(1, max(dim_cap, 1))
            delta.append([rng.randint(low, high) for _ in range(n)])
            if dim_cap >= 2:
                n = rng.randint(2, dim_cap)
                theta.append([rng.randint(low, high) for _ in range(n + 1)])
    return delta, theta


def suite_dets(n_max, seed=0):
    rng = random.Random(seed)
    delta, theta = random_increments(rng, min(n_max, 12))
    scale_cases = [([rng.randint(1, 9) for _ in range(rng.randint(1, 8))], rng.randint(-5, 5)) for _ in range(50)]
    return [
        check_min_dets(range(1, n_max + 1)),
        check_c_dets([(n, k) for n in range(3, n_max + 1) for k in range(2, n)]),
        check_delta_dets(delta),
        check_theta_dets(theta),
        check_delta_scaling(scale_cases),
    ]


def _tables_agree(tables, methods):
    return lambda nk: len({tables[m][nk] for m in methods}) == 1


def check_six_way(tables, cases, n_max):
    """The tables of all six methods agree at each (n, k) of cases."""
    return _sweep(f"six-way agreement up to n={n_max}", cases, _tables_agree(tables, METHODS), _nk)


def check_polynomial_agreement(tables, cases, n_max):
    """The tables of every method but minors agree at each (n, k) of cases."""
    return _sweep(
        f"polynomial-method agreement up to n={n_max}",
        cases,
        _tables_agree(tables, POLYNOMIAL_METHODS),
        _nk,
    )


def check_trace(ns):
    return _sweep(
        "first symmetric function equals the trace n(n+1)/2",
        ns,
        lambda n: symfun_closed(n, 1) == n * (n + 1) // 2,
        _n,
    )


def check_top(ns):
    return _sweep(
        "top symmetric function equals the determinant 1",
        ns,
        lambda n: symfun_closed(n, n) == 1,
        _n,
    )


def check_reflection(cases):
    return _sweep(
        "binomial reflection C(n+k, n-k) = C(n+k, 2k)",
        cases,
        lambda nk: symfun_closed(*nk) == math.comb(nk[0] + nk[1], 2 * nk[1]),
        _nk,
    )


def check_growth(cases):
    return _sweep(
        "strict growth in n for fixed k",
        cases,
        lambda nk: symfun_closed(nk[0], nk[1]) < symfun_closed(nk[0] + 1, nk[1]),
        _nk,
    )


def suite_symfun(n_max):
    brute_max = min(n_max, 12)
    tables = {method: build_sym_table(n_max, method) for method in POLYNOMIAL_METHODS}
    tables["minors"] = build_sym_table(brute_max, "minors")
    return [
        check_six_way(
            tables, [(n, k) for n in range(1, brute_max + 1) for k in range(1, n + 1)], brute_max
        ),
        check_polynomial_agreement(
            tables, [(n, k) for n in range(brute_max + 1, n_max + 1) for k in range(1, n + 1)], n_max
        ),
        check_trace(range(1, n_max + 1)),
        check_top(range(1, n_max + 1)),
        check_reflection([(n, k) for n in range(1, n_max + 1) for k in range(n + 1)]),
        check_growth([(n, k) for n in range(1, n_max) for k in range(1, n + 1)]),
    ]


def check_binomial_identity(cases, n_max):
    return _sweep(
        f"difference-recurrence binomial identity up to n={n_max}",
        cases,
        lambda nk: binomial_identity_check(*nk),
        _nk,
    )


def suite_binomial(n_max):
    return [check_binomial_identity([(n, k) for n in range(n_max + 1) for k in range(n + 1)], n_max)]


def check_fibonacci_sum(ns, n_max):
    return _sweep(f"symmetric-function sum equals F(2n+1) up to n={n_max}", ns, fibonacci_identity, _n)


def check_cassini(indices):
    return _sweep(
        "Cassini identity on the Fibonacci generator",
        indices,
        lambda i: fib(i - 1) * fib(i + 1) - fib(i) ** 2 == (-1) ** i,
        lambda i: f"i={i}",
    )


def suite_fibonacci(n_max):
    return [check_fibonacci_sum(range(n_max + 1), n_max), check_cassini(range(2, max(n_max, 3)))]


def run_suites(suite, n_max, seed=0):
    """Run one suite, or every suite when suite is "all", and return the
    combined check results."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    results = []
    for name in SUITES if suite == "all" else (suite,):
        if name == "dets":
            results.extend(suite_dets(n_max, seed=seed))
        elif name == "symfun":
            results.extend(suite_symfun(n_max))
        elif name == "binomial":
            results.extend(suite_binomial(n_max))
        elif name == "fibonacci":
            results.extend(suite_fibonacci(n_max))
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return results

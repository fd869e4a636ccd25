"""Self-verification sweeps over the package's exact identities.

Each suite runs a family of checks up to a size bound and reports one
result per check, with the first counterexample when a check fails.
The CLI `verify` command and the test suite both drive these.
"""

import math
import random
from dataclasses import dataclass, field

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
    BRUTE_FORCE_CAP,
    binomial_identity_check,
    build_sym_table,
    symfun_closed,
)

SUITES = ("dets", "symfun", "binomial", "fibonacci")


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


def suite_dets(n_max, seed=0, trials=200):
    results = []
    results.append(
        _sweep(
            "min matrix determinant equals 1",
            range(1, n_max + 1),
            lambda n: det_bareiss(build_min_matrix(n)) == det_min_matrix(n),
            lambda n: f"n={n}",
        )
    )
    results.append(
        _sweep(
            "shifted matrix determinant equals its shift",
            [(n, k) for n in range(3, n_max + 1) for k in range(2, n)],
            lambda nk: det_bareiss(build_c_matrix(*nk)) == det_c_matrix(*nk),
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    )

    rng = random.Random(seed)
    dim_cap = min(n_max, 12)
    delta_cases = []
    theta_cases = []
    for low, high in ((1, 9), (-4, 4)):
        for _ in range(trials // 2):
            n = rng.randint(1, max(dim_cap, 1))
            delta_cases.append([rng.randint(low, high) for _ in range(n)])
            if dim_cap >= 2:
                n = rng.randint(2, dim_cap)
                theta_cases.append([rng.randint(low, high) for _ in range(n + 1)])
    results.append(
        _sweep(
            "product closed form matches elimination (delta family)",
            delta_cases,
            lambda inc: delta_det_closed(inc) == det_bareiss(build_delta_matrix(inc)),
            lambda inc: f"inc={inc}",
        )
    )
    results.append(
        _sweep(
            "dropped-term closed form matches elimination (theta family)",
            theta_cases,
            lambda inc: theta_det_closed(inc) == det_bareiss(build_theta_matrix(inc)),
            lambda inc: f"inc={inc}",
        )
    )
    scale_cases = [([rng.randint(1, 9) for _ in range(rng.randint(1, 8))], rng.randint(-5, 5)) for _ in range(50)]
    results.append(
        _sweep(
            "scaling the first increment scales the determinant",
            scale_cases,
            lambda case: delta_det_closed([case[0][0] * case[1]] + case[0][1:])
            == case[1] * delta_det_closed(case[0]),
            lambda case: f"inc={case[0]}, t={case[1]}",
        )
    )
    return results


def suite_symfun(n_max, brute_cap=BRUTE_FORCE_CAP):
    results = []
    brute_max = min(n_max, 12, brute_cap)
    tables = {
        method: build_sym_table(n_max, method)
        for method in ("closed", "nested", "rec6", "rec7", "ratio")
    }
    tables["minors"] = build_sym_table(brute_max, "minors")
    six_way = [(n, k) for n in range(1, brute_max + 1) for k in range(1, n + 1)]

    def agree_all_six(nk):
        expected = tables["closed"][nk]
        return all(
            tables[m][nk] == expected for m in ("minors", "nested", "rec6", "rec7", "ratio")
        )

    results.append(
        _sweep(
            f"six-way agreement up to n={brute_max}",
            six_way,
            agree_all_six,
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    )

    five_way = [(n, k) for n in range(brute_max + 1, n_max + 1) for k in range(1, n + 1)]

    def agree_polynomial(nk):
        expected = tables["closed"][nk]
        return all(tables[m][nk] == expected for m in ("nested", "rec6", "rec7", "ratio"))

    results.append(
        _sweep(
            f"polynomial-method agreement up to n={n_max}",
            five_way,
            agree_polynomial,
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    )
    results.append(
        _sweep(
            "first symmetric function equals the trace n(n+1)/2",
            range(1, n_max + 1),
            lambda n: symfun_closed(n, 1) == n * (n + 1) // 2,
            lambda n: f"n={n}",
        )
    )
    results.append(
        _sweep(
            "top symmetric function equals the determinant 1",
            range(1, n_max + 1),
            lambda n: symfun_closed(n, n) == 1,
            lambda n: f"n={n}",
        )
    )
    all_nk = [(n, k) for n in range(1, n_max + 1) for k in range(n + 1)]
    results.append(
        _sweep(
            "binomial reflection C(n+k, n-k) = C(n+k, 2k)",
            all_nk,
            lambda nk: symfun_closed(*nk) == math.comb(nk[0] + nk[1], 2 * nk[1]),
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    )
    growth = [(n, k) for n in range(1, n_max) for k in range(1, n + 1)]
    results.append(
        _sweep(
            "strict growth in n for fixed k",
            growth,
            lambda nk: symfun_closed(nk[0], nk[1]) < symfun_closed(nk[0] + 1, nk[1]),
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    )
    return results


def suite_binomial(n_max):
    cases = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
    return [
        _sweep(
            f"difference-recurrence binomial identity up to n={n_max}",
            cases,
            lambda nk: binomial_identity_check(*nk),
            lambda nk: f"n={nk[0]}, k={nk[1]}",
        )
    ]


def suite_fibonacci(n_max):
    results = [
        _sweep(
            f"symmetric-function sum equals F(2n+1) up to n={n_max}",
            range(n_max + 1),
            fibonacci_identity,
            lambda n: f"n={n}",
        )
    ]
    results.append(
        _sweep(
            "Cassini identity on the Fibonacci generator",
            range(2, max(n_max, 3)),
            lambda i: fib(i - 1) * fib(i + 1) - fib(i) ** 2 == (-1) ** i,
            lambda i: f"i={i}",
        )
    )
    return results


def run_suites(names, n_max, seed=0):
    """Run the named suites (or all of them) and return the combined
    check results."""
    if "all" in names:
        names = SUITES
    results = []
    for name in names:
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

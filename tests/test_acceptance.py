"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured runtime. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.

Criteria 1-6 run the checks of `minmatrix.verification`, the same ones
behind `minmatrix verify`, at their own sizes or over their own case
lists, and require each to pass with no notes, so a check that had
nothing to check fails."""

import random
import time

import pytest

from minmatrix import (
    SimConfig,
    char_matrix,
    charpoly,
    covariance_deviation,
    det_bareiss,
    simulate_covariance,
    symfun_ratio,
    verification,
)


class _Criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number, label, budget_seconds=None):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {self.label} ... {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def _passed(result):
    assert result.passed, result.detail
    assert result.notes == []


def test_criterion_1_determinant_corollary():
    with _Criterion(1, "det(A_n)=1 for n<=200 and det(C_{n,k})=k for n<=100", 120):
        _passed(verification.check_min_minors(200))
        _passed(verification.check_c_minors(100))


def test_criterion_2_closed_forms_vs_oracle():
    # Every leading minor of four drawn lists per family at dimension 100,
    # among them 64-bit increments and a zero: at least 300 minors each.
    with _Criterion(2, "closed-form determinants match every leading minor of drawn lists", 10):
        delta, theta, scale_cases = verification.draw_increments(random.Random(20240817), 100)
        assert min(map(len, delta + theta)) >= 100
        assert any(abs(i) >= 2**63 for inc in delta for i in inc) and 0 in delta[3]
        assert any(abs(i) >= 2**63 for inc in theta for i in inc) and 0 in theta[3]
        _passed(verification.check_delta_dets(delta))
        _passed(verification.check_theta_dets(theta))
        _passed(verification.check_delta_scaling(scale_cases))


def test_criterion_3a_six_way_agreement_to_12():
    with _Criterion(3, "six-way symmetric-function agreement, n<=12", 60):
        _passed(verification.check_six_way(12))


def test_criterion_3b_five_way_agreement_to_60():
    with _Criterion(3, "five polynomial methods agree, 12<n<=60", 10):
        _passed(verification.check_polynomial_agreement(60))


def test_criterion_4_trace_and_top_identities():
    with _Criterion(4, "S_1 = trace(A_n) and S_n = det(A_n) = 1 for n<=60"):
        _passed(verification.check_trace(60))
        _passed(verification.check_min_minors(60))


def test_criterion_5_binomial_identity():
    with _Criterion(5, "difference-recurrence binomial identity, 0<=k<=n<=60"):
        _passed(verification.check_binomial_identity(60))


def test_criterion_6_fibonacci_identity():
    with _Criterion(6, "sum of C(n+k,2k) and det(I+A_n) equal F(2n+1) for n<=200", 5):
        _passed(verification.check_fibonacci_sum(200))
        _passed(verification.check_fibonacci_minors(200))


def test_criterion_7_characteristic_polynomial():
    with _Criterion(7, "Vieta charpoly matches det(lambda*I - A_n), n<=12"):
        for n in range(1, 13):
            p = charpoly(n)
            for lam in (-2, -1, 0, 1, 2):
                assert p(lam) == det_bareiss(char_matrix(n, lam))


def test_criterion_8_covariance_simulation():
    with _Criterion(8, "random-walk covariance within 0.2 of min matrix", 30):
        cfg = SimConfig(n=8, m=200000, sigma=1.0, seed=42)
        first = simulate_covariance(cfg)
        assert covariance_deviation(first) <= 0.2
        second = simulate_covariance(cfg)
        assert (first.matrix == second.matrix).all()


def test_criterion_9_ratio_recurrence_exactness():
    with _Criterion(9, "every ratio-recurrence division exact, n<=60"):
        for n in range(2, 61):
            for k in range(1, n):
                try:
                    symfun_ratio(n, k)
                except ArithmeticError as exc:  # pragma: no cover
                    pytest.fail(f"inexact division: {exc}")

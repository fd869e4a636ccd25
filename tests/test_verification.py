"""The sweeps of `minmatrix.verification`: det A_n and det C_{n,k} for
every n <= n_max, read off the leading minors of one elimination of
A_{n_max} and of two shifted matrices, F_{2n+1} off those of
-I - A_{n_max}, the symmetric-function checks, which stream each method's
columns, charpoly(n)(lam) off the leading minors of lam*I - A_{n_max}, and
the binomial identity's running sums."""

import random
import tracemalloc

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import minmatrix
from minmatrix import ExactMatrix, build_min_matrix, determinants, symmetric, verification

MIN_SWEEP = "every leading minor of the min matrix equals 1"
C_SWEEP = "every leading minor of the shifted matrix equals its shift"
FIB_SWEEP = "every leading minor of -I - A_n equals (-1)^n F(2n+1)"
CHARPOLY_SWEEP = "every leading minor of lam*I - A_n equals charpoly(n)(lam)"


def counterexample(result):
    assert not result.passed
    return result.detail.removeprefix("counterexample: ")


def binomial_identity_check(n, k):
    """The identity that check_binomial_identity sweeps, at one case and by
    a fresh sum of its n - k + 2 binomials:

    C(n+k, n-k) = C(n+k-1, n-k-1) + sum_{i=1}^{n-k+1} C(n+k-1-i, n-k+1-i)

    It looks up symmetric.binomial when called, so that a test's patch of
    it reaches here."""
    binomial = symmetric.binomial
    left = binomial(n + k, n - k)
    terms = (binomial(n + k - 1 - i, n - k + 1 - i) for i in range(1, n - k + 2))
    return left == binomial(n + k - 1, n - k - 1) + sum(terms)


@pytest.mark.parametrize("n_max", [*range(41), 60])
def test_sweeps_and_per_matrix_checks_pass(n_max):
    # Each check and whether it has no case at this n_max.
    checks = [
        (verification.check_min_minors(n_max), n_max < 1),
        (verification.check_c_minors(n_max), n_max < 3),
        (verification.check_fibonacci_minors(n_max), n_max < 1),
    ]
    for result, vacuous in checks:
        assert result.passed, (result.name, result.detail)
        assert result.notes == (["vacuous: no cases"] if vacuous else [])


@pytest.mark.parametrize(
    "n_max, vacuous",
    [
        (0, [MIN_SWEEP, C_SWEEP, "dropped-term closed form matches elimination (theta family)"]),
        (1, [C_SWEEP, "dropped-term closed form matches elimination (theta family)"]),
        (2, [C_SWEEP]),
        (3, []),
    ],
)
def test_vacuous_notes_at_small_n_max(n_max, vacuous):
    results = verification.suite_dets(n_max)
    assert all(r.passed for r in results)
    assert [r.name for r in results if r.notes] == vacuous
    assert all(r.notes == ["vacuous: no cases"] for r in results if r.notes)


def _corrupt_pivot(monkeypatch, corner, step):
    """Make the elimination of a matrix whose top-left entry is ``corner``
    read the pivot of step + 1 off by one, as a faulty update at ``step``
    would leave it: the leading (step + 2)-minor and every later one come
    out wrong. The elimination runs on the differenced form D, whose
    top-left entry is the matrix's own; A_n's and C_{n,k}'s D is diagonal,
    and its entry (step + 1, step + 1), the first of its row, is given one
    more. Returns the count of faults put in."""
    eliminate = determinants._eliminate
    faults = []

    def corrupted(rows, starts, *args):
        if rows[0][:1] == [corner] and starts[step + 1 : step + 2] == [step + 1]:
            rows[step + 1][0] += 1
            faults.append(step)
        return eliminate(rows, starts, *args)

    monkeypatch.setattr(determinants, "_eliminate", corrupted)
    return faults


def _c_sweep_finds(monkeypatch, n_max, corner, step, expected):
    faults = _corrupt_pivot(monkeypatch, corner, step)
    assert counterexample(verification.check_c_minors(n_max)) == expected
    assert faults == [step]
    assert verification.check_min_minors(n_max).passed
    results = {r.name: r for r in verification.run_suites("dets", n_max)}
    assert results[C_SWEEP].detail == f"counterexample: {expected}"
    assert results[MIN_SWEEP].passed


def _min_sweep_finds(monkeypatch, n_max, step, expected):
    faults = _corrupt_pivot(monkeypatch, 1, step)
    assert counterexample(verification.check_min_minors(n_max)) == expected
    assert faults == [step]
    assert verification.check_c_minors(n_max).passed


class TestCorruptedUpdate:
    # Step s's update writes the leading (s + 2)-minor: det A_{s+2}, or
    # det C_{k+s+1,k} for the elimination of C_{n_max,k}, k = 2 or 3, the
    # two that check_c_minors runs.
    def test_eliminate_route_c(self, monkeypatch):
        _c_sweep_finds(monkeypatch, 16, corner=3, step=3, expected="n=7, k=3")

    def test_eliminate_route_min(self, monkeypatch):
        _min_sweep_finds(monkeypatch, 16, step=6, expected="n=8")

    def test_eliminate_route_c_at_n_max_40(self, monkeypatch):
        _c_sweep_finds(monkeypatch, 40, corner=2, step=20, expected="n=23, k=2")

    def test_eliminate_route_min_at_n_max_40(self, monkeypatch):
        _min_sweep_finds(monkeypatch, 40, step=30, expected="n=32")


def _counted(monkeypatch, name):
    """Patch verification's ``name`` to record the arguments of each call."""
    calls = []
    real = getattr(verification, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verification, name, counted)
    return calls


class TestDerivedWork:
    def test_wrong_closed_form_at_a_derived_shift(self, monkeypatch):
        # k = 7 is read off the records of k = 2 and 3, and still compared
        # with det_c_matrix case by case.
        det_c_matrix = verification.det_c_matrix

        def wrong(n, k):
            return det_c_matrix(n, k) + ((n, k) == (12, 7))

        monkeypatch.setattr(verification, "det_c_matrix", wrong)
        assert counterexample(verification.check_c_minors(40)) == "n=12, k=7"

    def test_two_eliminations_and_one_binomial_per_case(self, monkeypatch):
        eliminations = _counted(monkeypatch, "_det_minors")
        assert verification.check_c_minors(40).passed
        assert [matrix.entry(1, 1) for (matrix,) in eliminations] == [2, 3]
        binomials = _counted(monkeypatch, "binomial")
        assert verification.check_binomial_identity(40).passed
        # One per case, 861 of them, and two per row, 41 rows.
        assert len(binomials) == 861 + 2 * 41


class TestShortRecord:
    """A record cut short by a row swap fails the sweep at the first minor
    it lacks, even where the determinant is right, unless that minor is
    expected to be 0."""

    @pytest.mark.parametrize("kept", [0, 3, 13])
    def test_swap_cuts_the_record(self, monkeypatch, kept):
        # What a row swap at step `kept` leaves: the pivots before it.
        det_minors = verification._det_minors

        def cut(matrix):
            det, minors = det_minors(matrix)
            return det, minors[:kept] if matrix.to_lists()[0][0] == 3 else minors

        monkeypatch.setattr(verification, "_det_minors", cut)
        # The first case of C_{n,3} is n = 4, the leading 2-minor.
        assert counterexample(verification.check_c_minors(20)) == f"n={3 + max(kept, 1)}, k=3"
        monkeypatch.setattr(verification, "_det_minors", lambda m: (1, det_minors(m)[1][:kept]))
        assert counterexample(verification.check_min_minors(20)) == f"n={kept + 1}"

    def test_real_swap_cuts_the_record(self, monkeypatch):
        # A_5 with its corner entry set to 0: step 0 swaps row 1 in, so the
        # record holds no minor.
        rows = build_min_matrix(5).to_lists()
        rows[0][0] = 0
        matrix = ExactMatrix(rows)
        det, minors = determinants._det_minors(matrix)
        assert det == -1
        assert minors == []
        monkeypatch.setattr(verification, "build_min_matrix", lambda n: matrix)
        assert counterexample(verification.check_min_minors(5)) == "n=1"

    def test_the_record_says_nothing_past_its_first_unread_minor(self):
        # Leading minors 1, 0 and -1: step 1 swaps rows, so the record holds
        # the first alone. Its first unread minor matches only a 0, and the
        # cases end there: the -1 past it is neither matched nor missed.
        matrix = ExactMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        det, minors = determinants._det_minors(matrix)
        assert (det, minors) == (-1, [1])
        assert list(verification._minors(minors, [1, 0, -1])) == [(True, 1), (True, 2)]
        assert list(verification._minors(minors, [1, 5, -1])) == [(True, 1), (False, 2)]


class TestFibonacciMinors:
    @pytest.mark.parametrize("n", [1, 2, 17, 40])
    def test_one_wrong_minor_is_the_counterexample(self, monkeypatch, n):
        # The leading n-minor of -I - A_40, (-1)^n F(2n+1), off by one.
        det_minors = verification._det_minors

        def wrong(matrix):
            det, minors = det_minors(matrix)
            minors[n - 1] += 1
            return det, minors

        monkeypatch.setattr(verification, "_det_minors", wrong)
        assert counterexample(verification.check_fibonacci_minors(40)) == f"n={n}"
        results = {r.name: r for r in verification.run_suites("fibonacci", 40)}
        assert results[FIB_SWEEP].detail == f"counterexample: n={n}"


class TestCharpolyMinors:
    @pytest.mark.parametrize("lam, n", [(2, 1), (2, 40), (3, 1), (3, 17)])
    def test_one_wrong_minor_is_the_counterexample(self, monkeypatch, lam, n):
        # The leading n-minor of lam*I - A_40, charpoly(n)(lam), off by one.
        det_minors = verification._det_minors

        def wrong(matrix):
            det, minors = det_minors(matrix)
            if matrix.entry(1, 1) == lam - 1:
                minors[n - 1] += 1
            return det, minors

        monkeypatch.setattr(verification, "_det_minors", wrong)
        assert counterexample(verification.check_charpoly_minors(40)) == f"n={n}, lam={lam}"
        results = {r.name: r for r in verification.run_suites("symfun", 40)}
        assert results[CHARPOLY_SWEEP].detail == f"counterexample: n={n}, lam={lam}"

    def test_wrong_charpoly_is_the_counterexample(self, monkeypatch):
        # The constant term of charpoly(30), (-1)^30 C(60, 60) = 1, off by
        # one: charpoly(30)(2) is the first value that misses its minor.
        charpoly = verification.charpoly

        def wrong(n):
            poly = charpoly(n)
            if n == 30:
                poly = symmetric.CharPoly(n, (poly.coeffs[0] + 1, *poly.coeffs[1:]))
            return poly

        monkeypatch.setattr(verification, "charpoly", wrong)
        assert counterexample(verification.check_charpoly_minors(40)) == "n=30, lam=2"


def _corrupt_column(monkeypatch, method, n, k, by=1):
    """Make ``method``'s column source in verification off by ``by`` at
    S(n, k)."""
    columns = verification._columns

    def corrupted(n_max, name):
        for j, column in enumerate(columns(n_max, name)):
            column = list(column)
            if (name, j) == (method, k) and n <= n_max:
                column[n - k] += by
            yield column

    monkeypatch.setattr(verification, "_columns", corrupted)


class TestSymfunSweeps:
    @pytest.mark.parametrize("n_max", [*range(15), 40])
    def test_pass_and_vacuous_notes(self, n_max):
        # Each check and whether it has no case at this n_max.
        checks = [
            (verification.check_six_way(n_max), n_max < 1),
            (verification.check_polynomial_agreement(n_max), n_max < 13),
            (verification.check_trace(n_max), n_max < 1),
            (verification.check_growth(n_max), n_max < 2),
            (verification.check_charpoly_minors(n_max), n_max < 1),
        ]
        for result, vacuous in checks:
            assert result.passed, (result.name, result.detail)
            assert result.notes == (["vacuous: no cases"] if vacuous else [])
        assert verification.suite_symfun(n_max) == [result for result, _ in checks]

    @pytest.mark.parametrize("method", symmetric.METHODS)
    def test_agreement_fails_at_a_wrong_value(self, monkeypatch, method):
        # Six-way agreement reads n <= 12 and the polynomial methods 12 < n:
        # each is made wrong at its last or its first case.
        n, k = (12, 12) if method == "minors" else (13, 1)
        _corrupt_column(monkeypatch, method, n, k)
        six_way = verification.check_six_way(20)
        polynomial = verification.check_polynomial_agreement(40)
        if method == "minors":
            assert counterexample(six_way) == "n=12, k=12"
            assert polynomial.passed
        else:
            assert six_way.passed
            assert counterexample(polynomial) == "n=13, k=1"

    @pytest.mark.parametrize("method", verification.POLYNOMIAL_METHODS)
    def test_trace_fails_at_a_wrong_column(self, monkeypatch, method):
        _corrupt_column(monkeypatch, method, 17, 1)
        assert counterexample(verification.check_trace(30)) == "n=17"

    def test_trace_reads_the_matrix(self, monkeypatch):
        # The diagonal of one A_30 gives every trace: one wrong entry makes
        # every trace from its row on wrong.
        built = []

        def wrong_diagonal(n):
            built.append(n)
            rows = build_min_matrix(n).to_lists()
            rows[20][20] += 1
            return ExactMatrix(rows)

        monkeypatch.setattr(verification, "build_min_matrix", wrong_diagonal)
        assert counterexample(verification.check_trace(30)) == "n=21"
        assert built == [30]

    def test_growth_reads_the_rec7_fill(self, monkeypatch):
        # S(10, 4) = C(14, 6) = 3003 lifted past S(11, 4) = C(15, 7) = 6435.
        _corrupt_column(monkeypatch, "rec7", 10, 4, by=3432)
        assert counterexample(verification.check_growth(20)) == "n=10, k=4"

    def test_peak_memory_holds_columns_not_tables(self):
        # Only the current column of each method is live: O(n_max**2) bits
        # for the agreement, where five tables of the triangle hold
        # O(n_max**3) bits (about 10 MB at n_max = 240).
        tracemalloc.start()
        try:
            results = verification.suite_symfun(240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(result.passed for result in results)
        assert peak < 2.5e6, peak


class TestSizeLimit:
    @pytest.fixture
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix or a column was built")

        for name in ("build_min_matrix", "build_c_matrix", "build_delta_matrix",
                     "build_theta_matrix", "_columns"):
            monkeypatch.setattr(verification, name, refuse)

    @pytest.mark.parametrize("n_max", [10**20, 4097, minmatrix._N_MAX_LIMIT + 1])
    @pytest.mark.parametrize("suite", ["dets", "symfun", "binomial", "fibonacci", "all"])
    def test_refused_before_building(self, no_builds, suite, n_max):
        with pytest.raises(ValueError, match=f"^--n-max must be <= 600, got {n_max}: "):
            verification.run_suites(suite, n_max)

    def test_limit_itself_is_accepted(self, monkeypatch):
        for name in ("suite_dets", "suite_symfun", "suite_binomial", "suite_fibonacci"):
            monkeypatch.setattr(verification, name, lambda *args, **kwargs: [])
        assert verification.run_suites("all", minmatrix._N_MAX_LIMIT) == []


DELTA_DETS = "product closed form matches elimination (delta family)"
THETA_DETS = "dropped-term closed form matches elimination (theta family)"
SCALING = "scaling the first increment scales the determinant"


def _wrong_minor(monkeypatch, m, only=None):
    """Make every elimination in verification whose record reaches the
    leading m-minor read that minor off by one; with ``only``, just the
    eliminations of matrices whose top-left entry is ``only``."""
    det_minors = determinants._det_minors

    def wrong(matrix):
        det, minors = det_minors(matrix)
        if len(minors) >= m and only in (None, matrix.entry(1, 1)):
            minors[m - 1] += 1
        return det, minors

    monkeypatch.setattr(verification, "_det_minors", wrong)


def _cut_record(monkeypatch, kept, only=None):
    """Make every elimination in verification keep only its first ``kept``
    leading minors, as a row swap at step ``kept`` would; with ``only``,
    just the eliminations of matrices whose top-left entry is ``only``."""
    det_minors = determinants._det_minors

    def cut(matrix):
        det, minors = det_minors(matrix)
        return det, minors[:kept] if only in (None, matrix.entry(1, 1)) else minors

    monkeypatch.setattr(verification, "_det_minors", cut)


class TestDrawnFamilies:
    """The delta, theta and scaling checks read every prefix of a drawn
    list off the leading minors of one elimination."""

    @pytest.mark.parametrize("m", [1, 2, 9, 16])
    def test_one_wrong_minor_names_its_prefix(self, monkeypatch, m):
        # The first drawn list of each family is the small positive one,
        # whose record is complete. The scaling check sees the wrong minor
        # only where t is neither 0 nor 1: at seed 0, first in the 64-bit
        # list.
        delta, theta, scale = verification.draw_increments(random.Random(0), 16)
        inc, t = next((inc, t) for inc, t in scale if t not in (0, 1))
        assert inc == delta[2]
        _wrong_minor(monkeypatch, m)
        expected = {
            DELTA_DETS: f"inc={delta[0][:m]}",
            THETA_DETS: f"inc={theta[0][:m + 1]}",
            SCALING: f"inc={inc[:m]}, t={t}",
        }
        assert counterexample(verification.check_delta_dets(delta)) == expected[DELTA_DETS]
        assert counterexample(verification.check_theta_dets(theta)) == expected[THETA_DETS]
        assert counterexample(verification.check_delta_scaling(scale)) == expected[SCALING]
        results = {r.name: r for r in verification.run_suites("dets", 16)}
        for name, label in expected.items():
            assert results[name].detail == f"counterexample: {label}"

    def test_scaling_compares_the_two_records(self, monkeypatch):
        # A wrong leading 2-minor of the scaled matrix alone (top-left entry
        # 3 * 2 = 6): [3, 1, 4] at t = 2 fails at its prefix [3, 1]; at
        # t = 1 the scaled matrix is the unscaled one, wrong on both sides.
        _wrong_minor(monkeypatch, 2, only=6)
        assert counterexample(verification.check_delta_scaling([([5], 7), ([3, 1, 4], 2)])) == "inc=[3, 1], t=2"
        assert verification.check_delta_scaling([([6, 1, 4], 1)]).passed

    @pytest.mark.parametrize("at", [0, 1, 2, 5])
    def test_a_zero_increment_passes(self, at):
        # The record stops at the zero leading minor: delta at the zero, and
        # theta at it unless it is i_2, which drops out.
        inc = [3, -2, 4, 1, -1, 2, 5]
        inc[at] = 0
        det, minors = determinants._det_minors(verification.build_delta_matrix(inc))
        assert (det, len(minors)) == (0, at)
        for result in (
            verification.check_delta_dets([inc]),
            verification.check_theta_dets([inc]),
            verification.check_delta_scaling([(inc, t) for t in range(-5, 6)]),
        ):
            assert result.passed and result.notes == [], result

    def test_scaling_by_zero_passes(self):
        # t = 0 makes the first leading minor 0, where the scaled record
        # stops, whatever the list; at dimension 1 it records that 0.
        cases = [([3, 1, 4], 0), ([5], 0), ([0, 2], 0), ([2, 0, 1], 0)]
        assert verification.check_delta_scaling(cases).passed

    @pytest.mark.parametrize("kept", [0, 2, 4])
    def test_a_record_cut_short_fails_where_the_minor_is_nonzero(self, monkeypatch, kept):
        # The first unread minor passes only as a zero: a record cut before
        # the zero minor, the 7th of delta and the 6th of theta, fails at the
        # first minor it lacks.
        inc = [3, -2, 4, 1, -1, 2, 0, 5]
        _cut_record(monkeypatch, kept)
        assert counterexample(verification.check_delta_dets([inc])) == f"inc={inc[:kept + 1]}"
        assert counterexample(verification.check_theta_dets([inc])) == f"inc={inc[:kept + 2]}"
        # The scaling check compares two records of the elimination: it
        # fails where one is cut and the other is not, the scaled one
        # (top-left entry 6) or the unscaled one (3), whose first unread
        # minor it then takes as 0.
        for top_left in (6, 3):
            _cut_record(monkeypatch, kept, only=top_left)
            assert counterexample(verification.check_delta_scaling([(inc, 2)])) == f"inc={inc[:kept + 1]}, t=2"

    def test_a_wrong_determinant_names_the_whole_list(self, monkeypatch):
        # Every leading minor right, the determinant off by one: the case
        # after the list's prefixes fails, the zero list's too.
        det_minors = determinants._det_minors

        def wrong(matrix):
            det, minors = det_minors(matrix)
            return det + 1, minors

        monkeypatch.setattr(verification, "_det_minors", wrong)
        inc = [3, -2, 4, 0, 5]
        assert counterexample(verification.check_delta_dets([[2, 2], inc])) == "inc=[2, 2]"
        assert counterexample(verification.check_theta_dets([inc])) == f"inc={inc}"
        assert counterexample(verification.check_delta_scaling([(inc, 3)])) == f"inc={inc}, t=3"

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 16, 600])
    def test_draws(self, n_max):
        delta, theta, scale = verification.draw_increments(random.Random(n_max), n_max)
        assert [len(inc) for inc in delta] == [max(n_max, 1)] * 4
        assert [len(inc) for inc in theta] == ([n_max + 1] * 4 if n_max >= 2 else [])
        for lists in (delta, theta) if theta else (delta,):
            small, mixed, wide, zero = lists
            assert all(1 <= i <= 9 for i in small)
            assert all(1 <= abs(i) <= 4 for i in mixed)
            assert all(2**63 <= abs(i) < 2**64 for i in wide)
            assert zero.count(0) == 1 and all(abs(i) <= 4 for i in zero)
        assert [inc for inc, _ in scale] == delta
        assert all(-5 <= t <= 5 for _, t in scale)


class TestCounterexampleText:
    """Each check names its first failing case: the words of its detail."""

    def test_delta_and_theta_name_the_increments(self, monkeypatch):
        # An elimination whose leading 3-minor is off by one: the first list
        # whose record reaches it is named by its prefix of three increments,
        # four for theta. [-4, 0, 3] ends its delta record at the zero
        # minor; the theta list [-4, 0, 3, 2] has none, its i_2 drops out.
        _wrong_minor(monkeypatch, 3)
        delta = [[2], [-4, 1], [-4, 0, 3], [-4, 1, 3, 5], [1, 1, 1]]
        theta = [[5, 1, 2], [1, -2, 3, 9, 4], [2, 2, 2, 2]]
        assert counterexample(verification.check_delta_dets(delta)) == "inc=[-4, 1, 3]"
        assert counterexample(verification.check_theta_dets(theta)) == "inc=[1, -2, 3, 9]"
        _wrong_minor(monkeypatch, 2)
        assert counterexample(verification.check_theta_dets([[-4, 0, 3, 2]])) == "inc=[-4, 0, 3]"

    def test_fibonacci_sum_names_n(self, monkeypatch):
        monkeypatch.setattr(verification, "fibonacci_identity", lambda n: n != 7)
        assert counterexample(verification.check_fibonacci_sum(16)) == "n=7"
        results = {r.name: r for r in verification.run_suites("fibonacci", 16)}
        name = "symmetric-function sum equals F(2n+1) up to n=16"
        assert results[name].detail == "counterexample: n=7"

    def test_cassini_names_i(self, monkeypatch):
        # F_9 off by one: i = 8 is the first case to read it.
        fib = verification.fib
        monkeypatch.setattr(verification, "fib", lambda i: fib(i) + (i == 9))
        assert counterexample(verification.check_cassini(16)) == "i=8"


class TestBinomialSweep:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_same_first_counterexample_as_each_case_alone(self, n_max, data):
        # binomial is off by one at one argument: one that a case reads,
        # as its left side, its C(n+k-1, n-k-1) or a term of its sum, or
        # one that no case reads. The running sums and a loop of
        # binomial_identity_check over the cases n by n agree on the first
        # counterexample.
        cases = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
        n, k = data.draw(st.sampled_from(cases))
        which = data.draw(st.sampled_from(["left", "middle", "term", "unread"]))
        if which == "left":
            wrong = (n + k, n - k)
        elif which == "middle":
            wrong = (n + k - 1, n - k - 1)
        elif which == "term":
            i = data.draw(st.integers(1, n - k + 1))
            wrong = (n + k - 1 - i, n - k + 1 - i)
        else:
            wrong = (2 * n_max + 1, 0)
        binomial = symmetric.binomial

        def off_by_one(a, b):
            return binomial(a, b) + ((a, b) == wrong)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symmetric, "binomial", off_by_one)
            patch.setattr(verification, "binomial", off_by_one)
            result = verification.check_binomial_identity(n_max)
            first = next((case for case in cases if not binomial_identity_check(*case)), None)
        event(f"{which}, {'fails' if first else 'passes'}")
        if first is None:
            assert result.passed
        else:
            assert counterexample(result) == f"n={first[0]}, k={first[1]}"

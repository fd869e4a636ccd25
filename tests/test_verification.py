"""The sweeps of `minmatrix.verification`: det A_n and det C_{n,k} for
every n <= n_max, read off the leading minors of one elimination per
family, check_top, which reads the same record, and the binomial
identity's running sums."""

import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from minmatrix import ExactMatrix, build_c_matrix, build_min_matrix, determinants, symmetric, verification
from minmatrix.determinants import _INT64_MIN_DIM

MIN_SWEEP = "every leading minor of the min matrix equals 1"
C_SWEEP = "every leading minor of the shifted matrix equals its shift"


def counterexample(result):
    assert not result.passed
    return result.detail.removeprefix("counterexample: ")


@pytest.mark.parametrize("n_max", [*range(41), 60])
def test_sweeps_and_per_matrix_checks_pass(n_max):
    # Each check and whether it has no case at this n_max.
    checks = [
        (verification.check_min_minors(n_max), n_max < 1),
        (verification.check_c_minors(n_max), n_max < 3),
        (verification.check_min_dets(range(1, n_max + 1)), n_max < 1),
        (verification.check_c_dets([(n, k) for n in range(3, n_max + 1) for k in range(2, n)]), n_max < 3),
    ]
    for result, vacuous in checks:
        assert result.passed, (result.name, result.detail)
        assert result.notes == (["vacuous: no cases"] if vacuous else [])


@pytest.mark.parametrize(
    "n_max, vacuous",
    [
        (0, ["min matrix determinant equals 1", "shifted matrix determinant equals its shift",
             MIN_SWEEP, C_SWEEP, "dropped-term closed form matches elimination (theta family)"]),
        (1, ["shifted matrix determinant equals its shift", C_SWEEP,
             "dropped-term closed form matches elimination (theta family)"]),
        (2, ["shifted matrix determinant equals its shift", C_SWEEP]),
        (3, []),
    ],
)
def test_vacuous_notes_at_small_n_max(n_max, vacuous):
    results = verification.suite_dets(n_max)
    assert all(r.passed for r in results)
    assert [r.name for r in results if r.notes] == vacuous
    assert all(r.notes == ["vacuous: no cases"] for r in results if r.notes)


def _corrupt_eliminate(monkeypatch, corner, step):
    """Make _eliminate's update at ``step`` of a matrix whose top-left entry
    is ``corner`` leave its next pivot off by one. The Python-int loop
    assigns row step + 1 once at each step up to ``step``, so the fault goes
    into the (step + 1)-th assignment of that row. Returns the count of
    faults put in."""
    eliminate = determinants._eliminate
    faults = []

    class Rows(list):
        def __init__(self, rows):
            super().__init__(rows)
            self.assigned = 0

        def __setitem__(self, r, row):
            if r == step + 1:
                self.assigned += 1
                if self.assigned == step + 1:
                    row[0] += 1
                    faults.append(step)
            super().__setitem__(r, row)

    def corrupted(rows, *args):
        return eliminate(Rows(rows) if rows[0][0] == corner else rows, *args)

    monkeypatch.setattr(determinants, "_eliminate", corrupted)
    return faults


def _corrupt_int64(monkeypatch, corner, step):
    """Make the int64 phase's update at ``step`` of a matrix whose top-left
    entry is ``corner`` leave its next pivot off by one. Each step applies
    its update by one in-place subtraction on a view of the active block,
    whose entry (0, 0) is the next pivot. Returns the count of faults."""
    det_int64 = determinants._det_int64
    faults = []
    done = []

    class Block(np.ndarray):
        def __isub__(self, other):
            result = super().__isub__(other)
            done.append(None)
            if len(done) == step + 1:
                self[0, 0] += 1
                faults.append(step)
            return result

    def corrupted(a, *args):
        if a[0, 0] != corner:
            return det_int64(a, *args)
        done.clear()
        return det_int64(a.view(Block), *args)

    monkeypatch.setattr(determinants, "_det_int64", corrupted)
    return faults


class TestCorruptedUpdate:
    # Step s's update writes the leading (s + 2)-minor: det A_{s+2}, or
    # det C_{k+s+1,k} for the elimination of C_{n_max,k}.
    def test_eliminate_route_c(self, monkeypatch):
        faults = _corrupt_eliminate(monkeypatch, corner=5, step=3)
        assert counterexample(verification.check_c_minors(16)) == "n=9, k=5"
        assert faults == [3]
        assert verification.check_min_minors(16).passed
        results = {r.name: r for r in verification.run_suites("dets", 16)}
        assert results[C_SWEEP].detail == "counterexample: n=9, k=5"
        assert results[MIN_SWEEP].passed

    def test_eliminate_route_min(self, monkeypatch):
        faults = _corrupt_eliminate(monkeypatch, corner=1, step=6)
        assert counterexample(verification.check_min_minors(16)) == "n=8"
        assert faults == [6]
        assert verification.check_c_minors(16).passed

    def test_int64_route_c(self, monkeypatch):
        # C_{40,7} has dimension 34, so it takes the int64 phase.
        assert build_c_matrix(40, 7).dim >= _INT64_MIN_DIM
        faults = _corrupt_int64(monkeypatch, corner=7, step=20)
        assert counterexample(verification.check_c_minors(40)) == "n=28, k=7"
        assert faults == [20]
        assert verification.check_min_minors(40).passed

    def test_int64_route_min(self, monkeypatch):
        faults = _corrupt_int64(monkeypatch, corner=1, step=30)
        assert counterexample(verification.check_min_minors(40)) == "n=32"
        assert faults == [30]
        assert verification.check_c_minors(40).passed


class TestShortRecord:
    """A record cut short by a row swap or a hand-off fails the sweep at
    the first minor it lacks, even where the determinant is right."""

    @pytest.mark.parametrize("kept", [0, 3, 13])
    def test_swap_cuts_the_record(self, monkeypatch, kept):
        # What a row swap at step `kept` leaves: the pivots before it.
        det_minors = verification._det_minors

        def cut(matrix):
            det, minors = det_minors(matrix)
            return det, minors[:kept] if matrix.to_lists()[0][0] == 5 else minors

        monkeypatch.setattr(verification, "_det_minors", cut)
        # The first case of C_{n,5} is n = 6, the leading 2-minor.
        assert counterexample(verification.check_c_minors(20)) == f"n={5 + max(kept, 1)}, k=5"
        monkeypatch.setattr(verification, "_det_minors", lambda m: (1, det_minors(m)[1][:kept]))
        assert counterexample(verification.check_min_minors(20)) == f"n={kept + 1}"

    def test_real_swap_cuts_the_record(self, monkeypatch):
        # A_5 with its corner entry set to 0: step 0 swaps row 1 in, so the
        # record holds no minor.
        rows = build_min_matrix(5).to_lists()
        rows[0][0] = 0
        matrix = ExactMatrix(rows)
        det, minors = determinants._det_minors(matrix)
        assert det == determinants._eliminate(matrix.to_lists())
        assert minors == []
        monkeypatch.setattr(verification, "build_min_matrix", lambda n: matrix)
        assert counterexample(verification.check_min_minors(5)) == "n=1"

    def test_hand_off_cuts_the_record(self, monkeypatch):
        # With an overflow limit of 32, step 0's exact certificate, 41 on
        # A_40 and 84 on C_{40,2}, fails: the int64 phase hands both to the
        # multi-modular route at once. The determinants stay right; of the
        # minors, only the first pivot is read.
        monkeypatch.setattr(determinants, "_INT64_LIMIT", 32)
        assert determinants.det_bareiss(build_min_matrix(40)) == 1
        assert determinants.det_bareiss(build_c_matrix(40, 2)) == 2
        assert determinants._det_minors(build_min_matrix(40)) == (1, [1])
        assert counterexample(verification.check_min_minors(40)) == "n=2"
        assert counterexample(verification.check_c_minors(40)) == "n=3, k=2"


class TestCheckTop:
    def test_passes(self):
        result = verification.check_top(range(1, 61))
        assert (result.passed, result.notes) == (True, [])
        assert verification.check_top([]).notes == ["vacuous: no cases"]

    @pytest.mark.parametrize(
        "corrupt, n_max, step",
        [(_corrupt_eliminate, 12, 4), (_corrupt_int64, 60, 40)],
        ids=["eliminate", "int64"],
    )
    def test_wrong_pivot_fails(self, monkeypatch, corrupt, n_max, step):
        faults = corrupt(monkeypatch, corner=1, step=step)
        assert counterexample(verification.check_top(range(1, n_max + 1))) == f"n={step + 2}"
        assert faults == [step]

    def test_reads_one_elimination(self, monkeypatch):
        calls = []
        det_minors = verification._det_minors

        def spy(matrix):
            calls.append(matrix.dim)
            return det_minors(matrix)

        monkeypatch.setattr(verification, "_det_minors", spy)
        assert verification.check_top(range(1, 31)).passed
        assert calls == [30]


class TestSizeLimit:
    @pytest.fixture
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix or table was built")

        for name in ("build_min_matrix", "build_c_matrix", "build_delta_matrix",
                     "build_theta_matrix", "build_sym_table"):
            monkeypatch.setattr(verification, name, refuse)

    @pytest.mark.parametrize("n_max", [10**20, verification._N_MAX_LIMIT + 1])
    @pytest.mark.parametrize("suite", ["dets", "symfun", "binomial", "fibonacci", "all"])
    def test_refused_before_building(self, no_builds, suite, n_max):
        with pytest.raises(ValueError, match=f"^--n-max must be <= 4096, got {n_max}: "):
            verification.run_suites(suite, n_max)

    def test_limit_itself_is_accepted(self, monkeypatch):
        for name in ("suite_dets", "suite_symfun", "suite_binomial", "suite_fibonacci"):
            monkeypatch.setattr(verification, name, lambda *args, **kwargs: [])
        assert verification.run_suites("all", verification._N_MAX_LIMIT) == []


class TestBinomialSweep:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40), st.sampled_from(["suite", "shuffled"]), st.data())
    def test_same_first_counterexample_as_each_case_alone(self, n_max, order, data):
        # binomial is off by one at one argument: one that a case reads,
        # as its left side, its C(n+k-1, n-k-1) or a term of its sum, or
        # one that no case reads. The running sums and a loop of
        # binomial_identity_check, one case at a time, agree on the first
        # counterexample, also where a shuffled case list goes back in n.
        cases = [(n, k) for n in range(n_max + 1) for k in range(n + 1)]
        if order == "shuffled":
            random.Random(n_max).shuffle(cases)
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
            result = verification.check_binomial_identity(cases, n_max)
            first = next((case for case in cases if not symmetric.binomial_identity_check(*case)), None)
        event(f"{which}, {'fails' if first else 'passes'}")
        if first is None:
            assert result.passed
        else:
            assert counterexample(result) == f"n={first[0]}, k={first[1]}"

    def test_invalid_case_raises(self):
        with pytest.raises(ValueError, match="require 0 <= k <= n"):
            verification.check_binomial_identity([(2, 1), (1, 2)], 2)

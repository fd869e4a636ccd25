import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import accumulate
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from minmatrix import (
    ExactMatrix,
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
    delta_det_closed,
    det_bareiss,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from minmatrix import determinants
from minmatrix.determinants import _INT64_MIN_DIM, _eliminate
from minmatrix.symmetric import char_matrix, charpoly


def det_cofactor(rows):
    """Laplace expansion along the first row; independent slow oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


class TestBareiss:
    def test_one_by_one(self):
        assert det_bareiss(ExactMatrix([[7]])) == 7

    def test_min_matrix(self):
        assert det_bareiss(build_min_matrix(3)) == 1

    def test_hand_cofactor_value(self):
        assert det_bareiss(ExactMatrix([[2, 2, 2], [2, 5, 5], [2, 5, 9]])) == 24

    def test_singular(self):
        assert det_bareiss(ExactMatrix([[1, 2], [2, 4]])) == 0

    def test_zero_pivot_needs_row_swap(self):
        assert det_bareiss(ExactMatrix([[0, 1], [1, 0]])) == -1
        assert det_bareiss(ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1

    def test_matches_cofactor_oracle_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(ExactMatrix(rows)) == det_cofactor(rows)


class TestClosedForms:
    def test_delta_all_ones(self):
        assert delta_det_closed([1, 1, 1, 1]) == 1

    def test_delta_product(self):
        assert delta_det_closed([2, 3, 4]) == 24
        assert det_bareiss(build_delta_matrix([2, 3, 4])) == 24

    @pytest.mark.parametrize("n,k", [(5, 3), (8, 2), (10, 9)])
    def test_delta_shift_pattern(self, n, k):
        assert delta_det_closed([k] + [1] * (n - k)) == k

    def test_theta_base_case(self):
        assert theta_det_closed([2, 3, 5]) == 10
        assert det_bareiss(build_theta_matrix([2, 3, 5])) == 10

    def test_theta_second_increment_drops_out(self):
        assert theta_det_closed([1, 7, 1, 1]) == 1

    def test_theta_vs_oracle(self):
        assert theta_det_closed([3, 1, 2, 5]) == 30
        assert det_bareiss(build_theta_matrix([3, 1, 2, 5])) == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delta_det_closed([])
        with pytest.raises(ValueError):
            theta_det_closed([1, 2])


class TestCorollaryValues:
    def test_min_matrix_constant(self):
        assert det_min_matrix(7) == 1

    def test_c_matrix_constant(self):
        assert det_c_matrix(9, 4) == 4

    def test_c_matrix_against_oracle(self):
        assert det_c_matrix(3, 2) == 2 == det_bareiss(build_c_matrix(3, 2))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            det_min_matrix(0)
        with pytest.raises(ValueError):
            det_c_matrix(4, 4)


class TestOracleEquivalence:
    @pytest.mark.parametrize("low,high", [(1, 9), (-4, 4)])
    def test_delta_closed_vs_bareiss_random(self, low, high):
        rng = random.Random(2024)
        for _ in range(200):
            inc = [rng.randint(low, high) for _ in range(rng.randint(1, 12))]
            assert delta_det_closed(inc) == det_bareiss(build_delta_matrix(inc))

    @pytest.mark.parametrize("low,high", [(1, 9), (-4, 4)])
    def test_theta_closed_vs_bareiss_random(self, low, high):
        rng = random.Random(2025)
        for _ in range(200):
            inc = [rng.randint(low, high) for _ in range(rng.randint(3, 13))]
            assert theta_det_closed(inc) == det_bareiss(build_theta_matrix(inc))

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=8),
        st.integers(-5, 5),
    )
    def test_scaling_first_increment_scales_determinant(self, inc, t):
        scaled = [inc[0] * t] + inc[1:]
        assert delta_det_closed(scaled) == t * delta_det_closed(inc)


def reference(rows):
    """The Python-int loop alone: the oracle for the int64 phase."""
    return _eliminate([row[:] for row in rows])


def exact_certificate_hand_off(rows, limit=2**63, passed=None):
    """Bareiss in Python ints that tests only the exact overflow
    certificate, |pivot| * max|block| + max|lead| * max|pivot row| < limit,
    at every step: the size of the block left where it first fails, or
    None. Against 2**63 it is the oracle for the fixed-width phase's
    hand-off step, against 2**31 for the step at which the phase widens
    from 32-bit to 64-bit words. Each step that passes is appended to the
    list ``passed``, if given, as (swapped, prev): whether the step swapped
    rows, and the previous pivot it divides by."""
    rows = [row[:] for row in rows]
    n = len(rows)
    prev = 1
    for step in range(n - 1):
        swapped = rows[step][0] == 0
        if swapped:
            swap = next((r for r in range(step + 1, n) if rows[r][0] != 0), None)
            if swap is None:
                return None
            rows[step], rows[swap] = rows[swap], rows[step]
        pivot, *pivot_tail = rows[step]
        below = rows[step + 1 :]
        block = max(abs(x) for row in below for x in row[1:])
        lead = max(abs(row[0]) for row in below)
        if abs(pivot) * block + lead * max(map(abs, pivot_tail)) >= limit:
            return n - step
        if passed is not None:
            passed.append((swapped, prev))
        for r in range(step + 1, n):
            row = rows[r]
            rows[r] = [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], pivot_tail)]
        prev = pivot
    return None


@pytest.fixture
def phases(monkeypatch):
    """Record each entry into the int64 phase (its dimension), each call of
    the Python-int loop (the dimension of its matrix) and each call of the
    multi-modular route (the dimension of its matrix or block). A hand-off
    out of the int64 phase is a call of the route made inside that phase;
    "handed" records the size of the block it gets."""
    seen = {"int64": [], "handed": [], "python": [], "crt": []}
    det_int64 = determinants._det_int64
    eliminate = determinants._eliminate
    det_crt = determinants._det_crt
    inside = []

    def spy_int64(a, *args):
        seen["int64"].append(len(a))
        inside.append(a)
        try:
            return det_int64(a, *args)
        finally:
            inside.pop()

    def spy_eliminate(rows, *args):
        seen["python"].append(len(rows))
        return eliminate(rows, *args)

    def spy_crt(rows, *args):
        seen["crt"].append(len(rows))
        if inside:
            seen["handed"].append(len(rows))
        return det_crt(rows, *args)

    monkeypatch.setattr(determinants, "_det_int64", spy_int64)
    monkeypatch.setattr(determinants, "_eliminate", spy_eliminate)
    monkeypatch.setattr(determinants, "_det_crt", spy_crt)
    return seen


def assert_one_hand_off(phases, n, handed):
    """One hand-off of a block of ``handed`` rows out of an n x n matrix,
    finished by the multi-modular route on that block."""
    assert phases["int64"] == [n]
    assert phases["handed"] == [handed]
    assert (phases["python"], phases["crt"]) == ([], [handed])


def scaled_ones_plus_identity(n, t):
    """t*J + I, whose determinant is 1 + n*t."""
    return [[t + (r == col) for col in range(n)] for r in range(n)]


def random_rows(rng, n, low=-9, high=9):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def scaled_identity_plus_ones(n, c):
    """c*I + J, whose determinant is c**(n-1) * (c + n) and whose Bareiss
    pivots grow like powers of c."""
    return [[c * (r == col) + 1 for col in range(n)] for r in range(n)]


def odd_previous_pivot(n, second):
    """A matrix whose first pivot is o = 2**31 - 1 and whose second is
    ``second``, 1 or o, while the block stays small enough that step 1,
    which divides by o, passes the certificate. Row 0 is (o, 2, 0, ...),
    and column 1 is zero below row 1, so step 1's lead column is small."""
    o = 2**31 - 1
    rng = random.Random(second)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
    rows[0] = [o, 2] + [0] * (n - 2)
    # Step 0 leaves o * 1 - lead * 2 at (1, 1).
    rows[1][:2] = [(o - second) // 2, 1]
    for row in rows[2:]:
        row[:2] = [rng.randint(-3, 3), 0]
    return rows


def lead_with_fewer_twos(n, a01):
    """A matrix whose step 1 divides by prev = 4 (t = 2) with prev | pivot,
    while the lead column has one factor of two (a01 = 2) or none
    (a01 = 1): the pivot row carries the rest. Row 0 starts (4, a01), rows
    2.. start with an odd entry, and row 1 starts (a10, a11) with a10 * a01
    and a10 * a0j divisible by 4, so step 0 leaves 4 * a11 - a10 * a01 = 4
    at (1, 1), 4*a_i1 - a_i0 * a01 below it and 4*a_1j - a10 * a0j beside
    it."""
    rng = random.Random(a01)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
    rows[0][:2] = [4, a01]
    rows[1][:2] = [0, 1] if a01 == 2 else [4, 2]
    for row in rows[2:]:
        row[0] = rng.choice((-3, -1, 1, 3))
    return rows


def twos(x):
    return (x & -x).bit_length() - 1


def sheared(rows, c):
    """rows with c times row 0 added to the last row: the same
    determinant, and the same block after step 0, whose update cancels the
    shear, but a step-0 certificate of about 2 * c * max|row 0|."""
    rows = [row[:] for row in rows]
    rows[-1] = [x + c * y for x, y in zip(rows[-1], rows[0])]
    return rows


def spy_abs_max(monkeypatch):
    """Record the shape of every array the certificate measures."""
    shapes = []
    abs_max = determinants._abs_max

    def spy(a):
        shapes.append(a.shape)
        return abs_max(a)

    monkeypatch.setattr(determinants, "_abs_max", spy)
    return shapes


def signed_permutation(n):
    rng = random.Random(n)
    columns = list(range(n))
    rng.shuffle(columns)
    return [[rng.choice((1, -1)) * (c == columns[r]) for c in range(n)] for r in range(n)]


class TestInt64Phase:
    @pytest.mark.parametrize("n", [_INT64_MIN_DIM - 1, _INT64_MIN_DIM])
    def test_threshold_dimensions(self, phases, n):
        rng = random.Random(n)
        cases = [random_rows(rng, n, 0, 3) for _ in range(5)]
        cases.append(build_c_matrix(n + 4, 5).to_lists())
        for rows in cases:
            assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["int64"] == ([n] * 6 if n >= _INT64_MIN_DIM else [])

    def test_paper_matrices_stay_in_int64(self, phases):
        assert det_bareiss(build_min_matrix(200)) == 1
        assert det_bareiss(build_c_matrix(149 + 70, 70)) == 70
        assert phases == {"int64": [200, 150], "handed": [], "python": [], "crt": []}

    @pytest.mark.parametrize(
        "planted",
        [
            pytest.param({(0, 0): 2**63 - 1, (-1, -1): -(2**63 - 1)}, id="1"),
            pytest.param({(0, 0): -(2**63 - 1), (-1, -1): 2**63 - 1}, id="-1"),
            # int64's most negative value converts, and the certificate,
            # in Python ints, reads it as 2**63 against a nonzero pivot.
            pytest.param({(5, 7): -(2**63)}, id="-2**63"),
        ],
    )
    def test_largest_int64_entries_hand_off_at_once(self, phases, planted):
        n = _INT64_MIN_DIM
        rows = build_c_matrix(n + 2, 3).to_lists()
        for (r, c), value in planted.items():
            rows[r][c] = value
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert_one_hand_off(phases, n, n)

    @pytest.mark.parametrize("where", ["lead", "pivot"])
    def test_most_negative_entry_stays_past_step_0(self, phases, where):
        # -2**63 meets only zeros at step 0: in the lead column over a zero
        # pivot-row tail, every update is pivot * x; as the pivot over a
        # zero block, every update is -lead * y, and the next steps divide
        # by prev = -2**63. Neither overflows, so int64 goes on.
        n = _INT64_MIN_DIM + 6
        rows = build_c_matrix(n + 2, 3).to_lists()
        if where == "lead":
            rows[0][1:] = [0] * (n - 1)
            rows[7][0] = -(2**63)
        else:
            rows[0][0] = -(2**63)
            for row in rows[1:]:
                row[1:] = [0] * (n - 1)
        handed = exact_certificate_hand_off(rows)
        assert handed is None or handed < n
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["int64"] == [n]
        assert phases["handed"] == ([] if handed is None else [handed])

    @pytest.mark.parametrize("big", [2**63])
    def test_entries_past_int64_skip_the_phase(self, phases, big):
        rows = build_c_matrix(_INT64_MIN_DIM + 9, 10).to_lists()
        rows[5][7] = big
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["int64"] == []
        assert phases["crt"] == [len(rows)]

    def test_zero_pivots_swap_inside_int64(self, phases):
        rng = random.Random(11)
        n = 30
        for _ in range(10):
            rows = random_rows(rng, n, -3, 3)
            # Step 0 swaps rows 0 and 2. Row 1 then becomes pivot * row 1,
            # whose zero at column 1 makes step 1 swap as well.
            rows[0][0] = rows[1][0] = rows[1][1] = 0
            rows[2][0] = 1
            expected = reference(rows)
            assert expected != 0
            assert det_bareiss(ExactMatrix(rows)) == expected
        permutation = [[int(c == (r + 7) % n) for c in range(n)] for r in range(n)]
        assert det_bareiss(ExactMatrix(permutation)) == reference(permutation)
        assert len(phases["int64"]) == 11
        # Any hand-off comes after both swapped steps ran in int64.
        assert all(size <= n - 2 for size in phases["handed"])

    def test_singular(self, phases):
        rng = random.Random(12)
        n = 28
        duplicate = random_rows(rng, n)
        duplicate[20] = duplicate[3][:]
        zero_column = random_rows(rng, n)
        for row in zero_column:
            row[0] = 0
        left = random_rows(rng, n)
        low_rank = [[sum(left[r][t] * left[t][c] for t in range(5)) for c in range(n)] for r in range(n)]
        for rows in (duplicate, zero_column, low_rank):
            assert reference(rows) == 0
            assert det_bareiss(ExactMatrix(rows)) == 0
        assert len(phases["int64"]) == 3

    def test_negative_entries_and_pivots(self):
        rng = random.Random(13)
        n = 32
        for _ in range(20):
            rows = random_rows(rng, n, -9, -1)
            assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        negated = [[-x for x in row] for row in build_c_matrix(n + 6, 7).to_lists()]
        assert det_bareiss(ExactMatrix(negated)) == 7

    @pytest.mark.parametrize("lam", range(-3, 6))
    def test_char_matrix_hands_off_partway(self, phases, lam):
        n = 120
        matrix = char_matrix(n, lam)
        assert det_bareiss(matrix) == reference(matrix.to_lists())
        assert phases["int64"] == [n]
        if lam in (0, 1):
            # Every minor that elimination forms from -A or I - A is small.
            assert phases["handed"] == []
        else:
            [handed] = phases["handed"]
            assert 1 < handed < n

    def test_hand_off_step_follows_pivot_growth(self, phases):
        n = 48
        for b in range(1, 9):
            c = 2**b
            rows = scaled_identity_plus_ones(n, c)
            assert det_bareiss(ExactMatrix(rows)) == c ** (n - 1) * (c + n)
        handed = phases["handed"]
        assert len(handed) == 8
        assert handed == sorted(handed)
        assert len(set(handed)) >= 6
        assert all(1 < size < n for size in handed)

    # Sizes of the block left at the hand-off, recorded before the
    # two-tier certificate: its coarse tier may only skip the exact test
    # where that would pass, so every hand-off stays at the same step.
    # test_paper_matrices_stay_in_int64 pins A_200 and C_{219,70}: none.
    @pytest.mark.parametrize(
        "lam, handed", list(zip(range(-3, 6), ([108], [106], [99], [], [], [91], [101], [105], [108])))
    )
    def test_char_matrix_hand_off_is_pinned(self, phases, lam, handed):
        # test_char_matrix_hands_off_partway checks the values.
        det_bareiss(char_matrix(120, lam))
        if handed:
            assert_one_hand_off(phases, 120, handed[0])
        else:
            assert phases == {"int64": [120], "handed": [], "python": [], "crt": []}

    @pytest.mark.parametrize("b, handed", list(zip(range(1, 9), (21, 34, 38, 41, 42, 43, 44, 45))))
    def test_scaled_identity_hand_off_is_pinned(self, phases, b, handed):
        c = 2**b
        assert det_bareiss(ExactMatrix(scaled_identity_plus_ones(48, c))) == c**47 * (c + 48)
        assert_one_hand_off(phases, 48, handed)

    @pytest.mark.parametrize(
        "n, c, handed",
        [
            pytest.param(n, 2**8, n - 3, id=str(n))
            for n in (_INT64_MIN_DIM + 2, _INT64_MIN_DIM + 3)
        ]
        + [(30, 2, 3), (40, 2, 13)],
    )
    def test_hand_off_finisher_boundary(self, phases, n, c, handed):
        # Blocks of any size go to the multi-modular route, on both sides
        # of _INT64_MIN_DIM: 2**8 * I + J leaves int64 after three steps,
        # and 2 * I + J leaves small blocks with a large previous pivot.
        assert det_bareiss(ExactMatrix(scaled_identity_plus_ones(n, c))) == c ** (n - 1) * (c + n)
        assert_one_hand_off(phases, n, handed)

    @pytest.mark.parametrize("swap", [False, True])
    def test_primes_dividing_the_previous_pivot_are_skipped(self, phases, monkeypatch, swap):
        # q1 * q2 as the first pivot passes step 0's certificate, and the
        # hand-off at step 1 has prev = q1 * q2: residues mod q1 and q2
        # could not undo the division by prev, so neither prime is used.
        # With a zero at (0, 0), a row swap brings the pivot up first.
        n = 30
        q1, q2 = determinants._crt_primes(2**50)[0][:2]
        rows = random_rows(random.Random(n), n, -3, 3)
        rows[1 if swap else 0][0] = q1 * q2
        if swap:
            rows[0][0] = 0
        used = []
        det_mod = determinants._det_mod

        def spy(a, p, scratch):
            used.extend(p.tolist())
            return det_mod(a, p, scratch)

        monkeypatch.setattr(determinants, "_det_mod", spy)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert_one_hand_off(phases, n, n - 1)
        assert used and q1 not in used and q2 not in used

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(_INT64_MIN_DIM, 40),
        st.integers(0, 2**32),
        st.one_of(
            st.integers(-9, 9),
            st.builds(lambda b, s: s * 2**b, st.integers(0, 12), st.sampled_from([1, -1])),
            st.integers(-(2**12), 2**12),
        ),
        st.sampled_from([1, 3]),
        st.sampled_from([0.1, 0.3, 1.0]),
        st.integers(0, 3),
        st.lists(
            st.one_of(
                st.builds(lambda offset, sign: sign * (2**63 - 1 - offset), st.integers(0, 2**20), st.sampled_from([1, -1])),
                st.just(-(2**63)),
            ),
            max_size=2,
        ),
    )
    def test_hand_off_matches_exact_certificate(
        self, phases, n, seed, diagonal, spread, density, swaps, near_limit
    ):
        # Diagonals of either sign, odd, even and powers of two set the
        # pivots; sparse rows and swapped rows give zero pivots and row
        # swaps, and planted entries within 2**20 of +-(2**63 - 1), or
        # -2**63, put the certificate at its limit from step 0. The entries come from
        # a seeded generator: drawn one by one, they would be far more
        # data than hypothesis takes for one example.
        for seen in phases.values():
            seen.clear()
        rng = random.Random(seed)
        rows = [
            [diagonal if r == c else rng.randint(-spread, spread) * (rng.random() < density) for c in range(n)]
            for r in range(n)
        ]
        for _ in range(swaps):
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        for value in near_limit:
            rows[rng.randrange(n)][rng.randrange(n)] = value
        handed = exact_certificate_hand_off(rows)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["int64"] == [n]
        assert phases["handed"] == ([] if handed is None else [handed])

    def test_carried_bound_skips_most_reductions(self, monkeypatch):
        # A_150 and C_{219,70} with 2**40 times row 0 added to the last
        # row: the same determinants, but step 0's certificate fails 2**31,
        # so both widen at once and take 149 int64 steps. Step 0 measures
        # the whole matrix; after that the bound carried from step to step
        # spares the reduction on at least every other step.
        shapes = spy_abs_max(monkeypatch)
        for matrix, value in ((build_min_matrix(150), 1), (build_c_matrix(219, 70), 70)):
            shapes.clear()
            assert det_bareiss(ExactMatrix(sheared(matrix.to_lists(), 2**40))) == value
            assert shapes[0] == (150, 150)
            assert len(shapes) <= 149 // 2

    def test_32_bit_phase_reductions_are_pinned(self, monkeypatch):
        # Against 2**31 the carried bound fails sooner: A_150 is measured
        # on every other step, as at 64 bits, but C_{219,70}, whose block
        # max stays near 70 * 149 while the bound grows 150-fold a step, on
        # nearly every step. Both stay in 32-bit words to the end.
        shapes = spy_abs_max(monkeypatch)
        counts = []
        for matrix, value in ((build_min_matrix(150), 1), (build_c_matrix(219, 70), 70)):
            shapes.clear()
            assert det_bareiss(matrix) == value
            assert exact_certificate_hand_off(matrix.to_lists(), 2**31) is None
            counts.append(len(shapes))
        assert counts == [73, 137]

    @pytest.mark.parametrize(
        "rows",
        [
            # Pivots (-12)**(k-1) * (k - 12): 120, -1296, ... leave a
            # negative previous pivot with t > 0 before the hand-off.
            pytest.param(scaled_identity_plus_ones(30, -12), id="c=-12"),
            # Diagonal 3 * 2**10: step 1 divides by prev = 3 * 2**10
            # (t = 10) a pivot that prev does not divide.
            pytest.param(scaled_identity_plus_ones(30, 3 * 2**10 - 1), id="diag=3*2**10"),
            # Constant pivot 3 * 2**10, and +-12 alternating in sign: prev
            # divides every pivot.
            pytest.param(build_c_matrix(3 * 2**10 + 29, 3 * 2**10).to_lists(), id="C,k=3*2**10"),
            pytest.param([[-x for x in row] for row in build_c_matrix(12 + 29, 12).to_lists()], id="-C,k=12"),
            # prev = 2**31 - 1 at step 1, whose inverse mod 2**64 makes
            # lead * inverse wrap; the pivot is 1 or prev itself.
            pytest.param(odd_previous_pivot(30, 1), id="prev=2**31-1,pivot=1"),
            pytest.param(odd_previous_pivot(30, 2**31 - 1), id="prev=pivot=2**31-1"),
            # Every pivot is +-1, and -1 is its own inverse: 2**64 - 1.
            pytest.param(signed_permutation(30), id="signed-permutation"),
        ],
    )
    def test_exact_division_edge_cases(self, phases, rows):
        handed = exact_certificate_hand_off(rows)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["handed"] == ([] if handed is None else [handed])
        # At least two steps, the first division included, ran in int64.
        assert handed is None or handed <= len(rows) - 2

    @pytest.mark.parametrize("a01, s", [(2, 1), (1, 0)])
    def test_lead_with_fewer_twos_than_prev(self, phases, a01, s):
        # Step 1 divides lead*y by prev = 4 while the lead column has s < t
        # = 2 factors of two: the pivot row's are needed too, so only the
        # whole product may be shifted right by t.
        rows = lead_with_fewer_twos(30, a01)
        (pivot0, *row0), *below = rows
        step1 = [[pivot0 * x - row[0] * y for x, y in zip(row[1:], row0)] for row in below]
        assert step1[0][0] == 4 and twos(pivot0) == 2
        assert min(twos(row[0]) for row in step1[1:]) == s
        assert min(twos(y) for y in step1[0][1:] if y) >= 2 - s
        handed = exact_certificate_hand_off(rows)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["handed"] == ([] if handed is None else [handed])
        # Step 1, the division by 4, ran in int64.
        assert handed is None or handed <= len(rows) - 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(_INT64_MIN_DIM, _INT64_MIN_DIM + 12),
        st.integers(1, 12),
        st.randoms(use_true_random=False),
        st.lists(st.tuples(st.integers(0, 62), st.sampled_from([1, -1])), max_size=4),
    )
    def test_planted_large_entries_match_reference(self, n, b, rng, planted):
        # Diagonal 2**b sets how fast the pivots grow, the planted entries
        # how large the block starts: together they move the hand-off step.
        rows = random_rows(rng, n, -3, 3)
        for r in range(n):
            rows[r][r] += 2**b
        for e, sign in planted:
            rows[rng.randrange(n)][rng.randrange(n)] = sign * 2**e
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)


def block_upper(n, c, starts, zero_starts, rng, spread=2):
    """A block upper triangular matrix: zero below its diagonal blocks,
    which begin at 0 and at each of ``starts`` and ``zero_starts``. Each
    block is dense, small entries with c added on its diagonal, so the
    leading minors, and with them the pivots, grow like powers of c. A
    block that begins at one of ``zero_starts`` has 0 in its top-left
    corner: its leading minor is 0, and the step there swaps rows. Above
    the blocks, entries are small and sparse."""
    bounds = sorted({0, n} | set(starts) | set(zero_starts))
    rows = [[0] * n for _ in range(n)]
    for first, end in zip(bounds, bounds[1:]):
        for r in range(first, end):
            for col in range(first, n):
                if col < end or rng.random() < 0.3:
                    rows[r][col] = rng.randint(-spread, spread) + c * (r == col)
        if first in zero_starts:
            rows[first][first] = 0
    return rows


# Entries at the 32-bit limit and past it, all inside int64.
WORD_PLANTS = (2**31 - 1, -(2**31 - 1), -(2**31), 2**31, 2**40, -(2**63))


@st.composite
def word_matrices(draw):
    """Matrices of dimension 24-32 for the fixed-width phase: the paper's
    A_n and C_{n,k}, whose 32-bit certificate holds to the end, or
    block_upper matrices, whose growth c and blocks set the step at which
    the phase widens to 64 bits and perhaps hands off, with row swaps where
    the zero_starts are. Perhaps with entries of WORD_PLANTS planted
    anywhere, in the lead column over a zero pivot row, or as the pivot
    over a zero block."""
    n = draw(st.integers(_INT64_MIN_DIM, 32))
    # Entries from a seeded generator: drawn one by one, they would be far
    # more data than hypothesis takes for one example.
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 200))
        rows = (build_min_matrix(n) if k == 1 else build_c_matrix(n + k - 1, k)).to_lists()
    else:
        c = draw(st.sampled_from([1, 2, 3, -2, 6, 12, 33, 2**8]))
        starts = draw(st.sets(st.integers(1, n - 1), max_size=3))
        zero_starts = draw(st.sets(st.integers(0, n - 2), max_size=4))
        rows = block_upper(n, c, starts, zero_starts, rng, draw(st.sampled_from([1, 2])))
    where = draw(st.sampled_from(["anywhere", "lead", "pivot"]))
    for value in draw(st.lists(st.sampled_from(WORD_PLANTS), max_size=2)):
        if where == "anywhere":
            rows[rng.randrange(n)][rng.randrange(n)] = value
        elif where == "lead":
            rows[0][1:] = [0] * (n - 1)
            rows[rng.randrange(1, n)][0] = value
        else:
            for row in rows[1:]:
                row[1:] = [0] * (n - 1)
            rows[0][0] = value
    return rows


def widening_with_swaps():
    """A block_upper matrix of dimension 30 whose pivots grow like 3**m:
    it swaps rows at steps 1, 4 and 15, widens to 64 bits at step 10 and
    hands off at step 21."""
    return block_upper(30, 3, {9, 25}, {1, 15}, random.Random(30))


def paper_plant(value, where=(5, 7)):
    """C_{41,12}, of dimension 30, with ``value`` planted at ``where``."""
    rows = build_c_matrix(30 + 11, 12).to_lists()
    rows[where[0]][where[1]] = value
    return rows


class TestFixedWidthWords:
    """The fixed-width phase in 32-bit words, widened once to 64 bits,
    against the Python-int loop: the same determinant and the same record
    of leading minors."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(word_matrices())
    # A_30 and C_{69,40}: 32-bit to the end, C with an even prev.
    @example(build_min_matrix(30).to_lists())
    @example(build_c_matrix(69, 40).to_lists())
    # At the 32-bit limit: each widens at step 0.
    @example(paper_plant(2**31 - 1))
    @example(paper_plant(-(2**31 - 1)))
    @example(paper_plant(-(2**31)))
    # -2**31 or 2**40 as the pivot over a zero block, and 2**40 in the lead
    # column over a zero pivot row: the certificate passes 2**31, so the
    # array is narrowed, and 2**40 wraps. The record keeps the true pivot.
    @example([[-(2**31)] + [1] * 29] + [[1] + [0] * 29 for _ in range(29)])
    @example([[2**40] + [1] * 29] + [[1] + [0] * 29 for _ in range(29)])
    @example([[3] + [0] * 29] + paper_plant(2**40, (4, 0))[1:])
    @example(widening_with_swaps())
    def test_words_match_reference(self, phases, rows):
        for seen in phases.values():
            seen.clear()
        n = len(rows)
        narrow, wide = [], []
        widened = exact_certificate_hand_off(rows, 2**31, narrow)
        handed = exact_certificate_hand_off(rows, 2**63, wide)
        expected_minors = []
        expected = _eliminate([row[:] for row in rows], expected_minors)
        det, minors = determinants._det_minors(ExactMatrix(rows))
        assert det == expected
        # The record runs across the widening. It stops where the
        # Python-int loop's does, at a row swap or a zero column, or at the
        # hand-off step, whose pivot is read first.
        read = len(expected_minors) if handed is None else min(len(expected_minors), n - handed + 1)
        assert minors == expected_minors[:read]
        assert phases["int64"] == [n]
        assert phases["handed"] == ([] if handed is None else [handed])
        if widened is None:
            event("32-bit to the end")
        else:
            step = n - widened
            event("widens at step 0" if step == 0 else "widens after step 0")
            if any(swapped for swapped, _ in narrow) and any(swapped for swapped, _ in wide[step + 1 :]):
                event("row swaps before and after the widening")
            if handed is not None:
                event("widens, then hands off")
        if any(prev % 2 == 0 for _, prev in narrow):
            event("even prev in 32-bit words")
        for value in WORD_PLANTS[:3]:
            if any(value in row for row in rows):
                event(f"planted {value}")

    @pytest.mark.parametrize("lam, handed", [(-3, 108), (2, 91), (5, 108)])
    def test_char_matrix_widens_then_hands_off(self, phases, lam, handed):
        # lam*I - A_120 leaves 32-bit words some steps before it leaves
        # int64 (test_char_matrix_hand_off_is_pinned pins the block handed
        # off). Its leading m-minor is charpoly(m)(lam), and the record
        # holds every one up to the hand-off step's.
        rows = char_matrix(120, lam).to_lists()
        assert handed < exact_certificate_hand_off(rows, 2**31) < 120
        det, minors = determinants._det_minors(ExactMatrix(rows))
        assert det == charpoly(120)(lam)
        assert minors == [charpoly(m)(lam) for m in range(1, 120 - handed + 2)]
        assert phases["handed"] == [handed]


def crt(rows, det_crt=determinants._det_crt):
    """The multi-modular route on its own, on a whole matrix, given a copy
    of ``rows``: Python rows or an int64 array. Bound at import, so the
    routing spy does not see these calls."""
    if isinstance(rows, list):
        return det_crt([row[:] for row in rows])
    return det_crt(rows.copy())


def residues_by_slice(rows, primes):
    """_det_mod on a matrix reduced entry by entry in Python ints."""
    import numpy as np

    n = len(rows)
    p = np.array(primes, dtype=np.int64)
    a = np.array([[[x % q for q in primes] for x in row] for row in rows], dtype=np.int64)
    # One row of the working array: each step's update goes one row at a
    # time.
    scratch = np.empty(n * len(primes), dtype=np.int64)
    return determinants._det_mod(a, p, scratch)


def is_prime_by_trial(q):
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


def unimodular_mix(rng, rows):
    """L @ rows for a random unit lower-triangular integer L: the same
    determinant, entries of every size mixed into every row."""
    n = len(rows)
    mixed = [row[:] for row in rows]
    for r in range(1, n):
        for t in range(r):
            c = rng.randint(-3, 3)
            mixed[r] = [x + c * y for x, y in zip(mixed[r], mixed[t])]
    return mixed


@pytest.fixture
def crt_calls(monkeypatch):
    """Record the dimension of every matrix or block that det_bareiss sends
    to the multi-modular route."""
    calls = []
    det_crt = determinants._det_crt

    def spy(rows, *args):
        calls.append(len(rows))
        return det_crt(rows, *args)

    monkeypatch.setattr(determinants, "_det_crt", spy)
    return calls


def spy_passes(monkeypatch):
    """Record each pass of the multi-modular route: its prime count, the
    size of the working array it slices and the size of the scratch."""
    passes = []
    det_mod = determinants._det_mod

    def spy(a, p, scratch):
        passes.append((len(p), a.base.size, scratch.size))
        return det_mod(a, p, scratch)

    monkeypatch.setattr(determinants, "_det_mod", spy)
    return passes


def plain_hadamard(rows):
    """Hadamard's bound on rows alone: the product of the row norms, each
    rounded up to an integer."""
    return prod(isqrt(sum(x * x for x in row)) + 1 for row in rows)


def differenced(rows):
    """Δ·rows·Δᵀ, written out: each row less the row above it, then each
    entry less its left neighbour."""
    n = len(rows)
    down = [[rows[r][c] - (rows[r - 1][c] if r else 0) for c in range(n)] for r in range(n)]
    return [[row[c] - (row[c - 1] if c else 0) for c in range(n)] for row in down]


@st.composite
def bound_matrices(draw):
    """Square matrices of dimension 1-30: random rows or the cumulative
    rows of a delta matrix, with entries from single digits to past 2**64,
    and perhaps -2**63 planted in one entry or one row set to zero."""
    n = draw(st.integers(1, 30))
    rng = draw(st.randoms(use_true_random=False))
    bits = draw(st.sampled_from([4, 31, 63, 66]))
    top = 9 if bits == 4 else 2**bits
    kind = draw(st.sampled_from(["random", "cumulative"]))
    if kind == "random":
        rows = random_rows(rng, n, -top, top)
    else:
        rows = build_delta_matrix([rng.randint(-top, top) for _ in range(n)]).to_lists()
    plant = draw(st.sampled_from(["none", "-2**63", "zero row"]))
    if plant == "-2**63":
        rows[rng.randrange(n)][rng.randrange(n)] = -(2**63)
    elif plant == "zero row":
        rows[rng.randrange(n)] = [0] * n
    event(f"{kind}, entries up to {top if bits == 4 else f'2**{bits}'}, plant {plant}")
    return rows


class TestBound:
    @settings(max_examples=150, deadline=None)
    @given(bound_matrices())
    def test_bound_holds_and_is_the_smaller(self, rows):
        bound, bounded = determinants._hadamard(rows)
        assert bound >= abs(reference(rows))
        # Δ is unimodular, so the differenced matrix has the same
        # determinant, and the bound is the smaller of the two Hadamard's.
        # The rows that come with it are the matrix it bounds, the
        # differenced one on a tie.
        assert reference(differenced(rows)) == reference(rows)
        plain, diff = plain_hadamard(rows), plain_hadamard(differenced(rows))
        event("differenced smaller" if diff < plain else "plain smaller" if plain < diff else "equal")
        assert bound == min(plain, diff)
        assert bounded == (differenced(rows) if diff <= plain else rows)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 2**66), min_size=1, max_size=30),
        st.sampled_from([1, -1]),
    )
    def test_delta_matrix_bound_is_the_increments(self, magnitudes, sign):
        # Δ·A·Δᵀ = diag(i_1, ..., i_n) for a delta matrix A. With increments
        # of one sign, |P_r| >= |i_r| bounds each row norm of A below, so
        # the differenced bound is the smaller.
        inc = [sign * m for m in magnitudes]
        rows = build_delta_matrix(inc).to_lists()
        diagonal = [[x if r == c else 0 for c, x in enumerate(inc)] for r in range(len(inc))]
        assert differenced(rows) == diagonal
        assert determinants._hadamard(rows) == (prod(abs(i) + 1 for i in inc), diagonal)

    @pytest.mark.parametrize("case", ["dense", "delta"])
    def test_plain_bound_where_differencing_is_worse(self, case):
        # A dense random matrix has no cumulative structure: differencing
        # sums up to four entries into each, and lengthens every row. On
        # the delta matrix of (100, -200), rows (100, 100) and (100, -100),
        # differencing leaves (100, 0) and (0, -200), a larger product.
        if case == "dense":
            rows = random_rows(random.Random(7), 12, -(2**40), 2**40)
        else:
            rows = build_delta_matrix([100, -200]).to_lists()
        plain, diff = plain_hadamard(rows), plain_hadamard(differenced(rows))
        assert plain < diff
        bound, bounded = determinants._hadamard(rows)
        assert (bound, bounded) == (plain, rows)
        # The input rows themselves, not a copy.
        assert bounded is rows

    @pytest.mark.parametrize("lam", [-3, -2, -1, 2, 3, 4, 5])
    def test_char_matrix_hand_off_takes_one_short_pass(self, monkeypatch, phases, lam):
        # det(lam*I - A_120) has 120-289 bits at these lam. The differenced
        # bound on each hand-off block certifies it with 8-15 primes, one
        # pass, where Hadamard's bound on the block took 27-40.
        passes = spy_passes(monkeypatch)
        assert det_bareiss(char_matrix(120, lam)) == charpoly(120)(lam)
        assert len(phases["handed"]) == 1
        [(count, _, _)] = passes
        assert count <= 16


class TestMultiModular:
    def test_primes_are_the_largest_below_the_limit(self, monkeypatch):
        monkeypatch.setattr(determinants, "_crt_prime_table", ())
        primes, modulus = determinants._crt_primes(2**3000)
        assert modulus == prod(primes) > 2**3000 >= prod(primes[:-1])
        top = 2**determinants._CRT_PRIME_BITS
        assert primes == [q for q in range(top - 1, primes[-1] - 1, -2) if is_prime_by_trial(q)]
        # Found once: a shorter request reads a prefix of the same table.
        fewer, _ = determinants._crt_primes(2**100)
        assert fewer == primes[: len(fewer)]
        # Primes that divide prev are skipped, and the next ones taken.
        skipped, modulus = determinants._crt_primes(2**100, primes[0] * primes[2])
        assert skipped == [q for q in primes if q not in (primes[0], primes[2])][: len(skipped)]
        assert modulus == prod(skipped) > 2**100 >= prod(skipped[:-1])
        assert determinants._crt_prime_table == tuple(primes)

    def test_prime_table_under_concurrent_first_use(self, monkeypatch):
        expected, _ = determinants._crt_primes(2**2000)
        monkeypatch.setattr(determinants, "_crt_prime_table", ())
        results = []
        threads = [
            threading.Thread(target=lambda b=b: results.append(determinants._crt_primes(2**b)[0]))
            for b in range(500, 2001, 300)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        for primes in results:
            assert primes == expected[: len(primes)]
        table = determinants._crt_prime_table
        assert table == tuple(expected[: len(table)])

    def test_miller_rabin_rejects_strong_pseudoprimes(self):
        # Strong pseudoprimes to base 2, to bases 2 and 3, and to 2, 3 and 5.
        for n in (2047, 3277, 4033, 1373653, 25326001):
            assert not determinants._is_prime(n)
        assert [n for n in range(9, 2000, 2) if determinants._is_prime(n)] == [
            n for n in range(9, 2000, 2) if is_prime_by_trial(n)
        ]

    def test_no_prime_search_at_import(self):
        code = "import minmatrix.determinants as d; print(len(d._crt_prime_table))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    # Entries of 512 bits take two groups of eight 32-bit limbs, whose sums
    # would leave int64 without a reduction between them.
    @pytest.mark.parametrize("n", [1, 2, 3, _INT64_MIN_DIM])
    @pytest.mark.parametrize("bits", [1, 30, 64, 200, 512])
    def test_small_and_threshold_dimensions(self, n, bits):
        rng = random.Random(n * 1000 + bits)
        for _ in range(4):
            rows = random_rows(rng, n, -(2**bits), 2**bits)
            expected = reference(rows)
            assert crt(rows) == expected
            if bits < 63:
                # The same rows as one int64 array, the form of a hand-off
                # block.
                assert crt(np.array(rows, dtype=np.int64)) == expected
            assert det_bareiss(ExactMatrix(rows)) == expected

    # The rows eliminated load as one int64 array where every entry fits,
    # else as 32-bit limbs. det_bareiss sends entries that fit int64,
    # -2**63 included, to the int64 phase, whose hand-off passes the block
    # as an int64 array; larger entries go to the multi-modular route at
    # once.
    @pytest.mark.parametrize(
        "big", [2**63 - 1, 2**63, 2**64, 2**200], ids=["2**63-1", "2**63", "2**64", "2**200"]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_extreme_entries(self, big, sign):
        rng = random.Random(big % 1000 + sign)
        n = _INT64_MIN_DIM + 6
        for planted in (1, 5, n * n):
            rows = random_rows(rng, n)
            for _ in range(planted):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((sign, -sign)) * big
            assert crt(rows) == reference(rows)
            assert det_bareiss(ExactMatrix(rows)) == reference(rows)

    def test_singular(self, crt_calls):
        rng = random.Random(21)
        n = 30
        big = 2**70
        duplicate = random_rows(rng, n, -big, big)
        duplicate[17] = duplicate[4][:]
        zero_column = random_rows(rng, n, -big, big)
        for row in zero_column:
            row[9] = 0
        left = random_rows(rng, n, -big, big)
        low_rank = [[sum(left[r][t] * left[t][c] for t in range(7)) for c in range(n)] for r in range(n)]
        zero = [[0] * n for _ in range(n)]
        for rows in (duplicate, zero_column, low_rank, zero):
            assert reference(rows) == 0
            assert crt(rows) == 0
            assert det_bareiss(ExactMatrix(rows)) == 0
        # The all-zero matrix has no large entry, so it stays in int64.
        assert crt_calls == [n, n, n]

    @pytest.mark.parametrize("n", [2, 5, _INT64_MIN_DIM])
    def test_pivot_multiple_of_first_prime_swaps_in_one_slice(self, n):
        rng = random.Random(n)
        primes = determinants._crt_primes(2**200)[0][:3]
        first = primes[0]
        # At n = 2 the second pivot is the last one: the determinant itself.
        for step in (0, 1) if n > 2 else (0,):
            rows = random_rows(rng, n, -(2**40), 2**40)
            if step == 0:
                rows[0][0] = first * rng.randint(1, 2**20)
            else:
                # The second pivot is the leading 2x2 minor.
                rows[0][:2] = [1, 0]
                rows[1][:2] = [0, first * 7]
            expected = reference(rows)
            assert expected % first != 0
            assert residues_by_slice(rows, primes) == [expected % q for q in primes]
            assert crt(rows) == expected
            assert det_bareiss(ExactMatrix(rows)) == expected

    @pytest.mark.parametrize("n", [2, _INT64_MIN_DIM + 1])
    def test_column_zero_mod_one_prime_only(self, n):
        rng = random.Random(n + 50)
        primes = determinants._crt_primes(2**200)[0][:3]
        first = primes[0]
        rows = random_rows(rng, n, -(2**40), 2**40)
        for row in rows:
            row[n // 2] = first * rng.randint(-(2**20), 2**20)
        expected = reference(rows)
        assert expected != 0
        residues = residues_by_slice(rows, primes)
        assert residues[0] == 0
        assert all(residues[1:])
        assert residues == [expected % q for q in primes]
        assert crt(rows) == expected

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 3, _INT64_MIN_DIM])
    def test_results_near_half_the_modulus(self, monkeypatch, count, n):
        # M is the product of the first ``count`` primes and m of one
        # fewer. With Hadamard's bound patched to (M - 3) / 2 or
        # (m + 1) / 2, exactly those primes are used: +-(M - 3) / 2 are
        # the residues farthest from 0 that the symmetric range holds, and
        # +-(m + 1) / 2 would come back wrong with one prime fewer.
        primes = determinants._crt_primes(2**1000)[0][:count]
        modulus = prod(primes)
        rng = random.Random(count * 100 + n)
        for value in ((modulus - 3) // 2, (modulus // primes[-1] + 1) // 2):
            assert determinants._crt_primes(2 * value + 1) == (primes, modulus)
            for target in (value, -value):
                diagonal = [[target if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)]
                rows = unimodular_mix(rng, diagonal)
                assert reference(rows) == target
                monkeypatch.setattr(determinants, "_hadamard", lambda rows, value=value: (value, rows))
                assert determinants._det_crt(rows) == target

    def test_block_reduction_keeps_int64_past_the_reduction_interval(self):
        # L @ U with -1 in every off-diagonal entry of the unit triangular
        # factors L and U: elimination mod p recovers L and U, so every
        # update subtracts (p - 1)**2 from each entry below and right of
        # the pivot, the most the bound allows. Without the periodic
        # reduction int64 would overflow after 128 steps. L @ U's own
        # differenced form is tridiagonal, so the route is given the
        # matrix whose differenced form L @ U is, and eliminates that.
        n = determinants._CRT_REDUCE_EVERY + 13
        lu = [
            [sum((1 if t == r else -1) * (1 if t == c else -1) for t in range(min(r, c) + 1)) for c in range(n)]
            for r in range(n)
        ]
        rows = undifferenced(lu)
        assert determinants._hadamard(rows)[1] == lu
        assert crt(rows) == 1

    @pytest.mark.parametrize("per_pass", [1, 3, 7])
    @pytest.mark.parametrize("n", [_INT64_MIN_DIM, 120])
    def test_passes_split_the_primes(self, monkeypatch, n, per_pass):
        if n == 120:
            rows = char_matrix(n, 5).to_lists()
        else:
            rows = random_rows(random.Random(n), n, -(2**41), 2**41)
        count = len(determinants._crt_primes(2 * determinants._hadamard(rows)[0] + 1)[0])
        # Every pass but the last is full, and the last is partial.
        assert count > per_pass and (per_pass == 1 or count % per_pass)
        # The scratch comes off the budget first: what is left, just above
        # per_pass slices, still gives per_pass.
        scratch = determinants._CRT_SCRATCH_ELEMENTS
        monkeypatch.setattr(determinants, "_CRT_BUDGET_ELEMENTS", per_pass * n * n + scratch + n)
        passes = spy_passes(monkeypatch)
        assert crt(rows) == reference(rows)
        assert [k for k, _, _ in passes] == [per_pass] * (count // per_pass) + [count % per_pass] * (
            count % per_pass > 0
        )
        # The working array holds one full pass, no more, and the scratch
        # its constant, or one pass's working array where that is smaller.
        assert {(work, used) for _, work, used in passes} == {
            (n * n * per_pass, min(scratch, n * n * per_pass))
        }

    def test_arrays_sized_by_the_primes_used(self, monkeypatch):
        # At n = 24 a pass could take 398 primes; this matrix needs few, so
        # both arrays are sized by those it takes: the scratch is then
        # smaller than its constant. With the constant below one row of the
        # working array, the scratch holds that row.
        n = _INT64_MIN_DIM
        rows = random_rows(random.Random(3), n, -(2**5), 2**5)
        count = len(determinants._crt_primes(2 * determinants._hadamard(rows)[0] + 1)[0])
        budget = determinants._CRT_BUDGET_ELEMENTS - determinants._CRT_SCRATCH_ELEMENTS
        assert count < budget // (n * n)
        assert n * n * count < determinants._CRT_SCRATCH_ELEMENTS
        passes = spy_passes(monkeypatch)
        assert crt(rows) == reference(rows)
        assert passes == [(count, n * n * count, n * n * count)]
        passes.clear()
        monkeypatch.setattr(determinants, "_CRT_SCRATCH_ELEMENTS", n * count - 1)
        assert crt(rows) == reference(rows)
        assert passes == [(count, n * n * count, n * count)]

    @pytest.mark.parametrize(
        "kind, n, passes",
        [("delta", 48, [99, 10]), ("char", 108, [15]), ("delta", 96, [24] * 9 + [2])],
        ids=["delta48", "char120", "delta96"],
    )
    def test_passes_at_the_library_budget(self, monkeypatch, kind, n, passes):
        # The budget less the scratch, over n**2 int64 per prime: 99 primes
        # per pass at n = 48, where this delta matrix of signed 64-bit
        # increments needs 109, 24 at n = 96, where it needs 218, and 19
        # for the 108-row block that lam*I - A_120 hands off at lam = 5,
        # which needs 15.
        if kind == "delta":
            inc = increments(random.Random(n), n)
            matrix, expected = build_delta_matrix(inc), delta_det_closed(inc)
        else:
            matrix, expected = char_matrix(120, 5), charpoly(120)(5)
        seen = spy_passes(monkeypatch)
        assert det_bareiss(matrix) == expected
        assert [k for k, _, _ in seen] == passes
        assert {(work, used) for _, work, used in seen} == {
            (n * n * passes[0], determinants._CRT_SCRATCH_ELEMENTS)
        }

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 10),
        st.one_of(st.just(0), st.integers(1, 9)),
        st.integers(1, 4),
        st.integers(1, 10),
        st.sampled_from(["none", "pivot", "column"]),
        st.randoms(use_true_random=False),
    )
    def test_passes_and_chunks_match_reference(self, n, width, per_pass, chunk_rows, plant, rng):
        # width 0 is an int64 array, the form of a hand-off block; width w
        # is Python rows whose largest entry takes w 32-bit limbs, 9 being
        # the first width that takes a second group. Rows whose entries
        # all fit int64 (width 1, and 2 below 2**63) load as one int64
        # array instead. A small budget gives passes of per_pass primes,
        # and a small scratch chunks every step's update, down to one row
        # per chunk. A pivot, or a whole column, that is zero modulo the
        # first prime only is swapped, or zeroes that prime's determinant,
        # inside such a chunked step.
        q = determinants._crt_primes(1)[0][0]
        if width:
            top = 2 ** (32 * width) - 1
            rows = random_rows(rng, n, -top, top)
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1)) * rng.randint(top // 2**32 + 1, top)
        else:
            top = 2**63
            rows = random_rows(rng, n, -top, top - 1)
        if plant == "pivot":
            rows[0][0] = q * rng.randint(-(top // q), top // q)
        elif plant == "column":
            j = rng.randrange(n)
            for row in rows:
                row[j] = q * rng.randint(-(top // q), top // q)
        event(f"limb width {width}" if width else "int64 array")
        event(f"plant {plant}")
        # A scratch of chunk_rows rows of the first step's block.
        scratch = chunk_rows * (n - 1) * per_pass
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(determinants, "_CRT_SCRATCH_ELEMENTS", scratch)
            patch.setattr(determinants, "_CRT_BUDGET_ELEMENTS", per_pass * n * n + scratch)
            passes = spy_passes(patch)
            value = crt(np.array(rows, dtype=np.int64) if width == 0 else rows)
        assert value == reference(rows)
        counts = [count for count, _, _ in passes]
        assert counts[:-1] == [per_pass] * (len(passes) - 1) and 0 < counts[-1] <= per_pass
        k, _, used = passes[0]
        if len(passes) > 1:
            event("one-prime passes" if per_pass == 1 else "several passes")
            if passes[-1][0] < per_pass:
                event("partial last pass")
        if n > 2:
            # Rows per chunk at the first step, whose block has n - 1 rows.
            chunk = max(1, used // ((n - 1) * k))
            event("one row per chunk" if chunk == 1 else "chunk edge inside the block" if chunk < n - 1 else "one chunk")
            if chunk < n - 1 and plant != "none":
                event(f"plant {plant} in a chunked step")

    def test_numpy_buffer_size_is_restored(self, monkeypatch):
        # det_bareiss runs both numpy routes with numpy's ufunc buffers at
        # _UFUNC_BUFFER elements and gives the caller's size back: after
        # int64 steps alone (A_150), a hand-off (lam*I - A_120), entries
        # past int64 (a 64-bit delta matrix), and a route that raises.
        before = np.getbufsize()
        seen = []

        def spy(name):
            route = getattr(determinants, name)

            def spy_route(*args):
                seen.append((name, np.getbufsize()))
                return route(*args)

            monkeypatch.setattr(determinants, name, spy_route)

        spy("_det_int64")
        spy("_det_mod")
        inc = increments(random.Random(48), 48)
        delta = build_delta_matrix(inc)
        cases = [
            (build_min_matrix(150), 1, {"_det_int64"}),
            (char_matrix(120, 5), charpoly(120)(5), {"_det_int64", "_det_mod"}),
            (delta, delta_det_closed(inc), {"_det_mod"}),
        ]
        for matrix, expected, routes in cases:
            seen.clear()
            assert det_bareiss(matrix) == expected
            assert {name for name, _ in seen} == routes
            assert {size for _, size in seen} == {determinants._UFUNC_BUFFER} != {before}
            assert np.getbufsize() == before

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        for name, matrix in (("_det_int64", build_min_matrix(150)), ("_det_mod", delta)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(determinants, name, stop)
                with pytest.raises(Stop):
                    det_bareiss(matrix)
            assert np.getbufsize() == before

    def test_working_set_follows_the_budget(self):
        # A working array and a scratch of _CRT_BUDGET_ELEMENTS int64 in
        # all, plus the entries' load and conversion, a few dozen bytes
        # each. The differenced form of lam*I - A_120 loads as one int64
        # array; that of a dimension-48 delta matrix of signed 64-bit
        # increments, their diagonal, as two 32-bit limbs per entry.
        inc = increments(random.Random(48), 48)
        cases = [(char_matrix(120, 5), charpoly(120)(5)), (build_delta_matrix(inc), delta_det_closed(inc))]
        budget = determinants._CRT_BUDGET_ELEMENTS - determinants._CRT_SCRATCH_ELEMENTS
        for matrix, expected in cases:
            rows = matrix.to_lists()
            n = len(rows)
            count = len(determinants._crt_primes(2 * determinants._hadamard(rows)[0] + 1)[0])
            # More primes than one pass takes.
            assert count * n * n > budget
            # Under the buffer size that det_bareiss sets.
            buffer = np.setbufsize(determinants._UFUNC_BUFFER)
            tracemalloc.start()
            try:
                value = determinants._det_crt(rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                np.setbufsize(buffer)
            assert value == expected
            assert peak < 8 * determinants._CRT_BUDGET_ELEMENTS + 64 * n * n

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, _INT64_MIN_DIM + 8),
        st.randoms(use_true_random=False),
        st.lists(
            st.tuples(st.integers(30, 130), st.sampled_from([1, -1])), min_size=1, max_size=12
        ),
    )
    def test_planted_large_entries_match_reference(self, n, rng, planted):
        rows = random_rows(rng, n, -9, 9)
        for e, sign in planted:
            rows[rng.randrange(n)][rng.randrange(n)] = sign * (2**e + rng.randrange(2**e))
        assert crt(rows) == reference(rows)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)


def increments(rng, count):
    return [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(count)]


def undifferenced(d):
    """L·d·Lᵀ for the all-ones lower triangle L = Δ⁻¹: entry (i, j) sums
    d over rows <= i and columns <= j, so differenced() gives d back."""
    down = [list(accumulate(column)) for column in zip(*d)]
    return [list(accumulate(row)) for row in zip(*down)]


def bareiss_block(rows, steps):
    """The active block and previous pivot after ``steps`` Bareiss steps
    on ``rows`` in Python ints, without row swaps: what a hand-off passes
    to the multi-modular route."""
    prev = 1
    for _ in range(steps):
        pivot, *tail = rows[0]
        rows = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in rows[1:]]
        prev = pivot
    return rows, prev


def spy_steps(monkeypatch):
    """Record each call of _det_mod: the shape of every chunk of the block
    its updates subtract from, and the count of modular inverses it
    computes."""
    calls = []
    inside = []
    det_mod = determinants._det_mod

    class Block(np.ndarray):
        def __isub__(self, other):
            calls[-1]["updates"].append(self.shape)
            return super().__isub__(other)

    def spy(a, p, scratch):
        calls.append({"updates": [], "inverses": 0, "primes": len(p)})
        inside.append(True)
        try:
            return det_mod(a.view(Block), p, scratch)
        finally:
            inside.pop()

    def spy_pow(*args):
        # The module's every pow, the Chinese remaindering's included:
        # only those inside _det_mod are its inverses.
        if inside:
            calls[-1]["inverses"] += 1
        return pow(*args)

    monkeypatch.setattr(determinants, "_det_mod", spy)
    monkeypatch.setattr(determinants, "pow", spy_pow, raising=False)
    return calls


class TestDifferencedElimination:
    """The multi-modular route eliminates the rows that _hadamard bounds,
    D = Δ·X·Δᵀ where its bound is no larger, else X itself, and each step
    of _det_mod updates only the span of rows whose lead is nonzero mod
    some prime and the span of columns whose pivot-row entry is."""

    @pytest.mark.parametrize("taken", ["D", "X"])
    def test_whole_matrix(self, taken):
        # A random tridiagonal D of 40-bit entries, summed up into X, has
        # the smaller differenced bound; a dense random X has the smaller
        # plain one. Python rows and an int64 array load alike.
        rng = random.Random(taken)
        n = 30
        if taken == "D":
            d = [[rng.randint(-(2**40), 2**40) if abs(r - c) <= 1 else 0 for c in range(n)] for r in range(n)]
            rows = undifferenced(d)
            assert determinants._hadamard(rows)[1] == differenced(rows) == d
        else:
            rows = random_rows(rng, n, -(2**40), 2**40)
            assert determinants._hadamard(rows)[1] is rows
        expected = reference(rows)
        assert crt(rows) == expected
        assert crt(np.array(rows, dtype=np.int64)) == expected

    @pytest.mark.parametrize("taken", ["D", "X"])
    def test_hand_off(self, taken):
        # The block after 10 steps on 3*I - A_40 keeps the cumulative
        # structure, so D is taken; the block after 5 steps on a random
        # matrix has none, so X is. Both pass prev > 1, as a hand-off does.
        if taken == "D":
            rows, steps = char_matrix(40, 3).to_lists(), 10
        else:
            rows, steps = random_rows(random.Random(5), 30), 5
        block, prev = bareiss_block(rows, steps)
        assert abs(prev) > 1
        bounded = determinants._hadamard(block)[1]
        assert bounded == differenced(block) if taken == "D" else bounded is block
        expected = reference(rows)
        assert determinants._det_crt(np.array(block, dtype=np.int64), prev) == expected
        assert determinants._det_crt(block, prev) == expected

    @pytest.mark.parametrize("planted", [0, 268_435_399], ids=["zero", "largest prime"])
    def test_diagonal_zero_pivot_without_a_row_to_swap(self, monkeypatch, planted):
        # A delta matrix leaves D = diag(increments). An increment of 0, or
        # of the largest prime, is a pivot that is zero mod every prime or
        # mod that one, with nothing below it to swap in: that residue of
        # the determinant is 0, and no step updates or inverts anything.
        assert determinants._crt_primes(1)[0] == [268_435_399]
        inc = increments(random.Random(48), 48)
        inc[17] = planted
        rows = build_delta_matrix(inc).to_lists()
        assert determinants._hadamard(rows)[1] == differenced(rows)
        steps = spy_steps(monkeypatch)
        assert crt(rows) == reference(rows) == delta_det_closed(inc)
        assert [(call["updates"], call["inverses"]) for call in steps] == [([], 0)] * len(steps)

    def test_zero_pivot_mod_one_prime_swaps_inside_the_span(self, monkeypatch):
        # D's pivot at step s is a multiple of the first prime q, and the
        # entry below it is not: q's slice swaps rows s and s + 1 and the
        # other primes' slices do not. Row s + 1's lead is nonzero mod
        # those primes, column s + 1 of the pivot row is nonzero mod all,
        # so the step updates that one entry and nothing else.
        rng = random.Random(11)
        n, s = 30, 12
        primes = determinants._crt_primes(2**200)[0][:3]
        q = primes[0]
        d = [[rng.randint(2**30, 2**40) * (r == c) for c in range(n)] for r in range(n)]
        d[s][s] = q * rng.randint(1, 2**12)
        d[s + 1][s], d[s][s + 1] = rng.randint(1, 2**12), rng.randint(1, 2**12)
        rows = undifferenced(d)
        assert determinants._hadamard(rows)[1] == d
        expected = reference(rows)
        assert expected % q != 0
        steps = spy_steps(monkeypatch)
        assert residues_by_slice(d, primes) == [expected % p for p in primes]
        assert crt(rows) == expected
        for call in steps:
            assert call["updates"] == [(1, 1, call["primes"])]
            assert call["inverses"] == call["primes"]

    def test_hand_off_whose_differenced_entries_overflow_int64(self, monkeypatch, phases):
        # Increments 2**62, then -(2**63 + 1), 2**63 + 2, ...: the prefix
        # sums stay near +-2**62, so the matrix converts to int64, and the
        # int64 phase hands all 30 rows off at step 0. D = diag(increments)
        # has the smaller bound but entries past int64, so it loads as
        # 32-bit limbs.
        n = 30
        inc = [2**62] + [(-1) ** i * (2**63 + i) for i in range(1, n)]
        rows = build_delta_matrix(inc).to_lists()
        assert max(max(map(abs, row)) for row in rows) < 2**63 <= max(map(abs, inc))
        limbs = []
        limb_residues = determinants._limb_residues

        def spy(out, limbs_in, p, scratch):
            limbs.append(limbs_in.shape)
            return limb_residues(out, limbs_in, p, scratch)

        monkeypatch.setattr(determinants, "_limb_residues", spy)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows) == delta_det_closed(inc)
        assert_one_hand_off(phases, n, n)
        assert limbs and {shape for shape in limbs} == {(n * n, 2)}

    def test_spans_on_delta_and_char_matrices(self, monkeypatch, phases):
        # A dimension-48 delta matrix of 64-bit increments: D is diagonal,
        # so its two passes, of 99 and 10 primes, make no update and no
        # inverse. The blocks that lam*I - A_120 hands off have a
        # tridiagonal D: every step updates one entry, one row.
        steps = spy_steps(monkeypatch)
        inc = increments(random.Random(48), 48)
        assert det_bareiss(build_delta_matrix(inc)) == delta_det_closed(inc)
        assert [(call["primes"], call["updates"], call["inverses"]) for call in steps] == [
            (99, [], 0),
            (10, [], 0),
        ]
        poly = charpoly(120)
        for lam in (-3, -2, -1, 2, 3, 4, 5):
            steps.clear()
            phases["handed"].clear()
            assert det_bareiss(char_matrix(120, lam)) == poly(lam)
            [handed] = phases["handed"]
            [call] = steps
            k = call["primes"]
            assert call["updates"] == [(1, 1, k)] * (handed - 1)
            assert call["inverses"] == k * (handed - 1)


class TestRouting:
    def test_64_bit_delta_and_theta_go_to_crt(self, crt_calls):
        rng = random.Random(48)
        inc = increments(rng, 48)
        assert det_bareiss(build_delta_matrix(inc)) == delta_det_closed(inc)
        inc = increments(rng, 49)
        assert det_bareiss(build_theta_matrix(inc)) == theta_det_closed(inc)
        assert crt_calls == [48, 48]

    def test_paper_matrices_never_go_to_crt(self, crt_calls, monkeypatch):
        poly = charpoly(120)
        # lam*I - A_120 for lam outside {0, 1} hands off a block of 91-108
        # rows, which the multi-modular route finishes.
        handing_off = [-3, -2, -1, 2, 3, 4, 5]
        for lam in handing_off:
            assert det_bareiss(char_matrix(120, lam)) == poly(lam)
        blocks = [108, 106, 99, 91, 101, 105, 108]
        assert crt_calls == blocks

        def no_hadamard(rows):
            raise AssertionError("Hadamard bound computed")

        # They never hand off, so they never reach the route or compute a
        # Hadamard bound.
        monkeypatch.setattr(determinants, "_hadamard", no_hadamard)
        for lam in (0, 1):
            assert det_bareiss(char_matrix(120, lam)) == poly(lam)
        assert det_bareiss(build_min_matrix(200)) == 1
        assert det_bareiss(build_c_matrix(219, 70)) == 70
        assert crt_calls == blocks

    def test_matrix_is_left_unchanged(self):
        # det_bareiss reads the matrix's own rows, so no route may write
        # to them: not the Python-int loop's row swaps, not a hand-off,
        # not the multi-modular route on entries past int64.
        cases = [
            ExactMatrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
            build_c_matrix(60, 7),
            char_matrix(120, 5),
            build_delta_matrix(increments(random.Random(30), 30)),
        ]
        for matrix in cases:
            before = matrix.to_lists()
            det_bareiss(matrix)
            assert matrix.to_lists() == before

    def test_one_route_rule(self, phases, monkeypatch):
        # Entries inside int64 always start in the int64 phase; the
        # multi-modular route is reached from there only by a hand-off,
        # and only then is Hadamard's bound computed, on the block left.
        # c*I + J with c near 2**6 * n**1.5 at n = 24, rows far longer
        # than the dimension alone gives, hands off 22 rows.
        # t*J + I has minors of at most 1 + n*t: near t = 64*n it never
        # hands off, and at t = 2**40 its first update overflows, so all
        # 48 rows are handed off.
        hadamard = determinants._hadamard
        bounded = []

        def spy_hadamard(rows):
            bounded.append(len(rows))
            return hadamard(rows)

        monkeypatch.setattr(determinants, "_hadamard", spy_hadamard)

        def route(rows, expected):
            for seen in (*phases.values(), bounded):
                seen.clear()
            assert det_bareiss(ExactMatrix(rows)) == expected
            assert phases["int64"] == [len(rows)]
            return phases["handed"], phases["python"], phases["crt"], bounded

        n = _INT64_MIN_DIM
        crossing = isqrt(n**3 << 12)
        for c in range(crossing - 150, crossing + 150, 25):
            rows = scaled_identity_plus_ones(n, c)
            assert route(rows, c ** (n - 1) * (c + n)) == ([n - 2], [], [n - 2], [n - 2])
        for t in range(64 * n - 3, 64 * n + 4):
            assert route(scaled_ones_plus_identity(n, t), 1 + n * t) == ([], [], [], [])
        t = 2**40
        assert route(scaled_ones_plus_identity(48, t), 1 + 48 * t) == ([48], [], [48], [48])


def leading_minors(rows):
    """Every leading principal minor of rows, each by the Python-int loop."""
    return [reference([row[:m] for row in rows[:m]]) for m in range(1, len(rows) + 1)]


def unit_lu(rng, n):
    """L * U with L unit lower and U unit upper triangular, off-diagonal
    entries in -1..1: every leading minor is 1."""
    lower = [[int(r == c) or (rng.randint(-1, 1) if c < r else 0) for c in range(n)] for r in range(n)]
    upper = [[int(r == c) or (rng.randint(-1, 1) if c > r else 0) for c in range(n)] for r in range(n)]
    return [[sum(lower[r][t] * upper[t][c] for t in range(n)) for c in range(n)] for r in range(n)]


class TestLeadingMinors:
    """_det_minors: det_bareiss's determinant and route, and the leading
    minors that its elimination reads up to a row swap or hand-off."""

    @pytest.mark.parametrize("n", [1, 2, 12, _INT64_MIN_DIM - 1, _INT64_MIN_DIM, 40])
    def test_record_is_every_leading_minor(self, phases, n):
        rng = random.Random(n)
        reads = []
        for rows in (unit_lu(rng, n), scaled_identity_plus_ones(n, 1), scaled_identity_plus_ones(n, 3)):
            expected = leading_minors(rows)
            for seen in phases.values():
                seen.clear()
            det, minors = determinants._det_minors(ExactMatrix(rows))
            assert det == det_bareiss(ExactMatrix(rows)) == expected[-1]
            assert phases["int64" if n >= _INT64_MIN_DIM else "python"] == [n] * 2
            # A zero leading minor makes its step swap rows; a hand-off of
            # h rows comes at step n - h, whose pivot is read first.
            read = expected.index(0) if 0 in expected else n
            for handed in phases["handed"]:
                read = min(read, n - handed + 1)
            assert minors == expected[:read]
            reads.append(read)
        # L * U and I + J read every minor. 3*I + J, whose minors are
        # 3**(m - 1) * (m + 3), leaves int64 from dimension 24 up, at step 18.
        assert reads == [n, n, n if n < _INT64_MIN_DIM else 19]

    @pytest.mark.parametrize("n", [12, 30])
    @pytest.mark.parametrize("step", [0, 5])
    def test_swap_stops_the_record(self, phases, n, step):
        # Row step agrees with row 0 on the first step + 1 columns, so the
        # leading (step + 1)-minor is 0 and step `step` swaps rows.
        rng = random.Random(step)
        while True:
            rows = random_rows(rng, n, -3, 3)
            rows[step][: step + 1] = rows[0][: step + 1] if step else [0]
            expected = leading_minors(rows)
            if all(expected[:step]) and expected[-1]:
                break
        det, minors = determinants._det_minors(ExactMatrix(rows))
        assert det == expected[-1]
        assert minors == expected[:step]
        # Any hand-off comes after the swap.
        assert all(handed < n - step for handed in phases["handed"])

    def test_entries_past_int64_record_nothing(self):
        inc = increments(random.Random(24), 24)
        assert determinants._det_minors(build_delta_matrix(inc)) == (delta_det_closed(inc), [])

    def test_paper_matrices_record_every_minor(self):
        assert determinants._det_minors(build_min_matrix(150)) == (1, [1] * 150)
        assert determinants._det_minors(build_c_matrix(189, 40)) == (40, [40] * 150)
        assert determinants._det_minors(build_c_matrix(20, 5)) == (5, [5] * 16)

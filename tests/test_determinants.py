import random

import pytest
from hypothesis import given, settings
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
from minmatrix.symmetric import char_matrix


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
    return _eliminate([row[:] for row in rows], 1, 1)


@pytest.fixture
def phases(monkeypatch):
    """Record each entry into the int64 phase (its dimension) and each call
    of the Python-int loop (the size of the block it gets)."""
    seen = {"int64": [], "python": []}
    det_int64 = determinants._det_int64
    eliminate = determinants._eliminate

    def spy_int64(rows):
        seen["int64"].append(len(rows))
        return det_int64(rows)

    def spy_eliminate(rows, sign, prev):
        seen["python"].append(len(rows))
        return eliminate(rows, sign, prev)

    monkeypatch.setattr(determinants, "_det_int64", spy_int64)
    monkeypatch.setattr(determinants, "_eliminate", spy_eliminate)
    return seen


def random_rows(rng, n, low=-9, high=9):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def scaled_identity_plus_ones(n, c):
    """c*I + J, whose determinant is c**(n-1) * (c + n) and whose Bareiss
    pivots grow like powers of c."""
    return [[c * (r == col) + 1 for col in range(n)] for r in range(n)]


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
        assert phases == {"int64": [200, 150], "python": []}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_int64_entries_hand_off_at_once(self, phases, sign):
        n = _INT64_MIN_DIM
        rows = build_c_matrix(n + 2, 3).to_lists()
        rows[0][0] = sign * (2**63 - 1)
        rows[n - 1][n - 1] = -sign * (2**63 - 1)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases == {"int64": [n], "python": [n]}

    @pytest.mark.parametrize("big", [2**63, -(2**63)])
    def test_entries_past_int64_skip_the_phase(self, phases, big):
        rows = build_c_matrix(_INT64_MIN_DIM + 9, 10).to_lists()
        rows[5][7] = big
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        assert phases["int64"] == []

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
        assert all(size <= n - 2 for size in phases["python"])

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
            assert phases["python"] == []
        else:
            [handed] = phases["python"]
            assert 1 < handed < n

    def test_hand_off_step_follows_pivot_growth(self, phases):
        n = 48
        for b in range(1, 9):
            c = 2**b
            rows = scaled_identity_plus_ones(n, c)
            assert det_bareiss(ExactMatrix(rows)) == c ** (n - 1) * (c + n)
        handed = phases["python"]
        assert len(handed) == 8
        assert handed == sorted(handed)
        assert len(set(handed)) >= 6
        assert all(1 < size < n for size in handed)

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

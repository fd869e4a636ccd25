from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minmatrix import (
    ExactMatrix,
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
    delta_det_closed,
    det_bareiss,
    prefix_sums,
    theta_det_closed,
)
from minmatrix.symmetric import char_matrix

increments = st.lists(st.integers(-50, 50), min_size=1, max_size=10)


class TestPrefixSums:
    def test_unit_increments(self):
        assert prefix_sums([1, 1, 1]) == [1, 2, 3]

    def test_hand_summation(self):
        assert prefix_sums([2, 3, 4]) == [2, 5, 9]

    def test_single_element(self):
        assert prefix_sums([5]) == [5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prefix_sums([])


class TestMinMatrix:
    def test_smallest(self):
        assert build_min_matrix(1).to_lists() == [[1]]

    def test_displayed_3x3(self):
        assert build_min_matrix(3).to_lists() == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]

    def test_entry_is_min(self):
        assert build_min_matrix(5).entry(2, 4) == 2

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            build_min_matrix(0)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_entries_nondecreasing_along_rows_and_columns(self, n):
        m = build_min_matrix(n)
        for r in range(1, n + 1):
            for c in range(1, n):
                assert m.entry(r, c) <= m.entry(r, c + 1)
                assert m.entry(c, r) <= m.entry(c + 1, r)


class TestCMatrix:
    def test_displayed_instance(self):
        assert build_c_matrix(4, 2).to_lists() == [[2, 2, 2], [2, 3, 3], [2, 3, 4]]

    def test_small_instance(self):
        assert build_c_matrix(3, 2).to_lists() == [[2, 2], [2, 3]]

    @pytest.mark.parametrize("n,k", [(4, 4), (4, 1), (4, 5), (3, 3)])
    def test_out_of_range_shift_rejected(self, n, k):
        with pytest.raises(ValueError):
            build_c_matrix(n, k)


class TestDeltaMatrix:
    @pytest.mark.parametrize("n", range(1, 31))
    def test_unit_increments_give_min_matrix(self, n):
        assert build_delta_matrix([1] * n) == build_min_matrix(n)

    def test_prefix_sum_construction(self):
        assert build_delta_matrix([2, 3, 4]).to_lists() == [
            [2, 2, 2],
            [2, 5, 5],
            [2, 5, 9],
        ]

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (9, 8)])
    def test_shift_increments_give_c_matrix(self, n, k):
        inc = [k] + [1] * (n - k)
        assert build_delta_matrix(inc) == build_c_matrix(n, k)

    @given(increments)
    def test_always_symmetric(self, inc):
        rows = build_delta_matrix(inc).to_lists()
        assert rows == [list(column) for column in zip(*rows)]

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    def test_positive_mode_leading_minors_are_increment_products(self, inc):
        # leading-minor criterion for positive definiteness
        matrix = build_delta_matrix(inc)
        product = 1
        for m in range(1, len(inc) + 1):
            product *= inc[m - 1]
            leading = matrix.submatrix(range(1, m + 1))
            assert det_bareiss(leading) == product
            assert product > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_delta_matrix([])


class TestThetaMatrix:
    def test_base_case_display(self):
        assert build_theta_matrix([2, 3, 5]).to_lists() == [[2, 5], [2, 10]]

    def test_unit_increments_2x2(self):
        assert build_theta_matrix([1, 1, 1]).to_lists() == [[1, 2], [1, 3]]

    def test_unit_increments_3x3(self):
        assert build_theta_matrix([1, 1, 1, 1]).to_lists() == [
            [1, 2, 2],
            [1, 3, 3],
            [1, 3, 4],
        ]

    @pytest.mark.parametrize("inc", [[], [1], [1, 2]])
    def test_too_short_rejected(self, inc):
        with pytest.raises(ValueError):
            build_theta_matrix(inc)


def by_entry(n, entry):
    """The n x n matrix whose 1-based entry (r, c) is entry(r, c)."""
    return [[entry(r, c) for c in range(1, n + 1)] for r in range(1, n + 1)]


def one_based_sums(inc):
    """[None, P_1, ..., P_n]: the prefix sums by a running total."""
    sums, total = [None], 0
    for x in inc:
        total += x
        sums.append(total)
    return sums


# Signed increments, small and up to 64 bits, up to dimension 60.
signed = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
shifted_cases = st.integers(3, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1)))


class TestDefinitions:
    """Each constructor equals its per-entry definition."""

    @given(st.integers(1, 60))
    def test_min_matrix(self, n):
        assert build_min_matrix(n).to_lists() == by_entry(n, min)

    @given(shifted_cases)
    def test_c_matrix(self, nk):
        n, k = nk
        expected = by_entry(n - k + 1, lambda r, c: k - 1 + min(r, c))
        assert build_c_matrix(n, k).to_lists() == expected

    @given(st.lists(signed, min_size=1, max_size=60))
    def test_delta_matrix(self, inc):
        p = one_based_sums(inc)
        assert build_delta_matrix(inc).to_lists() == by_entry(len(inc), lambda r, c: p[min(r, c)])

    @given(st.lists(signed, min_size=3, max_size=61))
    def test_theta_matrix(self, inc):
        p = one_based_sums(inc)
        expected = by_entry(len(inc) - 1, lambda r, c: p[1] if c == 1 else p[min(r + 1, c + 1)])
        assert build_theta_matrix(inc).to_lists() == expected


class TestExactMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3, 4], [5, 6]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExactMatrix([])

    def test_entry_bounds(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        with pytest.raises(IndexError):
            m.entry(0, 1)
        with pytest.raises(IndexError):
            m.entry(1, 3)

    def test_immutable(self):
        m = ExactMatrix([[1]])
        with pytest.raises(AttributeError):
            m.dim = 2

    def test_to_lists_is_a_copy(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        rows = m.to_lists()
        rows[0][0] = 99
        assert m.entry(1, 1) == 1

    def test_submatrix(self):
        m = build_min_matrix(4)
        assert m.submatrix([2, 4]).to_lists() == [[2, 2], [2, 4]]
        with pytest.raises(ValueError, match="nonempty"):
            m.submatrix([])
        for bad in ([0], [2, 5]):
            with pytest.raises(IndexError):
                m.submatrix(bad)

    def test_equality_hash_and_repr(self):
        m = ExactMatrix([[1, 2], [2, 5]])
        assert m == ExactMatrix([[1, 2], [2, 5]]) != ExactMatrix([[1, 2], [2, 4]])
        assert m.__eq__(3) is NotImplemented and m != 3
        assert m == ExactMatrix(m.to_lists()) != build_min_matrix(2)
        with pytest.raises(TypeError, match="unhashable"):
            hash(m)
        assert repr(m) == "ExactMatrix([[1, 2], [2, 5]])"
        assert eval(repr(m)) == m


class TestStrictIntegers:
    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", Fraction(3, 2), True, False])
    def test_matrix_rejects_non_integer_entries(self, bad):
        with pytest.raises(TypeError):
            ExactMatrix([[1, bad], [bad, 1]])

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", Fraction(3, 2), True, False])
    @pytest.mark.parametrize(
        "consumer",
        [prefix_sums, build_delta_matrix, build_theta_matrix, delta_det_closed, theta_det_closed],
    )
    def test_increments_reject_non_integers(self, consumer, bad):
        with pytest.raises(TypeError):
            consumer([bad, 2, 3])

    def test_numpy_bools_rejected(self):
        with pytest.raises(TypeError):
            ExactMatrix(np.array([[1, 0], [0, 1]], dtype=np.bool_))
        with pytest.raises(TypeError):
            delta_det_closed(np.array([True, True]))

    @given(
        st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3),
        st.integers(0, 8),
        st.booleans(),
    )
    def test_one_bool_anywhere_is_rejected(self, rows, at, flag):
        rows[at // 3][at % 3] = flag
        with pytest.raises(TypeError):
            ExactMatrix(rows)
        with pytest.raises(TypeError):
            delta_det_closed(rows[at // 3])

    def test_numpy_integers_become_python_ints(self):
        matrix = ExactMatrix(np.array([[2, 1], [1, 3]], dtype=np.int64))
        assert matrix.to_lists() == [[2, 1], [1, 3]]
        assert all(type(x) is int for row in matrix.to_lists() for x in row)
        assert delta_det_closed(np.array([2, 3, 4], dtype=np.int32)) == 24


# Every builder hands its rows to the matrix without the public
# constructor's entry scan; the rows must still be what that scan accepts.
BUILDERS = {
    "min": lambda i: build_min_matrix(i(6)),
    "c": lambda i: build_c_matrix(i(9), i(4)),
    "delta": lambda i: build_delta_matrix([i(v) for v in (3, -1, 4, 1, -5)]),
    "theta": lambda i: build_theta_matrix([i(v) for v in (2, -3, 5, 1, 7)]),
    "submatrix": lambda i: build_delta_matrix([i(v) for v in (3, -1, 4, 1)]).submatrix(
        [i(1), i(3), i(4)]
    ),
    "char": lambda i: char_matrix(i(5), i(-7)),
}


class TestBuilders:
    @pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.int8])
    @pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
    def test_rows_are_what_the_public_constructor_builds(self, builder, cast):
        matrix = builder(cast)
        rows = matrix.to_lists()
        assert matrix == ExactMatrix(rows)
        assert matrix.dim == len(rows)
        assert all(type(x) is int for row in rows for x in row)

    def test_char_matrix_entries(self):
        assert char_matrix(3, 5).to_lists() == [[4, -1, -1], [-1, 3, -2], [-1, -2, 2]]
        assert char_matrix(2, 2**70).to_lists() == [[2**70 - 1, -1], [-1, 2**70 - 2]]

    @pytest.mark.parametrize("lam", [1.5, 2.0, "3", Fraction(3, 2), True, np.True_])
    def test_char_matrix_rejects_non_integer_lam(self, lam):
        with pytest.raises(TypeError):
            char_matrix(3, lam)

    def test_char_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            char_matrix(0, 5)

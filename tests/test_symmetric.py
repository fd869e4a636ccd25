import math
import operator
import random
import tracemalloc
from itertools import accumulate, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_verification import binomial_identity_check

from minmatrix import (
    BRUTE_FORCE_CAP,
    METHODS,
    BruteForceCapExceeded,
    ExactMatrix,
    binomial,
    build_min_matrix,
    build_sym_table,
    char_matrix,
    charpoly,
    det_bareiss,
    symfun,
    symfun_closed,
    symfun_minor_sum,
    symfun_nested,
    symfun_ratio,
    symfun_rec6,
    symfun_rec7,
)


def closed_columns(n_max):
    """Column k is the tuple C(n + k, n - k) for n = k, ..., n_max."""
    return tuple(
        tuple(math.comb(n + k, n - k) for n in range(k, n_max + 1)) for k in range(n_max + 1)
    )


def pascal_triangle(depth):
    rows = [[1]]
    for _ in range(depth):
        prev = rows[-1]
        rows.append([1] + [prev[j] + prev[j + 1] for j in range(len(prev) - 1)] + [1])
    return rows


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 1) == 5
        assert binomial(6, 6) == 1
        assert binomial(10, 5) == 252

    def test_against_pascal_triangle(self):
        rows = pascal_triangle(20)
        for a in range(21):
            for b in range(a + 1):
                assert binomial(a, b) == rows[a][b]

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_upper_index_falling_factorial(self):
        assert binomial(-1, 0) == 1
        assert binomial(-1, 2) == 1
        assert binomial(-2, 0) == 1
        assert binomial(-2, 1) == -2
        assert binomial(-2, 3) == -4


class TestClosedForm:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_k_zero_is_one(self, n):
        assert symfun_closed(n, 0) == 1

    @pytest.mark.parametrize("n", range(1, 20))
    def test_k_one_is_trace(self, n):
        assert symfun_closed(n, 1) == n * (n + 1) // 2

    def test_small_value(self):
        assert symfun_closed(3, 2) == 5

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, 4), (3, -1)])
    def test_bad_arguments(self, n, k):
        with pytest.raises(ValueError):
            symfun_closed(n, k)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_reflection(self, n):
        for k in range(n + 1):
            assert symfun_closed(n, k) == math.comb(n + k, 2 * k)

    def test_strict_growth_in_n(self):
        for n in range(1, 30):
            for k in range(1, n + 1):
                assert symfun_closed(n, k) < symfun_closed(n + 1, k)


class TestMinorSum:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_size_minor_is_determinant(self, n):
        assert symfun_minor_sum(n, n) == 1

    def test_explicit_minors_3_2(self):
        # the three 2x2 principal minors of the 3x3 min matrix: 1, 2, 2
        assert symfun_minor_sum(3, 2) == 5

    def test_six_minors_4_2(self):
        assert symfun_minor_sum(4, 2) == 15 == math.comb(6, 2)

    def test_cap_enforced(self):
        with pytest.raises(BruteForceCapExceeded):
            symfun_minor_sum(15, 3)


def enumerated_minor_sum(n, k):
    """Reference: one fresh elimination per k-subset of {1, ..., n}."""
    if k == 0:
        return 1
    matrix = build_min_matrix(n)
    return sum(
        det_bareiss(matrix.submatrix(subset))
        for subset in combinations(range(1, n + 1), k)
    )


NOT_DEFINITE = [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
SINGULAR_234 = [[1, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 0], [0, 1, 0, 2]]
# Leading minors 9, 29, 281, then det A[{1, 2, 3, 4}] = -534; with
# A[4][4] = 6 the matrix would be positive definite.
NOT_DEFINITE_1234 = [
    [9, -5, 0, 3, -6, 4],
    [-5, 6, -1, -2, 6, 0],
    [0, -1, 10, 3, -4, 2],
    [3, -2, 3, 0, -3, 2],
    [-6, 6, -4, -3, 12, -2],
    [4, 0, 2, 2, -2, 8],
]


def random_definite(n, seed):
    """B * B^T + I for a seeded random B with entries in -3..3: symmetric
    positive definite, its entries distinct enough that a misplaced entry
    changes some minor."""
    r = random.Random(seed)
    b = [[r.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return ExactMatrix([
        [sum(x * y for x, y in zip(b[i], b[j])) + (i == j) for j in range(n)] for i in range(n)
    ])


class TestMinorWalk:
    @pytest.mark.parametrize("n", range(10))
    def test_matches_subset_enumeration(self, n):
        for k in range(n + 1):
            assert symfun_minor_sum(n, k) == enumerated_minor_sum(n, k)

    @pytest.mark.parametrize("n_max", range(15))
    def test_table_matches_closed_table(self, n_max):
        minors = build_sym_table(n_max, "minors")
        assert minors.columns == build_sym_table(n_max, "closed").columns

    def test_table_cap_enforced(self):
        with pytest.raises(BruteForceCapExceeded):
            build_sym_table(15, "minors")

    def test_independent_of_other_methods(self, monkeypatch):
        # The walk is the six-way check's elimination route: it must reach
        # its values without det_bareiss or any other method's formula.
        import minmatrix.determinants as determinants
        import minmatrix.symmetric as symmetric

        expected = closed_columns(8)

        def forbidden(*args):
            raise AssertionError("the minor walk must compute its own minors")

        monkeypatch.setattr(determinants, "det_bareiss", forbidden)
        for name in ("binomial", "symfun_closed", "symfun_nested", "symfun_rec6",
                     "symfun_rec7", "symfun_ratio", "_ramp_sums", "_nested_columns",
                     "_rec6_columns", "_rec7_columns", "_ratio_column"):
            monkeypatch.setattr(symmetric, name, forbidden)
        assert symfun_minor_sum(8, 4) == expected[4][8 - 4]
        assert build_sym_table(8, "minors").columns == expected

    @pytest.mark.parametrize(
        "rows, k_max, first",
        [
            # The minor on indices {1, 2} is 1 - 4 = -3. At k_max = 4 the
            # walk builds the block of {1} and raises at that block's first
            # pivot; at k_max = 2 the block of {1} has no children, and only
            # its diagonal is formed.
            pytest.param(NOT_DEFINITE, 4, "-3 at index 2", id="4"),
            pytest.param(NOT_DEFINITE, 2, "-3 at index 2", id="2"),
            # The child {1, 2} has two rows, 3 and 4, and is read inline
            # from the block of {1}. Here its first pivot det A[{1, 2, 3}]
            # is -1.
            pytest.param(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]], 4, "-1 at index 3",
                id="inline-pivot-4",
            ),
            # Every minor is positive up to the grandchild minor
            # det A[{2, 3, 4}] = 0 of the child {2}, read inline from the
            # root's block at k_max = 3, and det A[{1, 2, 3, 4}] = 0 of the
            # child {1, 2} at k_max = 4. Its second pivot is 1.
            pytest.param(SINGULAR_234, 3, "0 at index 4", id="inline-minor-3"),
            pytest.param(SINGULAR_234, 4, "0 at index 4", id="inline-minor-4"),
            # The child {1, 2} has the second pivot det A[{1, 2, 4}] = -2.
            # The grandchild minor det A[{1, 2, 3, 4}] = -3 comes first, as
            # it does when the child is visited.
            pytest.param(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -2]], 4, "-3 at index 4",
                id="inline-second-pivot-4",
            ),
            # At n = 6, the first pivot of the block of {1, 2, 3}, built at
            # depth 4 from the block of {1, 2}, which was built at depth 3
            # from that of {1}: det A[{1, 2, 3, 4}] = -534 after the minors
            # 9, 29 and 281.
            pytest.param(NOT_DEFINITE_1234, 5, "-534 at index 4", id="built-pivot-5"),
            pytest.param(NOT_DEFINITE_1234, 6, "-534 at index 4", id="built-pivot-6"),
        ],
    )
    def test_non_positive_minor_raises(self, monkeypatch, rows, k_max, first):
        # A symmetric matrix that is not positive definite: the walk raises
        # at the first non-positive minor in its order.
        import minmatrix.symmetric as symmetric

        monkeypatch.setattr(symmetric, "build_min_matrix", lambda n: ExactMatrix(rows))
        with pytest.raises(ArithmeticError, match=rf"^non-positive principal minor {first}$"):
            symfun_minor_sum(len(rows), k_max)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sums_by_top_match_enumeration(self, monkeypatch, n):
        # On a positive definite matrix with distinct entries, every
        # sums[j][m] is the sum of det A[S, S] over the j-subsets S whose
        # largest index is m, each by a fresh elimination.
        import minmatrix.symmetric as symmetric

        matrix = random_definite(n, seed=n)
        monkeypatch.setattr(symmetric, "build_min_matrix", lambda size: matrix)
        expected = [[0] * (n + 1) for _ in range(n + 1)]
        expected[0][0] = 1
        for j in range(1, n + 1):
            for subset in combinations(range(1, n + 1), j):
                expected[j][subset[-1]] += det_bareiss(matrix.submatrix(subset))
        for k in range(n + 1):
            assert symmetric._minor_sums(n, k) == expected[: k + 1]


class TestNested:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_diagonal_single_composition(self, k):
        assert symfun_nested(k, k) == 1

    def test_compositions_3_2(self):
        assert symfun_nested(3, 2) == 5

    def test_compositions_2_1(self):
        assert symfun_nested(2, 1) == 3


class TestRecurrences:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_rec6_trace(self, n):
        assert symfun_rec6(n, 1) == n * (n + 1) // 2

    def test_rec6_small(self):
        assert symfun_rec6(3, 2) == 5

    def test_rec6_diagonal(self):
        assert symfun_rec6(4, 4) == 1

    def test_rec7_small(self):
        assert symfun_rec7(3, 2) == 5
        assert symfun_rec7(4, 4) == 1

    def test_ratio_values(self):
        assert symfun_ratio(4, 3) == 7
        assert symfun_ratio(5, 1) == 15
        assert symfun_ratio(6, 5) == 11

    def test_ratio_divisions_exact_through_60(self):
        for n in range(1, 61):
            for k in range(1, n):
                symfun_ratio(n, k)  # ArithmeticError on any remainder


class TestCrossMethodAgreement:
    def test_six_ways_up_to_12(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                expected = symfun_closed(n, k)
                assert symfun_minor_sum(n, k) == expected
                assert symfun_nested(n, k) == expected
                assert symfun_rec6(n, k) == expected
                assert symfun_rec7(n, k) == expected
                assert symfun_ratio(n, k) == expected

    def test_tables_agree_up_to_40(self):
        tables = [
            build_sym_table(40, m) for m in ("closed", "nested", "rec6", "rec7", "ratio")
        ]
        for n in range(41):
            for k in range(n + 1):
                assert len({t[n, k] for t in tables}) == 1

    def test_tables_agree_at_150(self):
        closed, *tables = [
            build_sym_table(150, m) for m in ("closed", "nested", "rec6", "rec7", "ratio")
        ]
        for table in tables:
            assert table.columns == closed.columns, table.method

    def test_dispatch(self):
        assert symfun(3, 2, method="nested") == 5
        with pytest.raises(ValueError):
            symfun(3, 2, method="magic")
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            build_sym_table(3, method="magic")
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            build_sym_table(-1)


POLYNOMIAL_METHODS = ("nested", "rec6", "rec7", "ratio")


class TestIterativeEngines:
    @pytest.mark.parametrize("method", POLYNOMIAL_METHODS)
    @pytest.mark.parametrize("n,k", [(2000, 2), (2000, 1995)])
    def test_large_n_has_no_recursion_limit(self, method, n, k):
        assert symfun(n, k, method=method) == math.comb(n + k, n - k)

    @pytest.mark.parametrize("method", POLYNOMIAL_METHODS)
    def test_single_values_match_table(self, method):
        table = build_sym_table(40, method)
        for n in range(41):
            for k in range(n + 1):
                assert symfun(n, k, method=method) == table[n, k]

    @pytest.mark.parametrize("method", POLYNOMIAL_METHODS)
    def test_independent_of_other_methods(self, monkeypatch, method):
        import minmatrix.symmetric as symmetric

        expected = closed_columns(12)
        single = getattr(symmetric, f"symfun_{method}")
        engines = {
            "nested": ("symfun_nested", "_nested_columns"),
            "rec6": ("symfun_rec6", "_rec6_columns"),
            "rec7": ("symfun_rec7", "_rec7_columns"),
            "ratio": ("symfun_ratio", "_ratio_column"),
            "minors": ("symfun_minor_sum", "_minor_sums"),
        }

        def forbidden(*args):
            raise AssertionError(f"{method} must not call another method")

        others = ["binomial", "symfun_closed"]
        for name, names in engines.items():
            if name != method:
                others.extend(names)
        if method not in ("nested", "rec6"):
            # rec7 is rec6's identity in additive form; it and ratio must
            # not borrow the weighted sums that nested and rec6 share.
            others.append("_ramp_sums")
        for name in others:
            monkeypatch.setattr(symmetric, name, forbidden)
        assert single(12, 5) == expected[5][12 - 5]
        assert build_sym_table(12, method).columns == expected


# The quadratic column fills that _ramp_sums and the carried prefix sum
# replaced, kept verbatim as references.


def _quadratic_nested_columns(lengths):
    """Column fill by exact totals. exact[e] sums i_1 * ... * i_j over the
    compositions of exactly j + e into j parts; splitting off the last
    part i makes it the sum of i * (previous exact)[e + 1 - i]. Column j
    holds the prefix sums of exact: S(j + e, j), totals at most j + e."""
    exact = [1] + [0] * (lengths[0] - 1)
    columns = [list(accumulate(exact))]
    for length in lengths[1:]:
        exact = [
            sum(map(operator.mul, range(e + 1, 0, -1), exact)) for e in range(length)
        ]
        columns.append(list(accumulate(exact)))
    return columns


def _quadratic_rec6_columns(lengths):
    """Column fill by S(m, j) = sum_{i=1}^{m-j+1} i * S(m-i, j-1); at
    m = j + d the weight i pairs with prev[d + 1 - i]."""
    columns = [[1] * lengths[0]]
    for length in lengths[1:]:
        prev = columns[-1]
        columns.append(
            [sum(map(operator.mul, range(d + 1, 0, -1), prev)) for d in range(length)]
        )
    return columns


def _quadratic_rec7_columns(lengths):
    """Column fill by S(m, j) = S(m-1, j) + sum_{i=1}^{m-j+1} S(m-i, j-1)
    from the diagonal S(j, j) = 1."""
    columns = [[1] * lengths[0]]
    for length in lengths[1:]:
        prev = columns[-1]
        column = [1]
        for d in range(1, length):
            column.append(column[-1] + sum(prev[: d + 1]))
        columns.append(column)
    return columns


FILLS = {
    "nested": ("_nested_columns", _quadratic_nested_columns),
    "rec6": ("_rec6_columns", _quadratic_rec6_columns),
    "rec7": ("_rec7_columns", _quadratic_rec7_columns),
}


class TestLinearFills:
    @pytest.mark.parametrize("method", FILLS)
    def test_trapezoids_match_quadratic_fill(self, method):
        import minmatrix.symmetric as symmetric

        name, reference = FILLS[method]
        fill = getattr(symmetric, name)
        # Column j of a fill depends only on column j - 1 and its length,
        # and every column of _trapezoid(n, k) has length n - k + 1, so the
        # reference on it is the first k + 1 columns of the reference on
        # the tallest trapezoid with that length.
        for length in range(1, 62):
            expected = reference(symmetric._trapezoid(60, 61 - length))
            for k in range(62 - length):
                lengths = symmetric._trapezoid(k + length - 1, k)
                assert [list(c) for c in fill(lengths)] == expected[: k + 1], (k + length - 1, k)

    @pytest.mark.parametrize("method", FILLS)
    def test_tables_match_quadratic_fill(self, method):
        import minmatrix.symmetric as symmetric

        name, reference = FILLS[method]
        fill = getattr(symmetric, name)
        for n_max in range(61):
            lengths = range(n_max + 1, 0, -1)
            assert [list(c) for c in fill(lengths)] == reference(lengths), n_max

    @given(st.data())
    def test_ramp_sums_are_weighted_sums(self, data):
        from minmatrix.symmetric import _ramp_sums

        values = data.draw(
            st.lists(st.one_of(st.just(0), st.integers(0, 2**80)), min_size=1, max_size=40)
        )
        length = data.draw(st.integers(1, len(values)))
        expected = [
            sum(i * values[d + 1 - i] for i in range(1, d + 2)) for d in range(length)
        ]
        assert _ramp_sums(values, length) == expected
        # The same map as a double prefix sum, which rec7 builds by additions.
        assert expected == list(accumulate(accumulate(values[:length])))

    @pytest.mark.parametrize("fn", [symfun_nested, symfun_rec6, symfun_rec7])
    @pytest.mark.parametrize("k", [1, 500, 750, 1499])
    def test_large_single_values(self, fn, k):
        assert fn(1500, k) == math.comb(1500 + k, 1500 - k)

    @pytest.mark.parametrize("method", FILLS)
    def test_single_value_holds_one_column_at_a_time(self, method):
        # Every column of S(600, 300) has 301 entries of up to ~800 bits,
        # about 40 kB; the whole trapezoid of 301 columns is about 7 MB.
        tracemalloc.start()
        try:
            value = symfun(600, 300, method=method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == math.comb(900, 300)
        assert peak < 2**20, peak


class TestSymfunRow:
    @pytest.mark.parametrize("method", METHODS)
    def test_row_is_the_tables_last_row(self, method):
        from minmatrix.symmetric import _symfun_row

        for n in range((BRUTE_FORCE_CAP if method == "minors" else 40) + 1):
            table = build_sym_table(n, method)
            assert _symfun_row(n, method) == [table[n, k] for k in range(n + 1)], n

    def test_minors_row_above_cap_raises(self):
        from minmatrix.symmetric import _symfun_row

        with pytest.raises(BruteForceCapExceeded):
            _symfun_row(BRUTE_FORCE_CAP + 1, "minors")

    @pytest.mark.parametrize("method", ["ratio", *FILLS])
    def test_row_holds_one_column_at_a_time(self, method):
        # Row 600 has 601 entries of up to ~1200 bits, about 0.1 MB, and so
        # does its longest column; the table up to 600 keeps all 601
        # columns, about 30 MB.
        from minmatrix.symmetric import _symfun_row

        tracemalloc.start()
        try:
            row = _symfun_row(600, method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row == [math.comb(600 + k, 600 - k) for k in range(601)]
        assert peak < 2**20, peak


class TestSymTable:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_max", [0, 5])
    def test_outside_the_triangle_raises_key_error(self, method, n_max):
        table = build_sym_table(n_max, method)
        for nk in [(-1, 0), (2, -1), (3, 4), (n_max + 1, 0)]:
            with pytest.raises(KeyError):
                table[nk]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_max", [0, 5])
    def test_columns_are_immutable_tuples(self, method, n_max):
        table = build_sym_table(n_max, method)
        assert type(table.columns) is tuple and len(table.columns) == n_max + 1
        with pytest.raises(TypeError):
            table.columns[0] = ()
        for k, column in enumerate(table.columns):
            assert type(column) is tuple and len(column) == n_max - k + 1
            with pytest.raises(TypeError):
                column[0] = 0


class TestBinomialIdentity:
    # The identity under the difference recurrence, by the reference that
    # check_binomial_identity's sweep is tested against.
    @pytest.mark.parametrize("n", range(8))
    def test_degenerate_diagonal(self, n):
        assert binomial_identity_check(n, n)

    def test_examples(self):
        assert binomial_identity_check(3, 2)
        assert binomial_identity_check(10, 4)

    def test_sweep_to_30(self):
        for n in range(31):
            for k in range(n + 1):
                assert binomial_identity_check(n, k)


class TestCharPoly:
    def test_one_by_one(self):
        assert charpoly(1).coeffs == (-1, 1)

    def test_two_by_two(self):
        assert charpoly(2).coeffs == (1, -3, 1)

    def test_evaluation_matches_oracle(self):
        p = charpoly(3)
        assert p(2) == det_bareiss(char_matrix(3, 2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_vieta_vs_oracle_sweep(self, n):
        p = charpoly(n)
        for lam in (-2, -1, 0, 1, 2):
            assert p(lam) == det_bareiss(char_matrix(n, lam))

    def test_monic(self):
        assert charpoly(9).coeffs[-1] == 1

    def test_coefficients_are_signed_binomials(self):
        # The ratio recurrence against a fresh math.comb per coefficient.
        for n in range(1, 301):
            expected = tuple((-1) ** k * math.comb(n + k, 2 * k) for k in range(n, -1, -1))
            assert charpoly(n).coeffs == expected, n

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            charpoly(0)

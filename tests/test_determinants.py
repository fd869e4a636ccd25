import random
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import event, example, given, settings
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
from minmatrix.determinants import _eliminate
from minmatrix.fibonacci import fib
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
    """Bareiss on the rows themselves, as a dense matrix: no differencing,
    and every row in the window from the first step."""
    return _eliminate([row[:] for row in rows], [0] * len(rows), [])


def berkowitz_minors(rows):
    """Every leading principal minor of rows, by Berkowitz's division-free
    algorithm (Inf. Process. Lett. 18, 1984): an oracle that shares no
    step with elimination. The characteristic polynomial of each leading
    block, highest coefficient first, is the last one's times a lower
    triangular Toeplitz matrix whose first column is 1, -a, -R·C, -R·A·C,
    ..., -R·A**(r-1)·C, for the leading r x r block A, the column C above
    and the row R left of the new diagonal entry a. Its constant term is
    the determinant of minus the block. O(n**4) ring operations, in
    Python ints."""
    n = len(rows)
    poly = [1, -rows[0][0]]
    minors = [rows[0][0]]
    for r in range(1, n):
        block = [row[:r] for row in rows[:r]]
        row_r = rows[r][:r]
        column = [row[r] for row in rows[:r]]
        toeplitz = [1, -rows[r][r]]
        for power in range(r):
            toeplitz.append(-sum(map(mul, row_r, column)))
            if power < r - 1:
                column = [sum(map(mul, row, column)) for row in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
        minors.append((-1) ** (r + 1) * poly[r + 1])
    return minors


def berkowitz_det(rows):
    return berkowitz_minors(rows)[-1]


def record_length(minors):
    """How many of the leading ``minors`` _det_minors records: all of them,
    unless one before the last is 0, where the record stops."""
    return next((m for m, value in enumerate(minors[:-1]) if value == 0), len(minors))


def random_rows(rng, n, low=-9, high=9):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def scaled_identity_plus_ones(n, c):
    """c*I + J, whose determinant is c**(n-1) * (c + n) and whose Bareiss
    pivots grow like powers of c."""
    return [[c * (r == col) + 1 for col in range(n)] for r in range(n)]


def signed_permutation(n):
    rng = random.Random(n)
    columns = list(range(n))
    rng.shuffle(columns)
    return [[rng.choice((1, -1)) * (c == columns[r]) for c in range(n)] for r in range(n)]


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


def paper_plant(value, where=(5, 7)):
    """C_{41,12}, of dimension 30, with ``value`` planted at ``where``."""
    rows = build_c_matrix(30 + 11, 12).to_lists()
    rows[where[0]][where[1]] = value
    return rows


def increments(rng, count):
    return [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(count)]


def extreme_corners():
    """C_{26,3}, of dimension 24, with 2**63 - 1 at (0, 0) and its negative
    at (23, 23)."""
    rows = build_c_matrix(26, 3).to_lists()
    rows[0][0], rows[23][23] = 2**63 - 1, -(2**63 - 1)
    return rows


def zero_pivot_rows():
    """Steps 0 and 1 swap rows: (0, 0) is zero, and after step 0, which
    brings row 2 up, row 1 becomes pivot * row 1, zero at column 1."""
    rows = random_rows(random.Random(11), 30, -3, 3)
    rows[0][0] = rows[1][0] = rows[1][1] = 0
    rows[2][0] = 1
    return rows


def pivot_over_zero_block(value, n=30):
    """``value`` at (0, 0), ones in the rest of row 0 and column 0, and a
    zero block."""
    return [[value] + [1] * (n - 1)] + [[1] + [0] * (n - 1) for _ in range(n - 1)]


def lead_over_zero_row(value, r):
    """C_{41,12} with ``value`` at (r, 0) under a pivot row (3, 0, ...)."""
    return [[3] + [0] * 29] + paper_plant(value, (r, 0))[1:]


def with_duplicate_row(rows):
    rows = [row[:] for row in rows]
    rows[20] = rows[3][:]
    return rows


def undifferenced(d):
    """L·d·Lᵀ for the all-ones lower triangle L = Δ⁻¹: entry (i, j) sums
    d over rows <= i and columns <= j, so Δ·X·Δᵀ of the result is d."""
    down = [list(accumulate(column)) for column in zip(*d)]
    return [list(accumulate(row)) for row in zip(*down)]


def band_swap():
    """X of a tridiagonal D of 40-bit entries whose row 12 is zero up to
    the diagonal: the leading 13-minor is 0, and step 12 swaps in row 13,
    inside the band."""
    rng = random.Random(11)
    n = 30
    d = [[rng.randint(1, 2**40) if abs(r - c) <= 1 else 0 for c in range(n)] for r in range(n)]
    d[12][11] = d[12][12] = 0
    return undifferenced(d)


def zero_increment_delta():
    """A delta matrix of 30 signed 64-bit increments, one of them 0: D is
    their diagonal, with a zero pivot at step 17 and no row to swap in."""
    inc = increments(random.Random(30), 30)
    inc[17] = 0
    return build_delta_matrix(inc).to_lists()


# Inputs of the band elimination: the paper's matrices, whose D is
# diagonal, diagonal and one entry below it, or tridiagonal; dense matrices
# whose pivots grow like powers of c; entries at the 32-bit limit, at
# int64's and past it, planted anywhere, as the pivot over a zero block or
# in the lead column over a zero pivot row; row swaps in a dense D and
# inside a band; and singular matrices.
ORACLE_EXAMPLES = [
    build_min_matrix(30).to_lists(),
    build_c_matrix(69, 40).to_lists(),
    char_matrix(40, 3).to_lists(),
    build_theta_matrix(increments(random.Random(31), 31)).to_lists(),
    paper_plant(2**31 - 1),
    paper_plant(-(2**31)),
    pivot_over_zero_block(-(2**31)),
    pivot_over_zero_block(2**40),
    lead_over_zero_row(2**40, 4),
    scaled_identity_plus_ones(30, -12),
    scaled_identity_plus_ones(30, 3 * 2**10 - 1),
    scaled_identity_plus_ones(40, 2**8),
    build_c_matrix(3 * 2**10 + 29, 3 * 2**10).to_lists(),
    # Row swaps: at steps 1, 4 and 15; at steps 0 and 1; at every step; at
    # step 12 of a tridiagonal D.
    block_upper(30, 3, {9, 25}, {1, 15}, random.Random(30)),
    zero_pivot_rows(),
    signed_permutation(30),
    band_swap(),
    # int64's largest entries, and its most negative value anywhere, in the
    # lead column over a zero pivot row and as the pivot over a zero block;
    # 2**200 planted, and every entry up to 2**64.
    extreme_corners(),
    paper_plant(-(2**63)),
    lead_over_zero_row(-(2**63), 7),
    pivot_over_zero_block(-(2**63)),
    paper_plant(2**200),
    random_rows(random.Random(64), 30, -(2**64), 2**64),
    # Rows that fit int64 whose differenced form does not.
    build_delta_matrix([2**62] + [(-1) ** i * (2**63 + i) for i in range(1, 30)]).to_lists(),
    # Singular: a duplicate row, a zero column, a zero increment, all zero.
    with_duplicate_row(random_rows(random.Random(12), 28)),
    [[0, *row[1:]] for row in random_rows(random.Random(13), 30, -(2**70), 2**70)],
    zero_increment_delta(),
    [[0] * 30 for _ in range(30)],
]

ORACLE_BRANCHES = {
    "diagonal D",
    "banded D",
    "dense D",
    "row swap inside the band",
    "row entering below the pivot",
    "zero pivot replaced by a row entering at that step",
    "pivot row entering with no row below it, D not diagonal",
    "singular",
    "entries past int64",
}


class LoggedStarts(list):
    """The starts list handed to _eliminate, logging each assignment as
    (index, value). _eliminate assigns to starts only to swap two rows,
    the pivot position first."""

    def __init__(self, starts):
        super().__init__(starts)
        self.log = []

    def __setitem__(self, index, value):
        self.log.append((index, value))
        super().__setitem__(index, value)


def run_band(rows):
    """_det_minors of ``rows``, and the branches of the band elimination
    that it took, named as in ORACLE_BRANCHES. D's bandwidth is the
    largest distance of an entry that it holds from the diagonal: 0 is a
    diagonal D and n - 1 a dense one.

    A row whose start column s is left of its own index i enters the
    window below the pivot at step s. It is updated there, with no
    division, when the record reaches step s: no step up to s swapped
    rows, so row i is still at i and the pivot is nonzero. A swap brings
    up a row entering at its step when the row's start is the step. The
    last step has no row below the pivot in its window; a nonzero
    determinant says that it ran, and the final starts say whether its
    pivot row entered there."""
    n = len(rows)
    taken = set()
    eliminate = determinants._eliminate

    def spy(band, starts, minors):
        ends = [(i, start, start + len(row) - 1) for i, (start, row) in enumerate(zip(starts, band)) if row]
        width = max((max(i - first, last - i) for i, first, last in ends), default=0)
        taken.add("diagonal D" if width == 0 else "dense D" if width == n - 1 else "banded D")
        if any(not -(2**63) <= x < 2**63 for row in band for x in row):
            taken.add("entries past int64")
        given = list(starts)
        starts = LoggedStarts(starts)
        det = eliminate(band, starts, minors)
        if any(start < min(i, len(minors)) for i, start in enumerate(given)):
            taken.add("row entering below the pivot")
        if any(step == start for step, start in starts.log[::2]):
            taken.add("zero pivot replaced by a row entering at that step")
        if width and det and starts[-1] == n - 1:
            taken.add("pivot row entering with no row below it, D not diagonal")
        return det

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinants, "_eliminate", spy)
        det, minors = determinants._det_minors(ExactMatrix(rows))
    if det == 0:
        taken.add("singular")
    elif len(minors) < n and "dense D" not in taken:
        taken.add("row swap inside the band")
    return (det, minors), taken


@st.composite
def oracle_matrices(draw):
    """Matrices of dimension 1-40: dense, cumulative (a delta matrix,
    perhaps with a zero increment), block upper triangular with zero
    corners that swap rows, or singular; perhaps with entries at or near
    int64's limits, or past them, planted anywhere."""
    n = draw(st.integers(1, 40))
    # Entries from a seeded generator: drawn one by one, they would be far
    # more data than hypothesis takes for one example.
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["dense", "cumulative", "block", "singular"]))
    size = draw(st.sampled_from(["small", "near 2**63", "past int64"]))
    if kind == "cumulative":
        if size == "past int64":
            inc = increments(rng, n)
        else:
            inc = [rng.choice((-1, 1)) * rng.randint(1, 2**12) for _ in range(n)]
        if draw(st.booleans()):
            inc[rng.randrange(n)] = 0
        rows = build_delta_matrix(inc).to_lists()
    elif kind == "block":
        c = draw(st.sampled_from([1, 2, 3, -2, 12, 2**8]))
        starts = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3))
        zero_starts = draw(st.sets(st.integers(0, max(0, n - 2)), max_size=4))
        rows = block_upper(n, c, starts, zero_starts, rng)
    else:
        rows = random_rows(rng, n)
    signs = st.sampled_from([1, -1])
    if size == "near 2**63":
        near = st.builds(lambda offset, sign: sign * (2**63 - 1 - offset), st.integers(0, 2**61), signs)
        values = st.one_of(near, st.just(-(2**63)))
    else:
        values = st.builds(lambda e, sign: sign * 2**e, st.integers(64, 130), signs)
    if size == "near 2**63" or (size == "past int64" and kind != "cumulative"):
        for value in draw(st.lists(values, min_size=1, max_size=3)):
            rows[rng.randrange(n)][rng.randrange(n)] = value
    if kind == "singular":
        if draw(st.booleans()) and n > 20:
            rows = with_duplicate_row(rows)
        else:
            rows = [[0, *row[1:]] for row in rows]
    return rows


def with_oracle_examples(test):
    for rows in ORACLE_EXAMPLES:
        test = example(rows)(test)
    return test


class TestBerkowitzOracle:
    """det_bareiss and the leading minors that _det_minors records, against
    Berkowitz's division-free algorithm. The examples alone reach every
    branch of the band elimination; the drawn matrices spread over them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_oracle_matches_the_loop(self, n):
        rng = random.Random(n)
        for _ in range(30):
            rows = random_rows(rng, n, -2**40, 2**40)
            assert berkowitz_det(rows) == reference(rows)
            assert berkowitz_minors(rows) == leading_minors(rows)
        assert berkowitz_det([[0, 1], [1, 0]]) == -1

    # About 3 s for 40 drawn matrices and the 28 examples, most of it in
    # Berkowitz, up to 0.3 s at dimension 40 (2-vCPU x86-64 host, Python
    # 3.11). The branch check below takes about 0.06 s.
    @settings(max_examples=40, deadline=None)
    @given(oracle_matrices())
    @with_oracle_examples
    def test_matches_berkowitz(self, rows):
        (det, minors), taken = run_band(rows)
        expected = berkowitz_minors(rows)
        assert det == expected[-1] == det_bareiss(ExactMatrix(rows))
        assert minors == expected[: record_length(expected)]
        for branch in sorted(taken):
            event(branch)

    def test_examples_reach_every_branch(self):
        taken = set()
        for rows in ORACLE_EXAMPLES:
            taken |= run_band(rows)[1]
        assert taken == ORACLE_BRANCHES


@st.composite
def banded_d(draw):
    """D of dimension 1-40 with lower and upper bandwidths of 0-3 each:
    entries in -3..3, one in ten of them 0, perhaps some past int64, and
    perhaps rows zero up to the diagonal, each a zero leading minor."""
    n = draw(st.integers(1, 40))
    lower, upper = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    big = draw(st.booleans())

    def entry():
        if big and rng.random() < 0.2:
            return rng.choice((1, -1)) * rng.randrange(2**63, 2**130)
        return 0 if rng.random() < 0.1 else rng.choice((1, -1)) * rng.randint(1, 3)

    d = [[entry() if -lower <= c - r <= upper else 0 for c in range(n)] for r in range(n)]
    for s in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        d[s][: s + 1] = [0] * (s + 1)
    event(f"bandwidths ({lower}, {upper})")
    return d


class TestBandElimination:
    """_det_minors of X built back from a banded D by cumulative sums,
    against Berkowitz's algorithm on D, whose leading minors are X's."""

    # About 1.5 s for 100 drawn matrices (same host).
    @settings(max_examples=100, deadline=None)
    @given(banded_d())
    def test_matches_berkowitz(self, d):
        rows = undifferenced(d)
        det, minors = determinants._det_minors(ExactMatrix(rows))
        expected = berkowitz_minors(d)
        assert det == expected[-1]
        # The record stops exactly at the first zero leading minor.
        assert minors == expected[: record_length(expected)]
        if det == 0:
            event("singular")
        else:
            event("row swap" if len(minors) < len(d) else "no row swap")


def differenced(rows):
    """Δ·X·Δᵀ of rows: each row less the row above it, then each entry
    less its left neighbour."""
    down = [[x - y for x, y in zip(row, [0] * len(row) if i == 0 else rows[i - 1])] for i, row in enumerate(rows)]
    return [[x - y for x, y in zip(row, [0, *row])] for row in down]


def spread(band, starts, n):
    """The n x n matrix whose row i holds band[i] from column starts[i]."""
    return [[0] * start + row + [0] * (n - start - len(row)) for start, row in zip(starts, band)]


def spy_band(monkeypatch):
    """Record the band and the starts that each call of _eliminate is
    given, as they are before it consumes them."""
    calls = []
    eliminate = determinants._eliminate

    def spy(band, starts, *args):
        calls.append(([row[:] for row in band], starts[:]))
        return eliminate(band, starts, *args)

    monkeypatch.setattr(determinants, "_eliminate", spy)
    return calls


@st.composite
def span_matrices(draw):
    """X of dimension 1-30 whose rows test both ends of each row of D:
    dense; summed up from a banded D; parallel, each the one above plus a
    constant, from a first row that is not constant, so that r = X_i -
    X_{i-1} is constant before both rows are; sharing a long prefix and
    then differing; or repeated and zero rows."""
    kind = draw(st.sampled_from(["dense", "banded", "parallel", "prefix", "repeated"]))
    event(kind)
    if kind == "banded":
        return undifferenced(draw(banded_d()))
    n = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "dense":
        return random_rows(rng, n, -3, 3)
    if kind == "parallel":
        rows = [[rng.randint(-3, 3) for _ in range(n - 1)] + [4]]
        for _ in range(n - 1):
            step = rng.randint(-2, 2)
            rows.append([x + step for x in rows[-1]])
        return rows
    base = [rng.randint(-3, 3) for _ in range(n)]
    if kind == "prefix":
        rows = []
        for _ in range(n):
            cut = rng.randint(n // 2, n)
            rows.append(base[:cut] + [rng.randint(-3, 3) for _ in range(n - cut)])
        return rows
    pool = [base, [0] * n, [base[0]] * n]
    return [rng.choice(pool)[:] for _ in range(n)]


def band_of(rows):
    """The band and the starts that _det_minors hands to _eliminate."""
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_band(patch)
        determinants._det_minors(ExactMatrix(rows))
    [(band, starts)] = calls
    return band, starts


def subtractions_forming_d(matrix):
    """How many Python-int subtractions _det_minors makes before it hands
    D to _eliminate."""
    count = 0
    at_elimination = []
    eliminate = determinants._eliminate

    def counted(x, y):
        nonlocal count
        count += 1
        return x - y

    def spy(*args):
        at_elimination.append(count)
        return eliminate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinants, "sub", counted)
        patch.setattr(determinants, "_eliminate", spy)
        determinants._det_minors(matrix)
    [subtracted] = at_elimination
    return subtracted


class TestDifferencedElimination:
    """det_bareiss eliminates D = Δ·X·Δᵀ, each row held from its first
    nonzero entry to its last: the span that _det_minors finds and hands
    to _eliminate."""

    @pytest.mark.parametrize("taken", ["D", "X"])
    def test_whole_matrix(self, monkeypatch, taken):
        # A random tridiagonal D of 40-bit entries, summed up into X, is
        # handed over as its band, at most three entries a row; a dense
        # random X leaves a dense D, every row whole from column 0.
        rng = random.Random(taken)
        n = 30
        if taken == "D":
            d = [[rng.randint(-(2**40), 2**40) if abs(r - c) <= 1 else 0 for c in range(n)] for r in range(n)]
            rows = undifferenced(d)
            assert differenced(rows) == d
        else:
            rows = random_rows(rng, n, -(2**40), 2**40)
            d = differenced(rows)
        calls = spy_band(monkeypatch)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows)
        [(band, starts)] = calls
        assert spread(band, starts, n) == d
        if taken == "D":
            assert starts == [0, *range(n - 1)]
            assert max(map(len, band)) == 3
        else:
            assert starts == [0] * n
            assert list(map(len, band)) == [n] * n

    @pytest.mark.parametrize("planted", [0, 2**64 + 13], ids=["zero", "large"])
    def test_diagonal_zero_pivot_without_a_row_to_swap(self, monkeypatch, planted):
        # A delta matrix leaves D = diag(increments), one entry a row: the
        # window of each step is its own row alone. An increment of 0 is a
        # zero pivot with no row to swap in, and the determinant is 0 with
        # the minors before it recorded; a large one is a pivot like any
        # other.
        inc = increments(random.Random(48), 48)
        inc[17] = planted
        rows = build_delta_matrix(inc).to_lists()
        calls = spy_band(monkeypatch)
        det, minors = determinants._det_minors(ExactMatrix(rows))
        # A zero row is held empty, with start n.
        assert calls == [([[x] if x else [] for x in inc], [i if x else 48 for i, x in enumerate(inc)])]
        assert det == reference(rows) == delta_det_closed(inc)
        assert minors == list(accumulate(inc, mul))[: 17 if planted == 0 else 48]

    def test_differenced_entries_past_int64(self, monkeypatch):
        # Increments 2**62, then -(2**63 + 1), 2**63 + 2, ...: the prefix
        # sums stay near +-2**62, inside int64, but D = diag(increments)
        # holds entries past it.
        n = 30
        inc = [2**62] + [(-1) ** i * (2**63 + i) for i in range(1, n)]
        rows = build_delta_matrix(inc).to_lists()
        assert max(max(map(abs, row)) for row in rows) < 2**63 <= max(map(abs, inc))
        calls = spy_band(monkeypatch)
        assert det_bareiss(ExactMatrix(rows)) == reference(rows) == delta_det_closed(inc)
        assert calls == [([[x] for x in inc], list(range(n)))]

    def test_spans_on_delta_and_char_matrices(self, monkeypatch):
        # A dimension-48 delta matrix of 64-bit increments: D is diagonal,
        # one entry a row. lam*I - A_120 has a tridiagonal D: two entries
        # in its first and last rows, three in every other, from the
        # column left of the diagonal.
        calls = spy_band(monkeypatch)
        inc = increments(random.Random(48), 48)
        assert det_bareiss(build_delta_matrix(inc)) == delta_det_closed(inc)
        assert calls == [([[x] for x in inc], list(range(48)))]
        poly = charpoly(120)
        for lam in (-3, -2, -1, 2, 3, 4, 5):
            calls.clear()
            assert det_bareiss(char_matrix(120, lam)) == poly(lam)
            [(band, starts)] = calls
            assert starts == [0, *range(119)]
            assert list(map(len, band)) == [2, *[3] * 118, 2]
            assert spread(band, starts, 120) == differenced(char_matrix(120, lam).to_lists())

    # About 0.5 s for 200 drawn matrices (2-vCPU x86-64 host, Python 3.11).
    @settings(max_examples=200, deadline=None)
    @given(span_matrices())
    def test_span_is_exact(self, rows):
        # Each row of D is held from its first nonzero entry to its last,
        # found from the rows of X alone; a zero row is held empty.
        n = len(rows)
        band, starts = band_of(rows)
        assert spread(band, starts, n) == differenced(rows)
        for row, start in zip(band, starts):
            if row:
                assert row[0] and row[-1]
            else:
                assert start == n

    def test_subtractions_stay_inside_the_band(self):
        # D is formed by subtracting only inside each row's span: one
        # entry a row for A_200 and C_{249,50}, whose D is the identity
        # with k in its corner; for lam*I - A_200, three entries of r and
        # two differences a row. Subtracting whole rows took n**2 = 40,000.
        # A dense X has a dense D, about 2 * n**2 subtractions.
        n = 200
        assert subtractions_forming_d(build_min_matrix(n)) == n
        assert subtractions_forming_d(build_c_matrix(249, 50)) == n
        assert subtractions_forming_d(char_matrix(n, 5)) == 5 * n - 4
        rows = random_rows(random.Random(30), 30)
        assert 30**2 <= subtractions_forming_d(ExactMatrix(rows)) <= 2 * 30**2


class TestRouting:
    """Every matrix takes one route: _eliminate of D's band."""

    def test_matrix_is_left_unchanged(self):
        # det_bareiss reads the matrix's own rows and eliminates new ones
        # made from them: no row swap or update writes to the matrix.
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

    def test_one_route_rule(self, monkeypatch):
        # No dimension threshold and no test of the entries: det_bareiss
        # and _det_minors each call _eliminate once, at every dimension.
        # A_n's D is the identity and C_{n,k}'s the identity with k in its
        # corner, one entry a row.
        calls = spy_band(monkeypatch)
        rng = random.Random(24)

        def route(matrix, expected):
            calls.clear()
            assert det_bareiss(matrix) == expected
            assert determinants._det_minors(matrix)[0] == expected
            assert len(calls) == 2 and calls[0] == calls[1]
            return calls[0]

        for dim in (*range(1, 9), 23, 24, 40, 200):
            assert route(build_min_matrix(dim), 1) == ([[1]] * dim, list(range(dim)))
        small = [(dim, k) for dim in range(2, 9) for k in range(2, 9)]
        for dim, k in (*small, (23, 5), (24, 2), (150, 40), (150, 100)):
            assert route(build_c_matrix(dim + k - 1, k), k) == ([[k]] + [[1]] * (dim - 1), list(range(dim)))
        poly = charpoly(120)
        for lam in range(-3, 6):
            route(char_matrix(120, lam), poly(lam))
        for dim in (23, 24):
            rows = random_rows(rng, dim)
            route(ExactMatrix(rows), reference(rows))
        inc = increments(rng, 24)
        route(build_delta_matrix(inc), delta_det_closed(inc))
        route(ExactMatrix(scaled_identity_plus_ones(48, 2**40)), 2**(40 * 47) * (2**40 + 48))


def leading_minors(rows):
    """Every leading principal minor of rows, each by reference()."""
    return [reference([row[:m] for row in rows[:m]]) for m in range(1, len(rows) + 1)]


def unit_lu(rng, n):
    """L * U with L unit lower and U unit upper triangular, off-diagonal
    entries in -1..1: every leading minor is 1."""
    lower = [[int(r == c) or (rng.randint(-1, 1) if c < r else 0) for c in range(n)] for r in range(n)]
    upper = [[int(r == c) or (rng.randint(-1, 1) if c > r else 0) for c in range(n)] for r in range(n)]
    return [[sum(lower[r][t] * upper[t][c] for t in range(n)) for c in range(n)] for r in range(n)]


class TestLeadingMinors:
    """_det_minors: det_bareiss's determinant, and the leading minors that
    its elimination reads up to the first zero one."""

    @pytest.mark.parametrize("n", [1, 2, 12, 23, 24, 40])
    def test_record_is_every_leading_minor(self, n):
        # L * U, I + J and 3*I + J, whose minors are 3**(m - 1) * (m + 3),
        # past int64 from m = 39 on: no step swaps rows, and the record
        # holds every minor.
        rng = random.Random(n)
        for rows in (unit_lu(rng, n), scaled_identity_plus_ones(n, 1), scaled_identity_plus_ones(n, 3)):
            det, minors = determinants._det_minors(ExactMatrix(rows))
            assert det == det_bareiss(ExactMatrix(rows))
            assert minors == leading_minors(rows)

    @pytest.mark.parametrize("n", [12, 30])
    @pytest.mark.parametrize("step", [0, 5])
    def test_swap_stops_the_record(self, n, step):
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

    def test_entries_past_int64_record_every_minor(self):
        # D = diag(increments): the leading minors are the prefix products.
        inc = increments(random.Random(24), 24)
        assert determinants._det_minors(build_delta_matrix(inc)) == (
            delta_det_closed(inc),
            list(accumulate(inc, mul)),
        )

    def test_zero_row_keeps_the_record_certified(self):
        # A zero last row makes the determinant 0, but not the minors before
        # it: the record holds every one, the last 0 among them.
        rows = random_rows(random.Random(5), 30, -(2**40), 2**40)
        rows[-1] = [0] * 30
        assert determinants._det_minors(ExactMatrix(rows)) == (0, leading_minors(rows))

    def test_paper_matrices_record_every_minor(self):
        assert determinants._det_minors(build_min_matrix(150)) == (1, [1] * 150)
        assert determinants._det_minors(build_c_matrix(189, 40)) == (40, [40] * 150)
        assert determinants._det_minors(build_c_matrix(20, 5)) == (5, [5] * 16)

    @pytest.mark.parametrize("lam", [-3, 2, 5])
    def test_char_matrix_records_charpoly(self, lam):
        # The leading m-minor of lam*I - A_120 is charpoly(m)(lam), for
        # every m.
        det, minors = determinants._det_minors(char_matrix(120, lam))
        assert minors == [charpoly(m)(lam) for m in range(1, 121)]
        assert det == minors[-1]

    def test_fibonacci_minors(self):
        # det(-I - A_n) = (-1)**n F_{2n+1}: every n <= 60 off one
        # elimination of -I - A_60.
        det, minors = determinants._det_minors(char_matrix(60, -1))
        assert minors == [(-1) ** n * fib(2 * n + 1) for n in range(1, 61)]
        assert det == minors[-1]

import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import accumulate
from math import isqrt, prod
from operator import mul

import numpy as np
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
from minmatrix.determinants import _CRT_MIN_DIM, _eliminate
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
    """The Python-int loop alone."""
    return _eliminate([row[:] for row in rows])


def berkowitz_det(rows):
    """Division-free determinant by Berkowitz's algorithm (Inf. Process.
    Lett. 18, 1984): an oracle that shares no step with elimination. The
    characteristic polynomial of each leading block, highest coefficient
    first, is the last one's times a lower triangular Toeplitz matrix whose
    first column is 1, -a, -R·C, -R·A·C, ..., -R·A**(r-1)·C, for the
    leading r x r block A, the column C above and the row R left of the new
    diagonal entry a. O(n**4) ring operations, in Python ints."""
    n = len(rows)
    poly = [1, -rows[0][0]]
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
    # poly[n] = det(-rows).
    return (-1) ** n * poly[n]


@pytest.fixture
def routes(monkeypatch):
    """Record each call of the Python-int loop and of the multi-modular
    route: the dimension of its matrix."""
    seen = {"python": [], "crt": []}
    eliminate = determinants._eliminate
    det_crt = determinants._det_crt

    def spy_eliminate(rows, *args):
        seen["python"].append(len(rows))
        return eliminate(rows, *args)

    def spy_crt(rows, *args):
        seen["crt"].append(len(rows))
        return det_crt(rows, *args)

    monkeypatch.setattr(determinants, "_eliminate", spy_eliminate)
    monkeypatch.setattr(determinants, "_det_crt", spy_crt)
    return seen


def scaled_ones_plus_identity(n, t):
    """t*J + I, whose determinant is 1 + n*t."""
    return [[t + (r == col) for col in range(n)] for r in range(n)]


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


LARGEST_PRIME = 268_435_399


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


def largest_prime_delta():
    """A delta matrix of 34 signed 64-bit increments, one of them the
    largest prime: D's pivot there is zero modulo that prime, with no row
    below to swap in."""
    inc = increments(random.Random(40), 34)
    inc[17] = LARGEST_PRIME
    return build_delta_matrix(inc).to_lists()


def with_duplicate_row(rows):
    rows = [row[:] for row in rows]
    rows[20] = rows[3][:]
    return rows


# Inputs of the one route, with the primes per pass (None: the library
# budget). The fixed-width phase's inputs are among them: the paper's
# matrices, entries at the 32-bit limit and past it planted anywhere, as
# the pivot over a zero block or in the lead column over a zero pivot row,
# int64's extremes, pivots that grow like powers of c, and row swaps.
ORACLE_EXAMPLES = [
    (build_min_matrix(30).to_lists(), None),
    (build_c_matrix(69, 40).to_lists(), None),
    (paper_plant(2**31 - 1), None),
    (paper_plant(-(2**31)), None),
    (pivot_over_zero_block(-(2**31)), None),
    (pivot_over_zero_block(2**40), None),
    (lead_over_zero_row(2**40, 4), None),
    (scaled_identity_plus_ones(30, -12), None),
    (scaled_identity_plus_ones(30, 3 * 2**10 - 1), None),
    (build_c_matrix(3 * 2**10 + 29, 3 * 2**10).to_lists(), None),
    (char_matrix(40, 3).to_lists(), None),
    # Row swaps: at steps 1, 4 and 15; at steps 0 and 1; at every step.
    (block_upper(30, 3, {9, 25}, {1, 15}, random.Random(30)), None),
    (zero_pivot_rows(), None),
    (signed_permutation(30), None),
    (with_duplicate_row(random_rows(random.Random(12), 28)), None),
    # int64's largest entries, and its most negative value anywhere, in the
    # lead column over a zero pivot row and as the pivot over a zero block.
    (extreme_corners(), None),
    (paper_plant(-(2**63)), None),
    (lead_over_zero_row(-(2**63), 7), None),
    (pivot_over_zero_block(-(2**63)), None),
    # Rows that fit int64 whose differenced form does not.
    (build_delta_matrix([2**62] + [(-1) ** i * (2**63 + i) for i in range(1, 30)]).to_lists(), None),
    (largest_prime_delta(), None),
    (scaled_identity_plus_ones(40, 2**8), 3),
]

ORACLE_BRANCHES = {
    "int64 load",
    "limb load",
    "singular",
    "row swap",
    "pivot zero mod the largest prime",
    "several passes",
}


def run_route(rows, per_pass=None):
    """det_bareiss of ``rows`` at ``per_pass`` primes per pass, and the
    branches of the multi-modular route that it took, named as in
    ORACLE_BRANCHES."""
    n = len(rows)
    taken = set()
    passes = []
    hadamard = determinants._hadamard
    det_mod = determinants._det_mod

    def spy_hadamard(rows):
        # An int64 array loads each entry as one limb, an object array as
        # signed 32-bit limbs.
        bound, bounded = hadamard(rows)
        taken.add("int64 load" if bounded.dtype == np.int64 else "limb load")
        return bound, bounded

    def spy_det_mod(a, p, scratch):
        prefix, swapped = det_mod(a, p, scratch)
        passes.append(len(p))
        if swapped < n:
            taken.add("row swap")
        if LARGEST_PRIME in p.tolist() and not prefix[:, p.tolist().index(LARGEST_PRIME)].all():
            taken.add("pivot zero mod the largest prime")
        return prefix, swapped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinants, "_hadamard", spy_hadamard)
        patch.setattr(determinants, "_det_mod", spy_det_mod)
        if per_pass:
            budget = per_pass * n * n + determinants._CRT_SCRATCH_ELEMENTS
            patch.setattr(determinants, "_CRT_BUDGET_ELEMENTS", budget)
        value = det_bareiss(ExactMatrix(rows))
    if value == 0:
        taken.add("singular")
        taken.discard("pivot zero mod the largest prime")
    if len(passes) > 1:
        taken.add("several passes")
    return value, taken


@st.composite
def oracle_matrices(draw):
    """Matrices of dimension 24-40 and the primes per pass for the one
    route: dense, cumulative (a delta matrix, perhaps with an increment of
    the largest prime), block upper triangular with zero corners that swap
    rows, or singular; perhaps with entries at or near int64's limits, or
    past them, planted anywhere."""
    n = draw(st.integers(_CRT_MIN_DIM, 40))
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
            inc[rng.randrange(n)] = LARGEST_PRIME
        rows = build_delta_matrix(inc).to_lists()
    elif kind == "block":
        c = draw(st.sampled_from([1, 2, 3, -2, 12, 2**8]))
        starts = draw(st.sets(st.integers(1, n - 1), max_size=3))
        zero_starts = draw(st.sets(st.integers(0, n - 2), max_size=4))
        rows = block_upper(n, c, starts, zero_starts, rng)
    else:
        rows = random_rows(rng, n)
    signs = st.sampled_from([1, -1])
    if size == "near 2**63":
        # From 2**61 up: the limb load, also on rows that fit int64.
        near = st.builds(lambda offset, sign: sign * (2**63 - 1 - offset), st.integers(0, 2**61), signs)
        values = st.one_of(near, st.just(-(2**63)))
    else:
        values = st.builds(lambda e, sign: sign * 2**e, st.integers(64, 130), signs)
    if size == "near 2**63" or (size == "past int64" and kind != "cumulative"):
        for value in draw(st.lists(values, min_size=1, max_size=3)):
            rows[rng.randrange(n)][rng.randrange(n)] = value
    if kind == "singular":
        if draw(st.booleans()):
            rows = with_duplicate_row(rows)
        else:
            rows = [[0, *row[1:]] for row in rows]
    per_pass = draw(st.sampled_from([None, None, 1, 3]))
    return rows, per_pass


def with_oracle_examples(test):
    for case in ORACLE_EXAMPLES:
        test = example(case)(test)
    return test


class TestBerkowitzOracle:
    """det_bareiss from dimension 24 up against Berkowitz's division-free
    algorithm. The examples alone reach every branch of the multi-modular
    route; the drawn matrices spread over them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_oracle_matches_the_loop(self, n):
        rng = random.Random(n)
        for _ in range(30):
            rows = random_rows(rng, n, -2**40, 2**40)
            assert berkowitz_det(rows) == reference(rows)
        assert berkowitz_det([[0, 1], [1, 0]]) == -1

    # About 2-3 s for 40 drawn matrices and the 23 examples, most of it in
    # Berkowitz, up to 0.3 s at dimension 40 (2-vCPU x86-64 host, Python
    # 3.11). The branch check below takes about 0.05 s, the loop check
    # above about 0.04 s.
    @settings(max_examples=40, deadline=None)
    @given(oracle_matrices())
    @with_oracle_examples
    def test_matches_berkowitz(self, case):
        rows, per_pass = case
        value, taken = run_route(rows, per_pass)
        assert value == berkowitz_det(rows)
        for branch in sorted(taken):
            event(branch)

    def test_examples_reach_every_branch(self):
        taken = set()
        for rows, per_pass in ORACLE_EXAMPLES:
            taken |= run_route(rows, per_pass)[1]
        assert taken == ORACLE_BRANCHES


def crt(rows, det_crt=determinants._det_crt):
    """The multi-modular route on its own, given a copy of ``rows``. Bound
    at import, so the routing spy does not see these calls."""
    return det_crt([row[:] for row in rows])


def residues_by_slice(rows, primes):
    """_det_mod's determinants of a matrix reduced entry by entry in Python
    ints."""
    n = len(rows)
    p = np.array(primes, dtype=np.int64)
    a = np.array([[[x % q for q in primes] for x in row] for row in rows], dtype=np.int64)
    # One row of the working array: each step's update goes one row at a
    # time.
    scratch = np.empty(n * len(primes), dtype=np.int64)
    return determinants._det_mod(a, p, scratch)[0][-1].tolist()


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


def ceiling_norm(row):
    """A row's Euclidean norm rounded up to an integer, 1 for a zero row."""
    s = sum(x * x for x in row)
    return next(c for c in range(max(1, isqrt(s)), s + 2) if c * c >= s)


def plain_hadamard(rows):
    """Hadamard's bound on rows alone: the product of the row norms, each
    rounded up to an integer."""
    return prod(map(ceiling_norm, rows))


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
        # The array that comes with it is the matrix it bounds, the
        # differenced one on a tie: int64 where every entry is below 2**61
        # in magnitude, else an object array of Python ints.
        assert reference(differenced(rows)) == reference(rows)
        plain, diff = plain_hadamard(rows), plain_hadamard(differenced(rows))
        event("differenced smaller" if diff < plain else "plain smaller" if plain < diff else "equal")
        assert bound == min(plain, diff)
        assert bounded.tolist() == (differenced(rows) if diff <= plain else rows)
        small = all(abs(x) < 2**61 for row in rows for x in row)
        assert bounded.dtype == (np.int64 if small else object)
        event("int64 array" if small else "object array")

    def test_bound_is_the_ceiling(self):
        # Row norms are rounded up to their true ceiling: D = I bounds A_n
        # by 1, and a row (3, 4) counts 5, not 6, on either path.
        for n in (1, 24, 150):
            assert determinants._hadamard(build_min_matrix(n).to_lists())[0] == 1
        assert determinants._hadamard([[3, 4], [0, 1]])[0] == 5
        assert determinants._hadamard([[3 * 2**61, 4 * 2**61], [0, 1]])[0] == 5 * 2**61

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
        bound, bounded = determinants._hadamard(rows)
        assert (bound, bounded.tolist()) == (prod(magnitudes), diagonal)

    @pytest.mark.parametrize("case", ["dense", "theta", "dense past 2**61"])
    def test_plain_bound_where_differencing_is_worse(self, case):
        # A dense random matrix has no cumulative structure: differencing
        # sums up to four entries into each, and lengthens every row. On
        # the theta matrix of (-4, 1, 6), rows (-4, -3) and (-4, 3), of
        # norm 5, differencing leaves (-4, 1) and (0, 6), a larger product.
        # Entries past 2**61 come back as an object array.
        if case == "theta":
            rows = build_theta_matrix([-4, 1, 6]).to_lists()
        else:
            top = 2**40 if case == "dense" else 2**62
            rows = random_rows(random.Random(7), 12, -top, top)
        plain, diff = plain_hadamard(rows), plain_hadamard(differenced(rows))
        assert plain < diff
        bound, bounded = determinants._hadamard(rows)
        assert (bound, bounded.tolist()) == (plain, rows)
        assert bounded.dtype == (object if case == "dense past 2**61" else np.int64)


class TestMultiModular:
    def test_primes_are_the_largest_below_the_limit(self, monkeypatch):
        monkeypatch.setattr(determinants, "_crt_prime_table", ())
        primes, modulus = determinants._crt_primes(2**3000)
        assert modulus == prod(primes) > 2**3000 >= prod(primes[:-1])
        top = 2**determinants._CRT_PRIME_BITS
        assert primes == [q for q in range(top - 1, primes[-1] - 1, -2) if is_prime_by_trial(q)]
        assert primes[0] == LARGEST_PRIME
        # Found once: a shorter request reads a prefix of the same table.
        fewer, _ = determinants._crt_primes(2**100)
        assert fewer == primes[: len(fewer)]
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

    # Entries of 512 bits take sixteen 32-bit limbs, each folded into the
    # residue by Horner's rule.
    @pytest.mark.parametrize("n", [1, 2, 3, _CRT_MIN_DIM])
    @pytest.mark.parametrize("bits", [1, 30, 64, 200, 512])
    def test_small_and_threshold_dimensions(self, n, bits):
        rng = random.Random(n * 1000 + bits)
        for _ in range(4):
            rows = random_rows(rng, n, -(2**bits), 2**bits)
            expected = reference(rows)
            assert crt(rows) == expected
            assert det_bareiss(ExactMatrix(rows)) == expected

    # The matrix eliminated loads each entry as one int64 limb where every
    # entry is below 2**61 in magnitude, else as signed 32-bit limbs.
    @pytest.mark.parametrize(
        "big", [2**63 - 1, 2**63, 2**64, 2**200], ids=["2**63-1", "2**63", "2**64", "2**200"]
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_extreme_entries(self, big, sign):
        rng = random.Random(big % 1000 + sign)
        n = _CRT_MIN_DIM + 6
        for planted in (1, 5, n * n):
            rows = random_rows(rng, n)
            for _ in range(planted):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((sign, -sign)) * big
            assert crt(rows) == reference(rows)
            assert det_bareiss(ExactMatrix(rows)) == reference(rows)

    def test_singular(self, routes):
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
        assert routes["crt"] == [n] * 4

    @pytest.mark.parametrize("n", [2, 5, _CRT_MIN_DIM])
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

    @pytest.mark.parametrize("n", [2, _CRT_MIN_DIM + 1])
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
    @pytest.mark.parametrize("n", [1, 3, _CRT_MIN_DIM])
    def test_results_near_half_the_modulus(self, monkeypatch, count, n):
        # M is the product of the first ``count`` primes and m of one
        # fewer. With Hadamard's bound patched to (M - 3) / 2 or
        # (m + 1) / 2, and the matrix it bounds left as it is, exactly
        # those primes are used: +-(M - 3) / 2 are the residues farthest
        # from 0 that the symmetric range holds, and +-(m + 1) / 2 would
        # come back wrong with one prime fewer.
        hadamard = determinants._hadamard
        primes = determinants._crt_primes(2**1000)[0][:count]
        modulus = prod(primes)
        rng = random.Random(count * 100 + n)
        for value in ((modulus - 3) // 2, (modulus // primes[-1] + 1) // 2):
            assert determinants._crt_primes(2 * value + 1) == (primes, modulus)
            for target in (value, -value):
                diagonal = [[target if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)]
                rows = unimodular_mix(rng, diagonal)
                assert reference(rows) == target
                monkeypatch.setattr(determinants, "_hadamard", lambda rows, value=value: (value, hadamard(rows)[1]))
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
        assert determinants._hadamard(rows)[1].tolist() == lu
        assert crt(rows) == 1

    @pytest.mark.parametrize("per_pass", [1, 3, 7])
    @pytest.mark.parametrize("n", [_CRT_MIN_DIM, 120])
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
        n = _CRT_MIN_DIM
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
        [("delta", 48, [99, 10]), ("char", 120, [15, 1]), ("delta", 96, [24] * 9 + [2])],
        ids=["delta48", "char120", "delta96"],
    )
    def test_passes_at_the_library_budget(self, monkeypatch, kind, n, passes):
        # The budget less the scratch, over n**2 int64 per prime: 99 primes
        # per pass at n = 48, where this delta matrix of signed 64-bit
        # increments needs 109, 24 at n = 96, where it needs 218, and 15
        # at n = 120, where lam*I - A_120 at lam = 5 needs 16.
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
        # width 0 is entries anywhere in int64; width w is entries whose
        # largest takes w 32-bit limbs. Where every entry is below 2**61
        # in magnitude (width 1, and some of width 2) each loads as one
        # int64 limb instead. A small budget gives passes of per_pass
        # primes, and a small scratch chunks the load and every step's
        # update, down to one row per chunk. A pivot, or a whole
        # column, that is zero modulo the first prime only is swapped, or
        # zeroes that prime's determinant, inside such a chunked step.
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
        event(f"limb width {width}" if width else "int64 entries")
        event(f"plant {plant}")
        # A scratch of chunk_rows rows of the first step's block.
        scratch = chunk_rows * (n - 1) * per_pass
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(determinants, "_CRT_SCRATCH_ELEMENTS", scratch)
            patch.setattr(determinants, "_CRT_BUDGET_ELEMENTS", per_pass * n * n + scratch)
            passes = spy_passes(patch)
            value = crt(rows)
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

    def test_working_set_follows_the_budget(self):
        # A working array and a scratch of _CRT_BUDGET_ELEMENTS int64 in
        # all, plus the entries' conversion and load, a few dozen bytes
        # each. The differenced form of lam*I - A_120 is an int64 array;
        # that of a dimension-48 delta matrix of signed 64-bit increments,
        # their diagonal, an object array of two 32-bit limbs per entry.
        # Dense dimension-48 matrices of 63-bit and of 70-bit entries load
        # every entry, one int64 limb or three 32-bit limbs each, and
        # convert more: the load goes through the scratch a chunk of
        # entries at a time, not all at once. numpy's ufuncs add up to
        # three buffers of np.getbufsize() elements to an operation on a
        # strided view, such as a step's `column %= p`: about 110 KB at
        # the default 8,192 and 99 primes. That size is the caller's
        # setting, not the route's, so it is held at 1,024 here.
        inc = increments(random.Random(48), 48)
        rng = random.Random(63)
        dense = [random_rows(rng, 48, -(2**bits), 2**bits) for bits in (63, 70)]
        cases = [
            (char_matrix(120, 5).to_lists(), charpoly(120)(5), 64),
            (build_delta_matrix(inc).to_lists(), delta_det_closed(inc), 64),
            (dense[0], reference(dense[0]), 128),
            (dense[1], reference(dense[1]), 128),
        ]
        budget = determinants._CRT_BUDGET_ELEMENTS - determinants._CRT_SCRATCH_ELEMENTS
        for rows, expected, per_entry in cases:
            n = len(rows)
            count = len(determinants._crt_primes(2 * determinants._hadamard(rows)[0] + 1)[0])
            # More primes than one pass takes.
            assert count * n * n > budget
            buffer = np.setbufsize(1024)
            tracemalloc.start()
            try:
                value = determinants._det_crt(rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                np.setbufsize(buffer)
            assert value == expected
            assert peak < 8 * determinants._CRT_BUDGET_ELEMENTS + per_entry * n * n

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, _CRT_MIN_DIM + 8),
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


def undifferenced(d):
    """L·d·Lᵀ for the all-ones lower triangle L = Δ⁻¹: entry (i, j) sums
    d over rows <= i and columns <= j, so differenced() gives d back."""
    down = [list(accumulate(column)) for column in zip(*d)]
    return [list(accumulate(row)) for row in zip(*down)]


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
        # plain one.
        rng = random.Random(taken)
        n = 30
        if taken == "D":
            d = [[rng.randint(-(2**40), 2**40) if abs(r - c) <= 1 else 0 for c in range(n)] for r in range(n)]
            rows = undifferenced(d)
            assert determinants._hadamard(rows)[1].tolist() == differenced(rows) == d
        else:
            rows = random_rows(rng, n, -(2**40), 2**40)
            assert determinants._hadamard(rows)[1].tolist() == rows
        assert crt(rows) == reference(rows)

    @pytest.mark.parametrize("planted", [0, LARGEST_PRIME], ids=["zero", "largest prime"])
    def test_diagonal_zero_pivot_without_a_row_to_swap(self, monkeypatch, planted):
        # A delta matrix leaves D = diag(increments). An increment of 0, or
        # of the largest prime, is a pivot that is zero mod every prime or
        # mod that one, with nothing below it to swap in: that residue of
        # the determinant is 0, and no step updates or inverts anything.
        assert determinants._crt_primes(1)[0] == [LARGEST_PRIME]
        inc = increments(random.Random(48), 48)
        inc[17] = planted
        rows = build_delta_matrix(inc).to_lists()
        assert determinants._hadamard(rows)[1].tolist() == differenced(rows)
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
        assert determinants._hadamard(rows)[1].tolist() == d
        expected = reference(rows)
        assert expected % q != 0
        steps = spy_steps(monkeypatch)
        assert residues_by_slice(d, primes) == [expected % p for p in primes]
        assert crt(rows) == expected
        for call in steps:
            assert call["updates"] == [(1, 1, call["primes"])]
            assert call["inverses"] == call["primes"]

    def test_differenced_entries_past_int64(self, routes):
        # Increments 2**62, then -(2**63 + 1), 2**63 + 2, ...: the prefix
        # sums stay near +-2**62, so the matrix converts to int64, but past
        # 2**61 it is built as an object array. D = diag(increments) has
        # the smaller bound and entries past int64, which load as 32-bit
        # limbs.
        n = 30
        inc = [2**62] + [(-1) ** i * (2**63 + i) for i in range(1, n)]
        rows = build_delta_matrix(inc).to_lists()
        assert max(max(map(abs, row)) for row in rows) < 2**63 <= max(map(abs, inc))
        bounded = determinants._hadamard(rows)[1]
        assert bounded.dtype == object
        assert bounded.tolist() == [[x if r == c else 0 for c, x in enumerate(inc)] for r in range(n)]
        assert det_bareiss(ExactMatrix(rows)) == reference(rows) == delta_det_closed(inc)
        assert routes == {"python": [], "crt": [n]}

    def test_spans_on_delta_and_char_matrices(self, monkeypatch):
        # A dimension-48 delta matrix of 64-bit increments: D is diagonal,
        # so its two passes, of 99 and 10 primes, make no update and no
        # inverse. lam*I - A_120 has a tridiagonal D: every step updates
        # one entry, one row.
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
            assert det_bareiss(char_matrix(120, lam)) == poly(lam)
            assert steps
            for call in steps:
                k = call["primes"]
                assert call["updates"] == [(1, 1, k)] * 119
                assert call["inverses"] == k * 119


class TestRouting:
    def test_64_bit_delta_and_theta_go_to_crt(self, routes):
        rng = random.Random(48)
        inc = increments(rng, 48)
        assert det_bareiss(build_delta_matrix(inc)) == delta_det_closed(inc)
        inc = increments(rng, 49)
        assert det_bareiss(build_theta_matrix(inc)) == theta_det_closed(inc)
        assert routes["crt"] == [48, 48]

    def test_matrix_is_left_unchanged(self):
        # det_bareiss reads the matrix's own rows, so no route may write
        # to them: not the Python-int loop's row swaps, not the
        # multi-modular route, on an int64 or an object array.
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

    def test_one_route_rule(self, routes, monkeypatch):
        # Below dimension 24 the Python-int loop alone; from 24 up every
        # matrix reaches the multi-modular route once, whatever its
        # entries, and A_n and C_{n,k}, whose bound is 1 or k, take one
        # prime in one pass.
        passes = spy_passes(monkeypatch)
        rng = random.Random(24)

        def route(matrix, expected):
            for seen in (*routes.values(), passes):
                seen.clear()
            assert det_bareiss(matrix) == expected
            assert determinants._det_minors(matrix)[0] == expected
            return routes["python"], routes["crt"], [k for k, _, _ in passes]

        n = _CRT_MIN_DIM
        rows = random_rows(rng, n - 1)
        assert route(ExactMatrix(rows), reference(rows)) == ([n - 1] * 2, [], [])
        assert route(build_c_matrix(n + 3, 5), 5) == ([n - 1] * 2, [], [])
        for dim in (n, 40, 200):
            assert route(build_min_matrix(dim), 1) == ([], [dim] * 2, [1] * 2)
        for dim, k in ((n, 2), (150, 40), (150, 70), (150, 100)):
            assert route(build_c_matrix(dim + k - 1, k), k) == ([], [dim] * 2, [1] * 2)
        poly = charpoly(120)
        others = [
            (ExactMatrix(random_rows(rng, n)), None),
            (ExactMatrix(scaled_ones_plus_identity(48, 2**40)), 1 + 48 * 2**40),
            *((char_matrix(120, lam), poly(lam)) for lam in range(-3, 6)),
            (build_delta_matrix(increments(rng, n)), None),
        ]
        for matrix, expected in others:
            if expected is None:
                expected = reference(matrix.to_lists())
            python, crt_calls, _ = route(matrix, expected)
            assert (python, crt_calls) == ([], [matrix.dim] * 2)


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
    minors that its elimination reads up to the first row swap."""

    @pytest.mark.parametrize("n", [1, 2, 12, _CRT_MIN_DIM - 1, _CRT_MIN_DIM, 40])
    def test_record_is_every_leading_minor(self, routes, n):
        # L * U, I + J and 3*I + J, whose minors are 3**(m - 1) * (m + 3),
        # past int64 from m = 39 on: no step swaps rows, and the record
        # holds every minor.
        rng = random.Random(n)
        for rows in (unit_lu(rng, n), scaled_identity_plus_ones(n, 1), scaled_identity_plus_ones(n, 3)):
            for seen in routes.values():
                seen.clear()
            det, minors = determinants._det_minors(ExactMatrix(rows))
            assert det == det_bareiss(ExactMatrix(rows))
            assert routes["crt" if n >= _CRT_MIN_DIM else "python"] == [n] * 2
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
        # D = diag(increments): the leading minors are the prefix products,
        # certified by the primes that certify the whole product.
        inc = increments(random.Random(24), 24)
        assert determinants._det_minors(build_delta_matrix(inc)) == (
            delta_det_closed(inc),
            list(accumulate(inc, mul)),
        )

    def test_zero_row_keeps_the_record_certified(self):
        # A zero last row makes the determinant 0, but not the minors before
        # it: each row bound counts at least 1, so the primes that the
        # whole bound takes certify every leading minor.
        rows = random_rows(random.Random(5), 30, -(2**40), 2**40)
        rows[-1] = [0] * 30
        assert determinants._det_minors(ExactMatrix(rows)) == (0, leading_minors(rows))

    def test_paper_matrices_record_every_minor(self, monkeypatch):
        passes = spy_passes(monkeypatch)
        assert determinants._det_minors(build_min_matrix(150)) == (1, [1] * 150)
        assert determinants._det_minors(build_c_matrix(189, 40)) == (40, [40] * 150)
        assert determinants._det_minors(build_c_matrix(20, 5)) == (5, [5] * 16)
        # One prime each from dimension 24 up; C_{20,5} takes the loop.
        assert [k for k, _, _ in passes] == [1, 1]

    @pytest.mark.parametrize("lam", [-3, 2, 5])
    def test_char_matrix_records_charpoly(self, lam):
        # The leading m-minor of lam*I - A_120 is charpoly(m)(lam), for
        # every m, across the two passes that lam = 5 takes.
        det, minors = determinants._det_minors(char_matrix(120, lam))
        assert minors == [charpoly(m)(lam) for m in range(1, 121)]
        assert det == minors[-1]

    def test_fibonacci_minors(self):
        # det(-I - A_n) = (-1)**n F_{2n+1}: every n <= 60 off one
        # elimination of -I - A_60.
        det, minors = determinants._det_minors(char_matrix(60, -1))
        assert minors == [(-1) ** n * fib(2 * n + 1) for n in range(1, 61)]
        assert det == minors[-1]

"""Elementary symmetric functions of the eigenvalues of the min matrix.

For the n x n min matrix the k-th elementary symmetric function of the
eigenvalues equals C(n+k, n-k). This module computes it six ways, by
four independent methods (closed, minors, ratio, and the column map that
nested, rec6 and rec7 share; see below), and assembles the exact
characteristic polynomial from the values:

  closed   the binomial closed form C(n+k, n-k)
  minors   sum of all k x k principal minors, each by fraction-free
           (Bareiss) elimination shared along common index prefixes;
           exponential in n
  nested   sum of products over compositions of total <= n into k parts
  rec6     weighted recurrence over the first part of the composition
  rec7     difference recurrence, one step down in n
  ratio    multiplicative recurrence (n+k)/(n-k), every division exact

Every method computes S column by column, column j holding S(j, j),
S(j + 1, j), ..., and none recurses. nested, rec6 and rec7 yield each
column once built from the one before, so a single value holds one
column at a time. One source, _columns, gives every method's columns: a
SymTable keeps each as a tuple, row n only its last entry (closed takes
one binomial per k). A column of length L costs O(L) big-integer
operations: S(n, k) alone O(k(n-k)) (ratio O(n-k)), a table up to n O(n^2):

  nested, rec6  the weighted sum c[d] = sum_i i * v[d+1-i] of one column
                v is (d+1) * P[d] - Q[d], from the running sums
                P[d] = sum_{e<=d} v[e] and Q[d] = sum_{e<=d} e * v[e]
                (_ramp_sums, the only code the two share). nested applies
                it to the sums over compositions of each exact total and
                takes their prefix sums; rec6 applies it to S(., j-1)
                itself.
  rec7          additions only: the prefix sum of S(., j-1) is carried
                down the column, never the weighted helper.
  ratio         one exact multiply and divide per entry.

c is also the prefix sum of the prefix sums of v, so nested, rec6 and
rec7 apply one map from column j - 1 to column j in different arithmetic:
their agreement is one leg, not three.

The eigenvalues themselves are never computed; only their symmetric
functions have closed forms here.
"""

import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice

from . import METHODS
from .matrices import ExactMatrix, _cumulative_rows, _integers, build_min_matrix

#: Largest n accepted by the brute-force minor enumeration.
BRUTE_FORCE_CAP = 14


class BruteForceCapExceeded(ValueError):
    """Raised when the exponential minor enumeration is asked for an n
    above BRUTE_FORCE_CAP."""


def binomial(a, b):
    """Binomial coefficient C(a, b), exact.

    For a >= 0 this is the usual convention: 0 when b < 0 or b > a.
    Negative a is supported through the falling-factorial definition
    a(a-1)...(a-b+1)/b!, which verification's binomial identity check
    relies on at its smallest n.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b) if b <= a else 0
    # C(a, b) = (-1)^b C(b - a - 1, b) for a < 0
    return (-1 if b % 2 else 1) * math.comb(b - a - 1, b)


def _check_nk(n, k):
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")


def symfun_closed(n, k):
    """Closed form C(n+k, n-k); also equals C(n+k, 2k)."""
    _check_nk(n, k)
    return binomial(n + k, n - k)


def _minor_sums(n, k_max):
    """Principal-minor sums of the n x n min matrix A by one depth-first
    walk over its index sets of size <= k_max (see symfun_minor_sum).

    Returns sums with sums[j][m] the sum of det A[S, S] over the j-subsets
    S of {1, ..., n} whose largest index is m (sums[0][0] = 1 for the
    empty set). A minor does not depend on n once n >= max(S), so
    S(n', k) for every n' <= n is a prefix sum of sums[k].

    A child that will have no children, at depth k_max or with one row,
    is read only on its diagonal, the minors of the sets one larger: each
    entry takes one update (pivot * x - lead * lead) // prev, and no block
    is built. A child with two rows and children of its own is read inline
    too: its three entries, and its one child's minor from them. At
    k_max = n these are the 2^(n-2) sets whose largest index is n - 1 and
    the 2^(n-3) whose largest index is n - 2: three quarters of the blocks
    a walk without either read would build. The two-row sets alone were
    half of the visits.
    """
    sums = [[0] * (n + 1) for _ in range(k_max + 1)]
    sums[0][0] = 1

    def visit(block, prev, top, depth):
        # Node S: block is its upper triangle over the indices top+1..n
        # (top = max(S)), prev its own minor det A[S, S], depth = |S| + 1.
        level = sums[depth]
        leaves = depth == k_max
        for i, row in enumerate(block):
            pivot = row[0]
            if pivot <= 0:
                raise _non_positive(pivot, top + 1 + i)
            level[top + 1 + i] += pivot
            if leaves or i + 1 == len(block):
                continue
            if i + 3 == len(block) and depth + 1 < k_max:
                # The child S+t will have two rows, u = t+1 and u+1, and
                # one child: read inline its entries x0, x1, x2 and that
                # child's minor det A[S+t+u+(u+1)], checked in the order a
                # visit would. x2 > 0 follows from x0 > 0 and
                # x0 * x2 - x1 * x1 > 0, so x2 is never the first failure.
                _, lead, lead2 = row
                (y0, y1), (y2,) = block[i + 1], block[i + 2]
                x0 = (pivot * y0 - lead * lead) // prev
                u = top + 2 + i
                if x0 <= 0:
                    raise _non_positive(x0, u)
                x1 = (pivot * y1 - lead * lead2) // prev
                x2 = (pivot * y2 - lead2 * lead2) // prev
                minor = (x0 * x2 - x1 * x1) // pivot
                if minor <= 0:
                    raise _non_positive(minor, u + 1)
                below = sums[depth + 1]
                below[u] += x0
                below[u + 1] += x2
                sums[depth + 2][u + 1] += minor
                continue
            tail = row[1:]
            if depth + 1 == k_max or i + 2 == len(block):
                # The child S+t will have no children: only its diagonal,
                # the minors det A[S+t+u, S+t+u], is read.
                below = sums[depth + 1]
                for a, lead in enumerate(tail, i + 1):
                    minor = (pivot * block[a][0] - lead * lead) // prev
                    if minor <= 0:
                        raise _non_positive(minor, top + 1 + a)
                    below[top + 1 + a] += minor
                continue
            child = [
                [(pivot * x - lead * y) // prev for x, y in zip(block[i + 1 + a], tail[a:])]
                for a, lead in enumerate(tail)
            ]
            visit(child, pivot, top + 1 + i, depth + 1)

    if k_max:
        rows = build_min_matrix(n).to_lists()
        visit([row[i:] for i, row in enumerate(rows)], 1, 0, 1)
    return sums


def _non_positive(minor, index):
    return ArithmeticError(f"non-positive principal minor {minor} at index {index}")


def _check_cap(n):
    if n > BRUTE_FORCE_CAP:
        raise BruteForceCapExceeded(
            f"minor enumeration capped at n={BRUTE_FORCE_CAP} (got n={n})"
        )


def symfun_minor_sum(n, k):
    """Sum of all C(n, k) principal k x k minors of the min matrix A.

    Each minor comes from fraction-free (Bareiss) elimination, shared
    along common index prefixes. One depth-first walk visits the index
    sets in increasing order. A node S carries the Bareiss-reduced block
    over the indices t, u > max(S); by Sylvester's identity its entry
    (t, u) is the bordered minor det A[S+t, S+u], so its diagonal entry t
    is the principal minor det A[S+t, S+t], and the child S+t costs one
    fraction-free update (pivot*x - lead*y) // prev of the block, every
    division exact. The block is symmetric, so only its upper triangle is
    kept. A is positive definite, so every pivot is a positive principal
    minor and no row swap is needed; a swap would change the principal
    set. A pivot <= 0 raises ArithmeticError.

    Exponential in n; refuses n above BRUTE_FORCE_CAP.
    """
    _check_nk(n, k)
    _check_cap(n)
    return sum(_minor_sums(n, k)[k])


def _trapezoid(n, k):
    """Column lengths for S(n, k) alone: columns 0..k down to offset n - k.

    A column fill takes such lengths and yields the columns in turn, column
    j holding S(j + d, j) for 0 <= d < lengths[j]. Entry d of a column
    needs the previous column down to offset d, so lengths must not increase.
    """
    return [n - k + 1] * (k + 1)


def _ramp_sums(values, length):
    """c[d] = sum_{i=1}^{d+1} i * values[d + 1 - i] for 0 <= d < length.

    values[e] enters c[d] with weight d + 1 - e, so
        c[d] = (d + 1) * P[d] - Q[d],
    where P[d] = sum_{e<=d} values[e] and Q[d] = sum_{e<=d} e * values[e]
    are running sums: O(length) big-integer operations, not O(length^2).
    c is also the prefix sum of the prefix sums of values,
    list(accumulate(accumulate(values[:length]))). nested and rec6 share
    this helper, and rec7 builds that double prefix sum by additions: the
    three fills apply one column map in different arithmetic.
    """
    head = values[:length]
    ramps = map(operator.mul, range(1, length + 1), accumulate(head))
    moments = accumulate(map(operator.mul, range(length), head))
    return list(map(operator.sub, ramps, moments))


def _nested_columns(lengths):
    """Column fill by exact totals. exact[e] sums i_1 * ... * i_j over the
    compositions of exactly j + e into j parts; splitting off the last
    part i makes it the sum of i * (previous exact)[e + 1 - i], one
    _ramp_sums of the previous exact. Column j holds the prefix sums of
    exact: S(j + e, j), totals at most j + e. A column is a lazy
    accumulate, to be read once, so a column that is passed over costs no
    prefix sum."""
    exact = [1] + [0] * (lengths[0] - 1)
    yield accumulate(exact)
    for length in lengths[1:]:
        exact = _ramp_sums(exact, length)
        yield accumulate(exact)


def _rec6_columns(lengths):
    """Column fill by S(m, j) = sum_{i=1}^{m-j+1} i * S(m-i, j-1); at
    m = j + d the weight i pairs with prev[d + 1 - i], so column j is one
    _ramp_sums of column j - 1."""
    column = [1] * lengths[0]
    yield column
    for length in lengths[1:]:
        column = _ramp_sums(column, length)
        yield column


def _rec7_columns(lengths):
    """Column fill by S(m, j) = S(m-1, j) + sum_{i=1}^{m-j+1} S(m-i, j-1)
    from the diagonal S(j, j) = 1. At m = j + d the inner sum is the
    prefix sum prev[0] + ... + prev[d], carried from one d to the next, so
    a column of length L costs O(L) additions and no multiplication."""
    column = [1] * lengths[0]
    yield column
    for length in lengths[1:]:
        totals = accumulate(column[:length])  # prev[0] + ... + prev[d]
        next(totals)  # d = 0 is the base S(j, j) = 1, not a step
        column = list(accumulate(totals, initial=1))
        yield column


def _ratio_column(k, n):
    """S(k, k), ..., S(n, k) by the ratio recurrence (see symfun_ratio)."""
    column = [1]
    for m in range(k + 1, n + 1):
        quotient, remainder = divmod(column[-1] * (m + k), m - k)
        if remainder:
            raise ArithmeticError(
                f"inexact division in ratio recurrence at m={m}, k={k}"
            )
        column.append(quotient)
    return column


def symfun_nested(n, k):
    """Sum of products i_1 * ... * i_k over all compositions with each
    part >= 1 and total at most n."""
    _check_nk(n, k)
    column = deque(_nested_columns(_trapezoid(n, k)), maxlen=1)[0]
    return deque(column, maxlen=1)[0]


def symfun_rec6(n, k):
    """Weighted recurrence S(n, k) = sum_i i * S(n-i, k-1), i = 1..n-k+1."""
    _check_nk(n, k)
    return deque(_rec6_columns(_trapezoid(n, k)), maxlen=1)[0][-1]


def symfun_rec7(n, k):
    """Difference recurrence S(n, k) = S(n-1, k) + sum_i S(n-i, k-1).

    The recurrence needs n - 1 >= k; the diagonal S(k, k) = 1 (the
    determinant of the full matrix) serves as its base instead.
    """
    _check_nk(n, k)
    return deque(_rec7_columns(_trapezoid(n, k)), maxlen=1)[0][-1]


def symfun_ratio(n, k):
    """Multiplicative recurrence S(m, k) = (m+k)/(m-k) * S(m-1, k) from the
    base S(k, k) = 1. Every division must be exact; a remainder signals an
    implementation bug, not bad input."""
    _check_nk(n, k)
    return _ratio_column(k, n)[-1]


_DISPATCH = {
    "closed": symfun_closed,
    "minors": symfun_minor_sum,
    "nested": symfun_nested,
    "rec6": symfun_rec6,
    "rec7": symfun_rec7,
    "ratio": symfun_ratio,
}


_COLUMNS = {"nested": _nested_columns, "rec6": _rec6_columns, "rec7": _rec7_columns}


def _columns(n_max, method):
    """Columns 0..n_max of S by the given method, column k holding S(k, k),
    ..., S(n_max, k); each is built only when it is reached."""
    if method == "closed":
        return (
            (binomial(n + k, n - k) for n in range(k, n_max + 1)) for k in range(n_max + 1)
        )
    if method == "minors":
        # One walk over A_{n_max}; S(n, k) sums the k-minors whose
        # largest index is at most n.
        _check_cap(n_max)
        return (
            islice(accumulate(by_top), k, None)
            for k, by_top in enumerate(_minor_sums(n_max, n_max))
        )
    if method == "ratio":
        return (_ratio_column(k, n_max) for k in range(n_max + 1))
    return _COLUMNS[method](range(n_max + 1, 0, -1))


def _symfun_row(n, method):
    """S(n, 0), ..., S(n, n): row n of build_sym_table(n, method) without
    keeping the table. Each column is dropped once its last entry is read;
    closed takes one binomial per k, where its columns would cost the
    whole triangle."""
    if method == "closed":
        return [binomial(n + k, n - k) for k in range(n + 1)]
    return [deque(column, maxlen=1)[0] for column in _columns(n, method)]


def symfun(n, k, method="closed"):
    """Dispatch to one of the six computation methods by name."""
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    return fn(n, k)


@dataclass(frozen=True)
class SymTable:
    """Immutable snapshot of S(n, k) for all 0 <= k <= n <= n_max, computed
    by a single method: columns[k] is the tuple S(k, k), ..., S(n_max, k)."""

    n_max: int
    method: str
    columns: tuple

    def __getitem__(self, nk):
        n, k = nk
        if not 0 <= k <= n <= self.n_max:  # a negative index would wrap
            raise KeyError(nk)
        return self.columns[k][n - k]


def build_sym_table(n_max, method="closed"):
    """Fill a SymTable for the given method, one column per k.

    The polynomial methods run the same column fill as their single-value
    functions over the whole triangle 0 <= k <= n <= n_max, keeping every
    column; minors takes every column from one walk. Much cheaper than
    repeated single-value calls when sweeping a whole (n, k) range.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    columns = tuple(map(tuple, _columns(n_max, method)))
    return SymTable(n_max=n_max, method=method, columns=columns)


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with exact integer coefficients.

    coeffs[j] is the coefficient of lambda^j; coeffs[n] == 1.
    """

    n: int
    coeffs: tuple

    def __call__(self, lam):
        result = 0
        for c in reversed(self.coeffs):
            result = result * lam + c
        return result


def charpoly(n):
    """Characteristic polynomial of the n x n min matrix via Vieta's
    formulas over the closed-form symmetric functions: the coefficient of
    lambda^(n-k) is (-1)^k C(n+k, 2k).

    Each binomial comes from the one before by an exact ratio,
    C(n+k+1, 2k+2) = C(n+k, 2k) (n+k+1)(n-k) / ((2k+1)(2k+2)), in place of
    a fresh math.comb per coefficient. A remainder signals an
    implementation bug, as in the ratio recurrence. charpoly(120) takes
    about 0.04 ms this way, next to 0.5 ms for det_bareiss of
    lam*I - A_120 (in process on one pinned CPU of a 2-vCPU x86-64 host,
    Python 3.11, medians of 21 calls).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    coeffs = [0] * (n + 1)
    binom = 1
    for k in range(n + 1):
        coeffs[n - k] = -binom if k % 2 else binom
        binom, remainder = divmod(binom * (n + k + 1) * (n - k), (2 * k + 1) * (2 * k + 2))
        if remainder:
            raise ArithmeticError(f"inexact division in charpoly at n={n}, k={k}")
    return CharPoly(n=n, coeffs=tuple(coeffs))


def char_matrix(n, lam):
    """The exact integer matrix lam*I - A_n, for checking charpoly against
    the elimination oracle. lam must be an integer, as a matrix entry
    must: a float, a string or a bool raises TypeError."""
    (lam,) = _integers([lam])
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    # -A_n has entry -min(i, j): the cumulative rows of -1, ..., -n.
    rows = _cumulative_rows(list(range(-1, -n - 1, -1)))
    for r in range(n):
        rows[r][r] += lam
    return ExactMatrix._from_checked(rows)

"""Construction of the min-matrix family in exact integer arithmetic.

The basic object is the n x n matrix with entry min(i, j), together with
its shifted variant (top-left entry k) and two cumulative-prefix-sum
generalizations parameterized by an increment list (i_1, ..., i_n).
"""

from itertools import accumulate
from operator import index


def _integers(values):
    """The values as a new list of Python ints, through operator.index.
    bool passes operator.index but is refused: True is not the integer
    entry 1. A list of plain ints, what the constructors pass, is only
    copied: the type scan that finds a bool already shows it needs no
    conversion."""
    values = list(values)
    kinds = set(map(type, values))
    if bool in kinds:
        raise TypeError("entries must be integers, not bool")
    return values if kinds <= {int} else list(map(index, values))


class ExactMatrix:
    """Dense square matrix of arbitrary-precision integers.

    Public entry access is 1-based to match the usual mathematical
    indexing of these matrices. Instances are treated as immutable.
    Entries must be integers (anything operator.index accepts, such as
    numpy integers, except bool); floats, strings, fractions and bools
    raise TypeError.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, rows):
        rows = [_integers(row) for row in rows]
        if not rows:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "dim", len(rows))
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _from_checked(cls, rows):
        """The matrix that holds ``rows`` itself, with no entry scanned: for
        a nonempty square list of lists of Python ints that the caller
        built from a range or from values _integers has checked."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "dim", len(rows))
        object.__setattr__(matrix, "_rows", rows)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def entry(self, r, c):
        """Entry at 1-based position (r, c)."""
        if not (1 <= r <= self.dim and 1 <= c <= self.dim):
            raise IndexError(f"entry ({r}, {c}) out of bounds for dim {self.dim}")
        return self._rows[r - 1][c - 1]

    def to_lists(self):
        """Entries as a fresh list of row lists."""
        return [row[:] for row in self._rows]

    def submatrix(self, indices):
        """Principal submatrix on the given 1-based row/column indices."""
        idx = [i - 1 for i in indices]
        if not idx:
            raise ValueError("index set must be nonempty")
        if any(not 0 <= i < self.dim for i in idx):
            raise IndexError("submatrix index out of bounds")
        rows = self._rows
        return ExactMatrix._from_checked([[rows[i][j] for j in idx] for i in idx])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self):
        return f"ExactMatrix({self._rows!r})"


def _check_increments(inc, minimum_length=1):
    values = _integers(inc)
    if len(values) < minimum_length:
        raise ValueError(
            f"increment list needs at least {minimum_length} entries, got {len(values)}"
        )
    return values


def prefix_sums(inc):
    """Partial sums [i_1, i_1+i_2, ...] of an increment list."""
    values = _check_increments(inc)
    return list(accumulate(values))


def _cumulative_rows(sums):
    """Rows of the matrix with entry(r, c) = sums[min(r, c)], 0-based: row
    r is sums up to r, then sums[r] repeated to the end. Each row is one
    allocation, sums[r] repeated n times, whose first r entries are then
    overwritten by the slice sums[:r], with no per-entry min()."""
    n = len(sums)
    rows = []
    for r, value in enumerate(sums):
        row = [value] * n
        row[:r] = sums[:r]
        rows.append(row)
    return rows


def build_min_matrix(n):
    """The n x n matrix with entry(i, j) = min(i, j)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return ExactMatrix._from_checked(_cumulative_rows(list(range(1, n + 1))))


def build_c_matrix(n, k):
    """The (n-k+1) x (n-k+1) shifted min matrix with top-left entry k.

    The shift parameter is restricted to 1 < k < n; outside that range
    use build_delta_matrix((k, 1, ..., 1)) to explore the same pattern.
    """
    if not 1 < k < n:
        raise ValueError(f"require 1 < k < n, got k={k}, n={n}")
    return ExactMatrix._from_checked(_cumulative_rows(list(range(k, n + 1))))


def build_delta_matrix(inc):
    """Cumulative matrix with entry(r, c) = P[min(r, c)], P the prefix sums.

    With unit increments this reproduces build_min_matrix; with
    (k, 1, ..., 1) it reproduces the shifted matrix for any k.
    """
    return ExactMatrix._from_checked(_cumulative_rows(prefix_sums(inc)))


def build_theta_matrix(inc):
    """Companion cumulative matrix of dimension len(inc) - 1.

    Column 1 is constant P[1]; for c >= 2 the entry at (r, c) is
    P[min(r+1, c+1)]. Requires at least three increments (the smallest
    instance is 2 x 2).
    """
    values = _check_increments(inc, minimum_length=3)
    sums = list(accumulate(values))
    # Row r (1-based) is sums[0], then sums[min(r, c)] for c = 2..n: the
    # cumulative row of sums[1:] with its head replaced by sums[0].
    rows = _cumulative_rows(sums[1:])
    for row in rows:
        row[0] = sums[0]
    return ExactMatrix._from_checked(rows)

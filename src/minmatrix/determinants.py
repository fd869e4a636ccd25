"""Exact determinants: closed forms and a fraction-free elimination oracle.

The closed forms cost O(n) multiplications; the Bareiss elimination is the
independent O(n^3) check. Both stay in integer arithmetic throughout, so
every comparison is an exact equality.
"""

from math import prod

from .matrices import _check_increments

# Smallest dimension at which det_bareiss tries the int64 phase. Below it
# the per-step numpy overhead costs more than the Python-int loop it
# replaces: on shifted min matrices the two cross over at dimension 22-23
# (2-vCPU x86-64 host, Python 3.11, numpy 2.4).
_INT64_MIN_DIM = 24

_INT64_LIMIT = 1 << 63


def det_bareiss(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact over the integers. Zero pivots
    are handled by row swap with sign tracking; if no nonzero pivot
    exists the determinant is 0.

    Matrices of dimension at least 24 (_INT64_MIN_DIM) whose entries all
    satisfy |x| < 2**63 start in a vectorised numpy int64 phase. Before
    each step it certifies that the update pivot*x - lead*y cannot
    overflow:

        |pivot| * max|block| + max|lead column| * max|pivot row| < 2**63,

    computed in Python ints. When the certificate fails, the active block
    is handed to the Python-int loop, which finishes the elimination.
    The hand-off loses nothing: by Sylvester's identity every Bareiss
    intermediate is a minor of the input, so each int64 value is that
    minor exactly and the quotient by the previous pivot stays exact
    (Bareiss 1968, Math. Comp. 22). The result is the same integer the
    Python-int loop alone would give.
    """
    rows = matrix.to_lists()
    if (
        len(rows) >= _INT64_MIN_DIM
        and -_INT64_LIMIT < min(map(min, rows))
        and max(map(max, rows)) < _INT64_LIMIT
    ):
        return _det_int64(rows)
    return _eliminate(rows, 1, 1)


def _eliminate(rows, sign, prev):
    """Python-int Bareiss elimination of an active block.

    ``rows`` is the square active block, pivot column at index 0 of every
    row; ``sign`` and ``prev`` are the row-swap sign and the previous pivot
    so far (1 and 1 for a whole matrix). The rows are consumed.
    """
    # Rows shrink as elimination proceeds: at each step the active block's
    # pivot column is index 0 of every remaining row.
    n = len(rows)
    for step in range(n - 1):
        if rows[step][0] == 0:
            for r in range(step + 1, n):
                if rows[r][0] != 0:
                    rows[step], rows[r] = rows[r], rows[step]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[step]
        pivot = pivot_row[0]
        pivot_tail = pivot_row[1:]
        for r in range(step + 1, n):
            row = rows[r]
            lead = row[0]
            rows[r] = [
                (pivot * x - lead * y) // prev
                for x, y in zip(row[1:], pivot_tail)
            ]
        prev = pivot
    return sign * rows[n - 1][0]


def _abs_max(a):
    # In Python ints: np.abs would wrap at -2**63.
    return max(int(a.max()), -int(a.min()))


def _det_int64(rows):
    """Bareiss elimination in int64 for as long as the overflow certificate
    holds, then the Python-int loop on what is left. Entries must satisfy
    |x| < 2**63."""
    import numpy as np

    a = np.array(rows, dtype=np.int64)
    n = len(rows)
    sign = 1
    prev = 1
    for step in range(n - 1):
        if a[step, step] == 0:
            nonzero = np.flatnonzero(a[step + 1 :, step])
            if nonzero.size == 0:
                return 0
            r = step + 1 + int(nonzero[0])
            a[[step, r], step:] = a[[r, step], step:]
            sign = -sign
        pivot = int(a[step, step])
        lead = a[step + 1 :, step]
        pivot_tail = a[step, step + 1 :]
        block = a[step + 1 :, step + 1 :]
        bound = abs(pivot) * _abs_max(block) + _abs_max(lead) * _abs_max(pivot_tail)
        if bound >= _INT64_LIMIT:
            return _eliminate(a[step:, step:].tolist(), sign, prev)
        block *= pivot
        block -= np.outer(lead, pivot_tail)
        if prev != 1:
            block //= prev
        prev = pivot
    return sign * int(a[n - 1, n - 1])


def delta_det_closed(inc):
    """Determinant of build_delta_matrix(inc): the product of the increments."""
    values = _check_increments(inc)
    return prod(values)


def theta_det_closed(inc):
    """Determinant of build_theta_matrix(inc): i_1 times the product of
    i_3, ..., i_{n+1}. The second increment drops out."""
    values = _check_increments(inc, minimum_length=3)
    return values[0] * prod(values[2:])


def det_min_matrix(n):
    """Determinant of the min matrix, always 1."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 1


def det_c_matrix(n, k):
    """Determinant of the shifted min matrix, always k."""
    if not 1 < k < n:
        raise ValueError(f"require 1 < k < n, got k={k}, n={n}")
    return k

"""Exact determinants: closed forms and a fraction-free elimination oracle.

The closed forms cost O(n) multiplications; the elimination in
``det_bareiss`` is the independent check. Everything stays in Python
integers, so every comparison is an exact equality.

``det_bareiss`` eliminates D = Δ·X·Δᵀ in place of X: each row less the
row above it, then each entry less its left neighbour. Δ is unit lower
bidiagonal, so det D = det X, and D's leading blocks have X's leading
minors. The paper's matrices are cumulative, entry (i, j) a prefix sum at
min(i, j), and leave D banded: A_n leaves the identity, C_{n,k} the
identity with k in its corner, a delta matrix diag(i_1, ..., i_n), a theta
matrix a diagonal and one entry below it, and lam*I - A_n a tridiagonal D.
``_eliminate`` runs Bareiss's fraction-free elimination inside D's band
(Bareiss, Math. Comp. 22, 1968; band LU keeps the band, Golub & Van Loan,
Matrix Computations, 4.3): O(n·b²) operations for bandwidth b, and
ordinary Bareiss, O(n³), on a dense D.

``_det_minors`` also returns the leading minors that the elimination read,
which ``verify`` checks one family at a time.
"""

from itertools import zip_longest
from math import prod
from operator import sub

from .matrices import _check_increments


def det_bareiss(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact over the integers. Zero pivots
    are handled by row swap with sign tracking; if no nonzero pivot
    exists the determinant is 0. The matrix is only read.

    The elimination runs on D = Δ·X·Δᵀ, inside its band (see the module
    docstring). A_150 and C_{189,40} take about 0.33 ms this way, a
    dimension-48 delta or theta matrix of 64-bit increments about 0.08 ms
    and A_600 about 3.1 ms, most of it in comparing rows to find D's band.
    When each one-entry row of their D took the general path, these were
    0.5, 0.14 and 4.0 ms. lam*I - A_120 takes about 0.5 ms. (In process
    on one pinned CPU of a shared 2-vCPU x86-64 host, Python 3.11, medians
    of 21 calls, the fastest of 10 alternating processes; the host also
    runs at a slower speed, where these read 1.5-1.8 times as much.) A
    dense matrix of entries in -16..16 took about 1.5-2.5 ms at dimension
    24, 12-20 ms at 48 and 150-230 ms at 96 (medians of 21 calls on one
    unpinned CPU of the same host).
    """
    return _det_minors(matrix)[0]


def _det_minors(matrix):
    """det_bareiss's determinant of ``matrix``, by the same elimination,
    and the leading principal minors it read on the way: minors[m] is the
    determinant of the leading (m + 1) x (m + 1) block.

    Δ is lower triangular, so D's leading block is Δ·X·Δᵀ of X's, with the
    same determinant. Until a row swap, the pivot of Bareiss step m is that
    minor (Bareiss 1968), and a step swaps rows only where its pivot, the
    next minor, is 0. So the record stops only at a zero leading minor:
    minors holds all n exactly when the first n - 1 are nonzero, and a
    shorter list says that the next one is 0.

    D is formed row by row. Its row i is r less r shifted right by one,
    for r = X_i - X_{i-1}: zero before the first column where X_i and
    X_{i-1} differ, and zero past the first column from which both are
    constant. Both ends are found by comparing the two rows of X, so only
    the entries between them are subtracted. Two parallel rows leave r
    constant before the second end, and the row of D is cut after its
    last nonzero entry. A span of one column, every row of a diagonal D
    such as those of A_n, C_{n,k} and the delta matrices, is that one
    difference of X's rows. Each row is kept with the column of its first
    entry (n for a zero row).
    """
    rows = matrix._rows
    n = len(rows)
    band = []
    starts = []
    above = [0] * n
    # The column from which the row above is constant.
    flat = 0
    for i, row in enumerate(rows):
        # Both ends are sought from the diagonal: first one entry at a
        # time while the entries there differ, which crosses a band of D
        # such as lam*I - A_n's, then by slices that compare whole runs of
        # the two rows at once.
        first = i
        while first and row[first - 1] != above[first - 1]:
            first -= 1
        if row[:first] != above[:first]:
            first -= 1
            while row[:first] != above[:first]:
                first -= 1
        elif first == i:
            while first < n and row[first] == above[first]:
                first += 1
        starts.append(first)
        if first == n:
            # The row equals the one above, and is constant from flat too.
            band.append([])
            continue
        # The row above is constant from flat on: it is compared only left
        # of that.
        last = max(first, i)
        while last < n - 1 and (row[last] != row[last + 1] or last < flat and above[last] != above[last + 1]):
            last += 1
        while row[last:-1] != row[last + 1 :] or last < flat and above[last:-1] != above[last + 1 :]:
            last += 1
        while last > first and row[last - 1] == row[last] and above[last - 1] == above[last]:
            last -= 1
        flat = last
        if last == first:
            # One entry: r and the row of D are the same difference.
            band.append([sub(row[first], above[first])])
        else:
            r = list(map(sub, row[first : last + 1], above[first : last + 1]))
            d = [r[0], *map(sub, r[1:], r)]
            while not d[-1]:
                del d[-1]
            band.append(d)
        above = row
    minors = []
    return _eliminate(band, starts, minors), minors


def _eliminate(rows, starts, minors):
    """Bareiss elimination of the square matrix whose row i holds its
    entries from column starts[i] to its last nonzero one (an empty row
    has start n). ``rows`` and ``starts`` are consumed. Each pivot, and
    then the determinant, is appended to the list ``minors`` until the
    first row swap (see ``_det_minors``).

    A row enters the window at the step of its start column. Before that
    its lead is 0 at every step, so Bareiss multiplies it by pivot / prev
    each time, and its value at step k is its own times prev, the pivot of
    step k - 1. Only the pivot row is multiplied by prev as it enters,
    after a zero pivot has swapped in its replacement. A row that enters
    below the pivot is updated from its own entries as pivot * x - lead * y:
    Bareiss's (pivot * prev * x - prev * lead * y) // prev with the factor
    prev, which the division only removes, never put in. A row that
    entered at an earlier step is updated as (pivot * x - lead * y) // prev.
    On a tridiagonal D, such as lam*I - A_n's, every row enters one step
    before it pivots, so every update is the first kind. A step whose
    window holds no row below the pivot, every step of a diagonal D and
    the last of any D, reads only the pivot: it scales an entering pivot
    by prev and builds no scaled row.

    With lower = the largest i - starts[i], step k reads rows k to
    k + lower alone; a swap exchanges row k with one of those, so it keeps
    that true. In the window a row is held from the step's column to its
    last nonzero one, and an update ends where the longer of it and the
    pivot row ends: rows carry up to upper + lower entries past the
    diagonal, upper D's own.
    """
    n = len(rows)
    lower = max(0, *map(sub, range(n), starts))
    sign = 1
    prev = 1
    for step in range(n):
        end = min(n, step + lower + 1)
        pivot = rows[step][0] if starts[step] <= step else 0
        if pivot == 0 and step < n - 1:
            # Pivots after a swap are not leading minors: they go to a list
            # that nobody reads.
            minors = []
            for r in range(step + 1, end):
                if starts[r] <= step and rows[r][0]:
                    rows[step], rows[r] = rows[r], rows[step]
                    starts[step], starts[r] = starts[r], starts[step]
                    sign = -sign
                    pivot = rows[step][0]
                    break
            else:
                return 0
        # The pivot row enters at this step, in place or swapped in, scaled
        # by prev. With no row below it in the window only its lead is read.
        entering = starts[step] == step
        if entering:
            pivot *= prev
        minors.append(pivot)
        if end == step + 1:
            prev = pivot
            continue
        pivot_tail = rows[step][1:]
        if entering:
            pivot_tail = [prev * x for x in pivot_tail]
        for r in range(step + 1, end):
            if starts[r] <= step:
                row = rows[r]
                lead = row[0]
                terms = zip_longest(row[1:], pivot_tail, fillvalue=0)
                # A row that ends with the pivot column keeps its lead as 0.
                if starts[r] == step:
                    rows[r] = [pivot * x - lead * y for x, y in terms] or [0]
                else:
                    rows[r] = [(pivot * x - lead * y) // prev for x, y in terms] or [0]
        prev = pivot
    return sign * prev


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

"""Exact determinants: closed forms and a fraction-free elimination oracle.

The closed forms cost O(n) multiplications; the elimination in
``det_bareiss`` is the independent check. Everything stays in integer
arithmetic, so every comparison is an exact equality.

``det_bareiss`` takes one of two routes, chosen by the dimension alone:

- below 24: the Python-int Bareiss loop ``_eliminate``, which is also the
  reference the other route is tested against;
- from 24 up: elimination modulo word-size primes, many at once, and
  Chinese remaindering (``_det_crt``), certified by Hadamard's bound on the
  matrix or on its differenced form, whichever is smaller (``_hadamard``),
  and run on that same matrix, each step updating only the rows and
  columns it changes (``_det_mod``).

``_det_minors`` takes the same route and also returns the leading minors
that the elimination read, which ``verify`` checks one family at a time.
"""

from itertools import chain, repeat
from math import isqrt, prod
from operator import mul

from .matrices import _check_increments

# Smallest dimension at which det_bareiss takes the multi-modular route.
# The route, its bound and array conversion included, overtakes the
# Python-int loop at dimension 16-20 on A_d and on C_{d+k-1,k} for k = 2,
# 10 and 60; at 24 it is about 1.7-2x faster and at 32 about 3x (in
# process, one CPU, 2-vCPU x86-64 host, Python 3.11, numpy 2.4). Moving
# the constant to 18 would save up to 0.3 ms on each matrix of dimension
# 18-23; it stays at 24, where the route tests pin the switch.
_CRT_MIN_DIM = 24

# Primes of the multi-modular route stay below 2**28. A product of two
# residues is then below 2**56, and the block can absorb 127 updates
# before an int64 could overflow, so the block is reduced mod p only
# every 127 steps while the pivot row and column are reduced at every
# step that reads them. Primes below 2**31 would need a full `%` of the
# block at every step, which in a prototype was about 1.6x slower on
# dimension-48 delta matrices of 64-bit increments.
_CRT_PRIME_BITS = 28
_CRT_REDUCE_EVERY = ((1 << 63) - (1 << _CRT_PRIME_BITS)) >> (2 * _CRT_PRIME_BITS)
# A pass's working array and scratch share _CRT_BUDGET_ELEMENTS int64,
# 2.4 MB. The scratch takes _CRT_SCRATCH_ELEMENTS of them, and a pass
# eliminates modulo max(1, (_CRT_BUDGET_ELEMENTS - _CRT_SCRATCH_ELEMENTS)
# // n**2) primes at once, n**2 int64 each, whatever the prime count, up
# to n = 478, where one prime fills the budget. That is 99 primes per pass
# at n = 48, where 64-bit delta matrices need about 109, 24 at n = 96 and
# 15 at n = 120, where char_matrix(120, lam) needs 1-16 for lam = -3..5,
# so that lam = 5 alone takes two passes. numpy's inner loops run along
# the prime axis, so short passes cost more per element: char_matrix(120,
# 5) with Hadamard's bound on the matrix alone, 33 primes, took 38, 43, 54
# and 90 ms at 33, 19, 10 and 5 primes per pass, and one pass of 33 raised
# the process's peak RSS by 1.3 MB (2-vCPU x86-64 host, Python 3.11, numpy
# 2.4).
_CRT_BUDGET_ELEMENTS = 294_912
# Elements of the scratch through which each elimination step applies its
# update, a chunk of rows at a time, and each pass loads the residues of
# the matrix's nonzero entries, a chunk of entries at a time: 65,536
# int64, 512 KiB. With the same primes per pass, 16,384 to 65,536 took
# the same time within noise, 4,096 was 15-30 % slower and 131,072 up to
# 12 % slower on char_matrix(120, lam) (same host). A scratch of 16,384,
# whose budget gives one pass of 120 primes at n = 48, was no faster
# either.
_CRT_SCRATCH_ELEMENTS = 65_536


def det_bareiss(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact over the integers. Zero pivots
    are handled by row swap with sign tracking; if no nonzero pivot
    exists the determinant is 0. Both routes return the same integer as
    the Python-int loop alone.

    Dimension below 24 (_CRT_MIN_DIM): the Python-int loop.

    From 24 up, the determinant is computed modulo the fewest primes
    p < 2**28 whose product M exceeds 2*H + 1, by Gaussian elimination in
    numpy int64 for as many primes at once as a working array and a fixed
    scratch of 2.4 MB together hold, and rebuilt by the Chinese remainder
    theorem in the symmetric range (-M/2, M/2). H is the smaller of
    Hadamard's bound prod(ceil(sqrt(sum_j x_ij**2))) on the matrix X and on
    D = Δ·X·Δᵀ, X with each row less the row above it and then each entry
    less its left neighbour. det Δ = 1, so |det X| = |det D| <= H and the
    result is certified, not probabilistic (Abbott, Bronstein & Mulders,
    ISSAC 1999; von zur Gathen & Gerhard, Modern Computer Algebra, 5.5).
    The elimination runs on the matrix that gave H, D where its bound is no
    larger. The paper's cumulative matrices leave D nearly diagonal: A_n
    leaves the identity and C_{n,k} the identity with k in its corner, so H
    is 1 or k and one prime certifies; a delta matrix leaves
    diag(i_1, ..., i_n), a theta matrix one entry more, and lam*I - A_n a
    tridiagonal D. Each step updates only the span of rows whose lead entry
    is nonzero mod some prime and the span of columns whose pivot-row entry
    is, and computes the pivots' modular inverses, the only per-prime
    Python work, only where neither span is empty: a diagonal D makes no
    update and no inverse. A_150 and the C_{n,k} of dimension 150 take
    about 2.3-2.5 ms this way, lam*I - A_120 about 7 ms at lam = 4 and
    10 ms at lam = 5, whose 16 primes take two passes, and a dimension-48
    delta matrix of 64-bit increments about 2.8-2.9 ms (in process,
    medians of 21 calls on one CPU, over two sessions on a shared 2-vCPU
    x86-64 host, Python 3.11, numpy 2.4).
    """
    return _det_minors(matrix, record=False)[0]


def _det_minors(matrix, record=True):
    """det_bareiss's determinant of ``matrix``, by the same route, and the
    leading principal minors its elimination read on the way: minors[m] is
    the determinant of the leading (m + 1) x (m + 1) block.

    Until a row swap, the pivot of Bareiss step m is that minor (Bareiss
    1968), and so, modulo a prime, is the product of the first m + 1
    pivots of Gaussian elimination. ``_eliminate`` records the pivots
    below dimension 24, the multi-modular route the pivot products from 24
    up, each rebuilt by the Chinese remainder theorem. Δ is lower
    triangular, so D's leading block is that of X differenced and has the
    same determinant, and the product of the first m + 1 row bounds, at
    most H, certifies it with the same primes. The record stops at the
    first row swap, of any prime on that route; a nonzero minor that one
    of the primes divides can make that prime swap. So minors holds all n
    minors exactly when no swap happened, and a shorter list is the sign
    that one did (or, below 24, that a pivot column was zero: the
    determinant is then 0).

    det_bareiss passes record=False: the route then rebuilds the
    determinant alone, and minors is None.
    """
    # The matrix's own rows, read and never changed: only the Python-int
    # loop consumes its rows, and it gets a copy.
    rows = matrix._rows
    minors = [] if record else None
    if len(rows) < _CRT_MIN_DIM:
        return _eliminate(matrix.to_lists(), minors), minors
    return _det_crt(rows, minors), minors


def _eliminate(rows, minors=None):
    """Python-int Bareiss elimination of the square matrix ``rows``, which
    is consumed. Each pivot, and then the determinant, is appended to the
    list ``minors`` until the first row swap (see ``_det_minors``)."""
    # Rows shrink as elimination proceeds: at each step the active block's
    # pivot column is index 0 of every remaining row.
    n = len(rows)
    if minors is None:
        minors = []
    sign = 1
    prev = 1
    for step in range(n - 1):
        if rows[step][0] == 0:
            # Pivots after a swap are not leading minors: they go to a list
            # that nobody reads.
            minors = []
            for r in range(step + 1, n):
                if rows[r][0] != 0:
                    rows[step], rows[r] = rows[r], rows[step]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[step]
        pivot = pivot_row[0]
        minors.append(pivot)
        pivot_tail = pivot_row[1:]
        for r in range(step + 1, n):
            row = rows[r]
            lead = row[0]
            rows[r] = [
                (pivot * x - lead * y) // prev
                for x, y in zip(row[1:], pivot_tail)
            ]
        prev = pivot
    det = sign * rows[n - 1][0]
    minors.append(det)
    return det


# Primes below 2**_CRT_PRIME_BITS in descending order, found on first use.
# A tuple replaced whole: a concurrent caller sees a complete prefix.
_crt_prime_table = ()


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n > 7: bases 2, 3, 5 and 7 have
    no common strong pseudoprime below 3,215,031,751."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _crt_primes(bound):
    """The fewest of the largest primes below 2**_CRT_PRIME_BITS whose
    product exceeds ``bound``, and that product."""
    global _crt_prime_table
    table = list(_crt_prime_table)
    modulus = 1
    count = 0
    while modulus <= bound:
        if count == len(table):
            candidate = table[-1] - 2 if table else (1 << _CRT_PRIME_BITS) - 1
            while not _is_prime(candidate):
                candidate -= 2
            table.append(candidate)
        modulus *= table[count]
        count += 1
    if len(table) > len(_crt_prime_table):
        _crt_prime_table = tuple(table)
    return table[:count], modulus


def _norm_ceiling(s):
    """ceil(sqrt(s)) for the sum of squares s of a row, and 1 for a zero
    row: then no factor is 0, and the product of the first m row bounds,
    which bounds the leading m-minor (see ``_det_minors``), is at most the
    product of them all."""
    return isqrt(s - 1) + 1 if s else 1


def _norm_product(a):
    """Hadamard's bound on the integer array ``a``, int64 or object: the
    product of its row norms, each rounded up to an integer. The squares
    are summed in Python ints, over the nonzero entries alone."""
    import numpy as np

    values = a[a != 0].tolist()
    squares = list(map(mul, values, values))
    ends = np.cumsum(np.count_nonzero(a, axis=1)).tolist()
    return prod(_norm_ceiling(sum(squares[start:end])) for start, end in zip([0, *ends], ends))


def _hadamard(rows):
    """A bound on |det| of the square matrix X = ``rows``, Python rows that
    are only read, and the matrix it bounds as a new array: the smaller of
    Hadamard's bound on X and on D = Δ·X·Δᵀ, each the product of the row
    norms rounded up to integers, with D where its bound is no larger,
    else X.

    Δ is unit lower bidiagonal, with -1 below the diagonal: D is each row
    less the row above it, then each entry less its left neighbour. Since
    det Δ = 1, det D = det X, so both bounds hold, and either matrix may be
    eliminated in place of the other. The paper's matrices are cumulative,
    entry (i, j) a prefix sum at min(i, j), and leave little of D: A_n
    leaves the identity, a delta matrix diag(i_1, ..., i_n), a theta matrix
    a diagonal and one entry below it, and lam*I - A_n a tridiagonal D.

    X is an int64 array where every entry has |x| < 2**61, so that D's
    entries, sums of four, fit as well, and an object array of Python ints
    otherwise. Either way D comes from two np.diff calls. The product of
    the rows' max |x| is at most Hadamard's bound on X; where D's bound is
    no larger, that one is the smaller and X's row norms are not summed.
    """
    import numpy as np

    n = len(rows)
    try:
        x = np.fromiter(chain.from_iterable(rows), np.int64, n * n).reshape(n, n)
    except OverflowError:
        x = None
    if x is None or not (-(1 << 61) < int(x.min()) and int(x.max()) < 1 << 61):
        x = np.array(rows, dtype=object)
    d = np.diff(np.diff(x, axis=0, prepend=0), axis=1, prepend=0)
    differenced = _norm_product(d)
    if differenced <= prod(np.abs(x).max(axis=1).tolist()):
        return differenced, d
    plain = _norm_product(x)
    return (differenced, d) if differenced <= plain else (plain, x)


def _crt(columns, primes, modulus):
    """The integers in the symmetric range (-M/2, M/2), M = ``modulus`` =
    prod(``primes``), whose residues mod each prime are that prime's list
    in ``columns``, one integer per entry. Each prime's weight is computed
    once and dropped before the next: no more than the totals are held."""
    totals = repeat(0)
    for q, column in zip(primes, columns):
        share = modulus // q
        # 1 mod q and 0 mod every other prime.
        weight = pow(share, -1, q) * share
        totals = [t + r * weight for t, r in zip(totals, column)]
    values = []
    for total in totals:
        total %= modulus
        values.append(total - modulus if 2 * total > modulus else total)
    return values


def _det_crt(rows, minors=None):
    """det of the square integer matrix ``rows``, Python rows that are only
    read, by elimination modulo word-size primes and Chinese remaindering.
    Given a list ``minors``, the leading minors that the elimination read
    are appended to it (see ``_det_minors``).

    The bound H >= |det| of ``_hadamard``, the smaller of Hadamard's bounds
    on the matrix and on its differenced form, gives the certificate: the
    fewest primes whose product M exceeds 2*H + 1 fix the determinant as
    the unique residue mod M in the symmetric range. A prime never has to
    be dropped: a zero pivot mod p is swapped within that prime's slice,
    and a column that is all zero mod p means the determinant is 0 mod p.

    The elimination runs on the matrix that ``_hadamard`` returns with the
    bound: D = Δ·X·Δᵀ where its bound is no larger, else X. det Δ = 1, so
    the certificate, the primes and the passes do not depend on which. Only
    its nonzero entries are loaded, into a zeroed working array: an int64
    entry, below 2**61 in magnitude, as one limb, an object entry as signed
    32-bit limbs, most significant first. Each residue is then reduced by
    Horner's rule, r = (r * 2**32 + limb) % p from r = 0: r * 2**32 + limb
    stays below 2**61 in magnitude.

    One working array of n*n int64 per prime and one scratch of at most
    _CRT_SCRATCH_ELEMENTS int64 serve every pass, both sized for the
    primes a pass actually takes; the load goes through the scratch a chunk
    of entries at a time.
    """
    import numpy as np

    n = len(rows)
    bound, x = _hadamard(rows)
    primes, modulus = _crt_primes(2 * bound + 1)
    nonzero = np.flatnonzero(x)
    if x.dtype == object:
        # |x| as 32-bit limbs, most significant first, each carrying the
        # sign of x, one row of limbs per entry. Past 2**61 only: at least
        # one entry is nonzero.
        values = x.ravel()[nonzero].tolist()
        width = -(-max(map(abs, values)).bit_length() // 32)
        limbs = np.frombuffer(
            b"".join(abs(v).to_bytes(4 * width, "big") for v in values), dtype=">u4"
        ).astype(np.int64).reshape(len(values), width)
        np.negative(limbs, out=limbs, where=np.array([v < 0 for v in values])[:, None])
        del values
    else:
        limbs = x.ravel()[nonzero, None]
    # The matrix and its conversion are gone before the passes' arrays are
    # allocated, so they do not add to them.
    del x
    per_pass = min(len(primes), max(1, (_CRT_BUDGET_ELEMENTS - _CRT_SCRATCH_ELEMENTS) // (n * n)))
    work = np.empty(n * n * per_pass, dtype=np.int64)
    # At least one row of a pass's working array, so that a chunk of the
    # elimination's update, or of the load, holds at least one row.
    scratch = np.empty(max(n * per_pass, min(_CRT_SCRATCH_ELEMENTS, work.size)), dtype=np.int64)
    products = []
    swapped = n
    for start in range(0, len(primes), per_pass):
        p = np.array(primes[start : start + per_pass], dtype=np.int64)
        k = len(p)
        a = work[: n * n * k].reshape(n, n, k)
        a.fill(0)
        entries = a.reshape(n * n, k)
        chunk = len(scratch) // k
        for first in range(0, len(nonzero), chunk):
            part = limbs[first : first + chunk]
            residues = scratch[: len(part) * k].reshape(len(part), k)
            np.remainder(part[:, :1], p, out=residues)
            for j in range(1, part.shape[1]):
                residues <<= 32
                residues += part[:, j, None]
                residues %= p
            entries[nonzero[first : first + chunk]] = residues
        prefix, first_swap = _det_mod(a, p, scratch)
        products.append(prefix)
        swapped = min(swapped, first_swap)
    # Each prime's products, through the first swap or the last alone.
    if minors is not None:
        columns = chain.from_iterable(prefix[:swapped].T.tolist() for prefix in products)
        minors += _crt(columns, primes, modulus)
    columns = chain.from_iterable(prefix[-1:].T.tolist() for prefix in products)
    return _crt(columns, primes, modulus)[0]


def _det_mod(a, p, scratch):
    """Gaussian elimination of the slices a[:, :, i] mod p[i]: an (n, k)
    int64 array whose row m holds each prime's product of the first m + 1
    pivots, in [0, p[i]), and the first step at which any prime swapped
    rows, n if none did. The last row holds the determinants, and each
    earlier row, up to that step, the leading minors mod p. ``a`` is
    consumed; ``scratch`` holds the update's outer product a chunk of rows
    at a time.

    Each step updates only the rows whose lead entry is nonzero mod some
    prime of the pass, from the first such row to the last, and in them
    only the columns from the first to the last whose pivot-row entry is
    nonzero mod some prime: outside these spans the update subtracts 0.
    Where either span is empty the step updates nothing and computes no
    inverse. A diagonal ``a`` costs no update at all, a tridiagonal one
    (with no swap) one entry per step.

    Entries of ``a`` start in [0, p). Each step reduces the pivot column,
    and the pivot row where it updates, so every factor of an update is in
    [0, p) and each update subtracts less than 2**56 from a block entry;
    the block is reduced every _CRT_REDUCE_EVERY steps, before it could
    leave int64. The pivots' product is kept per prime in an int64 vector,
    so the only per-prime Python work is a modular inverse of each pivot
    of a step that updates.
    """
    import numpy as np

    n, _, k = a.shape
    moduli = p.tolist()
    dets = np.ones(k, dtype=np.int64)
    prefix = np.empty((n, k), dtype=np.int64)
    swapped = n
    for step in range(n):
        # At the top of the step, so that a step that updates nothing
        # still counts towards the interval.
        if step and step % _CRT_REDUCE_EVERY == 0:
            a[step:, step:] %= p
        column = a[step:, step]
        column %= p
        head = column[0]
        if not head.all():
            for i in np.flatnonzero(head == 0):
                below = np.flatnonzero(column[1:, i])
                if below.size:
                    r = step + 1 + int(below[0])
                    a[[step, r], step:, i] = a[[r, step], step:, i]
                    dets[i] = -dets[i]
                    swapped = min(swapped, step)
        # Each |det| and pivot is below p < 2**28: the product fits int64.
        dets *= head
        dets %= p
        prefix[step] = dets
        if step == n - 1:
            return prefix, swapped
        # The spans of rows and of columns that the update changes.
        lead = column[1:].any(axis=1).nonzero()[0]
        if lead.size == 0:
            continue
        pivot_row = a[step, step + 1 :]
        pivot_row %= p
        wide = pivot_row.any(axis=1).nonzero()[0]
        if wide.size == 0:
            continue
        top, bottom = step + 1 + lead[0], step + 2 + lead[-1]
        left, right = step + 1 + wide[0], step + 2 + wide[-1]
        # A slice whose column is zero mod p has pivot 0: its determinant
        # is already 0, and a zero inverse leaves its block alone.
        inverse = np.array(
            [pow(v, -1, q) if v else 0 for v, q in zip(head.tolist(), moduli)], dtype=np.int64
        )
        # The lead column is not read again: it becomes the factors.
        factor = a[top:bottom, step]
        factor *= inverse
        factor %= p
        pivot_row = a[step, left:right]
        block = a[top:bottom, left:right]
        rows = max(1, len(scratch) // ((right - left) * k))
        for r in range(0, bottom - top, rows):
            chunk = block[r : r + rows]
            product = scratch[: chunk.size].reshape(chunk.shape)
            np.multiply(factor[r : r + rows, None], pivot_row, out=product)
            chunk -= product


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

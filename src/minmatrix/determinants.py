"""Exact determinants: closed forms and a fraction-free elimination oracle.

The closed forms cost O(n) multiplications; the elimination in
``det_bareiss`` is the independent check. Everything stays in integer
arithmetic, so every comparison is an exact equality.

``det_bareiss`` takes one of three routes, chosen from the matrix alone:

- dimension below 24: the Python-int Bareiss loop ``_eliminate``, which
  is also the reference the other two routes are tested against;
- an entry that does not convert to int64: elimination modulo many
  word-size primes at once and Chinese remaindering (``_det_crt``),
  certified by Hadamard's bound on the matrix or on its differenced form,
  whichever is smaller (``_hadamard``), and run on that same matrix, each
  step updating only the rows and columns it changes (``_det_mod``);
- otherwise: Bareiss in fixed-width words for as long as an overflow
  certificate holds, in 32-bit words from the start and widened once to
  64-bit words at the first step whose certificate fails 2**31. Where the
  certificate fails 2**63, ``_det_crt`` finishes the active int64 block by
  Sylvester's identity.

``_det_minors`` takes the same route and also returns the leading minors
that the elimination read, which ``verify`` checks one family at a time.
"""

from itertools import chain, islice, repeat
from math import isqrt, prod
from operator import mul, sub

from .matrices import _check_increments

# Smallest dimension at which det_bareiss tries the fixed-width phase. With
# the carried bound and the exact division by an inverse, the int64 route
# (array conversion included) overtakes the Python-int loop at dimension
# 14-16 on C_{d+1,2} and C_{d+9,10}, the slowest cases, and at 12-14 on
# C_{d+59,60} and A_d; at 24 it is 2.0-2.5x faster. Moving the constant
# to 20 would save 0.2-0.5 ms on each of the 314 shifted matrices of
# dimension 20-23 that the determinant sweep for n <= 100 checks,
# 0.06-0.15 s in all (2-vCPU x86-64 host, Python 3.11, numpy 2.4). It
# stays at 24, where the route tests pin their thresholds and hand-offs,
# for that small a saving.
_INT64_MIN_DIM = 24

_INT64_LIMIT = 1 << 63

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
# 19 at n = 108, the largest block that char_matrix(120, lam) hands off;
# those blocks need 8-15 primes, one pass. numpy's inner loops run along
# the prime axis, so short passes cost more per element: char_matrix(120,
# 5) with Hadamard's bound on the block alone, 33 primes, took 38, 43, 54
# and 90 ms at 33, 19, 10 and 5 primes per pass, and one pass of 33 raised
# the process's peak RSS by 1.3 MB (2-vCPU x86-64 host, Python 3.11,
# numpy 2.4).
_CRT_BUDGET_ELEMENTS = 294_912
# Elements of the scratch through which each elimination step applies its
# update, a chunk of rows at a time, and a limb sum past the first group
# is added: 65,536 int64, 512 KiB. With the same primes per pass, 16,384
# to 65,536 took the same time within noise, 4,096 was 15-30 % slower and
# 131,072 up to 12 % slower on char_matrix(120, lam) (same host). A
# scratch of 16,384, whose budget gives one pass of 120 primes at n = 48,
# was no faster either.
_CRT_SCRATCH_ELEMENTS = 65_536
# Signed 32-bit limbs summed per matrix product before a reduction mod p:
# each limb times a weight below 2**28 is below 2**60 in magnitude, so 8
# of them and a residue below p stay inside int64. Entries below 2**256
# take one group.
_CRT_LIMB_GROUP = 8
# Elements of each buffer numpy's ufuncs use while det_bareiss runs either
# numpy route, in place of numpy's 8,192. The multi-modular route runs
# nearly every operation along the prime axis, a loop of a few dozen to a
# few hundred elements, and the fixed-width phase on strided views of the
# active block; numpy buffers each operand of such an operation to lengthen
# its loop. Buffers of 1,024 elements stay in the first-level cache: with them,
# delta matrices of 64-bit increments took about 10 % less time,
# char_matrix(120, lam) about 30 % less and A_150 and C_{n,k} of dimension
# 150 about 9 % less, and the tracemalloc peak of det_bareiss fell by about
# 0.1 MB (2-vCPU x86-64 host, Python 3.11, numpy 2.4).
_UFUNC_BUFFER = 1024


def det_bareiss(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact over the integers. Zero pivots
    are handled by row swap with sign tracking; if no nonzero pivot
    exists the determinant is 0. The route depends on the matrix; every
    route returns the same integer as the Python-int loop alone.

    Dimension below 24 (_INT64_MIN_DIM): the Python-int loop.

    An entry outside int64's [-2**63, 2**63): the determinant is computed
    modulo the fewest primes p < 2**28 whose product M exceeds 2*H + 1,
    by Gaussian elimination in numpy int64 for as many primes at once as a
    working array and a fixed scratch of 2.4 MB together hold, and rebuilt
    by the Chinese remainder theorem in the symmetric range (-M/2, M/2).
    H is the smaller of Hadamard's bound prod(isqrt(sum_j x_ij**2) + 1) on
    the matrix X and on D = Δ·X·Δᵀ, X with each row less the row above it
    and then each entry less its left neighbour. det Δ = 1, so
    |det X| = |det D| <= H and the result is certified, not probabilistic
    (Abbott, Bronstein & Mulders, ISSAC 1999; von zur Gathen & Gerhard,
    Modern Computer Algebra, 5.5). The elimination runs on the matrix that
    gave H, D where its bound is no larger. The paper's cumulative matrices
    leave D nearly diagonal: a delta matrix leaves diag(i_1, ..., i_n), a
    theta matrix one entry more. Each step updates only the span of rows
    whose lead entry is nonzero mod some prime and the span of columns
    whose pivot-row entry is, and computes the pivots' modular inverses,
    the only per-prime Python work, only where neither span is empty: a
    diagonal D makes no update and no inverse. A dimension-48 delta
    matrix of 64-bit increments takes about 5-8 ms this way, where
    eliminating X took about 18-29 ms in the same sessions (in process,
    one CPU, 2-vCPU x86-64 host, Python 3.11, numpy 2.4).

    Otherwise the matrix starts in a vectorised numpy phase in fixed-width
    words of w bits. Before each step it certifies that the update
    pivot*x - lead*y cannot overflow:

        |pivot| * max|block| + max|lead column| * max|pivot row| < 2**(w-1),

    computed in Python ints, so -2**(w-1) counts as 2**(w-1). The phase
    starts with w = 32, and at the first step whose certificate fails 2**31
    the array is widened once to int64 and the same step is tested against
    2**63. Against a nonzero factor an entry -2**63 fails that test, and the
    matrix hands off at step 0. The certificate has two tiers. The first
    takes M = max|active block|, pivot row and column included, and tests
    (|pivot| + M) * M < 2**(w-1); every factor above is at most M, so this
    implies the exact test. Only when it fails is the exact test computed,
    and only its failure widens the word or hands off. So the step at which
    a matrix leaves int64 is the step at which the exact 64-bit test alone
    would fail. M is not measured at every step: no new entry exceeds
    (|pivot| + M) * M / |prev|, so a bound on M carries from step to step,
    and the block is measured by two reductions only where the bound fails
    the first tier. The certified update N = pivot*x - lead*y has
    |N| < 2**(w-1), so the exact division N / prev is a multiplication by
    the inverse of prev's odd part mod 2**w, in wrapping unsigned
    arithmetic, and a right shift by prev's power of two (Jebelean, J.
    Symb. Comput. 15, 1993). Where prev divides pivot, only the outer
    product lead*y is divided, so after step 0 a constant pivot costs no
    full-block multiplication. When the 64-bit certificate fails, the
    multi-modular route finishes the active block and the fixed-width work
    is kept; ``_det_crt`` states that hand-off. The blocks that
    lam*I - A_120 hands off have a tridiagonal D, so each step of their
    elimination updates one entry. A_150 and C_{n,k} of
    dimension 150 with k <= 100 stay in 32-bit words to the end. No A_n or
    C_{n,k} that ``verify`` reaches hands off, so they never pay for that
    route.

    Both numpy routes run with numpy's ufunc buffers at _UFUNC_BUFFER
    elements. The setting is local to the thread and context, and the
    caller's is restored, also when a route raises.
    """
    return _det_minors(matrix)[0]


def _det_minors(matrix):
    """det_bareiss's determinant of ``matrix``, by the same route, and the
    leading principal minors its elimination read on the way: minors[m] is
    the determinant of the leading (m + 1) x (m + 1) block.

    Until a row swap, the pivot of Bareiss step m is that minor (Bareiss
    1968), and the last entry left is the determinant. Both loops record
    them: ``_eliminate`` below dimension 24, the fixed-width phase from 24
    up, whose record runs across its widening from 32-bit to 64-bit words.
    The record stops at the first row swap or hand-off to the multi-modular
    route, and that route records none. So minors holds all n minors
    exactly when neither happened, and a shorter list is the sign that one
    did (or that a pivot column was zero: the determinant is then 0).
    """
    # The matrix's own rows, read and never changed: only the Python-int
    # loop consumes its rows, and it gets a copy.
    rows = matrix._rows
    n = len(rows)
    minors = []
    if n < _INT64_MIN_DIM:
        return _eliminate(matrix.to_lists(), minors), minors
    import numpy as np

    buffer = np.setbufsize(_UFUNC_BUFFER)
    try:
        try:
            a = np.fromiter(chain.from_iterable(rows), np.int64, n * n).reshape(n, n)
        except OverflowError:
            return _det_crt(rows), minors
        return _det_int64(a, minors), minors
    finally:
        np.setbufsize(buffer)


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


def _abs_max(a):
    # In Python ints: np.abs would wrap at -2**63.
    return max(int(a.max()), -int(a.min()))


def _det_int64(a, minors):
    """Bareiss elimination of the int64 array ``a`` (consumed) in
    fixed-width words for as long as the overflow certificate holds. Its
    maxima are Python ints, so an entry -2**(w-1) counts as 2**(w-1); every
    update that passes is below 2**(w-1) for the word of w bits. Each pivot,
    and then the determinant, is appended to the list ``minors`` until the
    first row swap or hand-off (see ``_det_minors``).

    The phase starts in 32-bit words: step 0's certificate is tested
    against 2**31 first, and where it passes, ``a`` is narrowed to int32.
    At the first step whose certificate fails 2**31, ``a`` is widened to
    int64 once and that step is tested against 2**63. One loop serves both
    words; only the dtypes, the limit and the modulus of prev's inverse
    change.

    Each step divides by prev exactly: the inverse of prev's odd part mod
    2**w and a right shift by its power of two. A bound on the active
    block's max, carried from step to step, spares the reductions of the
    certificate's first tier wherever it passes.

    Where the 64-bit certificate fails, ``_det_crt`` finishes the active
    block, given the int64 array itself and the previous pivot, and the sign
    of the row swaps so far is applied to its result."""
    import numpy as np

    n = len(a)
    sign = 1
    prev = 1
    # The word: its signed and unsigned dtypes, 2**w and the certificate's
    # limit 2**(w-1), read at call time so that a patched _INT64_LIMIT
    # bounds both words.
    signed, unsigned, modulus, limit = np.int32, np.uint32, 1 << 32, min(1 << 31, _INT64_LIMIT)
    # An upper bound on max|active block|, carried from step to step. At
    # _INT64_LIMIT it fails the coarse test, so step 0 measures.
    most = _INT64_LIMIT
    # One scratch array serves every step's outer product, in either word.
    # The update runs on unsigned views of ``a`` and of the scratch, taken
    # again whenever ``a`` changes word.
    scratch = np.empty((n - 1) * (n - 1), dtype=np.uint64)
    unsigned_a, outer_buffer = a.view(np.uint64), scratch
    # The int64 input. A widening writes the active block back into it: its
    # rows and columns before that step are not read again.
    int64_a = a
    for step in range(n - 1):
        pivot = int(a[step, step])
        if pivot == 0:
            nonzero = np.flatnonzero(a[step + 1 :, step])
            if nonzero.size == 0:
                return 0
            r = step + 1 + int(nonzero[0])
            a[[step, r], step:] = a[[r, step], step:]
            sign = -sign
            pivot = int(a[step, step])
            # Pivots after a swap are not leading minors.
            minors = []
        minors.append(pivot)
        active = a[step:, step:]
        # The two-tier certificate of det_bareiss: the coarse test implies
        # the exact one, which alone decides the widening and the hand-off.
        # A carried bound that passes the coarse test implies that the
        # measured max would, so the block is measured only where the
        # carried bound fails.
        growth = (abs(pivot) + most) * most
        if growth >= limit:
            most = _abs_max(active)
            growth = (abs(pivot) + most) * most
            if growth >= limit:
                growth = abs(pivot) * _abs_max(active[1:, 1:])
                growth += _abs_max(active[1:, 0]) * _abs_max(active[0, 1:])
                if growth >= limit and signed is np.int32:
                    # The exact test decides at 64 bits as well.
                    signed, unsigned, modulus, limit = np.int64, np.uint64, 1 << 64, _INT64_LIMIT
        if a.dtype != signed:
            # Once at step 0 to narrow, once at the widening step. A
            # certificate that passes 2**31 bounds every block entry below
            # it; only the pivot, read before as a Python int, or a pivot
            # row or column whose product with the other is zero, can wrap,
            # and the update reads them only mod 2**32.
            if signed is np.int32:
                a = a.astype(np.int32)
            else:
                int64_a[step:, step:] = active
                a = int64_a
            unsigned_a, outer_buffer = a.view(unsigned), scratch.view(unsigned)
            active = a[step:, step:]
        if growth >= limit:
            return sign * _det_crt(active, prev)
        # Each N = pivot*x - lead*y has |N| <= growth < 2**(w-1), so no
        # entry of the next active block exceeds growth // |prev|.
        most = growth // abs(prev)
        # prev divides N. With prev = 2**t * o, o odd, N / o is N times the
        # inverse of o mod 2**w, exact in wrapping unsigned arithmetic since
        # |N / o| < 2**(w-1), and N / prev is N / o shifted right by t.
        t = (prev & -prev).bit_length() - 1
        inverse = pow(prev >> t, -1, modulus)
        quotient, rest = divmod(pivot, prev)
        size = n - 1 - step
        outer = outer_buffer[: size * size].reshape(size, size)
        lead = unsigned_a[step + 1 :, step]
        if inverse != 1:
            lead = lead * inverse
        np.multiply(lead[:, None], unsigned_a[step, step + 1 :], out=outer)
        wide = unsigned_a[step + 1 :, step + 1 :]
        if rest == 0:
            # prev divides lead*y as well, and |lead*y| <= growth, so the
            # outer product holds lead*y / o exactly and the shift by t
            # finishes the division.
            if t:
                exact = outer.view(signed)
                exact >>= t
            if quotient != 1:
                wide *= quotient % modulus
            wide -= outer
        else:
            wide *= pivot * inverse % modulus
            wide -= outer
            if t:
                block = a[step + 1 :, step + 1 :]
                block >>= t
        prev = pivot
    det = sign * int(a[n - 1, n - 1])
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


def _crt_primes(bound, prev=1):
    """The fewest of the largest primes below 2**_CRT_PRIME_BITS that do
    not divide ``prev`` whose product exceeds ``bound``, and that product."""
    global _crt_prime_table
    table = list(_crt_prime_table)
    primes = []
    modulus = 1
    count = 0
    while modulus <= bound:
        if count == len(table):
            candidate = table[-1] - 2 if table else (1 << _CRT_PRIME_BITS) - 1
            while not _is_prime(candidate):
                candidate -= 2
            table.append(candidate)
        q = table[count]
        count += 1
        if prev % q:
            primes.append(q)
            modulus *= q
    if len(table) > len(_crt_prime_table):
        _crt_prime_table = tuple(table)
    return primes, modulus


def _hadamard(rows):
    """A bound on |det| of the square matrix ``rows`` and the rows it
    bounds: the smaller of Hadamard's bound on ``rows`` and on
    D = Δ·rows·Δᵀ, each the product of the row norms rounded up to an
    integer, with D's rows (new lists) where its bound is no larger, else
    ``rows`` itself.

    Δ is unit lower bidiagonal, with -1 below the diagonal: D is each row
    less the row above it, then each entry less its left neighbour. Since
    det Δ = 1, det D = det ``rows``, so both bounds hold, and either
    matrix may be eliminated in place of the other. The paper's matrices
    are cumulative, entry (i, j) a prefix sum at min(i, j), and leave
    little of D: a delta matrix leaves diag(i_1, ..., i_n), a theta matrix
    a diagonal and one entry below it. The blocks that lam*I - A_120 hands
    off, whose entries are minors of lam*I less a cumulative matrix, keep
    much of that structure: their D is tridiagonal, and its bound shortens
    their certificate by 510-750 bits.

    D is built a row at a time. The product of the rows' (max |x| + 1) is
    at most Hadamard's bound on ``rows``; where D's bound is no larger,
    that one is the smaller and the row norms of ``rows`` are not summed.
    """
    differenced = floor = 1
    above = repeat(0)
    d_rows = []
    for row in rows:
        floor *= max(max(row), -min(row)) + 1
        # Row less the row above, then each entry less its left neighbour;
        # d[0] has no left neighbour.
        d = list(map(sub, row, above))
        d = [d[0], *map(sub, islice(d, 1, None), d)]
        differenced *= isqrt(sum(map(mul, d, d))) + 1
        d_rows.append(d)
        above = row
    if differenced <= floor:
        return differenced, d_rows
    plain = prod(isqrt(sum(map(mul, row, row))) + 1 for row in rows)
    return (differenced, d_rows) if differenced <= plain else (plain, rows)


def _det_crt(rows, prev=1):
    """det B / prev**(m - 1) for the m-row integer matrix B = ``rows``, by
    elimination modulo word-size primes and Chinese remaindering.

    A whole matrix A is B with prev = 1; a hand-off passes the active block
    B and the previous pivot prev of Bareiss steps on A. Every Bareiss
    intermediate is a minor of A, so by Sylvester's identity the result is
    det A times the sign of the row swaps, which the caller applies
    (Bareiss 1968, Math. Comp. 22). The bound H(B) >= |det B| of
    ``_hadamard``, the smaller of Hadamard's bounds on B and on its
    differenced form Δ·B·Δᵀ, gives the certificate H(B) // |prev|**(m - 1),
    from the block alone: the fewest primes whose product M exceeds twice
    it plus 1 fix the result as the unique residue mod M in the symmetric
    range. The blocks that lam*I - A_120 hands off need 8-15 primes by it,
    27-40 by Hadamard's bound on B alone. Primes that divide prev are
    skipped, so the inverse of prev**(m - 1) mod q turns det B mod q into
    the result mod q. A prime never has to be dropped: a zero pivot mod p
    is swapped within that prime's slice, and a column that is all zero
    mod p means the determinant is 0 mod p.

    The elimination runs on the rows that ``_hadamard`` returns with the
    bound: D = Δ·B·Δᵀ where its bound is no larger, else B. det Δ = 1, so
    the certificate, the primes and the passes do not depend on which.
    ``rows``, Python rows or an int64 array (the form of a hand-off block),
    is only read. The rows eliminated convert to int64 and are reduced mod
    p entry by entry; where an entry does not fit int64, as in D of a
    hand-off block whose own entries all do, they are split into signed
    32-bit limbs instead, and each pass sums them against the weights
    2**(32*j) mod p in one matrix product per _CRT_LIMB_GROUP limbs,
    reduced by one `%`.

    One working array of n*n int64 per prime and one scratch of at most
    _CRT_SCRATCH_ELEMENTS int64 serve every pass, both sized for the
    primes a pass actually takes.
    """
    import numpy as np

    n = len(rows)
    bound, rows = _hadamard(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    primes, modulus = _crt_primes(2 * (bound // abs(prev) ** (n - 1)) + 1, prev)
    try:
        entries = np.fromiter(chain.from_iterable(rows), np.int64, n * n).reshape(n, n)
    except OverflowError:
        entries = None
        # |x| as 32-bit limbs, least significant first, each carrying the
        # sign of x, one row of limbs per entry.
        flat = [x for row in rows for x in row]
        width = max(1, -(-max(map(abs, flat)).bit_length() // 32))
        limbs = np.frombuffer(
            b"".join(abs(x).to_bytes(4 * width, "little") for x in flat), dtype="<u4"
        ).astype(np.int64).reshape(n * n, width)
        np.negative(limbs, out=limbs, where=np.array([x < 0 for x in flat])[:, None])
        # The conversion's transients are gone before the passes' arrays
        # are allocated, so they do not add to them.
        del flat
    per_pass = min(len(primes), max(1, (_CRT_BUDGET_ELEMENTS - _CRT_SCRATCH_ELEMENTS) // (n * n)))
    work = np.empty(n * n * per_pass, dtype=np.int64)
    # At least one row of a pass's working array, so that a chunk of the
    # elimination's update, or of the limb sums, holds at least one row.
    scratch = np.empty(max(n * per_pass, min(_CRT_SCRATCH_ELEMENTS, work.size)), dtype=np.int64)
    residues = []
    for start in range(0, len(primes), per_pass):
        p = np.array(primes[start : start + per_pass], dtype=np.int64)
        k = len(p)
        a = work[: n * n * k].reshape(n, n, k)
        if entries is not None:
            # x % p is the residue of each signed int64 entry.
            np.remainder(entries[:, :, None], p, out=a)
        else:
            _limb_residues(a.reshape(n * n, k), limbs, p, scratch)
        residues += _det_mod(a, p, scratch)
    total = 0
    for r, q in zip(residues, primes):
        share = modulus // q
        total += r * pow(pow(prev, n - 1, q) * share, -1, q) % q * share
    total %= modulus
    return total - modulus if 2 * total > modulus else total


def _limb_residues(out, limbs, p, scratch):
    """Write into ``out`` (entries x primes) the residues in [0, p) of the
    entries whose signed 32-bit limbs, least significant first, are the
    rows of ``limbs``: the sum of limb j times 2**(32*j) mod p.

    Each product is below 2**60 in magnitude, so _CRT_LIMB_GROUP of them,
    and a residue carried from the group before, stay inside int64. The
    first group's product is written into ``out`` itself; a later group's
    goes through ``scratch`` a chunk of entries at a time.
    """
    import numpy as np

    width = limbs.shape[1]
    weights = np.empty((width, len(p)), dtype=np.int64)
    weights[0] = 1
    base = (1 << 32) % p
    for j in range(1, width):
        np.multiply(weights[j - 1], base, out=weights[j])
        weights[j] %= p
    group = _CRT_LIMB_GROUP
    np.matmul(limbs[:, :group], weights[:group], out=out)
    rows = len(scratch) // len(p)
    for first in range(group, width, group):
        out %= p
        for r in range(0, len(out), rows):
            chunk = out[r : r + rows]
            part = scratch[: chunk.size].reshape(chunk.shape)
            np.matmul(limbs[r : r + rows, first : first + group], weights[first : first + group], out=part)
            chunk += part
    out %= p


def _det_mod(a, p, scratch):
    """Determinants mod p[i] of the slices a[:, :, i] by Gaussian
    elimination, as a list of residues in [0, p[i]). ``a`` is consumed;
    ``scratch`` holds the update's outer product a chunk of rows at a time.

    Each step updates only the rows whose lead entry is nonzero mod some
    prime of the pass, from the first such row to the last, and in them
    only the columns from the first to the last whose pivot-row entry is
    nonzero mod some prime: outside these spans the update subtracts 0.
    Where either span is empty the step updates nothing and computes no
    inverse. A diagonal ``a`` costs no update at all, a tridiagonal one
    (with no swap) one entry per step.

    Entries of ``a`` start in (-p, p). Each step reduces the pivot column,
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
        # Each |det| and pivot is below p < 2**28: the product fits int64.
        dets *= head
        dets %= p
        if step == n - 1:
            return dets.tolist()
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

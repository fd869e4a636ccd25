"""Self-verification sweeps over the package's exact identities.

Each identity has one check here: a function that returns one
CheckResult, with the first counterexample when it fails. A check bounded
by n builds its own cases from n_max; the delta, theta and scaling checks
take drawn increment lists (``draw_increments``). Each suite runs a family
of checks; the CLI `verify` command runs the suites, and the acceptance
tests call the same checks at their own, larger sizes.

Every check has one shape: it streams its cases as tuples
(passed, *values) into ``_sweep``, with a label such as "n={}, k={}". The
first case whose passed is false fails the check, with the detail
"counterexample: " + label.format(*values); a check with no case passes
with a note that it was vacuous.

The determinant corollary is read off leading minors. ``check_min_minors``
reads det A_n for every n <= n_max off one elimination of A_{n_max}, whose
leading n-block is A_n. ``check_c_minors`` reads det C_{n,k} for every
1 < k < n <= n_max off two eliminations, of C_{n_max,2} and C_{n_max,3}.
C_{n,k} is the leading block of C_{n_max,k} = A_{n_max-k+1} + (k - 1) J,
J the all-ones matrix, of rank one, so each leading minor is affine in k
and those of k >= 4 follow from the two records: O(n_max^2) entries read
in place of one elimination per k, and every case is still compared with
det_c_matrix. ``check_fibonacci_minors`` reads F_{2n+1} the same way,
off one elimination of -I - A_{n_max}. The drawn families are read the
same way: the leading m-block of a delta matrix is the delta matrix of
the first m increments, and that of a theta matrix the theta matrix of
the first m + 1, so one elimination per drawn list checks the product
closed forms on every prefix, against running products, and the scaling
check compares two records minor by minor. The dets suite draws four lists per family at
dimension n_max: small positive, mixed-sign, signed 64-bit, and mixed-sign
with one 0. These checks read their record through ``_minors``, whose
cases compare each expected value with the next leading minor. The record
stops at a zero leading minor, so the first minor it leaves unread matches
only an expected 0, and the cases end there; a record cut short where the
minor is nonzero fails.
``check_charpoly_minors`` reads charpoly(n)(lam) off one elimination of
lam*I - A_{n_max} per lam, in its own loop, so that each charpoly(n) is
built once for both lam.

The symfun suite checks S(n, k) = C(n+k, n-k) for 1 <= k <= n <= n_max.
Each check streams columns from ``symmetric._columns``, k-major, so only
the current column of each method is live and no table is built:

  six-way agreement     all six methods, minors reading the principal
                        minors of A_n, for n <= 12
  polynomial agreement  closed, nested, rec6, rec7 and ratio, 12 < n;
                        nested, rec6 and rec7 apply one column map (the
                        double prefix sum, see symmetric), so its
                        independent legs are math.comb, the ratio
                        recurrence and that map
  trace                 S(n, 1) off column 1 of each polynomial method,
                        against the diagonal prefix sums of one A_{n_max}
  growth                S(n, k) < S(n + 1, k) down each column of the
                        rec7 fill: a property of one method, not two legs
  charpoly minors       charpoly(n)(lam), whose coefficients are the
                        (-1)^k S(n, k), against the leading minors of one
                        elimination of lam*I - A_{n_max}, at lam = 2 and 3

S(n, n) = det A_n = 1 is the dets suite's leading-minor sweep.
"""

import random
from dataclasses import dataclass, field
from itertools import accumulate, islice, pairwise
from operator import mul

from . import _N_MAX_LIMIT, SUITES
from .determinants import (
    _det_minors,
    delta_det_closed,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from .fibonacci import fib, fibonacci_identity
from .matrices import build_c_matrix, build_delta_matrix, build_min_matrix, build_theta_matrix
from .symmetric import METHODS, _columns, binomial, char_matrix, charpoly

#: Every method but the exponential minor enumeration.
POLYNOMIAL_METHODS = ("closed", "nested", "rec6", "rec7", "ratio")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    notes: list = field(default_factory=list)


def _sweep(name, cases, label):
    """Report the first case whose passed is false, as a counterexample
    label.format(*values). A check with no cases passes with a note saying
    it was vacuous."""
    case = ()  # stays empty only when there is no case
    for case in cases:
        if not case[0]:
            return CheckResult(name, False, detail="counterexample: " + label.format(*case[1:]))
    return CheckResult(name, True, notes=[] if case else ["vacuous: no cases"])


def _minors(minors, expected, first=1):
    """Cases (passed, n), n from first: whether each value of expected in
    turn equals the leading n-minor in minors, the record of one
    elimination. The record stops at a zero leading minor, so the first
    minor it leaves unread matches only an expected 0, and the cases end
    there: the record says nothing past it."""
    for n, value in enumerate(expected, start=first):
        if n > len(minors):
            yield value == 0, n
            return
        yield minors[n - 1] == value, n


def check_min_minors(n_max):
    """det A_n = 1 for every n <= n_max, read off the leading minors of one
    elimination of A_{n_max}."""
    expected = map(det_min_matrix, range(1, n_max + 1))
    cases = _minors(_det_minors(build_min_matrix(n_max))[1], expected) if n_max else ()
    return _sweep("every leading minor of the min matrix equals 1", cases, "n={}")


def check_c_minors(n_max):
    """det C_{n,k} = k for every 1 < k < n <= n_max, read off the leading
    minors of one elimination of C_{n_max,2} and one of C_{n_max,3}.

    C_{n,k} is A_m + (k - 1) J, m = n - k + 1 and J all ones, and J has
    rank one, so each leading minor of C_{n_max,k} is affine in k: for
    k >= 4 the m-th is two[m] + (k - 2) * (three[m] - two[m]), from the
    records two and three of k = 2 and 3. zip cuts the derived record where
    the shorter of those stops.
    """

    def cases():
        records = []
        for k in range(2, n_max):
            if k < 4:
                records.append(_det_minors(build_c_matrix(n_max, k))[1])
            minors = records[-1] if k < 4 else [two + (k - 2) * (three - two) for two, three in zip(*records)]
            # The leading block of dimension n - k + 1 is C_{n,k}.
            expected = (det_c_matrix(n, k) for n in range(k + 1, n_max + 1))
            for passed, dim in _minors(minors, expected, first=2):
                yield passed, dim + k - 1, k

    name = "every leading minor of the shifted matrix equals its shift"
    return _sweep(name, cases(), "n={}, k={}")


def _prefixes(matrix, expected, closed, inc, extra):
    """Cases (passed, prefix) of one drawn list inc: each expected value
    against the leading minor that one elimination of matrix reads, named
    by the prefix of inc that builds that leading block (its minor m needs
    m + extra increments), then the determinant against closed, named by
    inc."""
    det, minors = _det_minors(matrix)
    for passed, m in _minors(minors, expected):
        yield passed, inc[: m + extra]
    yield det == closed, inc


def check_delta_dets(increments):
    """Every leading minor of each list's delta matrix is the product of
    the list's prefix: the leading m-block is the delta matrix of the first
    m increments. The determinant is delta_det_closed of the whole list."""
    cases = (
        case
        for inc in increments
        for case in _prefixes(build_delta_matrix(inc), accumulate(inc, mul), delta_det_closed(inc), inc, 0)
    )
    return _sweep("product closed form matches elimination (delta family)", cases, "inc={}")


def check_theta_dets(increments):
    """Every leading minor of each list's theta matrix is i_1 * i_3 * ...
    * i_{m+1}: the leading m-block is the theta matrix of the first m + 1
    increments. The determinant is theta_det_closed of the whole list."""
    cases = (
        case
        for inc in increments
        for case in _prefixes(
            build_theta_matrix(inc), accumulate(inc[:1] + inc[2:], mul), theta_det_closed(inc), inc, 1
        )
    )
    return _sweep("dropped-term closed form matches elimination (theta family)", cases, "inc={}")


def check_delta_scaling(cases):
    """Cases are (increments, t) pairs. Scaling the first increment by t
    scales every leading minor of the delta matrix by t: the records of the
    two eliminations agree elementwise, and so do the determinants. Both
    sides come from the elimination, so a wrong one can fail the check."""

    def scaled():
        for inc, t in cases:
            det, minors = _det_minors(build_delta_matrix(inc))
            # A short record's first unread minor is 0, and so is t times it.
            expected = [t * minor for minor in minors] + [0] * (len(minors) < len(inc))
            matrix = build_delta_matrix([inc[0] * t, *inc[1:]])
            for passed, prefix in _prefixes(matrix, expected, t * det, inc, 0):
                yield passed, prefix, t

    return _sweep("scaling the first increment scales the determinant", scaled(), "inc={}, t={}")


def draw_increments(rng, n_max):
    """The drawn lists of the dets suite: four delta lists of max(n_max, 1)
    increments and, when n_max >= 2, four theta lists of n_max + 1, each
    family drawn in turn as small positive (1..9), mixed-sign nonzero
    (+-1..4), signed 64-bit (+-[2**63, 2**64)) and mixed-sign with a 0 at a
    drawn position; then the scaling cases, each delta list with a t in
    -5..5."""

    def lists(length):
        small = [rng.randint(1, 9) for _ in range(length)]
        mixed = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length)]
        wide = [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(length)]
        zero = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(length)]
        zero[rng.randrange(length)] = 0
        return [small, mixed, wide, zero]

    delta = lists(max(n_max, 1))
    theta = lists(n_max + 1) if n_max >= 2 else []
    return delta, theta, [(inc, rng.randint(-5, 5)) for inc in delta]


def suite_dets(n_max, seed=0):
    delta, theta, scale_cases = draw_increments(random.Random(seed), n_max)
    return [
        check_min_minors(n_max),
        check_c_minors(n_max),
        check_delta_dets(delta),
        check_theta_dets(theta),
        check_delta_scaling(scale_cases),
    ]


def _agreement(name, methods, n_max, n_min):
    """The methods agree on S(n, k) at every 1 <= k <= n, n_min <= n <= n_max."""

    def cases():
        every_k = zip(*(_columns(n_max, m) for m in methods))
        for k, columns in enumerate(islice(every_k, 1, None), start=1):
            start = max(n_min, k)
            # Column k holds S(k, k), ..., S(n_max, k).
            rows = islice(zip(*columns), start - k, None)
            for n, values in zip(range(start, n_max + 1), rows):
                yield len(set(values)) == 1, n, k

    return _sweep(name, cases(), "n={}, k={}")


def check_six_way(n_max):
    """All six methods agree at every 1 <= k <= n <= min(n_max, 12)."""
    n_max = min(n_max, 12)
    return _agreement(f"six-way agreement up to n={n_max}", METHODS, n_max, 1)


def check_polynomial_agreement(n_max):
    """Every method but minors agrees at every 1 <= k <= n, 12 < n <= n_max,
    where check_six_way stops."""
    name = f"polynomial-method agreement up to n={n_max}"
    return _agreement(name, POLYNOMIAL_METHODS, n_max, 13)


def check_trace(n_max):
    """S(n, 1) by each polynomial method, off its column 1, equals the trace
    of A_n for every n <= n_max: the n-th prefix sum of the diagonal of one
    A_{n_max}, whose leading block is A_n."""

    def cases():
        if not n_max:
            return
        matrix = build_min_matrix(n_max)
        traces = accumulate(matrix.entry(i, i) for i in range(1, n_max + 1))
        ones = zip(*(next(islice(_columns(n_max, m), 1, None)) for m in POLYNOMIAL_METHODS))
        for n, trace, values in zip(range(1, n_max + 1), traces, ones):
            yield set(values) == {trace}, n

    return _sweep("first symmetric function equals the trace of A_n", cases(), "n={}")


def check_growth(n_max):
    """S(n, k) < S(n + 1, k) for 1 <= k <= n < n_max, down each column of
    the rec7 fill."""

    def cases():
        for k, column in enumerate(islice(_columns(n_max, "rec7"), 1, None), start=1):
            yield from ((low < high, n, k) for n, (low, high) in enumerate(pairwise(column), start=k))

    return _sweep("strict growth in n for fixed k", cases(), "n={}, k={}")


def check_charpoly_minors(n_max):
    """det(lam*I - A_n) = charpoly(n)(lam) for every n <= n_max at lam = 2
    and 3, read off the leading minors of one elimination of
    lam*I - A_{n_max} per lam; each charpoly(n) is built once for both.
    Not at lam = 1: A_n has eigenvalue 1 whenever 3 divides 2n + 1, a zero
    leading minor where the record stops."""
    lams = (2, 3)

    def cases():
        if not n_max:
            return
        records = [_det_minors(char_matrix(n_max, lam))[1] for lam in lams]
        for n in range(1, n_max + 1):
            poly = charpoly(n)
            for lam, minors in zip(lams, records):
                yield n <= len(minors) and minors[n - 1] == poly(lam), n, lam

    name = "every leading minor of lam*I - A_n equals charpoly(n)(lam)"
    return _sweep(name, cases(), "n={}, lam={}")


def suite_symfun(n_max):
    return [
        check_six_way(n_max),
        check_polynomial_agreement(n_max),
        check_trace(n_max),
        check_growth(n_max),
        check_charpoly_minors(n_max),
    ]


def check_binomial_identity(n_max):
    """C(n+k, n-k) = C(n+k-1, n-k-1) + sum_{i=1}^{n-k+1} C(n+k-1-i, n-k+1-i),
    the binomial identity under the difference recurrence, at every
    0 <= k <= n <= n_max, n by n, with one running sum per k and one
    binomial per case.

    The sum at (n, k) is the one at (n - 1, k) plus its i = 1 term
    C(n+k-2, n-k), the left side at (n - 1, k - 1), and its C(n+k-1, n-k-1)
    is the left side at (n - 1, k). So a case computes only its own left
    side, and a row adds two: C(n-2, n) at k = 0, by the negative-index
    convention, and the left side at (n - 1, n). The check costs
    O(n_max**2) binomials and O(n_max) live integers.
    """

    def cases():
        sums = []  # entry k: the running sum and the left side at (n - 1, k)
        for n in range(n_max + 1):
            # k = n starts from the empty sum, and the left side at (n - 1, n).
            sums.append((0, binomial(2 * n - 1, -1)))
            term = binomial(n - 2, n)  # the i = 1 term at k = 0
            for k, (total, before) in enumerate(sums):
                # The i = 1 term at k + 1 is the left side at (n - 1, k).
                total, term = total + term, before
                left = binomial(n + k, n - k)
                sums[k] = (total, left)
                yield left == before + total, n, k

    name = f"difference-recurrence binomial identity up to n={n_max}"
    return _sweep(name, cases(), "n={}, k={}")


def suite_binomial(n_max):
    return [check_binomial_identity(n_max)]


def check_fibonacci_sum(n_max):
    cases = ((fibonacci_identity(n), n) for n in range(n_max + 1))
    return _sweep(f"symmetric-function sum equals F(2n+1) up to n={n_max}", cases, "n={}")


def check_fibonacci_minors(n_max):
    """det(I + A_n) = F_{2n+1} for every n <= n_max, read off the leading
    minors of one elimination of -I - A_{n_max}, the (-1)^n F_{2n+1}."""

    def expected():
        even, odd = 0, 1  # F_{2n} and F_{2n+1}, from n = 0
        for n in range(1, n_max + 1):
            even, odd = even + odd, even + 2 * odd
            yield -odd if n % 2 else odd

    cases = _minors(_det_minors(char_matrix(n_max, -1))[1], expected()) if n_max else ()
    return _sweep("every leading minor of -I - A_n equals (-1)^n F(2n+1)", cases, "n={}")


def check_cassini(n_max):
    cases = ((fib(i - 1) * fib(i + 1) - fib(i) ** 2 == (-1) ** i, i) for i in range(2, max(n_max, 3)))
    return _sweep("Cassini identity on the Fibonacci generator", cases, "i={}")


def suite_fibonacci(n_max):
    return [check_fibonacci_sum(n_max), check_fibonacci_minors(n_max), check_cassini(n_max)]


def run_suites(suite, n_max, seed=0):
    """Run one suite, or every suite when suite is "all", and return the
    combined check results."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > _N_MAX_LIMIT:
        raise ValueError(
            f"--n-max must be <= {_N_MAX_LIMIT}, got {n_max}: "
            "the limit keeps verify --suite all within about 60 s"
        )
    results = []
    for name in SUITES if suite == "all" else (suite,):
        if name == "dets":
            results.extend(suite_dets(n_max, seed=seed))
        elif name == "symfun":
            results.extend(suite_symfun(n_max))
        elif name == "binomial":
            results.extend(suite_binomial(n_max))
        elif name == "fibonacci":
            results.extend(suite_fibonacci(n_max))
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return results

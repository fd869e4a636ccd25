"""Self-verification sweeps over the package's exact identities.

Each identity has one check here: a function that returns one
CheckResult, with the first counterexample when it fails. A check bounded
by n builds its own cases from n_max; the delta, theta and scaling checks
take drawn cases. Each suite runs a family of checks; the CLI `verify`
command runs the suites, and the acceptance tests call the same checks
at their own, larger sizes.

The determinant corollary is read off leading minors. ``check_min_minors``
and ``check_c_minors`` read det A_n and det C_{n,k} for every n <= n_max
off one elimination of A_{n_max} and one of C_{n_max,k} per k: A_n is the
leading block of A_{n_max}, and C_{n,k} that of C_{n_max,k}. That is
O(n_max) eliminations in place of O(n_max^2), and every leading minor is
checked. ``check_fibonacci_minors`` reads F_{2n+1} the same way, off one
elimination of -I - A_{n_max}, and ``check_charpoly_minors`` reads
charpoly(n)(lam) off one elimination of lam*I - A_{n_max} per lam.

The symfun suite checks S(n, k) = C(n+k, n-k) for 1 <= k <= n <= n_max.
Each check streams columns from ``symmetric._columns``, k-major, so only
the current column of each method is live and no table is built:

  six-way agreement     all six methods, minors reading the principal
                        minors of A_n, for n <= 12
  polynomial agreement  closed, nested, rec6, rec7 and ratio, 12 < n
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

from . import SUITES
from .determinants import (
    _det_minors,
    delta_det_closed,
    det_bareiss,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from .fibonacci import fib, fibonacci_identity
from .matrices import (
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
)
from .symmetric import METHODS, _columns, binomial, char_matrix, charpoly

#: Every method but the exponential minor enumeration.
POLYNOMIAL_METHODS = ("closed", "nested", "rec6", "rec7", "ratio")

# Largest n_max run_suites accepts, from a budget of 60 s for verify
# --suite all on a 2-vCPU x86-64 host with Python 3.11, set when 600 took
# 32 s and 700 took 64 s. A fresh `verify --suite all --n-max 600` process
# now takes 7.2-11 s on a shared host whose speed varies (three runs); in
# process the dets suite takes 1.5-2.3 s of it (n_max eliminations, each
# comparing n_max**2 entries to find D's band and subtracting O(n_max) of
# them), the symfun suite 1.6-3.0 s (about 0.14 s of it the charpoly
# minors), the binomial suite 2.3-3.6 s and the fibonacci suite 1.3-2.1 s,
# six runs each; 700 took 17 s in all before the charpoly minors.
_N_MAX_LIMIT = 600


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    notes: list = field(default_factory=list)


def _sweep(name, cases, predicate, describe):
    """Run predicate over cases, reporting the first counterexample. A
    check with no cases passes with a note saying it was vacuous."""
    checked = 0
    for case in cases:
        if not predicate(case):
            return CheckResult(name, False, detail=f"counterexample: {describe(case)}")
        checked += 1
    return CheckResult(name, True, notes=[] if checked else ["vacuous: no cases"])


def _n(n):
    return f"n={n}"


def _nk(nk):
    return f"n={nk[0]}, k={nk[1]}"


def _inc(inc):
    return f"inc={inc}"


def _leading_minors(matrix):
    """The leading principal minors that one det_bareiss elimination of
    matrix reads, entry m that of the leading (m + 1) x (m + 1) block. Each
    minor that a row swap left unread is None, which equals no
    determinant."""
    minors = _det_minors(matrix)[1]
    return minors + [None] * (matrix.dim - len(minors))


def check_min_minors(n_max):
    """det A_n = 1 for every n <= n_max, read off the leading minors of one
    elimination of A_{n_max}."""
    minors = _leading_minors(build_min_matrix(n_max)) if n_max else []
    return _sweep(
        "every leading minor of the min matrix equals 1",
        range(1, n_max + 1),
        lambda n: minors[n - 1] == det_min_matrix(n),
        _n,
    )


def check_c_minors(n_max):
    """det C_{n,k} = k for every 1 < k < n <= n_max, read off the leading
    minors of one elimination of C_{n_max,k} per k."""

    def cases():
        for k in range(2, n_max):
            minors = _leading_minors(build_c_matrix(n_max, k))
            # The leading block of dimension n - k + 1 is C_{n,k}.
            yield from ((n, k, minors[n - k]) for n in range(k + 1, n_max + 1))

    return _sweep(
        "every leading minor of the shifted matrix equals its shift",
        cases(),
        lambda case: case[2] == det_c_matrix(case[0], case[1]),
        _nk,
    )


def check_delta_dets(increments):
    return _sweep(
        "product closed form matches elimination (delta family)",
        increments,
        lambda inc: delta_det_closed(inc) == det_bareiss(build_delta_matrix(inc)),
        _inc,
    )


def check_theta_dets(increments):
    return _sweep(
        "dropped-term closed form matches elimination (theta family)",
        increments,
        lambda inc: theta_det_closed(inc) == det_bareiss(build_theta_matrix(inc)),
        _inc,
    )


def _scales(case):
    inc, t = case
    scaled = det_bareiss(build_delta_matrix([inc[0] * t] + inc[1:]))
    return scaled == t * det_bareiss(build_delta_matrix(inc))


def check_delta_scaling(cases):
    """Cases are (increments, t) pairs. Both sides are det_bareiss of a
    delta matrix, so a wrong elimination can fail the check."""
    return _sweep(
        "scaling the first increment scales the determinant",
        cases,
        _scales,
        lambda case: f"inc={case[0]}, t={case[1]}",
    )


def random_increments(rng, dim_cap):
    """Draw 100 delta and 100 theta increment lists with entries in 1..9,
    then 100 of each with entries in -4..4, a delta list and a theta list
    in turn. Delta lists have 1..dim_cap entries, theta lists 3..dim_cap + 1;
    there are no theta lists when dim_cap < 2."""
    delta, theta = [], []
    for low, high in ((1, 9), (-4, 4)):
        for _ in range(100):
            n = rng.randint(1, max(dim_cap, 1))
            delta.append([rng.randint(low, high) for _ in range(n)])
            if dim_cap >= 2:
                n = rng.randint(2, dim_cap)
                theta.append([rng.randint(low, high) for _ in range(n + 1)])
    return delta, theta


def suite_dets(n_max, seed=0):
    rng = random.Random(seed)
    delta, theta = random_increments(rng, min(n_max, 12))
    scale_cases = [([rng.randint(1, 9) for _ in range(rng.randint(1, 8))], rng.randint(-5, 5)) for _ in range(50)]
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
            yield from ((n, k, values) for n, values in zip(range(start, n_max + 1), rows))

    return _sweep(name, cases(), lambda case: len(set(case[2])) == 1, _nk)


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
        ones = [next(islice(_columns(n_max, m), 1, None)) for m in POLYNOMIAL_METHODS]
        yield from zip(range(1, n_max + 1), traces, zip(*ones))

    return _sweep(
        "first symmetric function equals the trace of A_n",
        cases(),
        lambda case: set(case[2]) == {case[1]},
        lambda case: _n(case[0]),
    )


def check_growth(n_max):
    """S(n, k) < S(n + 1, k) for 1 <= k <= n < n_max, down each column of
    the rec7 fill."""

    def cases():
        for k, column in enumerate(islice(_columns(n_max, "rec7"), 1, None), start=1):
            yield from ((n, k, pair) for n, pair in enumerate(pairwise(column), start=k))

    return _sweep("strict growth in n for fixed k", cases(), lambda case: case[2][0] < case[2][1], _nk)


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
        records = [_leading_minors(char_matrix(n_max, lam)) for lam in lams]
        for n in range(1, n_max + 1):
            poly = charpoly(n)
            yield from ((n, lam, minors[n - 1] == poly(lam)) for lam, minors in zip(lams, records))

    return _sweep(
        "every leading minor of lam*I - A_n equals charpoly(n)(lam)",
        cases(),
        lambda case: case[2],
        lambda case: f"n={case[0]}, lam={case[1]}",
    )


def suite_symfun(n_max):
    return [
        check_six_way(n_max),
        check_polynomial_agreement(n_max),
        check_trace(n_max),
        check_growth(n_max),
        check_charpoly_minors(n_max),
    ]


def check_binomial_identity(n_max):
    """binomial_identity_check at every 0 <= k <= n <= n_max, n by n, with
    one running sum per k in place of its n - k + 1 binomials per case.

    The sum at (n, k) is sum_{i=1}^{n-k+1} C(n+k-1-i, n-k+1-i), the one at
    (n - 1, k) plus its i = 1 term C(n+k-2, n-k), and its C(n+k-1, n-k-1)
    is the left side at (n - 1, k). The check then costs O(n_max**2)
    binomials and O(n_max) live integers.
    """

    def cases():
        sums = []  # entry k: the running sum and the left side at (n - 1, k)
        for n in range(n_max + 1):
            # k = n starts from the empty sum, and the left side at (n - 1, n).
            sums.append((0, binomial(2 * n - 1, -1)))
            for k, (total, before) in enumerate(sums):
                total += binomial(n + k - 2, n - k)
                left = binomial(n + k, n - k)
                sums[k] = (total, left)
                yield n, k, left == before + total

    name = f"difference-recurrence binomial identity up to n={n_max}"
    return _sweep(name, cases(), lambda case: case[2], _nk)


def suite_binomial(n_max):
    return [check_binomial_identity(n_max)]


def check_fibonacci_sum(n_max):
    name = f"symmetric-function sum equals F(2n+1) up to n={n_max}"
    return _sweep(name, range(n_max + 1), fibonacci_identity, _n)


def check_fibonacci_minors(n_max):
    """det(I + A_n) = F_{2n+1} for every n <= n_max, read off the leading
    minors of one elimination of -I - A_{n_max}, the (-1)^n F_{2n+1}."""

    def cases():
        minors = _leading_minors(char_matrix(n_max, -1)) if n_max else []
        even, odd = 0, 1  # F_{2n} and F_{2n+1}, from n = 0
        for n, minor in enumerate(minors, start=1):
            even, odd = even + odd, even + 2 * odd
            yield n, minor, -odd if n % 2 else odd

    return _sweep(
        "every leading minor of -I - A_n equals (-1)^n F(2n+1)",
        cases(),
        lambda case: case[1] == case[2],
        lambda case: _n(case[0]),
    )


def check_cassini(n_max):
    return _sweep(
        "Cassini identity on the Fibonacci generator",
        range(2, max(n_max, 3)),
        lambda i: fib(i - 1) * fib(i + 1) - fib(i) ** 2 == (-1) ** i,
        lambda i: f"i={i}",
    )


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

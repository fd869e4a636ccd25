"""Independent checks of minmatrix's answers.

Every expected value is recomputed here from the paper's closed forms
with the standard library alone (``math.comb``, ``math.prod``); nothing
in this module imports minmatrix. Each check returns True when the
program's output matches and False when it does not. Malformed CLI
output makes the parsers raise, which the caller counts as a failed
operation just like a False.
"""

import csv
import json
import math

#: Largest |z| accepted for a simulated covariance entry. With 36 distinct
#: entries a Gaussian z-score beyond 6 has probability about 7e-8 per estimate.
Z_MAX = 6.0

#: The six methods ``minmatrix symfun --method all`` reports at n <= 14.
SYMFUN_METHODS = ("closed", "minors", "nested", "rec6", "rec7", "ratio")


def det_min(value):
    """det A_n = 1 for every n."""
    return value == 1


def det_shifted(k, value):
    """det C_{n,k} = k for every n."""
    return value == k


def det_delta(inc, value):
    """The delta matrix's determinant is the product of the increments."""
    return value == math.prod(inc)


def det_theta(inc, value):
    """The theta matrix's determinant is i_1 * i_3 * ... * i_{n+1}."""
    return value == inc[0] * math.prod(inc[2:])


def char_value(n, lam):
    """det(lam*I - A_n) = sum_k (-1)^k C(n+k, 2k) lam^(n-k)."""
    return sum((-1) ** k * math.comb(n + k, 2 * k) * lam ** (n - k) for k in range(n + 1))


def det_char(n, lam, value):
    return value == char_value(n, lam)


def symfun(n, k, value):
    """S(n, k) = C(n+k, n-k)."""
    return value == math.comb(n + k, n - k)


def verify_json(text):
    """``verify --format json``: every check passed and there was at least one."""
    payload = json.loads(text)["payload"]
    checks = payload["checks"]
    return (
        payload["all_passed"] is True
        and len(checks) > 0
        and all(check["passed"] is True for check in checks)
    )


def simulate_max_z(text, n, m):
    """Largest |z| of a ``simulate --format csv`` estimate against min(i, j).

    For Gaussian steps of unit variance Isserlis' theorem gives
    Var(X_i X_j) = ij + min(i, j)^2, so one entry's standard error over m
    paths is sqrt((ij + min(i, j)^2) / m).
    """
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    if len(header) != n or len(body) != n or any(len(row) != n for row in body):
        raise ValueError(f"expected a {n} x {n} covariance table")
    worst = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            low = min(i, j)
            error = math.sqrt((i * j + low * low) / m)
            worst = max(worst, abs(float(body[i - 1][j - 1]) - low) / error)
    return worst


def simulate_csv(text, n, m):
    return simulate_max_z(text, n, m) <= Z_MAX


def det_plain(text, expected):
    """``det --method both --format plain``: both values equal ``expected``."""
    lines = text.splitlines()
    values = dict(line.split(": ", 1) for line in lines[:-1])
    return (
        sorted(values) == ["bareiss", "closed"]
        and all(int(v) == expected for v in values.values())
        and lines[-1] == "agree"
    )


def symfun_json(text, n, k):
    """``symfun --method all --format json`` at one k: six values, all C(n+k, n-k)."""
    payload = json.loads(text)["payload"]
    values = payload["values"]
    return (
        payload["agree"] is True
        and sorted(v["method"] for v in values) == sorted(SYMFUN_METHODS)
        and all(v["k"] == k and symfun(n, k, int(v["value"])) for v in values)
    )


def matrix_plain(text, n, k):
    """``matrix c --format plain``: entry (r, c) is k - 1 + min(r, c)."""
    rows = [[int(v) for v in line.split()] for line in text.splitlines()]
    dim = n - k + 1
    return len(rows) == dim and all(
        len(row) == dim and all(row[c - 1] == k - 1 + min(r, c) for c in range(1, dim + 1))
        for r, row in enumerate(rows, start=1)
    )

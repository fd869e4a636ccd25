"""The benchmark's own test: every independent check accepts the right
answer and catches one wrong value.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math

import pytest

import checks


def _payload(payload):
    return json.dumps({"payload": payload, "metadata": {"version": "0"}})


def _verify_text(all_passed=True, passed=(True, True)):
    return _payload({
        "checks": [{"name": f"c{i}", "passed": p, "detail": "", "notes": []}
                   for i, p in enumerate(passed)],
        "all_passed": all_passed,
    })


def _covariance_csv(n, perturb=None, m=200_000):
    rows = [[float(min(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    if perturb is not None:
        i, j, z = perturb
        low = min(i, j)
        rows[i - 1][j - 1] += z * math.sqrt((i * j + low * low) / m)
    lines = [",".join(f"c{j}" for j in range(1, n + 1))]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines + ["# deviation,0.0"]) + "\n"


def _symfun_text(n, k, wrong_method=None):
    value = math.comb(n + k, n - k)
    return _payload({
        "n": n,
        "values": [
            {"k": k, "method": m, "value": str(value + (m == wrong_method))}
            for m in checks.SYMFUN_METHODS
        ],
        "agree": wrong_method is None,
        "notes": [],
    })


def _matrix_text(n, k, wrong_entry=False):
    dim = n - k + 1
    rows = [[k - 1 + min(r, c) for c in range(1, dim + 1)] for r in range(1, dim + 1)]
    if wrong_entry:
        rows[dim - 1][dim - 1] += 1
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


# Each case: (check, arguments of the right answer, arguments of one wrong value).
CASES = {
    "det_min": (checks.det_min, (1,), (2,)),
    "det_shifted": (checks.det_shifted, (7, 7), (7, 6)),
    "det_delta": (checks.det_delta, ([3, -5, 2**64], -15 * 2**64), ([3, -5, 2**64], 15 * 2**64)),
    "det_theta": (checks.det_theta, ([3, 99, 2, 5], 30), ([3, 99, 2, 5], 30 * 99)),
    # det(3I - A_2) = (3 - 1)(3 - 2) - 1 = 1
    "det_char": (checks.det_char, (2, 3, 1), (2, 3, -1)),
    "symfun": (checks.symfun, (100, 50, math.comb(150, 50)), (100, 50, math.comb(150, 50) + 1)),
    "verify_json": (checks.verify_json, (_verify_text(),), (_verify_text(all_passed=False),)),
    "verify_json_failed_check": (
        checks.verify_json, (_verify_text(),), (_verify_text(passed=(True, False)),)
    ),
    "verify_json_no_checks": (checks.verify_json, (_verify_text(),), (_verify_text(passed=()),)),
    "simulate_csv": (
        checks.simulate_csv,
        (_covariance_csv(8), 8, 200_000),
        (_covariance_csv(8, perturb=(5, 3, checks.Z_MAX + 1)), 8, 200_000),
    ),
    "det_plain": (
        checks.det_plain, ("closed: 7\nbareiss: 7\nagree\n", 7), ("closed: 7\nbareiss: 8\nagree\n", 7)
    ),
    "det_plain_disagree": (
        checks.det_plain, ("closed: 7\nbareiss: 7\nagree\n", 7), ("closed: 7\nbareiss: 7\nDISAGREE\n", 7)
    ),
    "symfun_json": (
        checks.symfun_json, (_symfun_text(12, 6), 12, 6), (_symfun_text(12, 6, "minors"), 12, 6)
    ),
    "matrix_plain": (
        checks.matrix_plain, (_matrix_text(30, 7), 30, 7), (_matrix_text(30, 7, True), 30, 7)
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_accepts_right_and_catches_wrong(name):
    check, right, wrong = CASES[name]
    assert check(*right) is True
    assert check(*wrong) is False


def test_char_value_matches_direct_determinant():
    # det(lam*I - A_3) at lam = 5, expanded by hand from the 3 x 3 matrix
    # [[4, -1, -1], [-1, 3, -2], [-1, -2, 2]].
    direct = 4 * (3 * 2 - 4) - (-1) * (-1 * 2 - 2) + (-1) * (2 + 3)
    assert checks.char_value(3, 5) == direct


def test_simulate_csv_rejects_wrong_shape():
    with pytest.raises(ValueError):
        checks.simulate_csv(_covariance_csv(7), 8, 200_000)

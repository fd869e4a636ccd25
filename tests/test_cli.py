import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmatrix
from minmatrix import DISTRIBUTIONS, METHODS, SUITES, build_delta_matrix, build_min_matrix
from minmatrix import cli, symmetric, verification
from minmatrix.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exit code, stdout and stderr of each command in each output format, and of
# a few usage errors. A change to any of these bytes changes the CLI's
# interface. Rademacher steps have sums that are exact in floating point, so
# their pinned bytes do not depend on BLAS. The Gaussian and uniform entries
# pin the bit-identical reuse of one step buffer; their sums of products go
# through BLAS, so they hold for the BLAS kernel they were generated with
# (OpenBLAS 0.3.31's Haswell kernel).
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_output_is_pinned(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class TestMatrixCommand:
    def test_min_csv(self, capsys):
        code, out, _ = run(capsys, "matrix", "min", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2,c3"
        assert lines[1:] == ["1,1,1", "1,2,2", "1,2,3"]

    def test_delta_plain(self, capsys):
        code, out, _ = run(capsys, "matrix", "delta", "--inc", "2,3,4")
        assert code == 0
        assert out.splitlines() == ["2 2 2", "2 5 5", "2 5 9"]

    def test_min_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "matrix", "min", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "matrix", "delta", "--inc", "2,3,4", "--format", "json")
        assert code == 0
        document = json.loads(out)
        rows = [[int(v) for v in row] for row in document["payload"]["rows"]]
        assert rows == build_delta_matrix([2, 3, 4]).to_lists()
        assert "version" in document["metadata"]

    def test_json_round_trip_min(self, capsys):
        code, out, _ = run(capsys, "matrix", "min", "--n", "5", "--format", "json")
        document = json.loads(out)
        rows = [[int(v) for v in row] for row in document["payload"]["rows"]]
        assert rows == build_min_matrix(5).to_lists()

    def test_missing_params(self, capsys):
        assert run(capsys, "matrix", "c", "--n", "4")[0] == 2
        assert run(capsys, "matrix", "delta")[0] == 2

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_rows_print_without_a_table_of_strings(self, fmt):
        # A_600's own rows take about 2.9 MB, and printing them one at a
        # time about 3.1 MB in all. A table of its 360,000 entries as
        # strings took about 27 MB, for any format (about 25 MB for json).
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["matrix", "min", "--n", "600", "--format", fmt])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2**22, peak

    def test_bad_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "hilbert", "--n", "3"])
        assert excinfo.value.code == 2


class TestDetCommand:
    def test_both_agree(self, capsys):
        code, out, _ = run(capsys, "det", "delta", "--inc", "2,3,4", "--method", "both")
        assert code == 0
        assert "closed: 24" in out and "bareiss: 24" in out

    def test_min_closed(self, capsys):
        code, out, _ = run(capsys, "det", "min", "--n", "50")
        assert code == 0
        assert out.strip() == "closed: 1"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "det", "theta", "--inc", "2,3,5")
        assert code == 0
        assert "10" in out

    def test_c_bareiss(self, capsys):
        code, out, _ = run(capsys, "det", "c", "--n", "9", "--k", "4", "--method", "both")
        assert code == 0
        assert "closed: 4" in out and "bareiss: 4" in out

    def test_missing_params_name_the_command(self, capsys):
        code, out, err = run(capsys, "det", "c", "--n", "4", "--method", "bareiss")
        assert (code, out, err) == (2, "", "error: det c requires --n and --k\n")

    def test_bad_increments(self, capsys):
        assert run(capsys, "det", "delta", "--inc", "2,x,4")[0] == 2

    def test_bad_increments_message(self, capsys):
        code, out, err = run(capsys, "det", "delta", "--inc", "2,x,4")
        assert (code, out) == (2, "")
        assert err == "error: increment list must be comma-separated integers, got '2,x,4'\n"

    @pytest.mark.parametrize("inc", ["1,,2", "1,2,", ",1,2", "1, ,2"])
    def test_empty_increment_field_is_usage_error(self, capsys, inc):
        code, out, err = run(capsys, "det", "delta", f"--inc={inc}", "--method", "both")
        assert (code, out) == (2, "")
        assert err == f"error: increment list must be comma-separated integers, got {inc!r}\n"

    def test_empty_increment_list_is_usage_error(self, capsys):
        code, out, err = run(capsys, "det", "delta", "--inc=", "--method", "both")
        assert (code, out, err) == (2, "", "error: increment list needs at least 1 entries, got 0\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["det", "min", "--n", "5", "--k", "3", "--method", "both"], "det min does not take --k"),
            (["det", "min", "--n", "5", "--inc", "2"], "det min does not take --inc"),
            (["matrix", "c", "--n", "3", "--k", "2", "--inc", "4"], "matrix c does not take --inc"),
            (["det", "delta", "--inc", "2,3", "--n", "5"], "det delta does not take --n"),
            (["matrix", "theta", "--inc", "2,3", "--k", "1"], "matrix theta does not take --k"),
        ],
        ids=" ".join,
    )
    def test_option_the_kind_does_not_take_is_usage_error(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind,count", [("delta", 48), ("theta", 49)])
    def test_64_bit_increments_agree(self, capsys, kind, count):
        rng = random.Random(count)
        inc = [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(count)]
        code, out, _ = run(capsys, "det", kind, f"--inc={','.join(map(str, inc))}", "--method", "both")
        assert code == 0
        assert out.splitlines()[-1] == "agree"


class TestLongResults:
    """Exact results longer than Python's limit on converting an int to a
    decimal string (4300 digits by default) are printed in full, and the
    caller's limit is the same afterwards."""

    @pytest.fixture
    def limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4301)
        yield 4301
        sys.set_int_max_str_digits(before)

    @staticmethod
    def printed(out, fmt):
        """The one exact value that a det or symfun command printed."""
        if fmt == "json":
            values = json.loads(out)["payload"]["values"]
            return values["closed"] if isinstance(values, dict) else values[0]["value"]
        last = out.splitlines()[-1]
        return last.rsplit(",", 1)[-1] if fmt == "csv" else last.rsplit(": ", 1)[-1]

    def check(self, capsys, limit, argv, fmt, expected):
        code, out, err = run(capsys, *argv, "--method", "closed", "--format", fmt)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        text = self.printed(out, fmt)
        assert len(text.lstrip("-")) > limit
        sys.set_int_max_str_digits(0)
        assert int(text) == expected

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_det_of_240_signed_64_bit_increments(self, capsys, limit, fmt):
        rng = random.Random(240)
        inc = [rng.choice((-1, 1)) * rng.randrange(2**63, 2**64) for _ in range(240)]
        argv = ["det", "delta", f"--inc={','.join(map(str, inc))}"]
        self.check(capsys, limit, argv, fmt, math.prod(inc))

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_symfun_closed_at_n_20000(self, capsys, limit, fmt):
        argv = ["symfun", "--n", "20000", "--k", "10000"]
        self.check(capsys, limit, argv, fmt, math.comb(30000, 10000))


class TestIncrementDigits:
    """`--inc` is parsed under the caller's limit on converting a decimal
    string to an int, as argparse's integer options are, while results stay
    unlimited. The caller's limit is the same afterwards."""

    @pytest.fixture(params=[4300, 0], ids=["limit 4300", "no limit"])
    def limit(self, request):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        yield request.param
        sys.set_int_max_str_digits(before)

    def det(self, capsys, digits):
        return run(capsys, "det", "delta", f"--inc={'9' * digits},2", "--method", "closed")

    def test_the_limit_itself_is_accepted(self, capsys, limit):
        assert self.det(capsys, 4300) == (0, f"closed: 1{'9' * 4299}8\n", "")
        assert sys.get_int_max_str_digits() == limit

    def test_one_digit_more_is_refused_only_under_a_limit(self, capsys, limit):
        code, out, err = self.det(capsys, 4301)
        assert sys.get_int_max_str_digits() == limit
        if limit:
            assert (code, out) == (2, "")
            assert err == (
                "error: --inc has an increment of 4301 digits, above the limit of 4300 on "
                "converting a decimal string to an int (sys.set_int_max_str_digits)\n"
            )
        else:
            assert (code, out, err) == (0, f"closed: 1{'9' * 4300}8\n", "")

    @pytest.mark.parametrize("command", [["det", "delta", "--method", "closed"], ["matrix", "theta"]])
    def test_total_digits_past_the_bound_are_refused_before_parsing(self, capsys, monkeypatch, limit, command):
        # 25 increments of 4000 digits are the bound; one digit more in the
        # last is refused before any increment is converted, with or
        # without the per-increment limit.
        bound = cli._INC_DIGITS_LIMIT
        inc = ",".join(["-" + "7" * 4000] * 24 + ["7" * 4001])
        monkeypatch.setattr(cli, "int", lambda text: pytest.fail(f"parsed {text[:10]}"), raising=False)
        code, out, err = run(capsys, *command, f"--inc={inc}")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --inc has {bound + 1} digits in total, above the limit of {bound}: "
            "the closed form, the elimination and the printed result cost about its square\n"
        )
        assert sys.get_int_max_str_digits() == limit

    def test_total_digits_at_the_bound_are_accepted(self, capsys, limit):
        text = ",".join(["-" + "7" * 4000] * 24 + ["7" * 4000])
        assert sum(map(str.isdigit, text)) == cli._INC_DIGITS_LIMIT
        code, out, err = run(capsys, "det", "delta", f"--inc={text}", "--method", "both")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        closed, bareiss, agree = out.splitlines()
        assert agree == "agree"
        sys.set_int_max_str_digits(0)
        assert closed == f"closed: {math.prod(map(int, text.split(',')))}"


class TestDenseLimit:
    """`matrix` and `det --method bareiss|both` refuse a dense matrix past
    dimension 4096, 2**24 entries, before they build anything."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matrix was built")

        for name in ("build_min_matrix", "build_c_matrix", "build_delta_matrix", "build_theta_matrix"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("n", [10**20, 2**63, 4097])
    @pytest.mark.parametrize(
        "command",
        [["matrix"], ["det", "--method", "bareiss"], ["det", "--method", "both"]],
        ids=["matrix", "bareiss", "both"],
    )
    def test_min_is_refused_before_building(self, capsys, no_build, n, command):
        code, out, err = run(capsys, *command, "min", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: --n {n} gives dimension {n}, above 4096: {command[0]} builds the dense min matrix\n"

    @pytest.mark.parametrize("n", [10**20, 2**63, 4098])
    def test_c_dimension_is_n_minus_k_plus_1(self, capsys, no_build, n):
        code, out, err = run(capsys, "det", "c", "--n", str(n), "--k", "2", "--method", "both")
        assert (code, out) == (2, "")
        assert err == f"error: --n {n} gives dimension {n - 1}, above 4096: det builds the dense c matrix\n"

    def test_delta_names_its_increments(self, capsys, no_build):
        code, out, err = run(capsys, "matrix", "delta", "--inc", ",".join(["1"] * 4097))
        assert (code, out) == (2, "")
        assert err == "error: --inc gives dimension 4097, above 4096: matrix builds the dense delta matrix\n"

    @pytest.mark.parametrize("n", [10**20, 2**63, 4097])
    def test_closed_forms_still_answer(self, capsys, no_build, n):
        assert run(capsys, "det", "min", "--n", str(n), "--method", "closed") == (0, "closed: 1\n", "")
        assert run(capsys, "det", "c", "--n", str(n), "--k", "7") == (0, "closed: 7\n", "")

    def test_the_limit_itself_is_built(self, capsys, monkeypatch):
        built = []

        def build(n, k=None):
            built.append((n, k))
            return build_min_matrix(1)

        monkeypatch.setattr(cli, "build_min_matrix", build)
        monkeypatch.setattr(cli, "build_c_matrix", build)
        assert run(capsys, "matrix", "min", "--n", "4096")[0] == 0
        # A huge n with a k just below it is a small dense matrix.
        assert run(capsys, "matrix", "c", "--n", str(10**20), "--k", str(10**20 - 4095))[0] == 0
        assert built == [(4096, None), (10**20, 10**20 - 4095)]

    @pytest.mark.parametrize("command", ["matrix", "det"])
    def test_help_states_the_limit(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "dimension at most 4096" in " ".join(capsys.readouterr().out.split())


class TestSymfunCommand:
    def test_all_methods_agree_at_n3(self, capsys):
        code, out, _ = run(capsys, "symfun", "--n", "3", "--method", "all")
        assert code == 0
        k2 = [line for line in out.splitlines() if line.startswith("k=2")]
        assert len(k2) == 6
        assert all(line.endswith(": 5") for line in k2)

    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "symfun", "--n", "5", "--k", "1")
        assert code == 0
        assert out.strip() == "k=1 closed: 15"

    def test_diagonal(self, capsys):
        code, out, _ = run(capsys, "symfun", "--n", "4", "--k", "4")
        assert code == 0
        assert out.strip() == "k=4 closed: 1"

    def test_minors_skipped_above_cap_with_all(self, capsys):
        code, out, err = run(capsys, "symfun", "--n", "20", "--k", "3", "--method", "all")
        assert code == 0
        assert "minors" not in out
        assert "skipped" in err

    def test_explicit_minors_above_cap_is_usage_error(self, capsys):
        assert run(capsys, "symfun", "--n", "20", "--k", "3", "--method", "minors")[0] == 2

    def test_k_all_reads_row_n_without_a_table(self, capsys, monkeypatch):
        real_row = symmetric._symfun_row
        rows = []

        def counted(n, method):
            rows.append((n, method))
            return real_row(n, method)

        def forbidden(*args, **kwargs):
            raise AssertionError("--k all must read row n once per method")

        monkeypatch.setattr(symmetric, "_symfun_row", counted)
        monkeypatch.setattr(symmetric, "symfun", forbidden)
        monkeypatch.setattr(symmetric, "build_sym_table", forbidden)
        code, out, _ = run(capsys, "symfun", "--n", "12", "--k", "all", "--method", "all",
                           "--format", "json")
        assert code == 0 and json.loads(out)["payload"]["agree"] is True
        assert rows == [(12, m) for m in symmetric.METHODS]

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_negative_n_is_usage_error(self, capsys, fmt):
        code, out, err = run(capsys, "symfun", "--n", "-1", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: symfun requires --n >= 0, got -1\n"

    @pytest.mark.parametrize("k", ["abc", "2.5", ""])
    def test_non_integer_k_names_the_option(self, capsys, k):
        code, out, err = run(capsys, "symfun", "--n", "5", "--k", k)
        assert (code, out) == (2, "")
        assert err == f"error: --k must be an integer or 'all', got {k!r}\n"

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "symfun", "--n", "3", "--k", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,method,value"


class TestSymfunLimit:
    """`symfun` refuses n above 4096 before it computes anything, except for
    one k by the closed form, which answers at any n. No size here is
    computed: the limit itself runs against stubs."""

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = []

        def symfun(n, k, method):
            calls.append((n, k, method))
            return 0

        def row(n, method):
            calls.append((n, "all", method))
            return [0] * (n + 1)

        monkeypatch.setattr(symmetric, "symfun", symfun)
        monkeypatch.setattr(symmetric, "_symfun_row", row)
        return calls

    @pytest.mark.parametrize("n, k", [(4097, 2), (2**63, 2), (10**20, 2), (10**20, 10**20 - 10)])
    @pytest.mark.parametrize("method", ["nested", "rec6", "rec7", "ratio", "minors", "all"])
    def test_refused_before_computing(self, capsys, computed, n, k, method):
        code, out, err = run(capsys, "symfun", "--n", str(n), "--k", str(k), "--method", method)
        assert (code, out, computed) == (2, "", [])
        assert err == (
            f"error: --n must be <= 4096, got {n}: symfun --method {method} runs down to row n; "
            "--method closed answers one k at any n\n"
        )

    @pytest.mark.parametrize("n", [4097, 10**20])
    @pytest.mark.parametrize("method", ["closed", "rec7"])
    def test_k_all_is_refused_for_every_method(self, capsys, computed, n, method):
        code, out, err = run(capsys, "symfun", "--n", str(n), "--method", method)
        assert (code, out, computed) == (2, "", [])
        assert err == f"error: --n must be <= 4096, got {n}: symfun --k all computes n + 1 values\n"

    @pytest.mark.parametrize("k", [2, 10**20 - 10])
    def test_closed_answers_one_k_at_any_n(self, capsys, k):
        n = 10**20
        code, out, err = run(capsys, "symfun", "--n", str(n), "--k", str(k))
        assert (code, out, err) == (0, f"k={k} closed: {math.comb(n + k, n - k)}\n", "")

    @pytest.mark.parametrize(
        "n, k", [(10**20, 2**63), (2**64, 2**62), (2**64, 2**63), (2**200, 2**199)]
    )
    def test_closed_past_the_binomial_range_is_refused(self, capsys, computed, n, k):
        # C(n + k, n - k) is past math.comb where min(n - k, 2k) > sys.maxsize.
        code, out, err = run(capsys, "symfun", "--n", str(n), "--k", str(k))
        assert (code, out, computed) == (2, "", [])
        assert err == (
            f"error: --k {k} with --n {n} gives C(n + k, n - k) with min(n - k, 2k) "
            f"above {sys.maxsize}, past math.comb's range\n"
        )

    def test_closed_at_the_binomial_range_is_computed(self, capsys, computed):
        # min(n - k, 2k) is sys.maxsize itself, one less than at (2**64,
        # 2**62) above; the stub stands in for a binomial of about 10**19
        # digits.
        k = 2**62
        n = sys.maxsize + k
        assert run(capsys, "symfun", "--n", str(n), "--k", str(k))[0] == 0
        assert computed == [(n, k, "closed")]

    def test_the_limit_itself_is_computed(self, capsys, computed):
        assert run(capsys, "symfun", "--n", "4096", "--k", "2", "--method", "rec6")[0] == 0
        assert run(capsys, "symfun", "--n", "4096", "--method", "ratio")[0] == 0
        assert computed == [(4096, 2, "rec6"), (4096, "all", "ratio")]

    def test_help_states_the_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["symfun", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "at most 4096; any n >= 0 for a single --k by --method closed" in help_text


class TestVerifyCommand:
    def test_fibonacci_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fibonacci", "--n-max", "100")
        assert code == 0
        assert "all checks passed" in out

    def test_all_suites_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_dets_vacuous_theta_noted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dets", "--n-max", "1")
        assert code == 0
        assert "vacuous" in out

    def test_scaling_check_fails_on_a_wrong_elimination(self, capsys, monkeypatch):
        # Both sides of the scaling check come from the elimination, so an
        # elimination that adds 1 to every leading 2-minor it reads breaks
        # minor(scaled) = t * minor wherever t != 1, first at the prefix of
        # two increments.
        real = verification._det_minors

        def wrong(matrix):
            det, minors = real(matrix)
            return det, [v + (m == 1) for m, v in enumerate(minors)]

        name = "scaling the first increment scales the determinant"
        cases = [([3, 1, 4], 2), ([5], 7)]
        assert verification.check_delta_scaling(cases).passed
        monkeypatch.setattr(verification, "_det_minors", wrong)
        result = verification.check_delta_scaling(cases)
        assert (result.name, result.passed) == (name, False)
        assert result.detail == "counterexample: inc=[3, 1], t=2"
        code, out, _ = run(capsys, "verify", "--suite", "dets", "--n-max", "16")
        assert code == 1
        assert any(line.startswith(f"[FAIL] {name} (counterexample: ") for line in out.splitlines())

    def test_symfun_vacuous_checks_noted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "symfun", "--n-max", "1")
        assert code == 0
        lines = out.splitlines()
        for name in ("polynomial-method agreement up to n=1", "strict growth in n for fixed k"):
            at = lines.index(f"[pass] {name}")
            assert lines[at + 1] == "       note: vacuous: no cases"

    @pytest.mark.parametrize("suite", ["dets", "symfun", "binomial", "fibonacci", "all"])
    def test_negative_n_max_is_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "-1")
        assert (code, out) == (2, "")
        assert err == "error: n_max must be >= 0, got -1\n"

    @pytest.mark.parametrize("n_max", [10**20, 4097, minmatrix._N_MAX_LIMIT + 1])
    def test_huge_n_max_is_refused_before_building(self, capsys, monkeypatch, n_max):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix or a column was built")

        for name in ("build_min_matrix", "build_c_matrix", "build_delta_matrix",
                     "build_theta_matrix", "_columns"):
            monkeypatch.setattr(verification, name, refuse)
        code, out, err = run(capsys, "verify", "--n-max", str(n_max))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --n-max must be <= {minmatrix._N_MAX_LIMIT}, got {n_max}: "
            "the limit keeps verify --suite all within about 60 s\n"
        )

    def test_help_states_the_n_max_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert f"0 to {minmatrix._N_MAX_LIMIT}" in capsys.readouterr().out

    def test_unknown_suite_is_named(self):
        # The CLI's choices stop it first; the library names it itself.
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            verification.run_suites("nope", 3)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "binomial", "--n-max", "10", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["payload"]["all_passed"] is True


class TestSixWayAgreement:
    @pytest.mark.parametrize("n_max", ["8", "12", "16"])
    def test_verify_reports_six_way_check(self, capsys, n_max):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", n_max)
        assert code == 0
        brute_max = min(int(n_max), 12)
        assert f"[pass] six-way agreement up to n={brute_max}" in out.splitlines()
        assert out.endswith("all checks passed\n")

    @pytest.mark.parametrize("method", ["closed", "minors", "nested", "rec6", "rec7", "ratio"])
    def test_verify_fails_when_one_table_is_wrong(self, capsys, monkeypatch, method):
        real = verification._columns

        def corrupted(n_max, name):
            for k, column in enumerate(real(n_max, name)):
                column = list(column)
                if name == method and k == 2:
                    column[4 - 2] += 1  # S(4, 2)
                yield column

        monkeypatch.setattr(verification, "_columns", corrupted)
        code, out, _ = run(capsys, "verify", "--suite", "symfun", "--n-max", "8")
        assert code == 1
        assert "[FAIL] six-way agreement up to n=8 (counterexample: n=4, k=2)" in out

    @pytest.mark.parametrize("k", ["5", "7", "all"])
    def test_symfun_all_methods_agree(self, capsys, k):
        code, out, _ = run(capsys, "symfun", "--n", "12", "--k", k, "--method", "all",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["agree"] is True
        ks = range(13) if k == "all" else [int(k)]
        assert {(v["k"], v["method"]) for v in payload["values"]} == {
            (j, m) for j in ks for m in ("closed", "minors", "nested", "rec6", "rec7", "ratio")
        }


def _plus_one(function, method=None):
    """function with 1 added to its result, or to each entry of its row,
    for one method only when method is given."""

    def wrong(*args):
        value = function(*args)
        if method is not None and args[-1] != method:
            return value
        return [v + 1 for v in value] if isinstance(value, list) else value + 1

    return wrong


# One method is made to add 1 in the function cli looks up at call time; in
# every format the command must report the disagreement and exit 1.
class TestDisagreement:
    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("route", ["det_bareiss"])
    def test_det_both(self, capsys, monkeypatch, route, fmt):
        monkeypatch.setattr(cli, route, _plus_one(getattr(cli, route)))
        code, out, _ = run(capsys, "det", "c", "--n", "8", "--k", "3", "--method", "both",
                           "--format", fmt)
        assert code == cli.EXIT_DISAGREE == 1
        if fmt == "plain":
            assert out.splitlines() == ["closed: 3", "bareiss: 4", "DISAGREE"]
        elif fmt == "json":
            payload = json.loads(out)["payload"]
            assert payload["values"] == {"closed": "3", "bareiss": "4"}
            assert payload["agree"] is False
        else:
            assert out.splitlines() == ["method,value", "closed,3", "bareiss,4"]

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize("k", ["2", "all"])
    def test_symfun_all(self, capsys, monkeypatch, k, fmt):
        name = "_symfun_row" if k == "all" else "symfun"
        monkeypatch.setattr(symmetric, name, _plus_one(getattr(symmetric, name), "rec6"))
        code, out, _ = run(capsys, "symfun", "--n", "6", "--k", k, "--method", "all",
                           "--format", fmt)
        assert code == cli.EXIT_DISAGREE == 1
        if fmt == "plain":
            lines = out.splitlines()
            assert lines[-1] == "DISAGREE"
            assert "k=2 rec6: 71" in lines and "k=2 closed: 70" in lines
        elif fmt == "json":
            payload = json.loads(out)["payload"]
            assert payload["agree"] is False
            assert {"k": 2, "method": "rec6", "value": "71"} in payload["values"]
        else:
            assert "2,rec6,71" in out.splitlines()


def _matrix_document(kind, matrix):
    rows = [list(map(str, row)) for row in matrix.to_lists()]
    return {
        "payload": {"kind": kind, "dim": matrix.dim, "rows": rows},
        "metadata": {"version": minmatrix.__version__},
    }


def _simulate_document(**options):
    from minmatrix.simulation import SimConfig, covariance_deviation, simulate_covariance

    cfg = SimConfig(**options)
    estimate = simulate_covariance(cfg)
    payload = {
        "n": cfg.n,
        "m": cfg.m,
        "sigma": cfg.sigma,
        "dist": cfg.dist,
        "chunks": cfg.chunks,
        "covariance": estimate.matrix.tolist(),
        "deviation": covariance_deviation(estimate),
    }
    return {"payload": payload, "metadata": {"version": minmatrix.__version__, "seed": cfg.seed}}


# Seven signed 64-bit increments whose prefix sums are all positive, with
# one of 4,400 digits put in after the third: the prefix sums from the
# fourth on have 4,401 digits, past the caller's limit that the test sets.
_rng = random.Random(9)
_LONG_INC = [str(_rng.choice((-1, 1)) * _rng.randrange(2**63, 2**64)) for _ in range(7)]
_LONG_INC.insert(3, "9" * 4400)


def _case(argv, document, id=None):
    return pytest.param(argv, document, id=id or " ".join(argv))


class TestJsonStreaming:
    @pytest.fixture
    def caller_limit(self):
        # Enough digits to parse --inc's longest increment.
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4400)
        yield
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize(
        "argv, document",
        [
            _case(["matrix", "min", "--n", "7"], lambda: _matrix_document("min", build_min_matrix(7))),
            _case(
                ["matrix", "theta", "--inc", "2,-3,5,1"],
                lambda: _matrix_document("theta", minmatrix.build_theta_matrix([2, -3, 5, 1])),
            ),
            _case(
                ["simulate", "--n", "5", "--m", "30", "--seed", "2"],
                lambda: _simulate_document(n=5, m=30, seed=2),
            ),
            _case(
                ["simulate", "--n", "1", "--m", "2", "--dist", "uniform"],
                lambda: _simulate_document(n=1, m=2, dist="uniform"),
            ),
            _case(
                ["matrix", "c", "--n", "9", "--k", "3"],
                lambda: _matrix_document("c", minmatrix.build_c_matrix(9, 3)),
            ),
            _case(
                ["matrix", "delta", f"--inc={','.join(_LONG_INC)}"],
                lambda: _matrix_document("delta", build_delta_matrix(list(map(int, _LONG_INC)))),
                id="matrix delta --inc <7 signed 64-bit, 1 of 4400 digits>",
            ),
            _case(
                ["simulate", "--n", "6", "--m", "40", "--seed", "3", "--dist", "rademacher"],
                lambda: _simulate_document(n=6, m=40, seed=3, dist="rademacher"),
            ),
            # Entries near 1e300 and 1e-6, which print in exponent form.
            _case(
                ["simulate", "--n", "4", "--m", "50", "--sigma", "1e150"],
                lambda: _simulate_document(n=4, m=50, sigma=1e150),
            ),
            _case(
                ["simulate", "--n", "4", "--m", "50", "--sigma", "1e-3"],
                lambda: _simulate_document(n=4, m=50, sigma=1e-3),
            ),
        ],
    )
    def test_streamed_document_is_the_materialized_one(self, capsys, caller_limit, argv, document):
        # The big array is written one row at a time. The bytes are those
        # of json.dumps on the document built from the library, with every
        # row materialized, and of json.dumps on the parsed output.
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        sys.set_int_max_str_digits(0)
        assert out == json.dumps(document(), indent=2) + "\n"
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_covariance_prints_without_a_table_of_floats(self):
        # The estimate and the product buffer, 8 * n * n bytes each, are all
        # simulate holds at n = 400 besides one row of output: about 2.5 MB.
        # The covariance as a list of lists of floats took about 5 MB more.
        n = 400
        main(["simulate", "--n", "2", "--m", "2"])  # numpy loads outside the trace
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["simulate", "--n", str(n), "--m", "2", "--format", "json"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 3 * 8 * n * n, peak


class TestSimulateCommand:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "1", "--m", "100", "--dist", "rademacher",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["payload"]["deviation"] == 0.0
        assert document["metadata"]["seed"] == 1

    def test_m_one_is_usage_error(self, capsys):
        assert run(capsys, "simulate", "--n", "4", "--m", "1")[0] == 2

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "3", "--m", "10", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")
        # verify seeds random.Random, which takes any integer.
        assert run(capsys, "verify", "--suite", "dets", "--n-max", "8", "--seed", "-1")[0] == 0

    def test_chunks_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--n", "3", "--m", "10", "--chunks", "3"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_is_usage_error(self, capsys, sigma):
        code, out, err = run(capsys, "simulate", "--n", "3", "--m", "100", "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err == f"error: sigma must be finite and > 0, got {sigma}\n"

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ("1e-160", "sigma^2 must be a normal float, got sigma=1e-160"),
            ("1e-200", "sigma^2 must be a normal float, got sigma=1e-200"),
            ("1e160", "m * n * sigma^2 must be finite, got m=10, n=3, sigma=1e+160"),
            ("2.4e153", "covariance estimate overflows a float at sigma=2.4e+153"),
        ],
    )
    def test_sigma_outside_float_range_is_usage_error(self, capsys, sigma, message):
        # A numpy RuntimeWarning would become an exception, and exit 3.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", "--n", "3", "--m", "10", "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


# Run in a fresh interpreter: after `import minmatrix`, after `import
# minmatrix.cli`, and after cli.main(argv), whether numpy is loaded, and
# which minmatrix submodules and which of json, csv and dataclasses are
# loaded that were not loaded before `import minmatrix`.
_NUMPY_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
numpy, modules = [], []

def loaded():
    numpy.append("numpy" in sys.modules)
    modules.append(sorted(
        name.removeprefix("minmatrix.") for name in set(sys.modules) - before
        if name.startswith("minmatrix.") or name in ("json", "csv", "dataclasses")
    ))

import minmatrix
loaded()
from minmatrix import cli
loaded()
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
loaded()
import json
print(json.dumps({"code": code, "numpy": numpy, "modules": modules}))
"""

# What `import minmatrix.cli` loads, and all that a `det` command loads.
_CLI_MODULES = ["cli", "determinants", "matrices"]


# All that a verify command loads.
_VERIFY_MODULES = ["cli", "dataclasses", "determinants", "fibonacci", "matrices", "symmetric",
                   "verification"]


def _case(argv, loads, modules=_CLI_MODULES):
    return pytest.param(argv, loads, modules, id=f"{' '.join(argv)}-{loads}")


def _probe(argv):
    """_NUMPY_PROBE's report on cli.main(argv) in a fresh interpreter, and
    what the command wrote to stderr."""
    import minmatrix

    src = str(Path(minmatrix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout), done.stderr


class TestNumpyLoading:
    @pytest.mark.parametrize(
        "argv, loads, modules",
        [
            _case([], False),
            _case(["symfun", "--n", "12", "--k", "all", "--method", "all"], False,
                  ["cli", "dataclasses", "determinants", "matrices", "symmetric"]),
            _case(["matrix", "c", "--n", "30", "--k", "8"], False),
            _case(["matrix", "c", "--n", "30", "--k", "8", "--format", "csv"], False,
                  ["cli", "csv", "determinants", "matrices"]),
            _case(["verify", "--suite", "all", "--n-max", "16"], False, _VERIFY_MODULES),
            # Every elimination is in Python ints, whatever its dimension.
            _case(["verify", "--suite", "dets", "--n-max", "23"], False, _VERIFY_MODULES),
            _case(["verify", "--suite", "dets", "--n-max", "24"], False, _VERIFY_MODULES),
            _case(["det", "c", "--n", "25", "--k", "5", "--method", "both"], False),  # dimension 21
            _case(["det", "min", "--n", "23", "--method", "bareiss"], False),
            _case(["det", "min", "--n", "24", "--method", "bareiss"], False),
            _case(["det", "c", "--n", "40", "--k", "7", "--method", "both"], False),  # dimension 34
            _case(["det", "c", "--n", "40", "--k", "7", "--method", "both", "--format", "json"],
                  False, ["cli", "determinants", "json", "matrices"]),
            _case(["det", "min", "--n", "127", "--method", "bareiss"], False),
            _case(["det", "min", "--n", "128", "--method", "bareiss"], False),
            _case(["det", "delta", "--inc", ",".join(["2"] * 24), "--method", "both"], False),
            _case(["simulate", "--n", "3", "--m", "10"], True,
                  ["cli", "dataclasses", "determinants", "matrices", "simulation"]),
        ],
    )
    def test_numpy_loads_only_where_it_computes(self, argv, loads, modules):
        assert _probe(argv)[0] == {
            "code": 0,
            "numpy": [False, False, loads],
            "modules": [[], _CLI_MODULES, modules],
        }

    @pytest.mark.parametrize("n", [4097, 10**20])
    def test_simulate_refuses_n_above_the_limit_before_numpy(self, n):
        report, err = _probe(["simulate", "--n", str(n), "--m", "2"])
        assert report == {
            "code": 2,
            "numpy": [False, False, False],
            "modules": [[], _CLI_MODULES, ["cli", "dataclasses", "determinants", "matrices", "simulation"]],
        }
        assert err == f"error: --n must be <= 4096, got {n}: simulate accumulates an n x n covariance matrix\n"

    @pytest.mark.parametrize("m", [2**63, 10**20])
    def test_simulate_refuses_m_above_the_limit_before_numpy(self, m):
        report, err = _probe(["simulate", "--n", "3", "--m", str(m)])
        assert report == {
            "code": 2,
            "numpy": [False, False, False],
            "modules": [[], _CLI_MODULES, ["cli", "dataclasses", "determinants", "matrices", "simulation"]],
        }
        assert err == (
            f"error: --m must be <= 268435456, got {m}: "
            "simulate draws m paths, and 2**28 of them take about a minute at --n 8\n"
        )

    def test_simulate_refuses_the_path_cost_past_the_bound_before_numpy(self):
        report, err = _probe(["simulate", "--n", "4096", "--m", "1025"])
        assert report == {
            "code": 2,
            "numpy": [False, False, False],
            "modules": [[], _CLI_MODULES, ["cli", "dataclasses", "determinants", "matrices", "simulation"]],
        }
        assert err == (
            "error: --m times --n squared must be <= 17179869184, got m=1025, n=4096: "
            "a path costs about n**2, and 2**28 paths take about a minute at --n 8\n"
        )

    def test_help_states_the_simulate_n_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        out = capsys.readouterr().out
        assert "1 to 4096" in out
        assert "2 to 268435456" in out
        assert "with m * n**2 at most 2**34" in " ".join(out.split())


class TestInternalErrors:
    def test_rec7_at_n1000_is_exact(self, capsys):
        code, out, _ = run(capsys, "symfun", "--n", "1000", "--k", "2", "--method", "rec7")
        assert code == 0
        assert out == f"k=2 rec7: {math.comb(1002, 4)}\n"

    def test_recursion_error_is_internal_error(self, capsys, monkeypatch):
        def too_deep(n, k, method="closed"):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(symmetric, "symfun", too_deep)
        code, out, err = run(capsys, "symfun", "--n", "1000", "--k", "2", "--method", "rec7")
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("error: internal: RecursionError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", [RuntimeError, IndexError])
    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch, error):
        # Usage errors are ValueErrors; anything else is a library fault.
        def broken(args):
            raise error("wires crossed")

        monkeypatch.setattr(cli, "cmd_matrix", broken)
        code, _, err = run(capsys, "matrix", "min", "--n", "3")
        assert code == 3
        assert err == f"error: internal: {error.__name__}: wires crossed\n"


# Integers at and past int64's ends, and strings that are no integer list.
# Every command line of them is refused before anything is allocated or
# runs in milliseconds: 0 is the one size that computes, and a --k or --inc
# of one value keeps every binomial and matrix small.
INTEGERS = st.sampled_from([str(v) for v in (-(2**63) - 1, -1, 0, 2**63, 10**20)])
TEXTS = INTEGERS | st.sampled_from(["", ",", "1,,2", "x", "1e3", "+"])
KIND_OPTIONS = {"--n": INTEGERS, "--k": TEXTS, "--inc": TEXTS}
COMMAND_OPTIONS = {
    "matrix": KIND_OPTIONS,
    "det": {**KIND_OPTIONS, "--method": st.sampled_from(["closed", "bareiss", "both"])},
    "symfun": {"--n": INTEGERS, "--k": TEXTS, "--method": st.sampled_from([*METHODS, "all"])},
    "verify": {"--suite": st.sampled_from([*SUITES, "all"]), "--n-max": INTEGERS, "--seed": INTEGERS},
    "simulate": {"--n": INTEGERS, "--m": INTEGERS, "--seed": INTEGERS, "--dist": st.sampled_from(DISTRIBUTIONS)},
}


@st.composite
def extreme_command_lines(draw):
    """argv of one command, its kind if it takes one, each of its options
    present or not, and a --format."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command in ("matrix", "det"):
        argv.append(draw(st.sampled_from(sorted(cli._KINDS))))
    argv += [f"{name}={draw(values)}" for name, values in COMMAND_OPTIONS[command].items() if draw(st.booleans())]
    return [*argv, f"--format={draw(st.sampled_from(['plain', 'json', 'csv']))}"]


class TestExtremeArguments:
    """Every command exits 0, 1 or 2, with at most one line on stderr, and
    leaves the caller's limit on converting a decimal string to an int as
    it was."""

    # About 1 s for 300 command lines (2-vCPU x86-64 host, Python 3.11).
    @settings(max_examples=300, deadline=None)
    @given(extreme_command_lines())
    def test_exit_code_and_one_stderr_line(self, argv):
        limit = sys.get_int_max_str_digits()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse refuses an option that it cannot parse.
                assert exc.code == 2
                code = None
        assert sys.get_int_max_str_digits() == limit
        if code is not None:
            assert code in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= 1

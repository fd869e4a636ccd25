"""Command-line interface: batch access to every module with
machine-readable output.

Exit codes: 0 success, 1 verification failure or cross-method
disagreement, 2 usage error, 3 internal error (any other exception,
reported as one line on stderr). Payloads go to stdout, diagnostics to
stderr. Big integers are rendered as full decimal strings in JSON and
CSV so downstream consumers never overflow.

A process loads only the modules its command runs. This module imports
determinants and matrices, which `det` and `matrix` use; `symfun`,
`verify` and `simulate` import symmetric, verification or simulation
when they run, json and csv load only for their output formats, and
numpy loads only for `simulate`. The parser's choices come from the
package's own tuples, so building it imports no library module. The
parser is built once per process, and `main` looks each `cmd_*`
function up by command name when it runs.
"""

import argparse
import sys
from functools import cache
from itertools import chain

from . import _N_MAX_LIMIT, DIM_LIMIT, DISTRIBUTIONS, METHODS, SUITES, __version__
from .determinants import (
    delta_det_closed,
    det_bareiss,
    det_c_matrix,
    det_min_matrix,
    theta_det_closed,
)
from .matrices import (
    build_c_matrix,
    build_delta_matrix,
    build_min_matrix,
    build_theta_matrix,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _metadata(seed=None):
    meta = {"version": __version__}
    if seed is not None:
        meta["seed"] = seed
    return meta


# What a payload holds in place of its one big array, which _emit writes
# row by row. No string that a command puts in a payload holds a NUL.
_ARRAY = "\0array"


def _emit(args, payload, header, rows, lines, seed=None, notes=(), csv_tail=(), array=()):
    """Print the output --format selects: the JSON document of what the
    function payload returns, the CSV table of header and rows followed by
    the csv_tail lines, or the plain lines with each note on stderr. Only
    the selected format is made: rows, lines and array are iterables read
    once.

    json.dumps(..., indent=2) makes the document. A payload whose value at
    its top level is _ARRAY gets the rows of array there instead, each an
    iterable of its entries' JSON text, in the layout that indent=2 gives at
    that depth: rows indented by 6 spaces, entries by 8, one to a line. Each
    row is written before the next is made, so the text of a 2**24-entry
    array is never held at once."""
    if args.format == "json":
        import json

        document = json.dumps({"payload": payload(), "metadata": _metadata(seed)}, indent=2)
        head, found, tail = document.partition(json.dumps(_ARRAY))
        write = sys.stdout.write
        write(head)
        if found:
            write("[")
            separator = "\n      "
            for row in array:
                write(separator + "[\n        " + ",\n        ".join(row) + "\n      ]")
                separator = ",\n      "
            write("\n    ]")
        write(tail + "\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        for line in csv_tail:
            print(line)
    else:
        for line in lines:
            print(line)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)


# Most digits --inc may hold in total. The dimension is bounded by
# DIM_LIMIT and each increment by the caller's digit limit, but the
# closed form, the elimination and printing the result all cost about the
# square of the total. `det delta --method both` took 0.76-0.79 s and
# 221-222 MB at 4000 increments of 25 digits, 0.30-0.31 s and 15 MB at 25
# of 4000 (delta and theta), and 3.1 s and 370 MB at 4096 of 64 digits,
# past the limit (in process, one pinned CPU, Python 3.11). A single
# argument of a process is at most 128 KiB on Linux, so the limit is below
# what a shell can pass.
_INC_DIGITS_LIMIT = 100_000


def _parse_increments(text):
    """The increments of --inc, parsed under the current limit on converting
    a decimal string to an int, once their digits in total are within
    _INC_DIGITS_LIMIT."""
    if text.strip() == "":
        return []
    digits = sum(map(str.isdigit, text))
    if digits > _INC_DIGITS_LIMIT:
        raise ValueError(
            f"--inc has {digits} digits in total, above the limit of {_INC_DIGITS_LIMIT}: "
            "the closed form, the elimination and the printed result cost about its square"
        )
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        parts = [part.strip().lstrip("+-") for part in text.split(",")]
        limit = sys.get_int_max_str_digits()
        digits = max(map(len, parts))
        if limit and digits > limit and all(map(str.isdigit, parts)):
            raise ValueError(
                f"--inc has an increment of {digits} digits, above the limit of {limit} on "
                "converting a decimal string to an int (sys.set_int_max_str_digits)"
            )
        raise ValueError(f"increment list must be comma-separated integers, got {text!r}")


# Each matrix kind: the options it needs, its dimension, its builder and its
# closed-form determinant. The lambdas look the layer functions up when
# called, so a function patched into this module's globals is the one that
# runs. A k that the builder refuses counts as 1 in the dimension of c.
_KINDS = {
    "min": (("n",), lambda a: a.n, lambda a: build_min_matrix(a.n), lambda a: det_min_matrix(a.n)),
    "c": (
        ("n", "k"),
        lambda a: a.n - max(a.k, 1) + 1,
        lambda a: build_c_matrix(a.n, a.k),
        lambda a: det_c_matrix(a.n, a.k),
    ),
    "delta": (
        ("inc",),
        lambda a: len(a.inc),
        lambda a: build_delta_matrix(a.inc),
        lambda a: delta_det_closed(a.inc),
    ),
    "theta": (
        ("inc",),
        lambda a: len(a.inc) - 1,
        lambda a: build_theta_matrix(a.inc),
        lambda a: theta_det_closed(a.inc),
    ),
}


def _kind(args):
    """The builder and closed-form determinant of args.kind, once every
    option the kind needs is given and no other. The builder refuses a
    dimension above DIM_LIMIT before it allocates anything."""
    options, dim, build, closed = _KINDS[args.kind]
    if any(getattr(args, name) is None for name in options):
        needed = " and ".join(f"--{name}" for name in options)
        raise ValueError(f"{args.command} {args.kind} requires {needed}")
    for name in ("n", "k", "inc"):
        if name not in options and getattr(args, name) is not None:
            raise ValueError(f"{args.command} {args.kind} does not take --{name}")

    def build_dense(args):
        size = dim(args)
        if size > DIM_LIMIT:
            option = "--inc" if "inc" in options else f"--n {args.n}"
            raise ValueError(
                f"{option} gives dimension {size}, above {DIM_LIMIT}: "
                f"{args.command} builds the dense {args.kind} matrix"
            )
        return build(args)

    return build_dense, closed


def cmd_matrix(args):
    build, _ = _kind(args)
    matrix = build(args)
    rows = matrix._rows
    _emit(
        args,
        lambda: {
            "kind": args.kind,
            "dim": matrix.dim,
            "rows": _ARRAY,
        },
        [f"c{j}" for j in range(1, matrix.dim + 1)],
        rows,
        (" ".join(map(str, row)) for row in rows),
        array=([f'"{entry}"' for entry in row] for row in rows),
    )
    return EXIT_OK


def cmd_det(args):
    build, closed = _kind(args)
    values = {}
    if args.method in ("closed", "both"):
        values["closed"] = closed(args)
    if args.method in ("bareiss", "both"):
        values["bareiss"] = det_bareiss(build(args))
    agree = len(set(values.values())) == 1
    values = {name: str(v) for name, v in values.items()}
    lines = [f"{name}: {v}" for name, v in values.items()]
    if args.method == "both":
        lines.append("agree" if agree else "DISAGREE")
    _emit(
        args,
        lambda: {"kind": args.kind, "values": values, "agree": agree},
        ["method", "value"],
        values.items(),
        lines,
    )
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_symfun(args):
    from .symmetric import BRUTE_FORCE_CAP, BruteForceCapExceeded, _symfun_row, symfun

    if args.n < 0:
        raise ValueError(f"symfun requires --n >= 0, got {args.n}")
    # DIM_LIMIT is also the largest n, except for one k by the closed form:
    # every other method runs its columns of S(., j) down to row n (a fill
    # holds one column of n - k + 1 entries at a time, ratio makes n - k
    # steps), and --k all computes n + 1 values. At 4096 the slowest single
    # value, nested at k = 2048, takes about 5 s and --k all by ratio about
    # 12 s.
    if args.n > DIM_LIMIT and (args.k == "all" or args.method != "closed"):
        reason = (
            "symfun --k all computes n + 1 values" if args.k == "all"
            else f"symfun --method {args.method} runs down to row n; --method closed answers one k at any n"
        )
        raise ValueError(f"--n must be <= {DIM_LIMIT}, got {args.n}: {reason}")
    try:
        ks = range(args.n + 1) if args.k == "all" else [int(args.k)]
    except ValueError:
        raise ValueError(f"--k must be an integer or 'all', got {args.k!r}")
    # The closed form is C(n + k, n - k), and math.comb refuses one whose
    # smaller side, min(n - k, 2k), is past sys.maxsize.
    if args.k != "all" and min(args.n - ks[0], 2 * ks[0]) > sys.maxsize:
        raise ValueError(
            f"--k {ks[0]} with --n {args.n} gives C(n + k, n - k) with min(n - k, 2k) "
            f"above {sys.maxsize}, past math.comb's range"
        )
    methods = list(METHODS) if args.method == "all" else [args.method]
    columns = {}
    notes = []
    for method in methods:
        try:
            columns[method] = (
                _symfun_row(args.n, method) if args.k == "all" else [symfun(args.n, ks[0], method)]
            )
        except BruteForceCapExceeded:
            if args.method != "all":
                raise
            notes.append(f"minors skipped: n={args.n} above brute-force cap {BRUTE_FORCE_CAP}")
    rows = [(k, m, str(values[i])) for i, k in enumerate(ks) for m, values in columns.items()]
    disagreement = any(len(set(values)) > 1 for values in zip(*columns.values()))
    lines = [f"k={k} {m}: {v}" for k, m, v in rows]
    if disagreement:
        lines.append("DISAGREE")
    _emit(
        args,
        lambda: {
            "n": args.n,
            "values": [{"k": k, "method": m, "value": v} for k, m, v in rows],
            "agree": not disagreement,
            "notes": notes,
        },
        ["k", "method", "value"],
        rows,
        lines,
        notes=notes,
    )
    return EXIT_DISAGREE if disagreement else EXIT_OK


def cmd_verify(args):
    from .verification import run_suites

    results = run_suites(args.suite, args.n_max, seed=args.seed)
    all_passed = all(r.passed for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}" + (f" ({r.detail})" if r.detail else ""))
        lines.extend(f"       note: {note}" for note in r.notes)
    lines.append("all checks passed" if all_passed else "FAILURES PRESENT")
    _emit(
        args,
        lambda: {
            "suite": args.suite,
            "n_max": args.n_max,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "notes": r.notes}
                for r in results
            ],
            "all_passed": all_passed,
        },
        ["name", "passed", "detail"],
        ([r.name, "pass" if r.passed else "fail", r.detail] for r in results),
        lines,
        seed=args.seed,
    )
    return EXIT_OK if all_passed else EXIT_DISAGREE


def cmd_simulate(args):
    from .simulation import SimConfig, covariance_deviation, simulate_covariance

    cfg = SimConfig(
        n=args.n,
        m=args.m,
        sigma=args.sigma,
        seed=args.seed,
        dist=args.dist,
    )
    estimate = simulate_covariance(cfg)
    deviation = covariance_deviation(estimate)
    # A finite float's repr is its JSON text, and the estimate is finite.
    entries = (map(repr, row.tolist()) for row in estimate.matrix)
    _emit(
        args,
        lambda: {
            "n": cfg.n,
            "m": cfg.m,
            "sigma": cfg.sigma,
            "dist": cfg.dist,
            "chunks": cfg.chunks,
            "covariance": _ARRAY,
            "deviation": deviation,
        },
        [f"c{j}" for j in range(1, cfg.n + 1)],
        entries,
        chain(
            (" ".join(map("{:10.4f}".format, row.tolist())) for row in estimate.matrix),
            [f"deviation: {deviation:.6f}"],
        ),
        seed=cfg.seed,
        csv_tail=[f"# deviation,{deviation}"],
        array=entries,
    )
    return EXIT_OK


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="minmatrix",
        description="Exact arithmetic for the min(i, j) matrix family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("json", "csv", "plain"), default="plain",
        help="output format (default plain)",
    )
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("kind", choices=tuple(_KINDS))
    kind.add_argument("--n", type=int,
                      help="dimension of min; c has dimension n - k + 1. matrix and "
                           "det --method bareiss|both build the dense matrix, of "
                           f"dimension at most {DIM_LIMIT}")
    kind.add_argument("--k", type=int)
    kind.add_argument("--inc", help="comma-separated increments, e.g. 2,3,4")

    sub.add_parser("matrix", parents=[kind, output], help="construct and print a matrix")

    p_det = sub.add_parser("det", parents=[kind, output],
                           help="determinant by closed form and/or elimination")
    p_det.add_argument("--method", choices=("closed", "bareiss", "both"), default="closed")

    p_symfun = sub.add_parser("symfun", parents=[output],
                              help="symmetric functions of the eigenvalues")
    p_symfun.add_argument("--n", type=int, required=True,
                          help=f"dimension of the min matrix, at most {DIM_LIMIT}; any n >= 0 "
                               "for a single --k by --method closed")
    p_symfun.add_argument("--k", default="all", help="0..n or 'all'")
    p_symfun.add_argument("--method", choices=METHODS + ("all",), default="closed")

    p_verify = sub.add_parser("verify", parents=[output],
                              help="run the identity verification suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--n-max", type=int, default=12,
                          help=f"largest n of the checks, 0 to {_N_MAX_LIMIT}, so that --suite all "
                               "runs within about 60 s (default 12)")
    p_verify.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", parents=[output],
                           help="random-walk covariance estimation")
    p_sim.add_argument("--n", type=int, required=True, help=f"process length, 1 to {DIM_LIMIT}")
    p_sim.add_argument("--m", type=int, required=True,
                       help="sample paths, 2 to 268435456, with m * n**2 at most 2**34")
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dist", choices=DISTRIBUTIONS, default="gaussian")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # An exact result can be longer than Python's limit on converting an int
    # to a decimal string (4300 digits by default), so the command runs with
    # the limit lifted and the caller's limit is restored after it. The
    # integer options that argparse converted, and --inc, stay limited.
    digits = sys.get_int_max_str_digits()
    try:
        if getattr(args, "inc", None) is not None:
            args.inc = _parse_increments(args.inc)
        sys.set_int_max_str_digits(0)
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

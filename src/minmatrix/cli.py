"""Command-line interface: batch access to every module with
machine-readable output.

Exit codes: 0 success, 1 verification failure or cross-method
disagreement, 2 usage error, 3 internal error (any other exception,
reported as one line on stderr). Payloads go to stdout, diagnostics to
stderr. Big integers are rendered as full decimal strings in JSON and
CSV so downstream consumers never overflow.
"""

import argparse
import csv
import json
import sys
import time

from . import __version__
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
from .simulation import (
    DISTRIBUTIONS,
    SimConfig,
    covariance_deviation,
    simulate_covariance,
)
from .symmetric import (
    BRUTE_FORCE_CAP,
    METHODS,
    BruteForceCapExceeded,
    build_sym_table,
    symfun,
)
from .verification import SUITES, run_suites

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _metadata(seed=None):
    meta = {"version": __version__}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _emit_json(payload, seed=None):
    document = {"payload": payload, "metadata": _metadata(seed)}
    print(json.dumps(document, indent=2))


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _matrix_payload(kind, matrix):
    return {
        "kind": kind,
        "dim": matrix.dim,
        "rows": [[str(v) for v in row] for row in matrix.to_lists()],
    }


def _parse_increments(text, name="increment list"):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be comma-separated integers, got {text!r}")


def _build_matrix(kind, args):
    if kind == "min":
        if args.n is None:
            raise ValueError("matrix min requires --n")
        return build_min_matrix(args.n)
    if kind == "c":
        if args.n is None or args.k is None:
            raise ValueError("matrix c requires --n and --k")
        return build_c_matrix(args.n, args.k)
    if args.inc is None:
        raise ValueError(f"matrix {kind} requires --inc")
    inc = _parse_increments(args.inc)
    return build_delta_matrix(inc) if kind == "delta" else build_theta_matrix(inc)


def cmd_matrix(args):
    matrix = _build_matrix(args.kind, args)
    if args.format == "json":
        _emit_json(_matrix_payload(args.kind, matrix))
    elif args.format == "csv":
        _emit_csv(
            [f"c{j}" for j in range(1, matrix.dim + 1)],
            [[str(v) for v in row] for row in matrix.to_lists()],
        )
    else:
        for row in matrix.to_lists():
            print(" ".join(str(v) for v in row))
    return EXIT_OK


def _closed_det(kind, args):
    if kind == "min":
        if args.n is None:
            raise ValueError("det min requires --n")
        return det_min_matrix(args.n)
    if kind == "c":
        if args.n is None or args.k is None:
            raise ValueError("det c requires --n and --k")
        return det_c_matrix(args.n, args.k)
    if args.inc is None:
        raise ValueError(f"det {kind} requires --inc")
    inc = _parse_increments(args.inc)
    return delta_det_closed(inc) if kind == "delta" else theta_det_closed(inc)


def cmd_det(args):
    values = {}
    if args.method in ("closed", "both"):
        values["closed"] = _closed_det(args.kind, args)
    if args.method in ("bareiss", "both"):
        values["bareiss"] = det_bareiss(_build_matrix(args.kind, args))
    agree = len(set(values.values())) == 1
    payload = {
        "kind": args.kind,
        "values": {name: str(v) for name, v in values.items()},
        "agree": agree,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["method", "value"], [[name, str(v)] for name, v in values.items()])
    else:
        for name, v in values.items():
            print(f"{name}: {v}")
        if args.method == "both":
            print("agree" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_DISAGREE


def _symfun_values(n, ks, method):
    if len(ks) > 1:
        # One table gives every k; for a single k one call is far cheaper
        # than a table at large n.
        table = build_sym_table(n, method)
        return [table[n, k] for k in ks]
    return [symfun(n, k, method=method) for k in ks]


def cmd_symfun(args):
    ks = range(args.n + 1) if args.k == "all" else [int(args.k)]
    methods = list(METHODS) if args.method == "all" else [args.method]
    columns = {}
    notes = []
    for method in methods:
        try:
            columns[method] = _symfun_values(args.n, ks, method)
        except BruteForceCapExceeded:
            if args.method != "all":
                raise
            notes.append(f"minors skipped: n={args.n} above brute-force cap {BRUTE_FORCE_CAP}")
    rows = [(k, m, values[i]) for i, k in enumerate(ks) for m, values in columns.items()]
    disagreement = any(len(set(values)) > 1 for values in zip(*columns.values()))
    payload = {
        "n": args.n,
        "values": [{"k": k, "method": m, "value": str(v)} for k, m, v in rows],
        "agree": not disagreement,
        "notes": notes,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["k", "method", "value"], [[k, m, str(v)] for k, m, v in rows])
    else:
        for k, m, v in rows:
            print(f"k={k} {m}: {v}")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
        if disagreement:
            print("DISAGREE")
    return EXIT_DISAGREE if disagreement else EXIT_OK


def cmd_verify(args):
    results = run_suites([args.suite], args.n_max, seed=args.seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "suite": args.suite,
        "n_max": args.n_max,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "notes": r.notes}
            for r in results
        ],
        "all_passed": all_passed,
    }
    if args.format == "json":
        _emit_json(payload, seed=args.seed)
    elif args.format == "csv":
        _emit_csv(
            ["name", "passed", "detail"],
            [[r.name, "pass" if r.passed else "fail", r.detail] for r in results],
        )
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            line = f"[{status}] {r.name}"
            if r.detail:
                line += f" ({r.detail})"
            print(line)
            for note in r.notes:
                print(f"       note: {note}")
        print("all checks passed" if all_passed else "FAILURES PRESENT")
    return EXIT_OK if all_passed else EXIT_DISAGREE


def cmd_simulate(args):
    cfg = SimConfig(
        n=args.n,
        m=args.m,
        sigma=args.sigma,
        seed=args.seed,
        dist=args.dist,
        chunks=args.chunks,
    )
    estimate = simulate_covariance(cfg)
    deviation = covariance_deviation(estimate)
    payload = {
        "n": cfg.n,
        "m": cfg.m,
        "sigma": cfg.sigma,
        "dist": cfg.dist,
        "chunks": cfg.chunks,
        "covariance": [[float(v) for v in row] for row in estimate.matrix],
        "deviation": deviation,
    }
    if args.format == "json":
        _emit_json(payload, seed=cfg.seed)
    elif args.format == "csv":
        _emit_csv(
            [f"c{j}" for j in range(1, cfg.n + 1)],
            [[repr(float(v)) for v in row] for row in estimate.matrix],
        )
        print(f"# deviation,{deviation}")
    else:
        for row in estimate.matrix:
            print(" ".join(f"{v:10.4f}" for v in row))
        print(f"deviation: {deviation:.6f}")
    return EXIT_OK


_BENCH_METHODS = METHODS + ("bareiss",)


def cmd_bench(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in _BENCH_METHODS]
    if unknown:
        raise ValueError(f"unknown bench methods {unknown}; choose from {_BENCH_METHODS}")
    n_list = _parse_increments(args.n_list, "--n-list")
    k_list = _parse_increments(args.k_list, "--k-list") if args.k_list else None
    rows = []
    for n in n_list:
        ks = k_list if k_list is not None else [max(n // 2, 1)]
        for k in ks:
            if not 1 <= k <= n:
                raise ValueError(f"bench requires 1 <= k <= n, got n={n}, k={k}")
            for method in methods:
                start = time.perf_counter()
                if method == "bareiss":
                    value = det_bareiss(build_min_matrix(n))
                else:
                    value = symfun(n, k, method=method)
                elapsed = time.perf_counter() - start
                rows.append((n, k, method, elapsed, value))
    if args.format == "json":
        _emit_json(
            [
                {"n": n, "k": k, "method": m, "seconds": s, "value": str(v)}
                for n, k, m, s, v in rows
            ]
        )
    elif args.format == "csv":
        _emit_csv(
            ["n", "k", "method", "seconds", "value"],
            [[n, k, m, repr(s), str(v)] for n, k, m, s, v in rows],
        )
    else:
        for n, k, m, s, v in rows:
            print(f"n={n} k={k} {m}: {s:.6f}s value={v}")
    return EXIT_OK


def _add_format(parser):
    parser.add_argument(
        "--format", choices=("json", "csv", "plain"), default="plain",
        help="output format (default plain)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minmatrix",
        description="Exact arithmetic for the min(i, j) matrix family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="construct and print a matrix")
    p_matrix.add_argument("kind", choices=("min", "c", "delta", "theta"))
    p_matrix.add_argument("--n", type=int)
    p_matrix.add_argument("--k", type=int)
    p_matrix.add_argument("--inc", help="comma-separated increments, e.g. 2,3,4")
    _add_format(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_det = sub.add_parser("det", help="determinant by closed form and/or elimination")
    p_det.add_argument("kind", choices=("min", "c", "delta", "theta"))
    p_det.add_argument("--n", type=int)
    p_det.add_argument("--k", type=int)
    p_det.add_argument("--inc")
    p_det.add_argument("--method", choices=("closed", "bareiss", "both"), default="closed")
    _add_format(p_det)
    p_det.set_defaults(func=cmd_det)

    p_symfun = sub.add_parser("symfun", help="symmetric functions of the eigenvalues")
    p_symfun.add_argument("--n", type=int, required=True)
    p_symfun.add_argument("--k", default="all", help="0..n or 'all'")
    p_symfun.add_argument("--method", choices=METHODS + ("all",), default="closed")
    _add_format(p_symfun)
    p_symfun.set_defaults(func=cmd_symfun)

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--seed", type=int, default=0)
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="random-walk covariance estimation")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dist", choices=DISTRIBUTIONS, default="gaussian")
    p_sim.add_argument("--chunks", type=int, default=8)
    _add_format(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="time the computation methods")
    p_bench.add_argument("--n-list", required=True)
    p_bench.add_argument("--k-list")
    p_bench.add_argument("--methods", default="closed,rec7,ratio")
    _add_format(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

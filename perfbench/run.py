"""Benchmark entry point.

    python3 perfbench/run.py --workload det_structured --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The workload itself runs in a
fresh worker process that imports minmatrix from ``src``. This process
uses the standard library only: it times the worker's set-up, fresh CLI
processes (cold start) and ``python -X importtime``, then prints one JSON
line with ``correct``, ``attempted``, ``failed`` and the metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. With ``--workload all`` it runs every workload that
BENCHMARK.json lists and prints one such line per workload, with the
workload's name added. Raw figures and spans go to ``perfbench/out``.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Every run must end well within the three minutes a run is allowed.
DEADLINE_S = 170
SETUP_PROBES = 5
COLD_STARTS = 9
IMPORTTIME_PROBES = 3

#: What the ``minmatrix`` console script runs.
CLI_STUB = "import sys; from minmatrix.cli import main; sys.exit(main())"
COLD_START_ARGS = ("det", "c", "--n", "40", "--k", "7", "--method", "both")
COLD_START_DET = 7


#: Calibrates the process-level timings: set-up, cold start and imports.
CAL = calib.Calibrator("startup")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread of load: numpy's BLAS (used by simulate) stays single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S} s")
    return left


def run_child(argv, deadline):
    try:
        return subprocess.run(
            argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1:3]} did not finish in time") from None


def start_worker(args, deadline, setup_only):
    """Start a worker and wait for READY. Return (process, set-up seconds)."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        argv += ["--trace-out", str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError(f"worker set-up failed for workload {args.workload!r}")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, setup_s


def finish_worker(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=remaining(deadline))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out.decode()


def calibrated_series(probe, count):
    """Call ``probe`` ``count`` times with a calibration sample before,
    between and after. Return the results and each call's scale."""
    samples = [CAL.sample_ms()]
    results = []
    for _ in range(count):
        results.append(probe())
        samples.append(CAL.sample_ms())
    return results, [CAL.scale(a, b) for a, b in zip(samples, samples[1:])]


def timed_child(argv, deadline):
    start = time.perf_counter()
    done = run_child(argv, deadline)
    return done, time.perf_counter() - start


def setup_seconds(args, deadline):
    """Scaled set-up times of fresh workers that stop once their inputs are ready."""

    def probe():
        proc, setup_s = start_worker(args, deadline, setup_only=True)
        finish_worker(proc, deadline)
        return setup_s

    times, scales = calibrated_series(probe, SETUP_PROBES)
    return [t * scale for t, scale in zip(times, scales)]


def cold_start_ms(deadline):
    """Scaled wall times of fresh ``minmatrix det`` processes, and whether
    every one of them printed the right determinant."""
    argv = [sys.executable, "-c", CLI_STUB, *COLD_START_ARGS]
    runs, scales = calibrated_series(lambda: timed_child(argv, deadline), COLD_STARTS)
    correct = all(
        done.returncode == 0 and checks.det_plain(done.stdout, COLD_START_DET) for done, _ in runs
    )
    return [t * 1e3 * scale for (_, t), scale in zip(runs, scales)], correct


def import_times_ms(deadline):
    """Scaled cumulative import times of minmatrix and of numpy, from
    ``python -X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import minmatrix"]
    runs, scales = calibrated_series(lambda: run_child(argv, deadline), IMPORTTIME_PROBES)
    samples = []
    for done, scale in zip(runs, scales):
        if done.returncode != 0:
            raise BenchError("import minmatrix failed")
        cumulative = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            name = name.strip()
            if cum.strip().isdigit() and name in ("minmatrix", "numpy"):
                cumulative[name] = max(cumulative.get(name, 0), int(cum) / 1e3 * scale)
        samples.append(cumulative)
    return {
        name: statistics.median(s.get(name, 0.0) for s in samples)
        for name in ("minmatrix", "numpy")
    }


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the
    11th-largest latency, and the percentile it stands for."""
    ranked = sorted(latencies)
    count = len(ranked)
    return ranked[count - 11], 100.0 * (count - 10) / count


def measure(args):
    """One workload run; return the result line as a dict."""
    deadline = time.monotonic() + DEADLINE_S
    imports = import_times_ms(deadline)
    setups, colds, cold_ok = [], [], True
    if not args.trace:
        setups = setup_seconds(args, deadline)
        colds, cold_ok = cold_start_ms(deadline)
    proc, _ = start_worker(args, deadline, setup_only=False)
    worker = json.loads(finish_worker(proc, deadline).splitlines()[-1])

    latencies = worker["scaled_ms"]
    attempted = len(latencies)
    failed = worker["failed"]
    tail_ms, tail_pct = tail(latencies)
    if args.trace:
        metrics = dict(worker["layers"])
        metrics["cli.import_ms"] = (imports["minmatrix"], "ms")
        metrics["cli.numpy_import_ms"] = (imports["numpy"], "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": ((attempted - failed) / (sum(latencies) / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
            "cold_start_ms": (statistics.median(colds), "ms"),
        }
    result = {
        "correct": worker["wrong"] == 0 and cold_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, tail_percentile=tail_pct, setup_s=setups,
               cold_start_ms=colds, import_ms=imports, worker=worker)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "minmatrix" / "__init__.py").is_file():
        print(f"error: no minmatrix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child, so a calibration sample and
    # the timing it scales see the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        try:
            print(json.dumps(measure(args)))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    # Every workload in turn, each in its own worker; one line per workload.
    status = 0
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        args.workload = workload["name"]
        try:
            print(json.dumps({"workload": args.workload, **measure(args)}), flush=True)
        except BenchError as exc:
            print(f"error: {args.workload}: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

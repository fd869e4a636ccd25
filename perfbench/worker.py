"""One workload process.

Set-up imports minmatrix from ``src`` and generates the seeded inputs,
then prints ``READY`` so the parent can time it. Unless ``--setup-only``
is given, the worker then warms up, runs the fixed list of operations
one at a time, and prints one JSON line with each operation's raw and
calibrated time (see ``calib``), the failure count, peak memory and,
with ``--trace 1``, the per-layer metrics.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import sys
import time

import calib

WARMUP_OPS = 3


def attempt(step):
    """Run one step. Return None if its checks passed, else a pair
    (kind, message): kind "wrong" for a wrong answer, "error" for an
    exception."""
    try:
        return None if step() else ("wrong", "wrong answer")
    except Exception as exc:  # a crash fails the operation, not the run
        return "error", f"{type(exc).__name__}: {exc}"


def run_op(steps, cal, before_ms):
    """Run one operation's steps, taking a calibration sample after each.

    Each step's time is scaled by the mean of the samples just before and
    just after it. Return the first error, the raw and the scaled time in
    ms, and the last sample.
    """
    error = None
    raw_ms = scaled_ms = 0.0
    for step in steps:
        start = time.perf_counter_ns()
        error = attempt(step) or error
        elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        after_ms = cal.sample_ms()
        raw_ms += elapsed_ms
        scaled_ms += elapsed_ms * cal.scale(before_ms, after_ms)
        before_ms = after_ms
    return error, raw_ms, scaled_ms, before_ms


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import minmatrix  # noqa: F401  (set-up cost: the package and numpy)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    for module in workload.modules:
        importlib.import_module(module)
    rng = random.Random(f"{args.workload}:{args.seed}")
    warmup = workload.inputs(rng, WARMUP_OPS)
    inputs = workload.inputs(rng, workload.op_count(args.seconds))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    note = lambda key, value: None  # noqa: E731
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
        note = tracer.add

    cal = calib.Calibrator(workload.kernel)
    before_ms = cal.sample_ms()
    for inp in warmup:
        before_ms = run_op(workload.steps(inp, note), cal, before_ms)[3]
    if tracer is not None:
        tracer.reset()
    gc.collect()

    failures = []
    raw_ms, scaled_ms = [], []
    for index, inp in enumerate(inputs):
        if tracer is not None:
            tracer.start_op()
        error, raw, scaled, before_ms = run_op(workload.steps(inp, note), cal, before_ms)
        if tracer is not None:
            tracer.end_op()
        raw_ms.append(raw)
        scaled_ms.append(scaled)
        if error:
            failures.append((error[0], f"op {index} on {str(inp)[:200]}: {error[1]}"))

    result = {
        "raw_ms": raw_ms,
        "scaled_ms": scaled_ms,
        "failed": len(failures),
        "wrong": sum(kind == "wrong" for kind, _ in failures),
        "failures": [message for _, message in failures[:10]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics([s / r for s, r in zip(scaled_ms, raw_ms)])
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

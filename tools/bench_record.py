"""Record this checkout's performance in ``BENCH_<sha>.json`` at the repo root.

    python3 tools/bench_record.py

Run from any directory; it measures the checkout it sits in. It runs

    python3 perfbench/run.py --workload all --seed S --seconds 15 --trace 0

for seeds 1 to 5, and one ``--trace 1`` run at seed 1, each as a
subprocess, and then times in fresh processes, over 5 rounds, the
end-to-end commands that the benchmark does not cover: ``minmatrix verify
--suite all --n-max 600``, the acceptance tests, the tier-1 run and
``import minmatrix``. The commands run pinned to one CPU, the highest one
this process may use, as ``perfbench/run.py`` pins itself, so that the
scheduler does not move them between cores mid-run.

The file holds the git sha, the Python, numpy and platform versions, the
CPU count, each workload's median and quartiles of every end-to-end metric
over the seeds, the traced run's per-layer metrics, and per command the
wall time's median and quartiles. Raw per-operation data stays in the
git-ignored ``perfbench/out/``.

It takes about 3-5 minutes on a 2-vCPU x86-64 host, more than half of it
five rounds of the commands, most of those the tier-1 run. Compare two
files only when they were recorded on one machine.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (1, 2, 3, 4, 5)
SECONDS = 15
ROUNDS = 5

#: The end-to-end commands, each timed in a fresh process, in seconds.
COMMANDS = {
    "verify_all_n600_s": ["-m", "minmatrix.cli", "verify", "--suite", "all", "--n-max", "600"],
    "acceptance_s": ["-m", "pytest", "-q", "tests/test_acceptance.py"],
    "tier1_s": ["-m", "pytest", "-q", "--continue-on-collection-errors"],
    "import_minmatrix_s": ["-c", "import minmatrix"],
}


def env():
    """The environment of the tier-1 run: the checkout's ``src`` first."""
    child = dict(os.environ)
    src = str(ROOT / "src")
    child["PYTHONPATH"] = src + (os.pathsep + child["PYTHONPATH"] if child.get("PYTHONPATH") else "")
    return child


def git_sha():
    return subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def versions():
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    )
    return {
        "python": platform.python_version(),
        "numpy": probe.stdout.strip() if probe.returncode == 0 else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
    }


def bench(seed, trace):
    """One ``perfbench/run.py --workload all`` run: its result line per workload."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {line.pop("workload"): line for line in lines}


def summary(values):
    """Median and quartiles, inclusive, of one metric's values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def end_to_end(runs):
    """Per workload: each end-to-end metric summarised over the seeds, and
    the operation counts summed."""
    workloads = {}
    for name in runs[0]:
        lines = [run[name] for run in runs]
        metrics = {
            metric: dict(summary([line["metrics"][metric]["value"] for line in lines]), unit=unit)
            for metric, unit in ((m, v["unit"]) for m, v in lines[0]["metrics"].items())
        }
        workloads[name] = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": metrics,
        }
    return workloads


def commands():
    """Each command's wall time over ROUNDS rounds, the commands taken in
    turn within a round. A command that fails is recorded as failed."""
    # One CPU for this process and every child, inherited by each command.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    times = {name: [] for name in COMMANDS}
    failed = {name: 0 for name in COMMANDS}
    for _ in range(ROUNDS):
        for name, args in COMMANDS.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env(),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times[name].append(time.perf_counter() - start)
            failed[name] += done.returncode != 0
    return {name: dict(summary(times[name]), unit="s", failed=failed[name]) for name in COMMANDS}


def main():
    sha = git_sha()
    record = {"sha": sha, "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "versions": versions(), "seeds": list(SEEDS), "seconds": SECONDS}
    record["workloads"] = end_to_end([bench(seed, 0) for seed in SEEDS])
    record["per_layer"] = {
        name: {metric: v["value"] for metric, v in line["metrics"].items()}
        for name, line in bench(SEEDS[0], 1).items()
    }
    record["commands"] = commands()
    out = ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

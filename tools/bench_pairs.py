"""Compare this working tree's benchmark against a parent commit, in pairs.

    python3 tools/bench_pairs.py PARENT [--workload W] [--seeds 901-910]
    python3 tools/bench_pairs.py --trajectory

Run from any directory; it measures the checkout it sits in. It checks out
PARENT, and the working tree as ``git stash create`` records it (HEAD with
the uncommitted changes to tracked files, untracked files left out), each
with ``git worktree add`` under a temporary directory, from the local
repository, and removes both worktrees when it is done, so that both sides
run from a fresh checkout. For each seed in turn, one pair, it runs

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

once in each worktree, as ``tools/bench_record.py`` runs it: the parent
first in odd pairs and second in even ones, so that neither side always
runs on the warmer host. W is a workload name or ``all`` (the default), as
``perfbench/run.py`` takes it. At least two seeds are needed.

Per workload and end-to-end metric it then prints both sides' medians and
quartiles over the pairs, the change of the median in percent, in how many
pairs the change was better than the parent (lower, or higher for a metric
that BENCHMARK.json marks so; a tie counts for neither), and whether the two
medians differ by more than the parent's interquartile range. Every run's
result line goes to ``perfbench/out/pairs-<parent short sha>-<W>-seed<first
seed>.jsonl``, which git ignores. A workload's run takes 3-5 s on a 2-vCPU
x86-64 host (the benchmark fixes each workload's operation count from the
run length), so ten pairs of every workload take about 5 minutes.

``--trajectory`` runs nothing: it prints the committed ``BENCH_*.json``
records in commit order, one row per record, with each workload's median
``op_p50_ms``.

Standard library only.
"""

import argparse
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: tools/bench_record.py: its git, bench and summary (median and quartiles).
RECORD = runpy.run_path(str(ROOT / "tools" / "bench_record.py"), run_name="bench_record")
git = RECORD["git"]


def seed_list(text):
    """Seeds from "901-910", "1,3,5" or a mix of both."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def directions():
    """Metric name -> True when a higher value is better, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}


def summary(runs, higher_is_better=None):
    """Per workload and metric, the parent against the change over the pairs.

    runs holds one dict per run: its ``pair`` number, its ``side`` ("parent"
    or "change"), its ``workload`` and its ``metrics`` as perfbench/run.py
    prints them. A metric counts as lower-is-better unless higher_is_better
    names it True. A pair counts only when both of its runs measured the
    metric.
    """
    higher_is_better = higher_is_better or {}
    values = {}
    for run in runs:
        for metric, measured in run["metrics"].items():
            by_pair = values.setdefault(run["workload"], {}).setdefault(metric, {})
            by_pair.setdefault(run["pair"], {})[run["side"]] = measured["value"]
    result = {}
    for workload, metrics in values.items():
        for metric, by_pair in metrics.items():
            pairs = [(p["parent"], p["change"]) for p in by_pair.values() if len(p) == 2]
            if len(pairs) < 2:
                continue
            parent = RECORD["summary"]([a for a, _ in pairs])
            change = RECORD["summary"]([b for _, b in pairs])
            higher = higher_is_better.get(metric, False)
            result.setdefault(workload, {})[metric] = {
                "parent": parent,
                "change": change,
                "change_pct": 100.0 * (change["median"] - parent["median"]) / parent["median"],
                "wins": sum((b > a) if higher else (b < a) for a, b in pairs),
                "pairs": len(pairs),
                "beyond_iqr": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            }
    return result


def print_summary(table):
    print(f"{'workload':<15} {'metric':<14} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'better':>7}  beyond IQR")
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            sides = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                     for s in (row["parent"], row["change"])]
            pct = f"{row['change_pct']:+.1f} %"
            print(f"{workload:<15} {metric:<14} {sides[0]:>30} {sides[1]:>30} {pct:>8} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {'yes' if row['beyond_iqr'] else 'no'}")


def pairs(parent, workload, seeds):
    """Every run of the pairs, each side checked out in a temporary worktree."""
    shas = {"parent": git("rev-parse", "--short", parent),
            "change": git("rev-parse", "--short", git("stash", "create") or "HEAD")}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in shas}
        try:
            for side, tree in trees.items():
                git("worktree", "add", "--detach", str(tree), shas[side])
            for number, seed in enumerate(seeds, start=1):
                sides = list(trees) if number % 2 else list(trees)[::-1]
                for side in sides:
                    for name, line in RECORD["bench"](seed, 0, workload, trees[side]).items():
                        runs.append(dict(line, workload=name, pair=number, seed=seed, side=side))
                    print(f"pair {number} (seed {seed}): {side} done", file=sys.stderr)
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
    return shas, runs


def trajectory():
    """The committed records in commit order, one row per record."""
    order = {sha: i for i, sha in enumerate(git("rev-list", "--reverse", "HEAD").split())}

    def position(record):
        found = [i for sha, i in order.items() if sha.startswith(record["sha"])]
        return (found[0] if found else len(order), record["recorded"])

    records = sorted((json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")), key=position)
    workloads = sorted({w for record in records for w in record["workloads"]})
    print("op_p50_ms medians")
    print(f"{'sha':<9} {'recorded':<21}" + "".join(f" {w:>15}" for w in workloads))
    for record in records:
        cells = []
        for w in workloads:
            value = record["workloads"].get(w, {}).get("metrics", {}).get("op_p50_ms")
            cells.append(f" {value['median']:>15.4g}" if value else f" {'-':>15}")
        print(f"{record['sha']:<9} {record['recorded']:<21}" + "".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", help="the commit to compare against")
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="one pair per seed, at least two, e.g. 901-910 or 1,2,5 "
                             "(default 1-10)")
    parser.add_argument("--trajectory", action="store_true",
                        help="print the committed BENCH_*.json records instead")
    args = parser.parse_args()
    if args.trajectory:
        trajectory()
        return 0
    if not args.parent:
        parser.error("PARENT is required unless --trajectory is given")
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    shas, runs = pairs(args.parent, args.workload, args.seeds)
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"pairs-{shas['parent']}-{args.workload}-seed{args.seeds[0]}.jsonl"
    raw.write_text("".join(json.dumps(run) + "\n" for run in runs))
    bad = [run for run in runs if run["correct"] is not True or run["failed"]]
    for run in bad:
        print(f"pair {run['pair']} {run['side']} {run['workload']}: correct {run['correct']}, "
              f"failed {run['failed']}", file=sys.stderr)
    print(f"python3 tools/bench_pairs.py {' '.join(sys.argv[1:])}")
    print(f"parent {shas['parent']} against the working tree as {shas['change']}, "
          f"{len(args.seeds)} pairs, seeds "
          f"{','.join(map(str, args.seeds))}, raw runs in {raw.relative_to(ROOT)}")
    print_summary(summary(runs, directions()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

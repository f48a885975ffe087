"""Run the benchmark on two trees in alternating pairs and compare them.

Usage (from anywhere):

    python3 tools/benchpairs.py PARENT CHANGE [--pairs N] [--workload W ...]
                                [--seed S] [--json FILE]

PARENT and CHANGE are two checkouts of the repository.  For each pair
p = 0..N-1 (default 10) and each workload (default: every workload in
PARENT's BENCHMARK.json; --workload repeats), both trees run

    python3 perfbench/run.py --workload W --seed S+p --seconds T --trace 0

from their own root, T being BENCHMARK.json's run_seconds; the parent runs
first on even pairs and the change first on odd ones.  For each workload
and end-to-end metric the report gives both medians and the change in %,
the pairs in which the change is better (a tie counts for neither side),
the parent's interquartile range as a % of its median, and WORSE when the
change's median is worse than the parent's by more than the metric's
bound.  --json FILE also writes every run's metrics and the summary.

The benchmark's peak_rss_mib moves with the checkout's directory name, so
a warning is printed when the two trees' absolute paths differ in length.
Exit status: 1 when a run fails or is not `correct: true`, or a metric is
WORSE; else 0.  Standard library only; nothing in either tree is changed
apart from what perfbench/run.py itself writes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench/run.py run in tree: {"correct", "metrics": {name: value}};
    correct is False, with the error text, when the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-2000:]}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": out["correct"] is True,
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def summarize(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """Compare one metric over (parent, change) pairs of metric dicts.
    metric is a BENCHMARK.json end_to_end entry: name, better ("lower" or
    "higher") and bound, a relative tolerance."""
    name, lower = metric["name"], metric["better"] == "lower"
    a = [p[name] for p, _ in pairs]
    b = [c[name] for _, c in pairs]
    pm, cm = statistics.median(a), statistics.median(b)
    rel = (cm - pm) / pm if pm else math.copysign(math.inf, cm) if cm else 0.0
    better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], a[0], a[0])
    iqr = q3 - q1
    return {
        "parent_median": pm,
        "change_median": cm,
        "rel": rel,
        "change_better_pairs": better,
        "pairs": len(pairs),
        "parent_iqr": iqr,
        "parent_iqr_rel": iqr / pm if pm else 0.0,
        "worse": rel > metric["bound"] if lower else -rel > metric["bound"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark two trees in alternating pairs")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        print(f"warning: the trees' paths differ in length ({trees['parent']}, "
              f"{trees['change']}); peak_rss_mib moves with the path", file=sys.stderr)
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    failed = False
    for p in range(args.pairs):
        seed = args.seed + p
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for w in workloads:
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                result = run_once(trees[side], w, seed, seconds)
                pair[side] = result
                if not result["correct"]:
                    failed = True
                    print(f"FAILED {side} {w} seed {seed}: {result.get('error', 'correct is not true')}",
                          file=sys.stderr)
            runs[w].append(pair)
            print(f"pair {p + 1}/{args.pairs} {w} seed {seed} done", file=sys.stderr)

    summary: dict[str, dict] = {}
    worse = False
    for w in workloads:
        pairs = [(r["parent"]["metrics"], r["change"]["metrics"]) for r in runs[w]
                 if r["parent"]["correct"] and r["change"]["correct"]]
        if not pairs:
            continue
        summary[w] = {}
        print(f"{w} ({len(pairs)} pairs)")
        for metric in bench["end_to_end"]:
            s = summary[w][metric["name"]] = summarize(pairs, metric)
            worse |= s["worse"]
            print(f"  {metric['name']:13s} {s['parent_median']:.6g} -> {s['change_median']:.6g} "
                  f"{metric['unit']}  {100 * s['rel']:+.1f}%  better {s['change_better_pairs']}/"
                  f"{s['pairs']}  parent IQR {100 * s['parent_iqr_rel']:.1f}%"
                  + ("  WORSE" if s["worse"] else ""))
    if args.json:
        args.json.write_text(json.dumps({
            "parent": str(trees["parent"]), "change": str(trees["change"]),
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "all_runs_correct": not failed,
            "end_to_end": summary, "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())

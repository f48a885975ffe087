"""gtsingular benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: homomorphism, module, sweeps, cli (see perfbench/context.json).
Each workload is a closed loop with one client.  A run is a sequence of
rounds; every round is a fresh process (perfbench/worker.py) that imports
gtsingular from ./src, sets up its inputs, runs its ops one after another
and checks every output against perfbench/reference.json.

Every round of a run has the same inputs.  --trace 0 reports the end-to-end
metrics wall_s, cpu_s, op_p50_ms, op_tail_ms, setup_s, peak_rss_mib and
ok_frac.  Op times are scaled to a fixed machine speed (see worker.py) and
each op's time is its median over the rounds; wall_s and cpu_s are sums of
those per-op medians.  --trace 1 runs one untraced round and two traced
rounds and reports the per-layer metrics of the traced rounds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts every op that did not give
the expected answer; `correct` is false when a failure is not one of the
known defects listed in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()

# Nominal length of one round on the reference machine (2-core Xeon,
# CPython 3.11.7).  A run makes max(MIN_ROUNDS, seconds // nominal) rounds,
# so the number of rounds, and with it the inputs, depend only on the
# arguments, never on how fast a run happens to go.
NOMINAL_ROUND_S = {"homomorphism": 5, "module": 7, "sweeps": 4, "cli": 8}
MIN_ROUNDS = 4
SETUP_PROBES = 5
TRACE_TOLERANCE = 0.01  # self times must add up to the traced wall time


class BenchError(RuntimeError):
    pass


def spawn_round(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps dict and set iteration orders, and with them
    # the exact work done, the same from round to round
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175, env=env)
    if proc.returncode != 0:
        raise BenchError(f"a round of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def outcome(rounds: list[dict]) -> dict:
    known: dict[str, int] = {}
    for r in rounds:
        for name, count in r["known_defects"].items():
            known[name] = known.get(name, 0) + count
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "known_defects": known,
        "unexpected": [u for r in rounds for u in r["unexpected"]],
    }


def end_to_end(rounds: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    n_ops = len(rounds[0]["ops"])
    if any(len(r["ops"]) != n_ops for r in rounds):
        raise BenchError("rounds of one run disagree on their number of ops")
    walls = [statistics.median(r["ops"][i][0] for r in rounds) for i in range(n_ops)]
    cpus = [statistics.median(r["ops"][i][1] for r in rounds) for i in range(n_ops)]
    raw = [statistics.median(r["ops"][i][2] for r in rounds) for i in range(n_ops)]
    tail_s, percentile = tail(walls)
    failed_frac = sum(r["failed"] for r in rounds) / sum(r["attempted"] for r in rounds)
    values = {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        "ok_frac": 1.0 - failed_frac,
    }
    detail = {
        "rounds": len(rounds),
        "ops_per_round": n_ops,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": min(10, n_ops - 1),
        "raw_wall_s": sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "setup_samples": len(setups),
        "failed_frac": failed_frac,
    }
    return values, detail


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, dict]:
    runs = [r["trace"] for r in traced]
    calls = [{name: s[0] for name, s in t["stats"].items()} for t in runs]
    if any(c != calls[0] for c in calls[1:]):
        diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
        raise BenchError(f"traced rounds disagree on call counts: {diff}")
    if any(t["counts"] != runs[0]["counts"] for t in runs[1:]):
        raise BenchError("traced rounds disagree on counters")
    selfsum_err = max(t["selfsum_err"] for t in runs)
    if selfsum_err > TRACE_TOLERANCE:
        raise BenchError(f"self times miss the traced wall time by {selfsum_err:.2%}")
    traced_wall = statistics.median(r["raw_wall_s"] for r in traced)
    samples = []
    for t in runs:
        cli = t["cli"]
        samples.append(tracing.layer_metrics(t["stats"], t["counts"], {
            "cli.import_s": cli.get("import_s", 0.0),
            "cli.main_s": cli.get("main_s", 0.0),
            "trace.selfsum_err_frac": t["selfsum_err"],
        }))
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_frac"] = traced_wall / untraced["raw_wall_s"] - 1.0
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced["raw_wall_s"]}
    return values, detail


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
    }


def commit_id(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else ref
    return ref


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gtsingular benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gtsingular" / "__init__.py").is_file():
        print("error: run from the repository root (src/gtsingular not found)",
              file=sys.stderr)
        return 2
    context = load_json(BENCH_DIR / "context.json")
    metrics = load_json(ROOT / "BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    try:
        if args.trace:
            untraced = spawn_round(args.workload, args.seed, False)
            traced = [spawn_round(args.workload, args.seed, True) for _ in range(2)]
            rounds = [untraced, *traced]
            values, detail = per_layer(untraced, traced)
        else:
            count = max(MIN_ROUNDS, args.seconds // int(NOMINAL_ROUND_S[args.workload]))
            rounds = [spawn_round(args.workload, args.seed, False) for _ in range(count)]
            setups = rounds + [spawn_round(args.workload, args.seed, False, setup_only=True)
                               for _ in range(SETUP_PROBES)]
            values, detail = end_to_end(rounds, setups)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    totals = outcome(rounds)
    wl = context["workloads"][args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {totals['attempted']} ops, {totals['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    for defect, count in totals["known_defects"].items():
        print(f"  known defect {defect}: {count} ops")
    for line in totals["unexpected"]:
        print(f"  UNEXPECTED FAILURE {line}")
    print(json.dumps({"context": {"workload": args.workload, "seed": args.seed,
                                  "seed_use": wl["seed"], "why": wl["why"],
                                  "ops_per_round": wl["ops_per_round"],
                                  "machine": machine(), "commit": commit_id(ROOT),
                                  "run": detail, "known_defects": totals["known_defects"]}}))
    print(json.dumps({
        "correct": not totals["unexpected"],
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

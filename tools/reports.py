"""Run the pinned heavy checks, each in a fresh process, and compare digests.

Usage (from the repository root): python3 tools/reports.py [--runs N] [CHECK ...]

The checks are `verify_homomorphism(4)`, the all-16 order-4 `module_suite`
and the order-4 `appendix_suite` at (3,1,2) on the point of
`fixtures/point_n4_3_1_2.json`, the all-25 order-5 `module_suite` and the
order-5 `appendix_suite` at (2,1,2) on `fixtures/point_n5_2_1_2.json`,
`images6`: the 36 order-6 generator images built and each one's
invariance under the transposition at (2,1,2) on
`fixtures/point_n6_2_1_2.json` decided (`images_report`), and `corner6`:
the order-6 `module_suite` at (2,1,2) on that point over the corner set
E(1,6), E(6,1), E(5,6), E(6,5), E(2,2); with no CHECK named, all seven
run.  The tests read the same files (`tests_helpers.ROW3_POINT`,
`ORDER5_POINT`, `ORDER6_POINT`).
Each runs in its own interpreter, so no memo of one serves another.  For
each, one line gives passed/total, the seconds the check took (imports and
point setup aside), the process's peak RSS and the first 12 hex digits of
the sha256 of json.dumps(report, sort_keys=True).  --runs N (default 1)
runs each check in N fresh processes, one after another; the line then
gives the median seconds with the [min-max] range, and the largest peak
RSS.  Exit status: 2 for an unknown CHECK or a bad N, 1 when a check
fails, crashes, its runs' digests disagree or its digest differs from the
pinned one, else 0.
Besides the package it uses the standard library only.  All seven took
45 s in one run on a loaded shared 2-core machine (CPython 3.11.7), 18 s
of it `corner6`; the six others took about 15 s in all on a quieter run.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha256[:12] of each report, unchanged since the outputs were pinned
PINNED = {
    "homomorphism4": "0876dac83f0f",
    "module4": "e8090b8c7e8b",
    "appendix4": "c0eef2acbd0f",
    "module5": "913f7b24cc0f",
    "appendix5": "09afd5528a20",
    "images6": "54ac138a7222",
    "corner6": "38d33d1e28fd",
}

# the order-6 corner set: the generators that join the first and last rows,
# the last two rows, and one diagonal
CORNER6 = [(1, 6), (6, 1), (5, 6), (6, 5), (2, 2)]


def images_report(ctx, n: int) -> dict:
    """The images of every E(r,s) of order n, each built and checked for
    invariance under ctx's transposition, in the usual report shape."""
    from gtsingular.gtformulas import all_generators, phi_general
    from gtsingular.skewring import is_tau_invariant

    checks = []
    for r, s in all_generators(n):
        image = phi_general(n, r, s)
        checks.append({"generator": [r, s], "terms": len(image.terms),
                       "invariant": is_tau_invariant(ctx, image)})
    passed = sum(c["invariant"] for c in checks)
    return {"suite": "images", "n": n, "total": len(checks), "passed": passed, "checks": checks}


def run_check(name: str) -> dict:
    """Run one check in this process: its report, seconds and peak RSS."""
    sys.path[:0] = [str(ROOT / "src")]
    from gtsingular.gtformulas import all_generators, verify_homomorphism
    from gtsingular.suites import appendix_suite, module_suite
    from gtsingular.tableau import Point, SingularContext

    ctx4, ctx5, ctx6 = (SingularContext(Point.load(ROOT / "fixtures" / f"point_{stem}.json"))
                        for stem in ("n4_3_1_2", "n5_2_1_2", "n6_2_1_2"))
    check = {
        "homomorphism4": lambda: verify_homomorphism(4),
        "module4": lambda: module_suite(ctx4, generators=all_generators(4)),
        "appendix4": lambda: appendix_suite(ctx4),
        "module5": lambda: module_suite(ctx5, generators=all_generators(5)),
        "appendix5": lambda: appendix_suite(ctx5),
        "images6": lambda: images_report(ctx6, 6),
        "corner6": lambda: module_suite(ctx6, generators=CORNER6),
    }[name]
    start = time.perf_counter()
    report = check()
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"report": report, "seconds": seconds, "peak_rss_mib": rss}


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:12]


def summarize(runs: list[dict]) -> dict:
    """One check's runs, each as `run_check` returns it, summed up: the
    fewest checks passed and the total, the median, least and most seconds,
    the largest peak RSS and the distinct digests in the order first seen."""
    seconds = [r["seconds"] for r in runs]
    return {
        "passed": min(r["report"]["passed"] for r in runs),
        "total": runs[0]["report"]["total"],
        "seconds": statistics.median(seconds),
        "min_s": min(seconds),
        "max_s": max(seconds),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
        "digests": list(dict.fromkeys(digest(r["report"]) for r in runs)),
    }


def verdict(name: str, s: dict) -> str:
    """"ok", or what is wrong with a check's summary."""
    if s["passed"] != s["total"]:
        return "FAILED"
    if len(s["digests"]) > 1:
        return "DISAGREE: " + " ".join(s["digests"])
    if s["digests"][0] != PINNED[name]:
        return f"DIFFERS from {PINNED[name]}"
    return "ok"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="run the pinned heavy checks")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("checks", nargs="*", metavar="CHECK")
    args = parser.parse_args(argv)
    unknown = [name for name in args.checks if name not in PINNED]
    if unknown:
        print(f"unknown check {unknown[0]!r}; choose from {', '.join(PINNED)}", file=sys.stderr)
        return 2
    if args.runs < 1:
        print(f"--runs must be at least 1, got {args.runs}", file=sys.stderr)
        return 2
    status = 0
    for name in args.checks or PINNED:
        runs = []
        for _ in range(args.runs):
            proc = subprocess.run(
                [sys.executable, __file__, "--child", name], capture_output=True, text=True
            )
            if proc.returncode != 0:
                print(f"{name:14} crashed (exit {proc.returncode}): {proc.stderr.strip()}")
                break
            runs.append(json.loads(proc.stdout))
        if len(runs) < args.runs:
            status = 1
            continue
        s = summarize(runs)
        result = verdict(name, s)
        if result != "ok":
            status = 1
        spread = f" [{s['min_s']:.2f}-{s['max_s']:.2f}]" if args.runs > 1 else ""
        print(f"{name:14} {s['passed']:>5}/{s['total']:<5} {s['seconds']:7.2f} s{spread} "
              f"{s['peak_rss_mib']:6.0f} MiB  {s['digests'][0]}  {result}")
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_check(sys.argv[2])))
    else:
        sys.exit(main(sys.argv[1:]))

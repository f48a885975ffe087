"""tools/reports.py's summary of a check's repeated runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reports.py"
spec = importlib.util.spec_from_file_location("_reports", TOOL)
reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reports)


def run(seconds, rss, passed=3, total=3, extra=None):
    report = {"passed": passed, "total": total, "failures": extra or []}
    return {"report": report, "seconds": seconds, "peak_rss_mib": rss}


def test_median_range_and_largest_rss():
    s = reports.summarize([run(3.0, 180.0), run(2.5, 190.5), run(4.0, 185.0)])
    assert (s["seconds"], s["min_s"], s["max_s"]) == (3.0, 2.5, 4.0)
    assert s["peak_rss_mib"] == 190.5
    assert (s["passed"], s["total"]) == (3, 3)
    assert s["digests"] == [reports.digest(run(0, 0)["report"])]
    # an even count takes the mean of the middle two
    assert reports.summarize([run(1.0, 1), run(2.0, 1)])["seconds"] == 1.5


def test_verdicts():
    name = "module5"
    same = reports.summarize([run(1.0, 1), run(2.0, 1)])
    assert reports.verdict(name, same) == f"DIFFERS from {reports.PINNED[name]}"
    same["digests"] = [reports.PINNED[name]]
    assert reports.verdict(name, same) == "ok"
    # one run saw a different report: the digests disagree, in the order seen
    mixed = reports.summarize([run(1.0, 1), run(1.0, 1, extra=["x"]), run(1.0, 1)])
    assert len(mixed["digests"]) == 2
    assert reports.verdict(name, mixed) == "DISAGREE: " + " ".join(mixed["digests"])
    # a run with a failed check fails the summary, whatever the digests
    failed = reports.summarize([run(1.0, 1), run(1.0, 1, passed=2)])
    assert failed["passed"] == 2 and reports.verdict(name, failed) == "FAILED"


def test_a_check_runs_without_the_test_extras():
    """A `--child images6` run reads its point from fixtures/ and imports
    the package and the standard library only: sympy is not loaded."""
    code = (
        "import runpy, sys\n"
        "sys.argv = [sys.argv[0], '--child', 'images6']\n"
        f"runpy.run_path({str(TOOL)!r}, run_name='__main__')\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report, loaded = proc.stdout.splitlines()
    assert json.loads(report)["report"]["passed"] == 36
    assert loaded == "False"

"""tools/benchpairs.py's summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("_benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.2}
OK = {"name": "ok_frac", "better": "higher", "bound": 0.01}


def pairs(parent, change, name):
    return [({name: a}, {name: b}) for a, b in zip(parent, change)]


def test_medians_ties_and_spread():
    s = benchpairs.summarize(pairs([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 2.0], "wall_s"), WALL)
    assert s["parent_median"] == 2.5 and s["change_median"] == 1.75
    assert s["rel"] == pytest.approx(-0.3)
    # the first pair is a tie and counts for neither side
    assert s["change_better_pairs"] == 2 and s["pairs"] == 4
    # quartiles of 1..4 by the exclusive method: 1.25 and 3.75
    assert s["parent_iqr"] == pytest.approx(2.5)
    assert s["parent_iqr_rel"] == pytest.approx(1.0)
    assert not s["worse"]


@pytest.mark.parametrize("change, worse", [(1.19, False), (1.21, True), (0.5, False)])
def test_worse_only_past_the_bound_of_a_lower_is_better_metric(change, worse):
    s = benchpairs.summarize(pairs([1.0] * 3, [change] * 3, "wall_s"), WALL)
    assert s["worse"] is worse


@pytest.mark.parametrize("change, worse", [(0.995, False), (0.98, True), (1.0, False)])
def test_worse_only_past_the_bound_of_a_higher_is_better_metric(change, worse):
    s = benchpairs.summarize(pairs([1.0] * 3, [change] * 3, "ok_frac"), OK)
    assert s["worse"] is worse
    assert s["change_better_pairs"] == 0

"""Tests for the bound flags of ``tools/bench_pairs.py``, on hand-built pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "wall_s": {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    "rate": {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
}


def pairs_of(parent, change):
    """One pair per position, each side's record holding every metric."""
    return [{"seed": i, "first": "parent",
             "parent": {"wall_s": p, "rate": p}, "change": {"wall_s": c, "rate": c}}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_bound_comes_from_benchmark_json():
    metrics = bench_pairs._end_to_end(TOOL.parents[1])
    assert all("bound" in entry and "better" in entry for entry in metrics.values())


def test_tight_equal_runs_raise_no_flag():
    summary = bench_pairs.summarize(pairs_of([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.0]),
                                    METRICS)
    for entry in summary.values():
        assert not entry["worse_beyond_bound"] and not entry["unresolved"]


@pytest.mark.parametrize("change, worse", [(1.26, True), (1.24, False)])
def test_worse_beyond_bound_lower_is_better(change, worse):
    """Parent median 1.0 and bound 25 %: a change median above 1.25 is flagged."""
    summary = bench_pairs.summarize(pairs_of([1.0] * 5, [change] * 5), METRICS)
    assert summary["wall_s"]["worse_beyond_bound"] is worse
    assert summary["wall_s"]["change_won"] == 0
    assert not summary["wall_s"]["unresolved"]


@pytest.mark.parametrize("change, worse", [(0.89, True), (0.91, False)])
def test_worse_beyond_bound_higher_is_better(change, worse):
    summary = bench_pairs.summarize(pairs_of([1.0] * 5, [change] * 5), METRICS)
    assert summary["rate"]["worse_beyond_bound"] is worse


def test_better_change_is_never_worse_beyond_bound():
    summary = bench_pairs.summarize(pairs_of([1.0] * 5, [0.5] * 5), METRICS)
    assert not summary["wall_s"]["worse_beyond_bound"]
    assert summary["wall_s"]["change_won"] == 5


def test_unresolved_when_parent_spread_exceeds_bound():
    """Parent quartiles 0.8 and 1.2 around a median of 1.0: the IQR is 40 %
    of the median, above the 25 % bound, whatever the change does."""
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    summary = bench_pairs.summarize(pairs_of(parent, [1.0] * 5), METRICS)
    assert summary["wall_s"]["parent"] == {"q1": 0.8, "median": 1.0, "q3": 1.2}
    assert summary["wall_s"]["unresolved"]
    assert not summary["wall_s"]["worse_beyond_bound"]
    narrow = bench_pairs.summarize(pairs_of([0.9, 0.95, 1.0, 1.05, 1.1], [1.0] * 5), METRICS)
    assert not narrow["wall_s"]["unresolved"]


def test_flags_are_printed():
    entry = {"worse_beyond_bound": True, "unresolved": True}
    assert bench_pairs._flags(entry) == "; worse beyond bound, unresolved"
    assert bench_pairs._flags({"worse_beyond_bound": False, "unresolved": False}) == ""

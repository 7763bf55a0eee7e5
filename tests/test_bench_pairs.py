"""Tests for ``tools/bench_pairs.py``: bound flags and digests on hand-built
pairs, its options, and one commit timed against itself."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
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
    metrics = bench_pairs._end_to_end(ROOT)
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


def test_pair_ratios_leave_out_seed_to_seed_spread():
    """Seeds spread the runs over 1.0-1.6 s, but each pair's two runs are
    equal: every change/parent ratio is 1, so the ratio IQR is 0."""
    parent = [1.0, 1.6, 1.1, 1.5, 1.2, 1.4, 1.3, 1.05, 1.55, 1.25]
    summary = bench_pairs.summarize(pairs_of(parent, parent), METRICS)
    entry = summary["wall_s"]
    assert entry["ratio"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert entry["ratio_iqr"] == 0.0
    assert entry["parent"]["q3"] - entry["parent"]["q1"] > 0.25
    slower = bench_pairs.summarize(pairs_of(parent, [1.1 * p for p in parent]), METRICS)
    assert slower["wall_s"]["ratio"]["median"] == pytest.approx(1.1)
    assert slower["wall_s"]["ratio_iqr"] == pytest.approx(0.0, abs=1e-12)


def test_flags_are_printed():
    entry = {"worse_beyond_bound": True, "unresolved": True}
    assert bench_pairs._flags(entry) == "; worse beyond bound, unresolved"
    assert bench_pairs._flags({"worse_beyond_bound": False, "unresolved": False}) == ""


def test_one_checkout_against_itself(tmp_path):
    """A copy committed in its own repository, timed against its HEAD."""
    repo, scratch, record = tmp_path / "repo", tmp_path / "tmp", tmp_path / "record.json"
    for name in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / name, repo / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    scratch.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"], ["rev-parse", "HEAD"]):
        head = subprocess.run(git + argv, cwd=repo, check=True, capture_output=True,
                              text=True).stdout.strip()
    before = sorted((repo / "perfbench").rglob("*"))
    proc = subprocess.run([sys.executable, repo / "tools" / "bench_pairs.py", "HEAD",
                           "--workload", "estimate-k", "--k-max", "2", "--seeds", "1",
                           "--json", record], env={**os.environ, "TMPDIR": str(scratch)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "estimate-k: 1 pairs, --k-max 2"
    commits = json.loads(record.read_text())["commits"]
    assert commits == {"parent": head, "change": head, "dirty": False}
    assert sorted((repo / "perfbench").rglob("*")) == before
    assert not any(scratch.iterdir())


def test_differing_digests_are_reported(monkeypatch, capsys, tmp_path):
    """Both sides' times are printed and the record is written, and then a
    digest that differs between two runs of one seed exits 1."""
    monkeypatch.setattr(bench_pairs, "_git", lambda *argv: "" if argv[0] == "status" else "c")
    monkeypatch.setattr(bench_pairs, "_export", lambda commit, dest: None)
    record = tmp_path / "record.json"
    for digests, code in (({"parent": "a", "change": "a"}, 0),
                          ({"parent": "a", "change": "b"}, 1)):
        walls = iter([2.0, 1.0, 3.0, 4.0])
        monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *_: {
            "metrics": {"wall_s": {"value": next(walls)}}, "failed": 0, "attempted": 1,
            "environment": None,
            "digest": digests["change" if checkout == bench_pairs.ROOT else "parent"]})
        assert bench_pairs.main(["HEAD", "--workload", "estimate-k", "--k-max", "2",
                                 "--seeds", "1,1", "--json", str(record)]) == code
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0].startswith("pair 1 seed 1 first=parent  parent: wall_s=2 ")
        assert " change: wall_s=1 " in lines[0]
        assert lines[1].startswith("pair 2 seed 1 first=change  parent: wall_s=4 ")
        assert "parent median 3 [2.5, 3.5], change median 2 [1.5, 2.5]" in lines[3]
        assert err == ("" if code == 0 else "error: runs of one seed printed different digests\n")
        written = json.loads(record.read_text())["workloads"]["estimate-k"]
        assert written["digests_agree"] is (code == 0)
        assert [pair["change"]["digest"] for pair in written["pairs"]] == [digests["change"]] * 2
        record.unlink()


# A child that records its pid, sends SIGTERM to the tool and waits to be killed.
TERMINATING_CHILD = """
import os, pathlib, signal, time
pathlib.Path({pid_file!r}).write_text(str(os.getpid()))
os.kill(os.getppid(), signal.SIGTERM)
time.sleep(60)
"""


def test_sigterm_kills_the_child_and_removes_the_export(monkeypatch, tmp_path):
    """SIGTERM while a run is waited on ends the tool with exit 143: the
    child is killed, the ``bench_pairs-*`` export is removed, and the
    caller's SIGTERM handler is back in place."""
    scratch, pid_file = tmp_path / "tmp", tmp_path / "child.pid"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(bench_pairs, "_git", lambda *argv: "" if argv[0] == "status" else "c")
    monkeypatch.setattr(bench_pairs, "_export",
                        lambda commit, dest: (dest / "file").write_text("exported"))
    monkeypatch.setattr(bench_pairs, "SWEEP_CHILD",
                        TERMINATING_CHILD.format(pid_file=str(pid_file)))

    class Unhandled(Exception):
        pass

    def guard(signum, frame):
        raise Unhandled

    previous = signal.signal(signal.SIGTERM, guard)
    try:
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.main(["HEAD", "--workload", "estimate-k", "--k-max", "2",
                              "--seeds", "1"])
        assert signal.getsignal(signal.SIGTERM) is guard
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert exit_.value.code == 128 + signal.SIGTERM
    assert not any(scratch.iterdir())
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_digests_are_compared_within_a_seed():
    pairs = [{"seed": seed, "parent": {"digest": d}, "change": {"digest": d}}
             for seed, d in ((1, "a"), (2, "b"), (1, "a"))]
    assert bench_pairs.digests_agree(pairs) and bench_pairs.digests_agree(pairs_of([1], [1]))
    pairs[2]["change"]["digest"] = "b"
    assert not bench_pairs.digests_agree(pairs)


def test_unknown_revision_is_an_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert bench_pairs.main(["no-such-revision", "--workload", "estimate-k", "--seeds", "1",
                             "--seconds", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: 'no-such-revision' names no commit")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    ("--workload", "train-pi", "--k-max", "5"),
    ("--workload", "estimate-k,cluster-wide", "--k-max", "5"),
    ("--workload", "estimate-k", "--k-max", "5", "--seconds", "1"),
    ("--workload", "estimate-k"),
], ids=["other-workload", "second-workload", "k-max-with-seconds", "neither"])
def test_k_max_or_seconds_is_a_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs._parse(["HEAD", "--seeds", "1", *flags])
    assert exit_.value.code == 2 and "error: --" in capsys.readouterr().err

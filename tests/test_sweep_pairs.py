"""Tests for ``tools/sweep_pairs.py``: one checkout timed against itself,
and the digest check on hand-built runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sweep_pairs.py"
_spec = importlib.util.spec_from_file_location("sweep_pairs", TOOL)
sweep_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_pairs)


def perfbench_files():
    return sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*"))


def test_one_checkout_against_itself():
    before = perfbench_files()
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--k-max", "2",
                           "--seed", "1", "--runs", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["run 1 parent", "run 1 change"]
    assert lines[2] == "k_max 2, seed 1, 1 runs a side"
    assert lines[3].startswith("parent: ") and lines[4].startswith("change: ")
    assert all(" median " in line for line in lines[3:])
    assert perfbench_files() == before


def test_differing_digests_are_reported():
    runs = [("parent", {"seconds": 2.0, "digest": "a"}), ("change", {"seconds": 1.0, "digest": "a"}),
            ("change", {"seconds": 3.0, "digest": "a"}), ("parent", {"seconds": 4.0, "digest": "a"})]
    lines, same = sweep_pairs.summarize(runs)
    assert same
    assert lines == ["parent: 2.00 4.00 s, median 3.00 s", "change: 1.00 3.00 s, median 2.00 s"]
    runs[2][1]["digest"] = "b"
    assert not sweep_pairs.summarize(runs)[1]

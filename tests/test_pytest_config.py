"""The repository's pytest configuration reports a failing hypothesis test
as a test failure, and the session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_failing_property(n):
    assert n < 5


def test_after_it():
    pass
'''


def test_failing_hypothesis_test_fails_only_itself(tmp_path):
    """Hypothesis's failure report imports modules that raise a
    third-party DeprecationWarning; under ``filterwarnings = ["error"]``
    alone that aborted the session with an internal error (exit 3)."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "PASSED test_probe.py::test_after_it" in proc.stdout
    assert "FAILED test_probe.py::test_a_failing_property" in proc.stdout

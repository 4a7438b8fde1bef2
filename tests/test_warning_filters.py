"""The suite's warning filters, checked in a pytest run of their own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CASES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_plain():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # warnings are errors, but a failing hypothesis test must fail alone: its
    # report must not become an INTERNALERROR that stops every later test
    (tmp_path / "test_cases.py").write_text(CASES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_cases.py"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out

"""The repository's pytest configuration reports a failing property test
as one failure and goes on with the session."""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(_PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert re.search(r"^1 failed, 1 passed\b", out, re.M), out

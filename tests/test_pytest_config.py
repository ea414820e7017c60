"""The pytest configuration in pyproject.toml turns DeprecationWarning into
an error.  On a failure, hypothesis's pytest plugin imports libcst, which
warns that mypy_extensions.TypedDict is deprecated; unfiltered, that
warning aborts the session with INTERNALERROR and every later test goes
unreported.  A child session on a failing property test followed by a
passing test must report both."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

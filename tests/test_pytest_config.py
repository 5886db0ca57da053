"""The repository's pytest settings report a failing test and run the rest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Under filterwarnings = ["error"], a deprecation warning raised in the
    # hypothesis plugin's report hook used to end the run in INTERNALERROR
    # (exit code 3), skipping every later test.
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         f"--rootdir={tmp_path}", "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout

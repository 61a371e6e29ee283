"""The repository's pytest settings, run on a throwaway test file."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_lets_the_next_test_run(tmp_path):
    # warnings are errors, and hypothesis's failure report raises one that
    # would end the session before the second test ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    argv = ["-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_two.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

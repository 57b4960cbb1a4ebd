"""The pytest configuration turns every warning into an error; a failing
`hypothesis` test must still end as an ordinary failure, not abort the
session with INTERNALERROR (exit code 3)."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(derandomize=True, database=None)
def test_fails(n):
    assert n < 10
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_x.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_x.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert any(
        line.startswith("FAILED") and "test_fails" in line for line in run.stdout.splitlines()
    ), run.stdout

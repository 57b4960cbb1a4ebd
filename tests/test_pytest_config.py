"""The pytest configuration turns every warning into an error; a failing
`hypothesis` test must still end as an ordinary failure, not abort the
session with INTERNALERROR (exit code 3).  No test module imports another:
the corpora that several gates share live in `support`."""

import ast
import pathlib
import subprocess
import sys
import textwrap

TESTS = pathlib.Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

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


def imported_test_modules(tree):
    """(line, module) of each import of a `test_*` module in `tree`, at top
    level or inside a function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
            found.append((node.lineno, node.module))
    return sorted(found)


CROSS_IMPORTS = textwrap.dedent('''
    import support
    from test_lavb import GATE
    import itertools, test_matched


    def helper():
        from test_double_derived import count_calls
        return count_calls
''')


def test_the_cross_import_guard_sees_imports_at_any_depth():
    found = imported_test_modules(ast.parse(CROSS_IMPORTS))
    assert found == [(3, "test_lavb"), (4, "test_matched"), (8, "test_double_derived")]


def test_no_test_module_imports_another():
    modules = TESTS.glob("test_*.py")
    found = {path.name: imported_test_modules(ast.parse(path.read_text())) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}

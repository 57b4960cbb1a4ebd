"""Mutated bundled models never crash the CLI.

Each example takes a bundled model, replaces or inserts a few tokens drawn
from small integers, names and symbols of the model grammar, and runs
`cli.main` in-process with the model's own verb twice: no exception may
escape, the exit code is 0, 1 or 2, and both runs give the same bytes.
"""

import contextlib
import io
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from doublealg import cli

MODELS = sorted((pathlib.Path(__file__).resolve().parent.parent / "models").glob("*"))
TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_']*|\s+|.")
POOL = (
    ["0", "1", "2", "3", "-1"]
    + ["x", "y", "e1", "e2", "a1", "b1", "c1", "d", "dx", "M", "D", "frame", "dim"]
    + list("/*^+-()[]{},=:;#") + ["\n", " "]
)

mutation = st.tuples(st.sampled_from(("replace", "insert")), st.integers(0, 10**6), st.sampled_from(POOL))


def mutate(text, mutations):
    tokens = TOKEN.findall(text)
    for kind, at, token in mutations:
        at %= len(tokens)
        if kind == "replace":
            tokens[at] = token
        else:
            tokens.insert(at, token)
    return "".join(tokens)


def run_cli(argv):
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.buffer.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.model"


@given(st.sampled_from(MODELS), st.lists(mutation, min_size=1, max_size=3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_mutated_models_exit_cleanly_and_deterministically(scratch, model, mutations):
    text = model.read_text()
    verb, kind = text.splitlines()[0][len("# verify: ") :].split()
    scratch.write_text(mutate(text, mutations))
    first = run_cli([verb, kind, str(scratch)])
    assert first[0] in (0, 1, 2)
    assert run_cli([verb, kind, str(scratch)]) == first

"""Byte-level pins for every CLI report.

Every verb/kind pair runs on every bundled model in both formats; the sha256
of stdout plus stderr and the exit code must match `report_golden.txt`.
Refactors of checkers and printers have to keep these bytes.  After an
intended change of report bytes, re-record with

    PYTHONPATH=src python tests/test_report_golden.py --record
"""

import contextlib
import functools
import hashlib
import io
import pathlib
import sys

import pytest

from doublealg import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = pathlib.Path(__file__).resolve().parent / "report_golden.txt"
FORMATS = ("text", "json")


def cases():
    return [
        (verb, kind, model.name, fmt)
        for verb, kind in sorted(cli._VERBS)
        for model in sorted(MODELS.glob("*"))
        for fmt in FORMATS
    ]


def run_case(verb, kind, model, fmt):
    """(exit code, sha256 of stdout + stderr) of one in-process CLI call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, kind, str(MODELS / model), "--format", fmt])
    out.flush()
    err.flush()
    data = out.buffer.getvalue() + b"\0" + err.buffer.getvalue()
    return code, hashlib.sha256(data).hexdigest()


@functools.cache
def load_golden():
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        verb, kind, model, fmt, code, sha = line.split()
        golden[(verb, kind, model, fmt)] = (int(code), sha)
    return golden


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(cases())


@pytest.mark.parametrize("verb,kind,model,fmt", cases())
def test_report_bytes_unchanged(verb, kind, model, fmt, monkeypatch):
    monkeypatch.delenv("DOUBLEALG_MAX_DEGREE", raising=False)
    assert run_case(verb, kind, model, fmt) == load_golden()[(verb, kind, model, fmt)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_report_golden.py --record")
    lines = []
    for case in cases():
        code, sha = run_case(*case)
        lines.append(" ".join((*case, str(code), sha)))
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} cases in {GOLDEN}")

"""Byte-level pins for every CLI report.

Every verb/kind pair runs on every bundled model in both formats; the sha256
of stdout plus stderr and the exit code must match `report_golden.txt`.
Refactors of checkers and printers have to keep these bytes.  After an
intended change of report bytes, re-record with

    PYTHONPATH=src python tests/test_report_golden.py --record

`check manin` and `build drinfeld` are also pinned on model texts kept
here, outside `models/`: the solvable family at dim 0, 1 and 8 and a basis
that already holds a dual basis name.  So are `build cotangent-double` on
the so(3)* Lie-Poisson dual pair, a double with a core whose stated
diagnostics lines are then pinned through the CLI, and `check bialgebroid`,
`build cotangent-double`, `check manin` and `build drinfeld` on a cobracket
that fails co-Jacobi beside a valid dual pair (`support.CO_JACOBI_MODEL`).
"""

import contextlib
import functools
import hashlib
import io
import pathlib
import sys

import pytest

from doublealg import cli
from support import CO_JACOBI_MODEL

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


def run_case(verb, kind, path, fmt):
    """(exit code, sha256 of stdout + stderr) of one in-process CLI call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, kind, str(path), "--format", fmt])
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
    assert run_case(verb, kind, MODELS / model, fmt) == load_golden()[(verb, kind, model, fmt)]


def solvable_text(n):
    """The bundled solvable2 bialgebra at dim n: [e1, e2] = e2 and
    delta(e2) = e1 ^ e2 once n >= 2, every other bracket and cobracket
    value zero."""
    lines = ["[lie_algebra g]", f"dim = {n}"]
    lines += ["bracket(e1, e2) = e2"] if n >= 2 else []
    lines += ["", "[cobracket d]", "algebra = g"]
    lines += ["delta(e2) = e1 ^ e2"] if n >= 2 else []
    return "\n".join(lines) + "\n"


GENERATED = {
    "solvable0": solvable_text(0),
    "solvable1": solvable_text(1),
    "solvable8": solvable_text(8),
    "collision": (
        "[lie_algebra g]\ndim = 2\nbasis = [a, a_d]\nbracket(a, a_d) = a_d\n\n"
        "[cobracket d]\nalgebra = g\ndelta(a_d) = a ^ a_d\n"
    ),
    # TM against T*M_pi for the Lie-Poisson structure pi on so(3)*
    "so3_lie_poisson": """\
[chart M]
coords = [x, y, z]

[algebroid TM]
base = M
frame = [v1, v2, v3]
anchor(v1) = d/dx
anchor(v2) = d/dy
anchor(v3) = d/dz

[algebroid Tstar]
base = M
frame = [w1, w2, w3]
anchor(w1) = z * d/dy - y * d/dz
anchor(w2) = -z * d/dx + x * d/dz
anchor(w3) = y * d/dx - x * d/dy
bracket(w1, w2) = w3
bracket(w1, w3) = -w2
bracket(w2, w3) = w1
dual_of = TM
""",
    "co_jacobi": CO_JACOBI_MODEL,
}

# The solvable cases were recorded while the Manin items were still computed,
# so they show that stating them changed no byte.  Likewise the so(3)* case
# was recorded while the diagnostics were still computed, and the co-Jacobi
# `check manin` and `build drinfeld` cases before that failure became a
# failed item of `check bialgebroid` and `build cotangent-double`.
GENERATED_GOLDEN = """\
solvable0 check manin text 0 d9710fdd6412ab50582673a0dc0d88a1b63cfac6c2a4ed53350e1f86460eb537
solvable0 check manin json 0 c150c79f6e337038810f05dcd67b5e6542ab3eb1232098961cd8879cd6151769
solvable0 build drinfeld text 0 9548bfb6afbadd55382e57c8b90e9add5335b28e23fcafe6067e64b4811e1b1e
solvable0 build drinfeld json 0 448c9a7f2f9d3bb964a8f786d4d29fd12daa4358c94e5924c8aa4059a13b7219
solvable1 check manin text 0 80b6629389e938c2ae82df5a15600c90db659e6fac862a7bd3835f21904f2d65
solvable1 check manin json 0 d7feda2f622462e141dbfce976a79fe7e39f02abb2f94ba70fddec8e957cb58d
solvable1 build drinfeld text 0 c10d6dc739ee199b31d59c05402199f33ea95209fffc3ae33ed614816af9f111
solvable1 build drinfeld json 0 ce0220595b18d6f039fd76f60c62ca271ad99b5182953b2613ee3a4bd93a453b
solvable8 check manin text 0 c6279110ba8ee591f3e7baad26869633b2986ffab865c049557c80752c7cb9f8
solvable8 check manin json 0 b6733714f360520f03319e5bd79f168c236cc64b180820d8b36e65603afb197c
solvable8 build drinfeld text 0 df6732128566f63191e7f042587ed367facfdd2a877d20956dbd0ffb7240f357
solvable8 build drinfeld json 0 5563605e456fa7f9ea5e592a3548ceb555cb1df6337428cceeeed84a35b7051b
collision check manin text 2 0e002b09e926718f2772c2b50f4362b41292fc537a888f1c0794e1e1f8fddcd4
collision check manin json 2 0e002b09e926718f2772c2b50f4362b41292fc537a888f1c0794e1e1f8fddcd4
collision build drinfeld text 2 0e002b09e926718f2772c2b50f4362b41292fc537a888f1c0794e1e1f8fddcd4
collision build drinfeld json 2 0e002b09e926718f2772c2b50f4362b41292fc537a888f1c0794e1e1f8fddcd4
so3_lie_poisson build cotangent-double text 0 9c45a0b155f14bf59d19a01df789e39226f3816ea9bf672a73b9cac11b84b91b
so3_lie_poisson build cotangent-double json 0 529763843b6b57318f143fc8fa23083a5826c23f2aa0dc276a588d240f1cef85
co_jacobi check manin text 1 c4a86f4dc46f7a5831476e6119c96ca39ae2e4d305aa62ced9dd38503f411d28
co_jacobi check manin json 1 094f787fe807b9261fafbb765c9f3299b7b219d5f18142d6250141e237a7b6a4
co_jacobi build drinfeld text 1 b088f4af2c4f90cae083c5dc0e3ebab48fc814e0b273d90f6dae940957e06165
co_jacobi build drinfeld json 1 6b4c1768d0211d967d2e739f6c7c9a0e840c4cf774eb52cbef5e3517d920dda9
co_jacobi check bialgebroid text 1 92f0d0c921e27ad3b79b0d878c893ba8236777aa8760b6460cfd083a499fecf2
co_jacobi check bialgebroid json 1 1fb001ccca3d166cefe4d4c9f99072d6a8cdfe1562573cc22ac5bd9a9a31ded3
co_jacobi build cotangent-double text 1 8d31f6057306a613b6b313ac08508f92224d74a442621fbf2e3eff82eedb2ffe
co_jacobi build cotangent-double json 1 1d67b8b640c570693d0513e0a5d741956cdd1c4922b7554ec2a0633771426022
"""


@pytest.mark.parametrize(
    "label,verb,kind,fmt,code,sha", [line.split() for line in GENERATED_GOLDEN.splitlines()]
)
def test_generated_model_bytes(label, verb, kind, fmt, code, sha, tmp_path, monkeypatch):
    monkeypatch.delenv("DOUBLEALG_MAX_DEGREE", raising=False)
    path = tmp_path / "m.model"
    path.write_text(GENERATED[label])
    assert run_case(verb, kind, path, fmt) == (int(code), sha)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_report_golden.py --record")
    lines = []
    for case in cases():
        verb, kind, model, fmt = case
        code, sha = run_case(verb, kind, MODELS / model, fmt)
        lines.append(" ".join((*case, str(code), sha)))
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} cases in {GOLDEN}")

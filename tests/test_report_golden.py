"""Byte-level pins for every CLI report.

Every verb/kind pair runs on every bundled model in both formats; the sha256
of stdout plus stderr and the exit code must match `report_golden.txt`.
Refactors of checkers and printers have to keep these bytes.  After an
intended change of report bytes, re-record with

    PYTHONPATH=src python tests/test_report_golden.py --record

`check manin` and `build drinfeld` are also pinned on model texts kept
here, outside `models/`: the solvable family at dim 0, 1, 8 and 16, a basis
that already holds a dual basis name, an algebra that fails Jacobi and a
cobracket whose cocycle defect has several terms of mixed sign.  So are `build cotangent-double` on
the so(3)* Lie-Poisson dual pair, a double with a core whose stated
diagnostics lines are then pinned through the CLI, and `check bialgebroid`,
`build cotangent-double`, `check manin` and `build drinfeld` on a cobracket
that fails co-Jacobi beside a valid dual pair (`support.CO_JACOBI_MODEL`),
`check matched`, `build bowtie`, `build double`, `build vacant` and
`build semidirects` on pairs failing `sigma.flat`, `identity_1` and
`identity_2` and on a pair whose A and B name their frames alike, and
`build cotangent-double` on a chart that already holds `xi_dx` and `xi_dy`
and on one that already holds `u_v1`.  Reports that print proper
fractions are pinned on a bialgebroid over pi = 1/2 * x d/dx ^ d/dy, a
3/4 bracket that fails with fractional witnesses, a bracket whose two
halves sum to an integer and the solvable2 bialgebra with a halved
cobracket.  `check bialgebroid` and `build cotangent-double` are pinned
on two Poisson algebroids over (x, y) that fail every family
(`support.POISSON_PAIR_MODEL`), whose double's `random` trial witness is
written by the section calculus on four coordinates.  Witnesses of mixed
total degree with exponents of 10 and more over (x, y, z) are pinned on a
failing anchor morphism and on a failing bracket (`check bialgebroid` and
`build cotangent-double`), and a bialgebroid at the total-degree bound of a
model file on both verbs.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from doublealg import cli
from doublealg.algebroid import check_bialgebroid
from doublealg.doublela import build_cotangent_double, check_double
from support import CO_JACOBI_MODEL, POISSON_PAIR_MODEL, sweep_pairs

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
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


def run_argv(argv):
    """(exit code or SystemExit code, stdout bytes, stderr bytes) of one
    in-process CLI call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def run_case(verb, kind, path, fmt):
    """(exit code, sha256 of stdout + stderr) of one in-process CLI call."""
    code, out, err = run_argv([verb, kind, str(path), "--format", fmt])
    return code, hashlib.sha256(out + b"\0" + err).hexdigest()


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
    "solvable16": solvable_text(16),
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
    # fails Jacobi on (e1, e2, e3); its cobracket also fails co-Jacobi,
    # which must not be reported first
    "jacobi_fail": (
        "[lie_algebra g]\ndim = 3\nbracket(e1, e2) = e2\nbracket(e1, e3) = e2 + e3\n"
        "bracket(e2, e3) = e1 - e2\n\n[cobracket bad]\nalgebra = g\n"
        "delta(e1) = e1 ^ e2\ndelta(e2) = e2 ^ e3\ndelta(e3) = e1 ^ e3\n"
    ),
    # the cocycle defect on (e1, e2) is e1 ^ e3 + 1/2 * e1 ^ e4 - 5/2 * e3 ^ e4
    "cocycle_mixed": (
        "[lie_algebra g]\ndim = 4\nbracket(e1, e2) = -e1 + 2 * e2 + e3\n\n"
        "[cobracket d]\nalgebra = g\ndelta(e2) = e2 ^ e3 + 1/2 * e2 ^ e4 - e3 ^ e4\n"
    ),
    # the coadjoint pair of solvable2 with sigma scaled by 2: fails sigma.flat
    "matched_sigma_flat": """\
[chart pt]
coords = []

[algebroid g]
base = pt
frame = [e1, e2]
bracket(e1, e2) = e2

[algebroid gdual]
base = pt
frame = [f1, f2]
bracket(f1, f2) = f2

[matched_pair coadjoint]
A = g
B = gdual
rho(e1) = derivation{f2: -f2}
rho(e2) = derivation{f2: f1}
sigma(f1) = derivation{e2: -2 * e2}
sigma(f2) = derivation{e2: 2 * e1}
""",
    # rho(a1) is not a derivation of the bracket of B: fails identity_1
    "matched_identity_1": """\
[chart M]
coords = [x]

[algebroid A]
base = M
frame = [a1]

[algebroid B]
base = M
frame = [b1, b2]
bracket(b1, b2) = b2

[matched_pair act]
A = A
B = B
rho(a1) = derivation{b1: x * b1 + b2, b2: b1 - 2 * b2}
""",
    # the mirror (B, A, sigma, rho) of matched_identity_1: fails identity_2
    "matched_identity_2": """\
[chart M]
coords = [x]

[algebroid A]
base = M
frame = [a1]

[algebroid B]
base = M
frame = [b1, b2]
bracket(b1, b2) = b2

[matched_pair act]
A = B
B = A
sigma(a1) = derivation{b1: x * b1 + b2, b2: b1 - 2 * b2}
""",
    # A and B both name their frame f1; fails identity_3
    "matched_same_frame": """\
[chart M]
coords = [x]

[algebroid TM]
base = M
frame = [f1]
anchor(f1) = d/dx

[algebroid triv]
base = M
frame = [f1]

[matched_pair act]
A = TM
B = triv
rho(f1) = derivation{f1: x * f1}
sigma(f1) = derivation{f1: x * f1}
""",
    # a chart that already holds xi_dx and xi_dy: the core frames dx and
    # dy of the cotangent double would give the induced duals those
    # coordinates a second time
    "xi_chart": """\
[chart M]
coords = [x, y, xi_dx, xi_dy]

[algebroid TM]
base = M
frame = [v1, v2, v3, v4]
anchor(v1) = d/dx
anchor(v2) = d/dy
anchor(v3) = d/dxi_dx
anchor(v4) = d/dxi_dy

[algebroid Tstar]
base = M
frame = [w1, w2, w3, w4]
anchor(w1) = x * d/dy
anchor(w2) = -x * d/dx
bracket(w1, w2) = w1
dual_of = TM
""",
    # a chart that already holds u_v1: the vertical total algebroid of the
    # cotangent double would give its chart that coordinate a second time
    "u_chart": """\
[chart M]
coords = [x, u_v1]

[algebroid TM]
base = M
frame = [v1, v2]
anchor(v1) = d/dx
anchor(v2) = d/du_v1

[algebroid Tstar]
base = M
frame = [w1, w2]
dual_of = TM
""",
    # the tangent algebroid of (x, y) against the cotangent algebroid of
    # pi = 1/2 * x d/dx ^ d/dy: a bialgebroid whose structure functions are
    # proper fractions
    "half_pi": """\
[chart M]
coords = [x, y]

[algebroid TM]
base = M
frame = [v1, v2]
anchor(v1) = d/dx
anchor(v2) = d/dy

[algebroid Tstar]
base = M
frame = [w1, w2]
anchor(w1) = 1/2 * x * d/dy
anchor(w2) = -1/2 * x * d/dx
bracket(w1, w2) = 1/2 * w1
dual_of = TM
""",
    # a 3/4 bracket on T*M with zero anchor: fails scaled, function_pairs
    # and the random trials, whose witnesses print proper fractions
    "three_quarter_bracket": """\
[chart M]
coords = [x, y]

[algebroid TM]
base = M
frame = [v1, v2]
anchor(v1) = d/dx
anchor(v2) = d/dy

[algebroid Tstar]
base = M
frame = [w1, w2]
bracket(w1, w2) = 3/4 * x * w1
dual_of = TM
""",
    # the bracket of tangent_cotangent_pair written as 1/2 * w1 + 1/2 * w1:
    # the two fractions sum to the integer 1
    "half_cancel": """\
[chart M]
coords = [x, y]

[algebroid TM]
base = M
frame = [v1, v2]
anchor(v1) = d/dx
anchor(v2) = d/dy

[algebroid Tstar]
base = M
frame = [w1, w2]
anchor(w1) = x * d/dy
anchor(w2) = -x * d/dx
bracket(w1, w2) = 1/2 * w1 + 1/2 * w1
dual_of = TM
""",
    # the bundled solvable2 bialgebra with its cobracket halved
    "half_bialgebra": (
        "[lie_algebra g]\ndim = 2\nbracket(e1, e2) = e2\n\n"
        "[cobracket d]\nalgebra = g\ndelta(e2) = 1/2 * e1 ^ e2\n"
    ),
    "poisson_pair": POISSON_PAIR_MODEL,
    # fails the anchor morphism on (e1, e2) over (x, y, z): the witness
    # prints terms of total degrees 3 to 25 with exponents up to 13
    "anchor_high_powers": """\
[chart M]
coords = [x, y, z]

[algebroid A]
base = M
frame = [e1, e2]
anchor(e1) = x^12 * y * d/dz + z^10 * d/dx - 3 * y^2 * d/dy
anchor(e2) = y^11 * z^2 * d/dx + x * z * d/dy + 2 * x^10 * d/dz
""",
    # TM against a zero-anchor bracket with high powers over (x, y, z):
    # fails frames, scaled, function_pairs and random, whose trial witness
    # prints many terms of mixed degree, over six coordinates in the double
    "bracket_high_powers": """\
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
bracket(w1, w2) = x^10 * y * w3 - 2 * z^11 * w3 + y^2 * w3
dual_of = TM
""",
    # TM against T*M_pi for pi = x^999 * y d/dx ^ d/dy: a bialgebroid whose
    # anchor has monomials at the total-degree bound of a model file
    "degree_bound": """\
[chart M]
coords = [x, y]

[algebroid TM]
base = M
frame = [v1, v2]
anchor(v1) = d/dx
anchor(v2) = d/dy

[algebroid Tstar]
base = M
frame = [w1, w2]
anchor(w1) = x^999 * y * d/dy
anchor(w2) = -x^999 * y * d/dx
bracket(w1, w2) = 999 * x^998 * y * w1 + x^999 * w2
dual_of = TM
""",
}

# The solvable cases were recorded while the Manin items were still computed,
# so they show that stating them changed no byte.  Likewise the so(3)* case
# was recorded while the diagnostics were still computed, and the co-Jacobi
# `check manin` and `build drinfeld` cases before that failure became a
# failed item of `check bialgebroid` and `build cotangent-double`.  The
# solvable16, jacobi_fail and cocycle_mixed cases were recorded while
# `drinfeld_double` still decided its three gates by dense code of its own,
# so they show that deciding them on the dual pair over a point changed no
# byte.
# The matched_* cases were recorded while `check_matched` still decided
# flatness and the three identities through derivation commutators and
# brackets of sections, so they show that reading them off the bowtie's
# structure equations changed no byte.  Their `build bowtie`, `build double`,
# `build vacant` and `build semidirects` cases were recorded while the
# bowtie's brackets were still written as dense vectors, once by
# `check_matched` and again by `assemble_bowtie`.
# The xi_chart case exited 2 with `chart coordinates not distinct` until
# the cotangent double refused core frame names whose fibre coordinate is
# already on the chart; it was recorded with that fix.  Likewise the
# u_chart case exited 2 until the total algebroid of an LA-vector bundle
# disambiguated its fibre coordinates u_<frame> against the chart.
# The half_pi, three_quarter_bracket, half_cancel and half_bialgebra cases
# were recorded while the kernel still stored every coefficient as a
# `Fraction`, so they show that storing integral ones as `int`s changed no
# byte of a report that prints proper fractions.
# The poisson_pair cases were recorded while every `Multisection` was
# built through its validating constructor and `bracket_sections` went
# through `anchor_of` and `VectorField.apply`, so they pin the `random`
# trial witness over (x, y, xi_dx', xi_dy') across the trusted kernel.
# The anchor_high_powers, bracket_high_powers and degree_bound cases were
# recorded while each exponent was still a tuple, so they pin the printing
# order of multi-term witnesses of mixed total degree with exponents of 10
# and more, and a model at the total-degree bound, across the packed
# exponent kernel.
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
collision check manin text 1 8b54bbd9bb647bd88cd1e7503946fff038fa04a7de6caff42d31f976fff66b5e
collision check manin json 1 17be95e734b41f56663513c08ce8d9314abacd1023b19d7ebabaf976edf91ffa
collision build drinfeld text 1 dc11ac1e65b6b661f370ba896295f3be82efcf5a0a556925638905ef79b0e46c
collision build drinfeld json 1 f12605f0b12cb5ca5f3779c205920072b8e1b0bb5c7b43f4749ea78ba03469a7
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
solvable16 check manin text 0 adbf256cb28e5b0bd80b7caf38c2f5b250f4984db1f79b08c1e6369fb52d9e88
solvable16 check manin json 0 fdb45608ae3bad8e24a64b7456b4ab727546493284f0f6598636911acb4763f4
solvable16 build drinfeld text 0 62f0c5d43f7510a7eafbb00b3e63d8881079d8cca49a6f65692c1c33a735749a
solvable16 build drinfeld json 0 61bef6ca7f2bd7b38f07c51913b7a93838271ac1453314ec92612cdcedb86c2f
jacobi_fail check manin text 1 6383a83eb5b722b3664910c761085b00b3ce46f680939814870b61aa6c2c9585
jacobi_fail check manin json 1 3f6f0965ac993bc53a27b531d11ebaff825220903f58504d2768de93b4bd49b7
jacobi_fail build drinfeld text 1 bc20d77d7752a12bc463b28cc4c88402b94dc8ad86c2554169274f47d9d130f8
jacobi_fail build drinfeld json 1 611d3d9f356be9dc47b123b83256d31bc866947eca9803427fe7231ba9a10c54
cocycle_mixed check manin text 1 5a512b61993c743a099f55426ef13257d97ee8ba7c623ccf7d230b7cffe85722
cocycle_mixed check manin json 1 ca8bd1e53b51cbd755f93b7d1d8cc7b96f76aba1bf5f87a29e3959aa14e48c71
cocycle_mixed build drinfeld text 1 302e93a694f37fbea9edfa3c6b2b422ab019693b8cb595522b830b4031438465
cocycle_mixed build drinfeld json 1 b2629daa0010f46bab5dd1e20390cd67078afb4d55cb0169cd13f002ca1ed3ef
matched_sigma_flat check matched text 1 e1cabbba824081bff074dde3c074aedff5d3a42f3a6f3aa1e5bc17d0be7eab32
matched_sigma_flat check matched json 1 48b2b1e3587e36827afd99c0d18cf15f44a2911f1136fc08069cc4fea386054e
matched_identity_1 check matched text 1 5c9721ea0ff4617fa2a9e516a3ab6fe2d2f4e73c98a0776c69b23d173e226ebf
matched_identity_1 check matched json 1 ee8fe8c09be871155d3e06519957d2719212587793c6cf9f11406e03ce82f691
matched_identity_2 check matched text 1 5c1e4222bd74858b0ca8c4272f43eb9b699ff45416518e37f1e2cbc011c5c405
matched_identity_2 check matched json 1 47741c5fecb278048e61ec1a9534db361cd4dd2dd68fc4b7fa0291fc7fab0a68
matched_same_frame check matched text 1 e17c43727042a0e3bb75e1f12214e19a3a97a562f537be28a616fa9b22275ba4
matched_same_frame check matched json 1 c3a6e8e50dc2527b72e1c4a3a62b2627e23591f9f3cc274d5362a167839d5e1f
matched_sigma_flat build bowtie text 1 ce78c69aa643cd260bcbbd91e74a90fa8ab5f20ffb27ddabbbb52b35eace2e31
matched_sigma_flat build bowtie json 1 76c7391309233db35b67d1360a25751bd3195d666c95f2a1ff8212652f98a5ed
matched_sigma_flat build double text 1 7a21714f723bfdf797cbb50066a0df9909913e8e82f1d68f38b812b6402d37a7
matched_sigma_flat build double json 1 837b5bf228f8cdcfeea280cf2f1e034c561dcf4ef178651b37d940979f6d18fe
matched_sigma_flat build vacant text 1 e14e640ad993cf91968b789b51826d136f68202498ee275dce41665354ab23bf
matched_sigma_flat build vacant json 1 e334de6e89dba408ed176a75a1da282586d40d03a24cbc6e0ba7c5c05e4493b1
matched_sigma_flat build semidirects text 1 4295c2a22110ad424634c8821720b47ec1df1bb3c2530935775423a6b40bcf76
matched_sigma_flat build semidirects json 1 468e7015b856632668da71a9b3f9644895abddc643d4fdab712abbf2a7f1a376
matched_identity_1 build bowtie text 1 7f8886ab37a2f435f18be6bc05e205ffb16371d5734debd0824461b9dd79c2bf
matched_identity_1 build bowtie json 1 2ab389760809896b1602e6be654d9abcf352c00dab796d4ece07ce024b963c84
matched_identity_1 build double text 1 69835fa8453275a7567b552778846e5de73311143c45843e55e66d469489097d
matched_identity_1 build double json 1 b81213680d9eaffa6746184dae90550cf32333aae6d8682a6c26b9c364d2f6be
matched_identity_1 build vacant text 1 6f880d16b0f2df3a52c9716c26e838d2a56f88eba2e793a7278fcb45c9934955
matched_identity_1 build vacant json 1 29ec1d53b14f124f0d6917a53cacac6047b38312cc449b0e9ea28b3318d946cb
matched_identity_1 build semidirects text 0 9c93ea2a7e66e6ad6c250733176d7b513e7eae1cefdb2181c2328ccd16f49462
matched_identity_1 build semidirects json 0 72cc0c5999f8b475dd0c5cafcfbfee8735fcd1bfe245f08b7581e39531304206
matched_identity_2 build bowtie text 1 c2b0e8775ff6ece533dd0ab675de31458525651ec25e4c4b7852b8976ece4ace
matched_identity_2 build bowtie json 1 81a2a31abfdd01ebf25ac89b289cf01eff8554cb57844611425759d84e0a7620
matched_identity_2 build double text 1 5843ee37a47d03411c5a59cb96ed48629fcdd1f3dd3eb09a2a2876a8e4dc4d8f
matched_identity_2 build double json 1 25f7698566c2894cd2f92afcc3885afc970f18bb7614140b023d8467fd27276e
matched_identity_2 build vacant text 1 a570e7ae8ed407b017eb5ad52810e380d417aa8d6432add4de54d84b8eafc4b7
matched_identity_2 build vacant json 1 d20a92c7184a662c610debbfe1c3f1a5ae1d8984b8ba8d73a92d6bfb181eda1a
matched_identity_2 build semidirects text 0 3db672a8b54beff9a2076a1319c5a9eb8f9c6ed77808a094271b69edd8eb7ea3
matched_identity_2 build semidirects json 0 7d1b4d8ef21b10bd22f5825150b930ea0bf1ae03c8735c39084bdff2870ebc33
matched_same_frame build bowtie text 1 4d2f8f50289b9ecddde1da79ddcb524c1fe7325ea546f030c40fa9937c4a0a0a
matched_same_frame build bowtie json 1 28221e489ed55e806da08ea758a721875aa902cfbd80c75266785439a75e83b4
matched_same_frame build double text 1 680e817a84e873c4c1ac47ce4a12d5509f68a4aa01d171224b908e06d6a819cf
matched_same_frame build double json 1 4c8d5df377da5d4c8664ef93bebc10e37fd732f54b615862d7c5f2f097d43823
matched_same_frame build vacant text 1 e13e4ef02c355f92b38d57ec6a4fe39ae7cd67757e8b1b9271ffb73924eac5b9
matched_same_frame build vacant json 1 c637680ad4ed5eb50205457f51e7e60d1976ede032910688e01a99562f242804
matched_same_frame build semidirects text 1 1724e3ec3b39ee45a275d96ba56f928dd12bad8b3e086a0490c7a7dea4fff332
matched_same_frame build semidirects json 1 3c37557874b7ab5d929aeaceeb915407bb72fa18bffbeeb30bad59569fd08679
xi_chart build cotangent-double text 0 e46684a8cd576e40fad1e4176509cbf8ab2511b0c8b551a34aef3ed4c049321b
xi_chart build cotangent-double json 0 1b497926400ad5818d0d91c693f1cd233051b041d41e9b49d07abf02031bb49d
u_chart build cotangent-double text 0 272117c35a85dd996a94167555d84109107ec600b97a05cc3c4f7664d2791c82
u_chart build cotangent-double json 0 563e1d7f5cb384e4820bdfbd52f50b785fa0e56fe51a01443e648dc603aee50b
half_pi check bialgebroid text 0 26f5decdf655801d0b320581834236dbaa34bb09703f588214743c515e0044c7
half_pi check bialgebroid json 0 1a7a0e041858b3fb789fd95aefbb4fdb38d438169abd9accbc72fa61aa96e001
half_pi build cotangent-double text 0 eb7d4b10df7e0af119b1fa1b5347418d4097088002a8be8e8e5f3fc0e9e73d8f
half_pi build cotangent-double json 0 3b8abc01d10aa7cc50270dbd939c806eb6be123020b41c45c4d95561c5d721f8
three_quarter_bracket check bialgebroid text 1 f315a891dda7ef4bb4dcf3ffbc1555fd17ce3df43d98e163e2bcea3f1931a683
three_quarter_bracket check bialgebroid json 1 bdc96ca170409de80c9e786fada2982c36031bfe28f6b500235ec5a0033213fe
three_quarter_bracket build cotangent-double text 1 d286a99c35b5f00c015c1787f538b302a2a8a1b03e1d8c08e3487879363490ee
three_quarter_bracket build cotangent-double json 1 840309b2958118c339f7dce2c4d676f0386e4b3b40124b407d77ac5f67cc6d10
half_cancel check bialgebroid text 0 7b45d3598909d6fe10ff7e393a914342a990bfdb2d94c1162ad8efbf32bae23e
half_cancel check bialgebroid json 0 d3c6f803d139a00bc73fcb9a8b738a9983b1a6c34e456255c48434281d2c1acf
half_cancel build cotangent-double text 0 19410d7fb344b66e66e4cb043c914f476ca3296a051faa0dee6632d3c9044a3a
half_cancel build cotangent-double json 0 7aae27acfbdddd8d819544a6160bef59e85ca15f100f2ff3b7bb52cefaee4270
half_bialgebra check manin text 0 91b4c500e0ac9ac7a8e76d113ff882250eb1e37c552e07f39d670872de28aafd
half_bialgebra check manin json 0 1e83ecf8665ef272dc6326602611cb3f6740780448cd942396d2ae9859647b10
half_bialgebra build drinfeld text 0 9cd7123740a833d9a037b3c81efaab63040d08174e0ae60d73480f17b56977a1
half_bialgebra build drinfeld json 0 784e9f70ea47c3c8d406e12c2f95ba1f4b88594708c105f81e79d599231e3767
poisson_pair check bialgebroid text 1 7fe1699129ec8b25ac0cbfc4163a7f86a360740a00ebc959e8f829034139e4c7
poisson_pair check bialgebroid json 1 287f51931a8633011974fd6de13e5a380894c2a7418a8982cf6e81da16c7b21d
poisson_pair build cotangent-double text 1 82aa17cce09821f1a14d4101182bb45ca86e26d23605e25710d5715cba88c3df
poisson_pair build cotangent-double json 1 84227b2d3403e33efb2064763f5087477916803afc2887cc29a93591bf6c6c5a
anchor_high_powers check algebroid text 1 30a700e5c3fadec58c8dc978897442462a569e98d4fc2127adf19b55c01eaf02
anchor_high_powers check algebroid json 1 67df3c6ecf265a59a49f190c268255ee55f61804a1bf12e40001495c4de7039a
bracket_high_powers check bialgebroid text 1 ebaea09af46b20b654962c5119bd738d542d66ecc98660fdcca0ad7849f16133
bracket_high_powers check bialgebroid json 1 3634595880fd69dc84124c1e94f074d1fe6aefd415fe3c3fe56ae2b4d7193c48
bracket_high_powers build cotangent-double text 1 82fca341b972033938077bddaa7613e52bad2918bbd8604085dcfbfd9cc9ff90
bracket_high_powers build cotangent-double json 1 a58729d44ed129aadb3f5c4ebdf90612722463e88797fc6062c3fe68a8fd771a
degree_bound check bialgebroid text 0 60813b6412e2cdcb767e7a005b071316bbe43321d396b9b469a4447be711ab21
degree_bound check bialgebroid json 0 a72f15108570fdfcc24ab6866abf47d57aba6a14cdf64da1ed7b6948ebe2c463
degree_bound build cotangent-double text 0 b51a8c6e3e94b7f94acc42c619d0bfb5b7d8b406b6f36fcbd783dce0fb5b7128
degree_bound build cotangent-double json 0 746178c7413537b2ba3d2544338b4cdccab720c1b08fff7214fa40453b7905cd
"""


@pytest.mark.parametrize(
    "label,verb,kind,fmt,code,sha", [line.split() for line in GENERATED_GOLDEN.splitlines()]
)
def test_generated_model_bytes(label, verb, kind, fmt, code, sha, tmp_path, monkeypatch):
    monkeypatch.delenv("DOUBLEALG_MAX_DEGREE", raising=False)
    path = tmp_path / "m.model"
    path.write_text(GENERATED[label])
    assert run_case(verb, kind, path, fmt) == (int(code), sha)


def test_the_cached_parser_answers_each_call_alike(tmp_path, monkeypatch):
    """One parser serves every call of a process: usage errors, a failing
    read and a valid call, interleaved and repeated, each give the same exit
    code and bytes every time, and the valid call its golden bytes."""
    monkeypatch.delenv("DOUBLEALG_MAX_DEGREE", raising=False)
    model = str(MODELS / "t2m_double.pass")
    valid = ["check", "double", model, "--format", "json"]
    calls = [
        ["frobnicate", "double", model],
        valid,
        ["check", "nonsense", model],
        valid,
        ["check", "double", model, "--seed", "seven"],
        valid,
        ["check", "double", str(tmp_path / "missing.model")],
        valid,
    ]
    first = [run_argv(argv) for argv in calls]
    assert [run_argv(argv) for argv in calls] == first
    assert cli._parser() is cli._parser()
    codes = [code for code, _, _ in first]
    assert codes == [2, 0, 2, 0, 2, 0, 2, 0]
    assert all(out == b"" for _, out, _ in first[::2])
    usage = b"usage: doublealg "
    assert first[0][2].startswith(usage) and b"invalid choice: 'frobnicate'" in first[0][2]
    assert first[2][2].startswith(usage) and b"unknown kind 'nonsense'" in first[2][2]
    assert first[4][2].startswith(usage) and b"invalid int value: 'seven'" in first[4][2]
    assert first[6][2].startswith(b"doublealg: error: [Errno 2]")
    code, out, err = first[1]
    sha = hashlib.sha256(out + b"\0" + err).hexdigest()
    assert (code, sha) == load_golden()[("check", "double", "t2m_double.pass", "json")]


def process_digests():
    """The sha256 digests one process gives the 22 bundled-model CLI calls,
    each model under the verb of its `# verify:` header in both formats,
    and the report lines of the sweep pairs at seed 1."""
    digests = {}
    for path in sorted(MODELS.glob("*")):
        verb, kind = path.read_text(encoding="utf-8").splitlines()[0][len("# verify: ") :].split()
        for fmt in FORMATS:
            code, sha = run_case(verb, kind, path, fmt)
            digests[f"{verb} {kind} {path.name} {fmt}"] = f"{code} {sha}"
    for name, (L, Lstar) in sweep_pairs([1]):
        reports = (check_bialgebroid(L, Lstar), check_double(build_cotangent_double(L, Lstar)))
        lines = "\n".join(line for report in reports for line in report.lines())
        digests[name] = hashlib.sha256(lines.encode()).hexdigest()
    return digests


def test_reports_do_not_depend_on_the_hash_seed():
    """The hash seed orders sets and dicts of strings; no report may depend
    on it.  Term order cannot leak in through it: exponent tuples of ints
    hash alike under every seed, and printers read the ordered `terms`."""
    script = "import json, test_report_golden; print(json.dumps(test_report_golden.process_digests()))"
    runs = []
    for seed in ("0", "4242"):
        env = {key: value for key, value in os.environ.items() if key != "DOUBLEALG_MAX_DEGREE"}
        env.update(PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(TESTS))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=TESTS)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == 22 + 8
    assert runs[0] == runs[1]


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

"""Shared test helpers: coordinate renaming, the corpus of doubles and
LA-vector bundles, with failing instances, and its dual pairs, the
Lie-Poisson ladder, the dual pairs of the benchmark sweep's families and
their cotangent doubles, seeded bialgebras, a model text with a
cobracket failing co-Jacobi, random brackets, the oracles kept from
replaced production code (the matched-pair checks, the gathering Cartan
differential, the frame-loop algebroid check and the frame change by any
invertible matrix), the dense structure tables the sparse store replaced,
and the constructions only the tests use (scalar polynomials in the model
grammar, the tangent prolongation)."""

import itertools
import pathlib
import random
from fractions import Fraction
from typing import Dict, List, Sequence

import catalog
import linalg
from doublealg.algebroid import (
    Derivation,
    LieAlgebroid,
    Multisection,
    PoissonChart,
    bracket_sections,
    change_frames,
    check_algebroid,
    check_bialgebroid,
    cotangent_algebroid,
    dual_poisson,
    random_polynomial,
    tangent_algebroid,
)
from doublealg.doublela import assemble_vacant_double, build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial, rat
from doublealg.liealg import Bialgebra, Cobracket, LieAlgebra
from doublealg.lavb import LAVBundle, check_lavb
from doublealg.matched import (
    MatchedPair,
    assemble_bowtie,
    build_semidirects,
    check_matched,
    check_representation,
)
from doublealg.model import parse_model
from doublealg.parsing import ParseError, Tokens, _parse_terms
from doublealg.verdicts import CheckItem, CheckReport, failed, passed

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
XY = Chart(("x", "y"))


# A model text with a cobracket whose dual bracket fails Jacobi beside a
# valid dual pair.
CO_JACOBI_MODEL = """\
[lie_algebra g]
dim = 3

[cobracket bad]
algebra = g
delta(e1) = e1 ^ e2
delta(e2) = e2 ^ e3
delta(e3) = e1 ^ e3

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
bracket(w1, w2) = w1
dual_of = TM
"""


def rename(p, target, mapping):
    """Transport `p` to the chart `target`, renaming coordinates via
    `mapping`; coordinates not mentioned keep their name.  Terms that land
    on one monomial add up."""
    index = [target.index(mapping.get(name, name)) for name in p.chart.names]
    acc = {}
    for exp, coeff in p.terms:
        new = [0] * target.dim
        for i, power in zip(index, exp):
            new[i] += power
        key = tuple(new)
        acc[key] = acc.get(key, 0) + coeff
    return Polynomial(target, acc)


def parse_polynomial(text: str, chart: Chart) -> Polynomial:
    """A scalar polynomial in the model-file grammar (no frame atoms)."""
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, (), allow_wedge=False, allow_vector_field=False)
    tokens.expect_done()
    total = Polynomial.zero(chart)
    for term in terms:
        if term.frame is not None or term.wedge is not None:
            raise ParseError("frame atom in a scalar polynomial")
        total = total + term.coeff
    return total


def poisson_bracket(P: PoissonChart, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_ij pi^ij d_i f d_j g on the chart of P."""
    out = Polynomial.zero(P.chart)
    names = P.chart.names
    for i, ni in enumerate(names):
        dfi = f.partial(ni)
        if not dfi:
            continue
        for j, nj in enumerate(names):
            if P.matrix[i][j]:
                out = out + P.matrix[i][j] * dfi * g.partial(nj)
    return out


def tangent_lavb(chart: Chart, bundle_frames: Sequence[str], core_frames: Sequence[str] | None = None) -> LAVBundle:
    """The tangent prolongation structure of a trivialized bundle.

    D = TA over side TM: linear sections are the coordinate lifts, core
    sections are the vertical lifts, the core anchor is the identity and
    all twists vanish.
    """
    side = tangent_algebroid(chart)
    bundle_frames = tuple(bundle_frames)
    if core_frames is None:
        core_frames = tuple(f"{f}_c" for f in bundle_frames)
    core_frames = tuple(core_frames)
    ra = len(bundle_frames)
    zero = Polynomial.zero(chart)
    ders = [
        Derivation(side.anchor_field(beta), [[zero] * ra for _ in range(ra)])
        for beta in range(chart.dim)
    ]
    ident = [
        [Polynomial.constant(chart, 1 if i == j else 0) for j in range(ra)]
        for i in range(ra)
    ]
    return LAVBundle(side, bundle_frames, core_frames, ders, ders, ident, {})


def dense_structure(L: LieAlgebroid):
    """The dense table the store replaced: structure[a][b][g] = c^g_{ab}
    for every frame pair, zeros included."""
    zero = Polynomial.zero(L.chart)
    table = []
    for row in L.nonzero_structure:
        dense_row = []
        for entry in row:
            vec = [zero] * L.rank
            for g, p in entry:
                vec[g] = p
            dense_row.append(tuple(vec))
        table.append(tuple(dense_row))
    return tuple(table)


def constants(g: LieAlgebroid):
    """The dense structure constants of a Lie algebra, an algebroid over the
    point: constants[i][j][k] = c^k_{ij} as a Fraction, zeros included."""
    if g.chart.dim != 0:
        raise ValueError("needs a point base")
    return tuple(
        tuple(tuple(p.terms[0][1] if p else Fraction(0) for p in vec) for vec in row)
        for row in dense_structure(g)
    )


def component(delta: Cobracket, i: int, j: int, k: int) -> Fraction:
    """The full antisymmetric component delta^{jk}_i of a cobracket."""
    if j == k:
        return Fraction(0)
    w = dict(delta.images[i])
    return w.get((j, k), Fraction(0)) if j < k else -w.get((k, j), Fraction(0))


def assert_matched_decides_bowtie_and_double(mp):
    """`check_matched` decides the two checks that the product does not run
    after it: the bowtie's axioms and the vacant double.  Holds for pairs whose derivations sit over the anchors, as
    every parsed or catalog pair does.  Returns the shared verdict."""
    verdict = check_matched(mp).ok
    assert check_algebroid(assemble_bowtie(mp)).ok is verdict
    assert check_double(assemble_vacant_double(mp)).ok is verdict
    return verdict


def check_cor_sdp(mp: MatchedPair) -> CheckReport:
    """The semidirect pair is a dual pair; run the bialgebroid check on it.

    By the semidirect correspondence this verdict must coincide with
    `check_matched` on every input (both truth values).
    """
    items: List[CheckItem] = []
    items.extend(check_representation(mp.algebroid_a, mp.rho, "rho").items)
    items.extend(check_representation(mp.algebroid_b, mp.sigma, "sigma").items)
    if not all(i.ok for i in items):
        return CheckReport(tuple(items))
    semidirect, opposite = build_semidirects(mp)
    rep = check_bialgebroid(semidirect, opposite)
    return CheckReport(tuple(items) + rep.prefixed("sdp").items)


def double_corpus():
    """Bundled doubles, vacant doubles of bundled matched pairs (matched or
    not), and cotangent doubles of valid and broken dual pairs."""
    out = []
    for path in sorted(MODELS.glob("*")):
        model = parse_model(path.read_text())
        out.extend((f"{path.name}:{n}", d) for n, d in model.doubles.items())
        out.extend(
            (f"{path.name}:{n}:vacant", assemble_vacant_double(mp))
            for n, mp in model.matched_pairs.items()
        )
    for name in (
        "tangent_cotangent_pair",
        "broken_dual_pair_point",
        "broken_dual_pair_chart",
        "broken_dual_pair_so3",
    ):
        out.append((name, build_cotangent_double(*getattr(catalog, name)())))
    return out


def bump(rng, v):
    """A seeded nonzero polynomial of degree <= 1 on the base chart of `v`."""
    return random_polynomial(rng, v.chart, 1) or Polynomial.constant(v.chart, 1)


def rebuilt(v, **changes):
    """`v` with some of its generator data replaced."""
    data = dict(
        anchor_derivations=v.anchor_derivations,
        core_derivations=v.core_derivations,
        core_anchor=v.core_anchor,
        twist={
            (a, b): v.twist[a][b]
            for a in range(v.side.rank)
            for b in range(a + 1, v.side.rank)
        },
    )
    data.update(changes)
    return LAVBundle(v.side, v.bundle_frames, v.core_frames, **data)


def bumped(rows, i, j, p):
    """`rows` with `p` added to entry (i, j)."""
    return [
        [e + p if (r, c) == (i, j) else e for c, e in enumerate(row)]
        for r, row in enumerate(rows)
    ]


def bumped_derivation(rng, v, ders):
    """`ders` with one matrix entry of one derivation moved by a bump."""
    beta = rng.randrange(len(ders))
    d = ders[beta]
    i, j = rng.randrange(d.bundle_rank), rng.randrange(d.bundle_rank)
    moved = Derivation(d.base_field, bumped(d.matrix, i, j, bump(rng, v)))
    return tuple(moved if k == beta else e for k, e in enumerate(ders))


def perturbations(name, v, seed):
    """Seeded perturbations of the twist, the core anchor and both kinds of
    derivation of `v`, each as (name, bundle).  Derivations keep their base
    fields, so each perturbation reaches the `generators` item."""
    rng = random.Random(seed)
    ra, rb, rc = v.bundle_rank, v.side.rank, v.core_rank
    out = []
    if rb >= 2 and ra and rc:
        twist = bumped(v.twist[0][1], rng.randrange(ra), rng.randrange(rc), bump(rng, v))
        out.append((f"{name}:twist", rebuilt(v, twist={(0, 1): twist})))
    if ra and rc:
        anchor = bumped(v.core_anchor, rng.randrange(rc), rng.randrange(ra), bump(rng, v))
        out.append((f"{name}:core_anchor", rebuilt(v, core_anchor=anchor)))
    if ra:
        ders = bumped_derivation(rng, v, v.anchor_derivations)
        out.append((f"{name}:anchor_derivation", rebuilt(v, anchor_derivations=ders)))
    if rc:
        ders = bumped_derivation(rng, v, v.core_derivations)
        out.append((f"{name}:core_derivation", rebuilt(v, core_derivations=ders)))
    return out


def lavb_corpus():
    """Both LA-vector bundles of every corpus double, and seeded
    perturbations of those of `t2m_double.pass` and of the cotangent double
    of `tangent_cotangent_pair`."""
    out = []
    for name, dla in double_corpus():
        out += [(f"{name}:vertical", dla.vertical), (f"{name}:horizontal", dla.horizontal)]
    for seed, (name, v) in enumerate(list(out)):
        if name.startswith(("t2m_double.pass", "tangent_cotangent_pair")):
            out += perturbations(name, v, seed)
    return out


def gl(n):
    """gl(n) on E_11, E_12, ..., E_nn with [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    basis = [(i, j) for i in range(n) for j in range(n)]
    brackets = {}
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(basis), 2):
        vec = [0] * len(basis)
        if j == k:
            vec[basis.index((i, l))] += 1
        if l == i:
            vec[basis.index((k, j))] -= 1
        if any(vec):
            brackets[(a, b)] = tuple(vec)
    return LieAlgebra(n * n, brackets)


SO3 = LieAlgebra(3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)})


def ladder_pair(g):
    """(TM, T*M_pi) for pi the Lie-Poisson structure on g*."""
    pi = dual_poisson(g)
    return tangent_algebroid(pi.chart), cotangent_algebroid(pi)


def ladder_doubles():
    """The cotangent doubles of the Lie-Poisson structures on so(3)* and
    gl(2)*."""
    return [
        (name, build_cotangent_double(*ladder_pair(g))) for name, g in (("so3", SO3), ("gl2", gl(2)))
    ]


def cotangent(f, frames=None):
    """T*M on (x, y) for pi = f d/dx ^ d/dy (every bivector on a surface is
    Poisson), with its frames renamed to `frames` if given."""
    zero = Polynomial.zero(XY)
    L = cotangent_algebroid(PoissonChart(XY, [[zero, f], [-f, zero]]))
    return change_frames(L, [[1, 0], [0, 1]], frames) if frames else L


def constant_bundle(c):
    """A rank-2 bundle on (x, y) with zero anchor and constant bracket c."""
    zero = Polynomial.zero(XY)
    bracket = tuple(Polynomial.constant(XY, v) for v in c)
    return LieAlgebroid(XY, ("ph1", "ph2"), [[zero, zero], [zero, zero]], {(0, 1): bracket})


SWEEP_FAMILIES = ("tangent_cotangent", "cotangent_tangent", "cotangent_pair", "constant_bundle")


def sweep_pairs(seeds):
    """The dual pairs of the benchmark sweep's families on (x, y): for each
    seed, two of each family in a seeded order, with random polynomials of
    degree 3.  (TM, T*M_pi) and (T*M_pi, TM) are bialgebroids; TM against a
    constant bracket c is one exactly when c = 0; a pair of cotangent
    algebroids is mostly not."""
    tm = tangent_algebroid(XY)
    out = []
    for seed in seeds:
        rng = random.Random(seed)

        def f():
            return random_polynomial(rng, XY, 3)

        families = [family for family in SWEEP_FAMILIES for _ in range(2)]
        rng.shuffle(families)
        for k, family in enumerate(families):
            if family == "tangent_cotangent":
                pair = (tm, cotangent(f()))
            elif family == "cotangent_tangent":
                pair = (cotangent(f()), tm)
            elif family == "cotangent_pair":
                pair = (cotangent(f()), cotangent(f(), ("ex", "ey")))
            else:
                pair = (tm, constant_bundle([rng.randint(-2, 2), rng.randint(-2, 2)]))
            out.append((f"sweep{seed}:{k}:{family}", pair))
    return out


def sweep_doubles(seeds):
    """The cotangent doubles of `sweep_pairs(seeds)`."""
    return [(name, build_cotangent_double(*pair)) for name, pair in sweep_pairs(seeds)]


def corpus_dual_pairs(corpus):
    """The dual pair of every double of `corpus` (a `double_corpus` result)
    whose LA-vector bundles pass, both ways round."""
    out = []
    for name, dla in corpus:
        if check_lavb(dla.vertical).ok and check_lavb(dla.horizontal).ok:
            L, Lstar = dla.dual_pair
            out += [(name, (L, Lstar)), (f"{name}:reversed", (Lstar, L))]
    return out


def random_bialgebra(
    rng: random.Random, dim: int, bracket_density: float = 0.5, cobracket_density: float = 0.3
) -> Bialgebra:
    """Random constants and cobracket with small entries, built without
    the gates: neither Jacobi, co-Jacobi nor the cocycle condition is
    required, and from dim 3 on most draws fail one of them.  Each bracket
    and each cobracket component is drawn with the given probability."""
    pairs = list(itertools.combinations(range(dim), 2))
    brackets = {
        pair: tuple(Fraction(rng.choice((0, 0, 1, -1))) for _ in range(dim))
        for pair in pairs
        if rng.random() < bracket_density
    }
    images = {
        i: {pair: rng.choice((1, -1, 2)) for pair in pairs if rng.random() < cobracket_density}
        for i in range(dim)
    }
    return Bialgebra(LieAlgebra(dim, brackets), Cobracket(dim, images))


def gate_corpus():
    """400 seeded random bialgebras, dims 2-5, at three bracket and three
    cobracket densities, none of the axioms imposed."""
    rng = random.Random(5)
    return [
        random_bialgebra(rng, 2 + k % 4, (0.15, 0.35, 0.6)[k // 4 % 3], (0.1, 0.25, 0.45)[k // 12 % 3])
        for k in range(400)
    ]


def random_bracket(rng, frames):
    """A bundle on (x, y) with random anchor and bracket; Jacobi and the
    anchor morphism generally fail."""
    r = len(frames)
    anchor = [[random_polynomial(rng, XY, 1) for _ in range(2)] for _ in range(r)]
    brackets = {
        (a, b): tuple(random_polynomial(rng, XY, 1) for _ in range(r))
        for a in range(r)
        for b in range(a + 1, r)
    }
    return LieAlgebroid(XY, frames, anchor, brackets)


def gather_differential(L, omega):
    """The Cartan differential gathered over every (k+1)-subset of frames,
    each component looked up with its sign: the oracle for the scattering
    `algebroid.differential`."""
    if omega.rank != L.rank:
        raise ValueError("form rank does not match algebroid")
    k = omega.degree
    if k >= L.rank + 1:
        return Multisection.zero(L.rank, k + 1)
    structure = dense_structure(L)
    acc: Dict = {}
    for target in itertools.combinations(range(L.rank), k + 1):
        total = Polynomial.zero(L.chart)
        for i, frame in enumerate(target):
            rest = target[:i] + target[i + 1 :]
            part = omega.component_general(rest, L.chart)
            term = L.anchor_field(frame).apply(part)
            total = total + (term if i % 2 == 0 else -term)
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = tuple(t for pos, t in enumerate(target) if pos not in (i, j))
            bracket = structure[target[i]][target[j]]
            term = Polynomial.zero(L.chart)
            for gamma, coeff in enumerate(bracket):
                if coeff:
                    term = term + coeff * omega.component_general((gamma,) + rest, L.chart)
            total = total + (term if (i + j) % 2 == 0 else -term)
        if total:
            acc[target] = total
    return Multisection(L.rank, k + 1, acc)


def frame_loop_check_algebroid(L: LieAlgebroid) -> CheckReport:
    """The algebroid axioms through `bracket_sections` on frame sections:
    the anchor morphism on frame pairs and the Jacobiator, three brackets
    per frame triple.  The oracle for the closed-form
    `algebroid.check_algebroid`."""
    items: List[CheckItem] = []
    witness = None
    for a, b in itertools.combinations(range(L.rank), 2):
        lhs = L.anchor_of(L.frame_bracket(a, b))
        rhs = L.anchor_field(a).commutator(L.anchor_field(b))
        defect = lhs - rhs
        if not defect.is_zero:
            witness = (
                f"pair ({L.frames[a]}, {L.frames[b]}): a([.,.]) - [a(.), a(.)] = {defect}"
            )
            break
    items.append(failed("anchor_morphism", witness) if witness else passed("anchor_morphism"))

    witness = None
    for a, b, c in itertools.combinations(range(L.rank), 3):
        jac = bracket_sections(L, L.frame_bracket(a, b), L.frame_section(c))
        jac = jac + bracket_sections(L, L.frame_bracket(b, c), L.frame_section(a))
        jac = jac + bracket_sections(L, L.frame_bracket(c, a), L.frame_section(b))
        if not jac.is_zero:
            witness = (
                f"triple ({L.frames[a]}, {L.frames[b]}, {L.frames[c]}): "
                f"jacobiator = {jac.format(L.frames)}"
            )
            break
    items.append(failed("jacobi", witness) if witness else passed("jacobi"))
    return CheckReport(tuple(items))


def general_change_frames(L: LieAlgebroid, matrix, new_names) -> LieAlgebroid:
    """Constant frame change by any invertible matrix; column j of `matrix`
    is new frame j in old frames.  The oracle for `algebroid.change_frames`,
    which accepts only signed permutation matrices."""
    r = L.rank
    cols = [[rat(matrix[i][j]) for i in range(r)] for j in range(r)]
    inv = linalg.inverse([[rat(matrix[i][j]) for j in range(r)] for i in range(r)])
    zero = Polynomial.zero(L.chart)
    anchor = []
    for j in range(r):
        row = [zero for _ in range(L.chart.dim)]
        for i in range(r):
            if cols[j][i] == 0:
                continue
            row = [acc + entry.scale(cols[j][i]) for acc, entry in zip(row, L.anchor[i])]
        anchor.append(tuple(row))
    structure = dense_structure(L)
    brackets = {}
    for a, b in itertools.combinations(range(r), 2):
        old_vec = [zero for _ in range(r)]
        for i in range(r):
            if cols[a][i] == 0:
                continue
            for j in range(r):
                if cols[b][j] == 0:
                    continue
                coeff = cols[a][i] * cols[b][j]
                old_vec = [
                    acc + entry.scale(coeff) for acc, entry in zip(old_vec, structure[i][j])
                ]
        new_vec = [zero for _ in range(r)]
        for k in range(r):
            if not old_vec[k]:
                continue
            for m in range(r):
                if inv[m][k] != 0:
                    new_vec[m] = new_vec[m] + old_vec[k].scale(inv[m][k])
        brackets[(a, b)] = tuple(new_vec)
    return LieAlgebroid(L.chart, tuple(new_names), anchor, brackets)

"""Shared test helpers, in three kinds.

The gate corpora: each built once per session by a cached builder
(`diagnostics_doubles`, `tt_doubles`, `matched_gate_pairs`,
`vacant_gate_doubles`, `gate_doubles`), so that every gate reading one
shares its objects and the structures they derive; `count_calls`; and the
corpora they draw on: bundled and catalog doubles with seeded
perturbations, the Lie-Poisson ladder, the dual pairs of the benchmark
sweep, `tt_pair`, seeded bialgebras that keep their cobracket images
(`ImageBialgebra`) and random brackets.

The oracles: code that the package replaced, kept to be compared with the
code that replaced it; each docstring says what it replaced, and
CHANGES.md records when.

Constructions only the tests use: model texts (`CO_JACOBI_MODEL`,
`POISSON_PAIR_MODEL`), coordinate renaming, scalar polynomials
in the model grammar, the tangent prolongation, the standard Lie
bialgebra on gl(n), the `Fraction`-only reference polynomial and the sum
of multisections (`add_sections`)."""

import functools
import itertools
import pathlib
import random
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import catalog
import linalg
from doublealg.algebroid import (
    RANDOM_PAIRS,
    LieAlgebroid,
    Multisection,
    PoissonChart,
    VectorField,
    anchor_defect,
    bracket_sections,
    change_frames,
    check_algebroid,
    check_bialgebroid,
    compatibility_defect,
    cotangent_algebroid,
    differential,
    dual_poisson,
    fibre_coordinate,
    first_jacobiator,
    frame_defect,
    jacobiator,
    random_polynomial,
    random_section,
    schouten,
    sparse_matrix,
    tangent_algebroid,
    unique_names,
    _accumulate,
    _add_wedge,
    _first_nonzero,
    _wedge_into,
)
from doublealg.doublela import (
    DoubleLieAlgebroid,
    DoubleMismatch,
    assemble_vacant_double,
    build_cotangent_double,
    check_double,
)
from doublealg.exact import (
    _MASK,
    EXPONENT_BITS,
    Chart,
    ChartMismatch,
    Coefficient,
    DegreeOverflow,
    Exponent,
    Polynomial,
    monomial_atoms,
    rat,
    signed_sum,
)
from doublealg.formatting import format_combination
from doublealg.liealg import (
    Bialgebra,
    BialgebraError,
    LieAlgebra,
    Wedge,
    cobracket_dual,
)
from doublealg.lavb import LAVBundle, check_lavb
from doublealg.matched import (
    MatchedPair,
    assemble_bowtie,
    build_semidirects,
    check_matched,
    vacant_lavbundles,
)
from doublealg.model import parse_model
from doublealg.parsing import (
    _TOKEN,
    _TOO_HIGH,
    MAX_TOTAL_DEGREE,
    ParseError,
    Tokens,
    _integer,
    _parse_rational,
    _parse_terms,
    _require_bounded,
)
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


# Two Poisson algebroids over (x, y) that fail every compatibility family:
# P is the cotangent algebroid of pi = x * y d/dx ^ d/dy and Q that of
# x^2 d/dx ^ d/dy.  The `random` trial of their cotangent double runs the
# section calculus on 4-coordinate sections over (x, y, xi_dx', xi_dy').
POISSON_PAIR_MODEL = """\
[chart M]
coords = [x, y]

[algebroid P]
base = M
frame = [dx, dy]
anchor(dx) = x * y * d/dy
anchor(dy) = -x * y * d/dx
bracket(dx, dy) = y * dx + x * dy

[algebroid Q]
base = M
frame = [ex, ey]
anchor(ex) = x^2 * d/dy
anchor(ey) = -x^2 * d/dx
bracket(ex, ey) = 2 * x * ex
dual_of = P
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


def term_polynomial(chart: Chart, term) -> Polynomial:
    """The polynomial of a parsed term's monomial."""
    return Polynomial(chart, {tuple(term.exps): term.coeff})


def parse_polynomial(text: str, chart: Chart) -> Polynomial:
    """A scalar polynomial in the model-file grammar (no frame atoms)."""
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, (), allow_wedge=False, allow_vector_field=False)
    tokens.expect_done()
    total = Polynomial.zero(chart)
    for term in terms:
        if term.atom is not None:
            raise ParseError("frame atom in a scalar polynomial")
        total = total + term_polynomial(chart, term)
    return total


class FractionPolynomial:
    """Reference for the exact kernel: a polynomial kept as a dict from
    exponent tuple to nonzero coefficient, every coefficient a `Fraction`
    whatever its value, each operation written out term by term."""

    def __init__(self, names: Sequence[str], terms):
        self.names = tuple(names)
        self.terms = {tuple(exp): Fraction(c) for exp, c in terms.items() if c}

    @classmethod
    def of(cls, p: Polynomial) -> "FractionPolynomial":
        return cls(p.chart.names, dict(p.terms))

    def matches(self, p: Polynomial) -> bool:
        """`p` has this chart and these coefficient values."""
        return p.chart.names == self.names and dict(p.terms) == self.terms

    def _combine(self, other, sign: int) -> "FractionPolynomial":
        acc = dict(self.terms)
        for exp, c in other.terms.items():
            acc[exp] = acc.get(exp, Fraction(0)) + sign * c
        return FractionPolynomial(self.names, acc)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        acc: Dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc[exp] = acc.get(exp, Fraction(0)) + c1 * c2
        return FractionPolynomial(self.names, acc)

    def scale(self, value) -> "FractionPolynomial":
        return FractionPolynomial(self.names, {e: Fraction(value) * c for e, c in self.terms.items()})

    def partial(self, name: str) -> "FractionPolynomial":
        i = self.names.index(name)
        acc = {}
        for exp, c in self.terms.items():
            if exp[i]:
                acc[exp[:i] + (exp[i] - 1,) + exp[i + 1 :]] = c * exp[i]
        return FractionPolynomial(self.names, acc)

    def lift(self, names: Sequence[str]) -> "FractionPolynomial":
        powers = [dict(zip(self.names, exp)) for exp in self.terms]
        return FractionPolynomial(
            names,
            {tuple(pw.get(n, 0) for n in names): c for pw, c in zip(powers, self.terms.values())},
        )

    def __str__(self) -> str:
        out = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            atoms = [n if k == 1 else f"{n}^{k}" for n, k in zip(self.names, exp) if k]
            mag = abs(c)
            number = f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            body = " * ".join(([number] if mag != 1 or not atoms else []) + atoms)
            if out:
                out.append(f" + {body}" if c > 0 else f" - {body}")
            else:
                out.append(body if c > 0 else f"-{body}")
        return "".join(out) or "0"


def _canonical(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


@dataclass(frozen=True)
class TuplePolynomial:
    """The exact kernel as it was before exponents were packed: one map from
    exponent tuple to nonzero `int` or proper `Fraction` coefficient, each
    operation written out term by term.  The packed kernel is compared with
    it operation by operation."""

    chart: Chart
    coeffs: Dict[tuple, object]

    @classmethod
    def of(cls, chart: Chart, terms) -> "TuplePolynomial":
        return cls._store(chart, {tuple(e): rat(c) for e, c in terms.items()})

    @classmethod
    def _store(cls, chart: Chart, acc) -> "TuplePolynomial":
        return cls(chart, {e: _canonical(c) for e, c in acc.items() if c})

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.coeffs.items())))

    @property
    def terms(self):
        return tuple(sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True))

    def __add__(self, other):
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return TuplePolynomial._store(self.chart, acc)

    def __neg__(self):
        return TuplePolynomial(self.chart, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        acc: Dict[tuple, object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return TuplePolynomial._store(self.chart, acc)

    def scale(self, value):
        c = rat(value)
        return TuplePolynomial._store(self.chart, {e: c * k for e, k in self.coeffs.items()})

    def partial(self, name: str):
        i = self.chart.index(name)
        acc = {}
        for e, c in self.coeffs.items():
            if e[i]:
                acc[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return TuplePolynomial._store(self.chart, acc)

    def lift(self, target: Chart):
        index = [target.index(name) for name in self.chart.names]
        acc = {}
        for e, c in self.coeffs.items():
            new = [0] * target.dim
            for j, power in zip(index, e):
                new[j] = power
            acc[tuple(new)] = c
        return TuplePolynomial(target, acc)

    def __str__(self) -> str:
        return signed_sum((c, monomial_atoms(self.chart, e)) for e, c in self.terms)


def dense_apply(field: VectorField, f: Polynomial) -> Polynomial:
    """X(f) by the scan `VectorField.apply` replaced: it zips every
    component of the field, zeros included, with the coordinate shifts on
    each call, and raises as `apply` does."""
    chart = field.chart
    if f.chart is not chart and f.chart.names != chart.names:
        raise ChartMismatch(f"charts differ: {chart} vs {f.chart}")
    if not f.coeffs:
        return chart._zero
    acc: Dict[int, Coefficient] = {}
    get = acc.get
    limit = chart._limit
    terms = f.coeffs.items()
    for comp, shift, unit in zip(field.components, chart._shifts, chart._units):
        if not comp.coeffs:
            continue
        right = comp.coeffs.items()
        for e1, c1 in terms:
            power = e1 >> shift & _MASK
            if not power:
                continue
            lowered = e1 - unit
            scaled = c1 * power
            for e2, c2 in right:
                exp = lowered + e2
                if exp >= limit:
                    raise DegreeOverflow
                acc[exp] = get(exp, 0) + scaled * c2
    if not acc:
        return chart._zero
    return Polynomial._from_terms(chart, acc)


def tuple_apply(components: Sequence[TuplePolynomial], f: TuplePolynomial) -> TuplePolynomial:
    """X(f) = sum_i X^i df/dx^i in the tuple kernel."""
    total = TuplePolynomial(f.chart, {})
    for name, comp in zip(f.chart.names, components):
        total = total + comp * f.partial(name)
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


def bivector(P: PoissonChart) -> Multisection:
    """P as a degree-2 multisection of the tangent algebroid of its chart."""
    n = P.chart.dim
    return Multisection(
        n, 2, {(i, j): P.matrix[i][j] for i, j in itertools.combinations(range(n), 2)}
    )


def schouten_jacobiator(P: PoissonChart) -> Multisection:
    """[pi, pi] through `schouten` on the tangent algebroid, the route that
    `PoissonChart.jacobiator` replaced by twice its cyclic sums."""
    pi = bivector(P)
    return schouten(tangent_algebroid(P.chart), pi, pi)


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
    ders = [zero_derivation(chart, ra) for _ in range(chart.dim)]
    ident = [
        [Polynomial.constant(chart, 1 if i == j else 0) for j in range(ra)]
        for i in range(ra)
    ]
    return LAVBundle(side, bundle_frames, core_frames, ders, ders, entries(ident), {})


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


def dense_twist(v):
    """The dense table the twist store replaced: twist[alpha][beta][a][gamma]
    for every side-frame pair, zero matrices included, the beta < alpha half
    the negation of the alpha < beta half."""
    ra, rc = v.bundle_rank, v.core_rank
    zero_mat = dense((), ra, rc, v.chart)
    table = [[zero_mat] * v.side.rank for _ in range(v.side.rank)]
    for (a, b), mat in v.twist:
        table[a][b] = dense(mat, ra, rc, v.chart)
        table[b][a] = [[-p for p in row] for row in table[a][b]]
    return table


def dense_data(v):
    """The generator data of `v` in the dense form the sparse store
    replaced: the anchor and core derivation matrices, the core anchor and
    the dense twist table, zeros included."""
    chart, ra, rc = v.chart, v.bundle_rank, v.core_rank
    return (
        [dense(m, ra, ra, chart) for m in v.anchor_derivations],
        [dense(m, rc, rc, chart) for m in v.core_derivations],
        dense(v.core_anchor, rc, ra, chart),
        dense_twist(v),
    )


def dense_dual_data(v):
    """The dense data of `lavb.dual_lavb(v)` (bundle C*, core A*) as the
    dense code computed it: contragredients of the core and anchor
    derivations, the negated transpose of the core anchor and the
    transposed twists."""
    anchor_ders, core_ders, core_anchor, twist = dense_data(v)

    def transposed(m, rows):
        return [[row[i] for row in m] for i in range(rows)]

    def contragredient(m):
        return [[-p for p in row] for row in transposed(m, len(m))]

    return (
        [contragredient(m) for m in core_ders],
        [contragredient(m) for m in anchor_ders],
        [[-p for p in row] for row in transposed(core_anchor, v.bundle_rank)],
        [[transposed(mat, v.core_rank) for mat in row] for row in twist],
    )


def dense_generator_algebroid(side, data, fibre_names, core_names):
    """The dense builder `lavb._generator_algebroid` replaced: the
    algebroid over `side` of the dense generator data `data` (a
    `dense_data` result), with a bracket vector for every pair (alpha,
    beta) and (beta, core gamma), zero vectors included."""
    return LieAlgebroid(*dense_generator_input(side, data, fibre_names, core_names))


def dense_generator_input(side, data, fibre_names, core_names):
    """The (chart, frames, anchor, brackets) that `dense_generator_algebroid`
    gives the validating constructor."""
    anchor_derivations, core_derivations, core_anchor, twist = data
    chart = side.chart.extend(fibre_names)
    n, ra, rb, rc = side.chart.dim, len(fibre_names), side.rank, len(core_names)
    zero = Polynomial.zero(chart)
    u = [Polynomial.coordinate(chart, name) for name in fibre_names]
    anchor_rows = []
    for beta in range(rb):
        d = anchor_derivations[beta]
        row = [c.lift(chart) for c in side.anchor_fields[beta].components]
        for a in range(ra):
            entry = zero
            for b in range(ra):
                m = d[b][a]
                if m:
                    entry = entry - m.lift(chart) * u[b]
            row.append(entry)
        anchor_rows.append(tuple(row))
    for gamma in range(rc):
        row = [zero for _ in range(n)]
        for a in range(ra):
            row.append(core_anchor[gamma][a].lift(chart))
        anchor_rows.append(tuple(row))
    brackets = {}
    for al, be in itertools.combinations(range(rb), 2):
        vec = [zero for _ in range(rb + rc)]
        for g, coeff in side.nonzero_structure[al][be]:
            vec[g] = coeff.lift(chart)
        for g in range(rc):
            entry = zero
            for a in range(ra):
                t = twist[al][be][a][g]
                if t:
                    entry = entry + t.lift(chart) * u[a]
            vec[rb + g] = entry
        brackets[(al, be)] = tuple(vec)
    for beta in range(rb):
        q = core_derivations[beta]
        for gamma in range(rc):
            vec = [zero for _ in range(rb + rc)]
            for delta in range(rc):
                m = q[gamma][delta]
                if m:
                    vec[rb + delta] = m.lift(chart)
            brackets[(beta, rb + gamma)] = tuple(vec)
    return chart, side.frames + tuple(core_names), anchor_rows, brackets


def constants(g: LieAlgebroid):
    """The dense structure constants of a Lie algebra, an algebroid over the
    point: constants[i][j][k] = c^k_{ij} as a Fraction, zeros included."""
    if g.chart.dim != 0:
        raise ValueError("needs a point base")
    return tuple(
        tuple(tuple(p.terms[0][1] if p else Fraction(0) for p in vec) for vec in row)
        for row in dense_structure(g)
    )


@dataclass(frozen=True)
class Cobracket:
    """delta(e_i) as an exterior-square element: images[i] holds its nonzero
    components ((j, k), delta^{jk}_i) with j < k, in increasing (j, k).
    The package stored this form beside g*; the oracles read it as the
    images a test built."""

    dim: int
    images: Tuple[Tuple[Tuple[Tuple[int, int], Fraction], ...], ...]

    def __init__(self, dim: int, images: Mapping[int, Wedge] | None = None):
        object.__setattr__(self, "dim", dim)
        table = []
        source = images or {}
        for i in range(dim):
            cleaned: Wedge = {}
            for (j, k), coeff in source.get(i, {}).items():
                coeff = rat(coeff)
                if coeff == 0:
                    continue
                if j == k:
                    raise ValueError("wedge of a basis vector with itself")
                if j < k:
                    cleaned[(j, k)] = cleaned.get((j, k), 0) + coeff
                else:
                    cleaned[(k, j)] = cleaned.get((k, j), 0) - coeff
            table.append(tuple(sorted((p, c) for p, c in cleaned.items() if c != 0)))
        object.__setattr__(self, "images", tuple(table))


@dataclass(frozen=True)
class ImageBialgebra(Bialgebra):
    """A `Bialgebra` with the cobracket a test built it from.  The oracles
    read `cobracket`, never `dual`, so they do not depend on
    `liealg.cobracket_dual`, which built `dual`."""

    cobracket: Cobracket


def bialgebra(algebra: LieAlgebroid, images: Mapping[int, Wedge] | None = None) -> ImageBialgebra:
    """The bialgebra of `algebra` with the cobracket delta(e_i) = images[i]."""
    images = images or {}
    return ImageBialgebra(
        algebra, cobracket_dual(algebra, images), Cobracket(algebra.rank, images)
    )


def parsed_bialgebra(b: Bialgebra) -> ImageBialgebra:
    """`b`, read from a model file, with its cobracket read back off g* by
    the determinant pairing: delta^{ij}_k = <[eps^i, eps^j]_*, e_k>."""
    c = constants(b.dual)
    pairs = list(itertools.combinations(range(b.dim), 2))
    images = {k: {(i, j): c[i][j][k] for i, j in pairs if c[i][j][k]} for k in range(b.dim)}
    out = bialgebra(b.algebra, images)
    assert out.dual == b.dual
    return out


def image_drinfeld_double(b: ImageBialgebra) -> LieAlgebroid:
    """`liealg.drinfeld_double` as it read the cobracket images: g* rebuilt
    from the images on each call and the mixed bracket scattered from them,
    with the same gates, in the same order and with the same error texts."""
    n, point = b.dim, Chart(())
    dual_names = tuple(f"{name}_d" for name in b.algebra.frames)

    def scattered(size, entries):
        zero = Polynomial.zero(point)
        out: Dict = {}
        for a, c, k, value in entries:
            out.setdefault((a, c), [zero] * size)[k] = value
        return out

    g = b.algebra
    dual = LieAlgebroid(
        point,
        dual_names,
        [()] * n,
        scattered(
            n,
            (
                (i, j, k, Polynomial.constant(point, c))
                for k, image in enumerate(b.cobracket.images)
                for (i, j), c in image
            ),
        ),
    )
    for side, label in ((g, "algebra"), (dual, "dual bracket")):
        found = first_jacobiator(side)
        if found:
            (i, j, k), jac = found
            names = side.frames
            raise BialgebraError(
                f"{label} fails Jacobi: triple ({names[i]}, {names[j]}, {names[k]}): "
                f"jacobiator = {format_combination(jac.vector(side.chart), names)}"
            )
    names = g.frames
    for i, j in itertools.combinations(range(n), 2):
        defect = frame_defect(g, dual, i, j)
        if any(defect.values()):
            wedge = {idx: -(p.terms[0][1] if p.terms else 0) for idx, p in defect.items() if p}
            raise BialgebraError(
                f"cocycle condition fails: pair ({names[i]}, {names[j]}): "
                f"defect = {format_wedge(wedge, names)}"
            )
    clash = next((name for name in dual_names if name in names), None)
    if clash is not None:
        raise BialgebraError(f"dual basis name {clash!r} is already a basis name")

    def entries():
        for offset, side in ((0, g), (n, dual)):
            for i, row in enumerate(side.nonzero_structure):
                for j in range(i + 1, n):
                    for k, c in row[j]:
                        yield offset + i, offset + j, offset + k, c
        for i, image in enumerate(b.cobracket.images):
            for (j, k), c in image:
                yield i, n + j, k, Polynomial.constant(point, c)
                yield i, n + k, j, Polynomial.constant(point, -c)
        for i, row in enumerate(g.nonzero_structure):
            for k, pairs in enumerate(row):
                for j, c in pairs:
                    yield i, n + j, n + k, -c

    return LieAlgebroid(point, names + dual_names, [()] * (2 * n), scattered(2 * n, entries()))


def format_wedge(w: Wedge, names: Sequence[str]) -> str:
    """The bivector sum of w[(j, k)] e_j ^ e_k, in increasing pairs."""
    return signed_sum((w[(j, k)], [f"{names[j]} ^ {names[k]}"]) for j, k in sorted(w))


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


# --- vector fields and derivations as operators on sections, and the
# matched-pair check built on them: the oracle of `matched.check_matched`


def commutator(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] of two vector fields."""
    return VectorField(
        x.chart, [x.apply(yc) - y.apply(xc) for xc, yc in zip(x.components, y.components)]
    )


def zero_field(chart: Chart) -> VectorField:
    return VectorField(chart, [Polynomial.zero(chart)] * chart.dim)


def add_fields(x: VectorField, y: VectorField) -> VectorField:
    return VectorField(x.chart, [a + b for a, b in zip(x.components, y.components)])


def difference(x: VectorField, y: VectorField) -> VectorField:
    return VectorField(x.chart, [a - b for a, b in zip(x.components, y.components)])


def scale_field(x: VectorField, f: Polynomial) -> VectorField:
    """f X, componentwise."""
    return VectorField(x.chart, [f * c for c in x.components])


def applied(x: VectorField, f: Polynomial) -> Polynomial:
    """X(f) as the sum of X^i * df/dx^i over the nonzero components: the
    oracle of the one-pass `VectorField.apply`."""
    out = Polynomial.zero(x.chart)
    if not f:
        return out
    for name, comp in zip(x.chart.names, x.components):
        if comp:
            out = out + comp * f.partial(name)
    return out


def anchor_of(L: LieAlgebroid, x: Multisection) -> VectorField:
    """a(x) = sum_alpha x^alpha a(e_alpha), read off the sums
    `LieAlgebroid._anchor_sums` that `bracket_sections` shares."""
    chart = L.chart
    for _, coeff in x.components:
        if coeff.chart is not chart and coeff.chart.names != chart.names:
            raise ChartMismatch(f"charts differ: {chart} vs {coeff.chart}")
    comps = tuple(Polynomial._from_terms(chart, acc) for acc in L._anchor_sums(x))
    return VectorField(chart, comps)


def anchor_of_sum(L: LieAlgebroid, x: Multisection) -> VectorField:
    """a(x) as the sum of x^alpha a(e_alpha) over the nonzero coefficients:
    the oracle of the one-pass `anchor_of`."""
    out = zero_field(L.chart)
    for alpha, coeff in enumerate(x.vector(L.chart)):
        if coeff:
            out = add_fields(out, scale_field(L.anchor_fields[alpha], coeff))
    return out


def leibniz_bracket_sections(L: LieAlgebroid, x: Multisection, y: Multisection) -> Multisection:
    """[X, Y] by the Leibniz expansion over polynomial coefficients, through
    `anchor_of` and `VectorField.apply`: the oracle of the one-pass
    `algebroid.bracket_sections`, whose error types it raises."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("bracket_sections needs degree-1 sections")
    if x.rank != L.rank or y.rank != L.rank:
        raise ValueError("section rank does not match algebroid")
    xs, ys = x.vector(L.chart), y.vector(L.chart)
    acc: Dict = {}

    def add(k: int, poly: Polynomial) -> None:
        if poly:
            acc[(k,)] = acc[(k,)] + poly if (k,) in acc else poly

    for a, fa in enumerate(xs):
        if not fa:
            continue
        for b, gb in enumerate(ys):
            if not gb:
                continue
            for k, c in L.nonzero_structure[a][b]:
                add(k, fa * gb * c)
    ax, ay = anchor_of(L, x), anchor_of(L, y)
    for k in range(L.rank):
        add(k, ax.apply(ys[k]) - ay.apply(xs[k]))
    return Multisection(L.rank, 1, acc)


def summed_atoms(text: str, chart: Chart, frames: Sequence[str] | None = None) -> List[Polynomial]:
    """The coefficient of each frame of `frames` in a frame combination, or
    of each d/d<coord> in a vector field when `frames` is None, summed term
    by term into a running `Polynomial`: the oracle of
    `parsing.parse_combination` and `parsing.parse_vector_field`, errors
    included."""
    directions = frames is None
    atoms = list(chart.names) if directions else list(frames)
    tokens = Tokens(text)
    terms = _parse_terms(
        tokens, chart, () if directions else tuple(frames), allow_wedge=False, allow_vector_field=directions
    )
    tokens.expect_done()
    out = [Polynomial.zero(chart) for _ in atoms]
    for term in terms:
        if term.atom is None:
            if term.coeff == 0:
                continue
            kind = "direction in a vector field" if directions else "frame in a frame combination"
            raise ParseError(f"term without a {kind}")
        k = atoms.index(term.atom)
        out[k] = out[k] + term_polynomial(chart, term)
    _require_bounded(c for poly in out for _, c in poly.terms)
    return out


class ReferenceTokens(Tokens):
    """The tokenizer that named each token's kind in three branches.  Like
    `Tokens`, it names a bad character itself, not the blank before it."""

    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].lstrip()
                if rest:
                    raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
                break
            if m.group("int") is not None:
                self.items.append(("int", m.group("int"), m.start()))
            elif m.group("name") is not None:
                self.items.append(("name", m.group("name"), m.start()))
            else:
                self.items.append(("sym", m.group("sym"), m.start()))
            pos = m.end()
        self.k = 0


class ReferenceTerm:
    """One signed product as the parser held it before a term was one
    monomial: a polynomial coefficient, an optional frame or direction and
    an optional wedge pair."""

    def __init__(self) -> None:
        self.coeff: Polynomial | None = None
        self.frame: str | None = None
        self.pair: Tuple[str, str] | None = None


def reference_parse_terms(
    tokens: Tokens,
    chart: Chart,
    frames: Tuple[str, ...],
    allow_wedge: bool,
    allow_vector_field: bool,
) -> List[ReferenceTerm]:
    """The term loop that multiplied a `Polynomial` for each factor: the
    oracle of `parsing._parse_terms`."""
    coord_set = set(chart.names)
    frame_set = set(frames)
    terms: List[ReferenceTerm] = []
    sign = 1
    if tokens.accept_sym("-"):
        sign = -1
    while True:
        term = ReferenceTerm()
        term.coeff = Polynomial.constant(chart, sign)
        degree = 0
        while True:
            tok = tokens.peek()
            if tok is None:
                raise ParseError("expected factor", len(tokens.text))
            kind, value, pos = tok
            if kind == "int":
                term.coeff = term.coeff * Polynomial.constant(chart, _parse_rational(tokens))
            elif kind == "name":
                if (
                    allow_vector_field
                    and value == "d"
                    and tokens.peek(1) is not None
                    and tokens.peek(1)[:2] == ("sym", "/")
                ):
                    tokens.next()
                    tokens.next()
                    kind2, dname, pos2 = tokens.next()
                    if kind2 != "name" or not dname.startswith("d"):
                        raise ParseError("expected d/d<coord>", pos2)
                    coord = dname[1:]
                    if coord not in coord_set:
                        raise ParseError(f"unknown coordinate {coord!r} in d/d{coord}", pos2)
                    if term.frame is not None:
                        raise ParseError("two directions in one term", pos)
                    term.frame = coord
                else:
                    tokens.next()
                    nxt = tokens.peek()
                    if nxt is not None and nxt[:2] == ("sym", "^"):
                        after = tokens.peek(1)
                        if after is not None and after[0] == "int":
                            tokens.next()
                            _, literal, _ = tokens.next()
                            if value not in coord_set:
                                raise ParseError(f"unknown coordinate {value!r}", pos)
                            power = _integer(literal)
                            degree += power
                            if degree > MAX_TOTAL_DEGREE:
                                raise ValueError(_TOO_HIGH)
                            exp = tuple(power if name == value else 0 for name in chart.names)
                            term.coeff = term.coeff * Polynomial(chart, {exp: 1})
                            if not tokens.accept_sym("*"):
                                break
                            continue
                        if allow_wedge and after is not None and after[0] == "name":
                            tokens.next()
                            _, second, _ = tokens.next()
                            if value not in frame_set or second not in frame_set:
                                raise ParseError(f"unknown wedge pair {value}^{second}", pos)
                            if term.pair is not None or term.frame is not None:
                                raise ParseError("two atoms in one term", pos)
                            term.pair = (value, second)
                            if not tokens.accept_sym("*"):
                                break
                            continue
                        raise ParseError("expected exponent or wedge partner after ^", pos)
                    if value in coord_set:
                        degree += 1
                        if degree > MAX_TOTAL_DEGREE:
                            raise ValueError(_TOO_HIGH)
                        term.coeff = term.coeff * Polynomial.coordinate(chart, value)
                    elif value in frame_set:
                        if term.frame is not None or term.pair is not None:
                            raise ParseError(f"two frame atoms in one term near {value!r}", pos)
                        term.frame = value
                    else:
                        raise ParseError(f"unknown symbol {value!r}", pos)
            else:
                raise ParseError(f"expected factor, got {value!r}", pos)
            if not tokens.accept_sym("*"):
                break
        terms.append(term)
        if tokens.accept_sym("+"):
            sign = 1
        elif tokens.accept_sym("-"):
            sign = -1
        else:
            return terms


def _reference_collect(acc: Dict[int, Coefficient], poly: Polynomial) -> None:
    for exp, coeff in poly.coeffs.items():
        acc[exp] = acc.get(exp, 0) + coeff


def reference_parse_combination(text: str, chart: Chart, frames: Tuple[str, ...]) -> Dict[str, Polynomial]:
    """The frame-combination reader over `reference_parse_terms`: the oracle
    of `parsing.parse_combination`."""
    tokens = ReferenceTokens(text)
    terms = reference_parse_terms(tokens, chart, frames, allow_wedge=False, allow_vector_field=False)
    tokens.expect_done()
    accs: Dict[str, Dict[int, Coefficient]] = {name: {} for name in frames}
    for term in terms:
        if term.frame is None:
            if term.coeff.is_zero:
                continue
            raise ParseError("term without a frame in a frame combination")
        _reference_collect(accs[term.frame], term.coeff)
    out = {name: Polynomial._from_terms(chart, acc) for name, acc in accs.items()}
    _require_bounded(c for poly in out.values() for c in poly.coeffs.values())
    return out


def reference_parse_vector_field(text: str, chart: Chart) -> List[Polynomial]:
    """The vector-field reader over `reference_parse_terms`: the oracle of
    `parsing.parse_vector_field`."""
    tokens = ReferenceTokens(text)
    terms = reference_parse_terms(tokens, chart, (), allow_wedge=False, allow_vector_field=True)
    tokens.expect_done()
    accs: List[Dict[int, Coefficient]] = [{} for _ in chart.names]
    for term in terms:
        if term.frame is None:
            if term.coeff.is_zero:
                continue
            raise ParseError("term without a direction in a vector field")
        _reference_collect(accs[chart.index(term.frame)], term.coeff)
    comps = [Polynomial._from_terms(chart, acc) for acc in accs]
    _require_bounded(c for poly in comps for c in poly.coeffs.values())
    return comps


def reference_parse_wedge_combination(text: str, frames: Tuple[str, ...]) -> Dict[Tuple[int, int], Coefficient]:
    """The wedge reader over `reference_parse_terms`: the oracle of
    `parsing.parse_wedge_combination`."""
    chart = Chart(())
    tokens = ReferenceTokens(text)
    terms = reference_parse_terms(tokens, chart, frames, allow_wedge=True, allow_vector_field=False)
    tokens.expect_done()
    out: Dict[Tuple[int, int], Coefficient] = {}
    index = {name: i for i, name in enumerate(frames)}
    for term in terms:
        coeff = term.coeff.coeffs.get(0, 0)
        if term.pair is None:
            if coeff == 0:
                continue
            raise ParseError("term without a wedge pair")
        i, j = index[term.pair[0]], index[term.pair[1]]
        if i == j:
            if coeff != 0:
                raise ParseError(f"wedge of a frame with itself: {term.pair[0]}")
            continue
        if i < j:
            out[(i, j)] = out.get((i, j), 0) + coeff
        else:
            out[(j, i)] = out.get((j, i), 0) - coeff
    _require_bounded(out.values())
    return {key: value for key, value in out.items() if value != 0}


def frame_section(L: LieAlgebroid, alpha: int) -> Multisection:
    """The frame e_alpha as a degree-1 section."""
    return Multisection(L.rank, 1, {(alpha,): Polynomial.constant(L.chart, 1)})


def scale_section(x: Multisection, f: Polynomial) -> Multisection:
    """f X, componentwise."""
    return Multisection(x.rank, x.degree, {i: f * p for i, p in x.components})


def add_sections(*terms: Multisection) -> Multisection:
    """The sum of multisections of one rank and degree, which only the
    oracles take: the package has no `+` on multisections."""
    rank, degree = terms[0].rank, terms[0].degree
    acc: Dict[Tuple[int, ...], Polynomial] = {}
    for x in terms:
        if (x.rank, x.degree) != (rank, degree):
            raise ValueError("rank/degree mismatch")
        for idx, poly in x.components:
            acc[idx] = acc[idx] + poly if idx in acc else poly
    return Multisection(rank, degree, acc)


def wedge(x: Multisection, y: Multisection) -> Multisection:
    """X ^ Y, through the accumulator that `algebroid.schouten` wedges into."""
    if x.rank != y.rank:
        raise ValueError("rank mismatch")
    acc: Dict[Tuple[int, ...], Polynomial] = {}
    _wedge_into(acc, x, y, 1)
    return Multisection(x.rank, x.degree + y.degree, acc)


def frame_bracket(L: LieAlgebroid, a: int, b: int) -> Multisection:
    """[e_a, e_b] as a section."""
    return Multisection(L.rank, 1, {(g,): p for g, p in L.nonzero_structure[a][b]})


def entries(rows):
    """The (row, col) -> entry map of a matrix given by its dense rows,
    zeros included, as the constructors read it."""
    return {(i, j): p for i, row in enumerate(rows) for j, p in enumerate(row)}


def zero_derivation(chart: Chart, rank: int):
    """The zero matrix of a derivation on a bundle of rank `rank`, with
    every entry given, so that the constructors check its shape."""
    zero = Polynomial.zero(chart)
    return entries([[zero] * rank for _ in range(rank)])


def dense(matrix, rows: int, cols: int, chart: Chart):
    """The dense rows of a matrix given in any form `sparse_matrix` reads,
    zeros included: the form every matrix had before only its nonzero
    entries were stored."""
    zero = Polynomial.zero(chart)
    out = [[zero] * cols for _ in range(rows)]
    for (i, j), p in sparse_matrix(matrix, rows, cols, "matrix does not fit its shape"):
        out[i][j] = p
    return out


def apply_derivation(field: VectorField, matrix, comps):
    """The derivation with base field `field` and matrix `matrix`, in any
    form `sparse_matrix` reads, applied to the section with components
    `comps`."""
    out = [field.apply(c) for c in comps]
    rank = len(comps)
    for (a, b), entry in sparse_matrix(matrix, rank, rank, "derivation does not fit the section"):
        if comps[a]:
            out[b] = out[b] + comps[a] * entry
    return tuple(out)


def derivation_commutator(d, e, rank: int):
    """[D, E] = DE - ED of two (base field, matrix) pairs on a bundle of
    rank `rank`, applied to unit vectors, as a (base field, stored matrix)
    pair."""
    (fd, md), (fe, me) = d, e
    chart = fd.chart
    rows = []
    for a in range(rank):
        unit = [Polynomial.constant(chart, int(a == b)) for b in range(rank)]
        first = apply_derivation(fd, md, apply_derivation(fe, me, unit))
        second = apply_derivation(fe, me, apply_derivation(fd, md, unit))
        rows.append([f - s for f, s in zip(first, second)])
    return commutator(fd, fe), sparse_matrix(entries(rows), rank, rank, "")


def add_derivations(d, e):
    """D + E of two (base field, stored matrix) pairs."""
    (fd, md), (fe, me) = d, e
    acc = dict(md)
    for k, p in me:
        acc[k] = acc[k] + p if k in acc else p
    return add_fields(fd, fe), tuple(sorted(item for item in acc.items() if item[1]))


def scale_derivation(matrix, f: Polynomial):
    """The stored matrix of f D, for the stored matrix of D."""
    return tuple((k, q) for k, q in ((k, f * p) for k, p in matrix) if q)


def of_section(rep, acting: LieAlgebroid, section: Multisection):
    """The derivation of `rep` for a polynomial-coefficient acting section,
    as a (base field, matrix) pair: frame alpha acts over its anchor."""
    out = zero_field(acting.chart), ()
    for alpha, coeff in enumerate(section.vector(acting.chart)):
        if coeff:
            term = scale_field(acting.anchor_fields[alpha], coeff), scale_derivation(rep[alpha], coeff)
            out = add_derivations(out, term)
    return out


def check_representation(acting: LieAlgebroid, rep, label: str, rank: int) -> CheckReport:
    """The bracket of two frames acts as the commutator of their
    derivations, each over its frame's anchor, on a bundle of rank
    `rank`; `rep` holds matrices in any form `sparse_matrix` reads."""
    rep = [sparse_matrix(m, rank, rank, "derivation does not fit the bundle") for m in rep]
    # each derivation acts over the anchor of its frame by construction
    items: List[CheckItem] = [passed(f"{label}.base_fields")]

    witness = None
    for a, b in itertools.combinations(range(acting.rank), 2):
        commuted = derivation_commutator(
            (acting.anchor_fields[a], rep[a]), (acting.anchor_fields[b], rep[b]), rank
        )
        if commuted != of_section(rep, acting, frame_bracket(acting, a, b)):
            witness = f"flatness fails on ({acting.frames[a]}, {acting.frames[b]})"
            break
    items.append(failed(f"{label}.flat", witness) if witness else passed(f"{label}.flat"))
    return CheckReport(tuple(items))


def derivation_identity(
    acting: LieAlgebroid,
    target: LieAlgebroid,
    act,
    back,
    number: int,
) -> CheckItem:
    """Identity 1 (acting A, act rho, back sigma) or its mirror 2, on frames:
    act_X([Y1, Y2]) = [act_X Y1, Y2] + [Y1, act_X Y2]
                      + act_{back_{Y2} X}(Y1) - act_{back_{Y1} X}(Y2).
    """
    chart = target.chart
    for alpha in range(acting.rank):
        x = frame_section(acting, alpha).vector(chart)
        for t1, t2 in itertools.combinations(range(target.rank), 2):
            y1, y2 = frame_section(target, t1), frame_section(target, t2)
            v1, v2 = y1.vector(chart), y2.vector(chart)
            d = acting.anchor_fields[alpha], act[alpha]
            lhs = apply_derivation(*d, frame_bracket(target, t1, t2).vector(chart))
            back_2 = apply_derivation(target.anchor_fields[t2], back[t2], x)
            back_1 = apply_derivation(target.anchor_fields[t1], back[t1], x)
            back_2 = of_section(act, acting, acting.section(back_2))
            back_1 = of_section(act, acting, acting.section(back_1))
            rhs = add_sections(
                bracket_sections(target, target.section(apply_derivation(*d, v1)), y2),
                bracket_sections(target, y1, target.section(apply_derivation(*d, v2))),
                target.section(apply_derivation(*back_2, v1)),
            )
            rhs = rhs - target.section(apply_derivation(*back_1, v2))
            defect = target.section(lhs) - rhs
            if not defect.is_zero:
                return failed(
                    f"identity_{number}",
                    f"identity {number} at ({acting.frames[alpha]}; {target.frames[t1]}, "
                    f"{target.frames[t2]}): defect = {defect.format(target.frames)}",
                )
    return passed(f"identity_{number}")


def section_check_matched(mp: MatchedPair) -> CheckReport:
    """The matched-pair check through derivation commutators and brackets
    of sections: the oracle of `matched.check_matched`, which reads the
    same items off the bowtie's structure equations."""
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    items: List[CheckItem] = []
    for label, alg in (("A", a_alg), ("B", b_alg)):
        rep = check_algebroid(alg)
        items.append(passed(f"algebroid_{label}") if rep.ok else failed(f"algebroid_{label}", rep.first_failure.witness))
    items.extend(check_representation(a_alg, mp.rho, "rho", b_alg.rank).items)
    items.extend(check_representation(b_alg, mp.sigma, "sigma", a_alg.rank).items)
    if not all(i.ok for i in items):
        return CheckReport(tuple(items))

    items.append(derivation_identity(a_alg, b_alg, mp.rho, mp.sigma, 1))
    items.append(derivation_identity(b_alg, a_alg, mp.sigma, mp.rho, 2))

    # identity 3: a(sigma_Y X) - b(rho_X Y) = [b(Y), a(X)]
    witness = None
    for alpha, beta in itertools.product(range(a_alg.rank), range(b_alg.rank)):
        x = frame_section(a_alg, alpha).vector(a_alg.chart)
        y = frame_section(b_alg, beta).vector(b_alg.chart)
        sigma_x = apply_derivation(b_alg.anchor_fields[beta], mp.sigma[beta], x)
        rho_y = apply_derivation(a_alg.anchor_fields[alpha], mp.rho[alpha], y)
        lhs = difference(anchor_of(a_alg, a_alg.section(sigma_x)), anchor_of(b_alg, b_alg.section(rho_y)))
        defect = difference(lhs, commutator(b_alg.anchor_fields[beta], a_alg.anchor_fields[alpha]))
        if not defect.is_zero:
            witness = (
                f"identity 3 at ({a_alg.frames[alpha]}, {b_alg.frames[beta]}): "
                f"defect = {defect}"
            )
            break
    items.append(failed("identity_3", witness) if witness else passed("identity_3"))
    return CheckReport(tuple(items))


def dense_bowtie_brackets(mp: MatchedPair) -> Dict[Tuple[int, int], List[Polynomial]]:
    """The brackets of the bowtie on pairs a < b of the frames of A, then B,
    as full (ra + rb)-vectors: those of A and of B, and
    [e_i, f_j] = -sigma_j(e_i) + rho_i(f_j), read off the stored entries of
    row i of sigma_j and row j of rho_i.  The writer that
    `MatchedPair.bowtie_structure` replaced."""
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    ra, rb = a_alg.rank, b_alg.rank
    zero = Polynomial.zero(mp.chart)
    brackets: Dict[Tuple[int, int], List[Polynomial]] = {}

    def vector(pair: Tuple[int, int]) -> List[Polynomial]:
        return brackets.setdefault(pair, [zero] * (ra + rb))

    for offset, side in ((0, a_alg), (ra, b_alg)):
        for i, j in itertools.combinations(range(side.rank), 2):
            for g, coeff in side.nonzero_structure[i][j]:
                vector((offset + i, offset + j))[offset + g] = coeff
    for j, sigma_j in enumerate(mp.sigma):
        for (i, k), p in sigma_j:
            vector((i, ra + j))[k] = -p
    for i, rho_i in enumerate(mp.rho):
        for (j, k), p in rho_i:
            vector((i, ra + j))[ra + k] = p
    return brackets


def dense_bowtie_store(mp: MatchedPair):
    """The store `dense_bowtie_brackets` filled: per pair a < b its nonzero
    components (g, c^g_{ab}) in increasing g, negated at (b, a)."""
    rank = mp.algebroid_a.rank + mp.algebroid_b.rank
    table = [[()] * rank for _ in range(rank)]
    for (a, b), comps in dense_bowtie_brackets(mp).items():
        entry = tuple((g, p) for g, p in enumerate(comps) if p)
        if entry:
            table[a][b] = entry
            table[b][a] = tuple((g, -p) for g, p in entry)
    return tuple(map(tuple, table))


def applied_core_poisson(dla) -> PoissonChart:
    """The Poisson structure on the core dual by applying the anchor fields
    of the induced dual pair to the coordinates, with its antisymmetry
    checked: on a passing double it is `dual_poisson` of the core
    algebroid, and `dense_core_algebroid` reads that algebroid off it."""
    e_v, dual = dla.dual_pair
    chart = e_v.chart
    size = chart.dim
    coords = [Polynomial.coordinate(chart, name) for name in chart.names]
    matrix = [[Polynomial.zero(chart) for _ in range(size)] for _ in range(size)]
    for u in range(size):
        for w in range(size):
            entry = Polynomial.zero(chart)
            for i in range(e_v.rank):
                left = e_v.anchor_fields[i].apply(coords[u])
                if left:
                    right = dual.anchor_fields[i].apply(coords[w])
                    if right:
                        entry = entry + left * right
            matrix[u][w] = entry
    for u in range(size):
        for w in range(size):
            if matrix[u][w] + matrix[w][u]:
                raise DoubleMismatch(
                    f"induced bracket not antisymmetric at ({chart.names[u]}, {chart.names[w]})"
                )
    return PoissonChart(chart, matrix)


def restrict(p: Polynomial, target: Chart) -> Polynomial:
    """Project onto a subchart; raises if a dropped coordinate occurs."""
    if not p.terms:
        return target._zero
    keep = target._positions
    acc: Dict[Exponent, Coefficient] = {}
    for exp, coeff in p.terms:
        new = [0] * target.dim
        for name, power in zip(p.chart.names, exp):
            if power == 0:
                continue
            j = keep.get(name)
            if j is None:
                raise ValueError(f"coordinate {name!r} survives restriction")
            new[j] = power
        acc[tuple(new)] = coeff
    return Polynomial(target, acc)


def coefficient_of(p: Polynomial, name: str) -> Polynomial:
    """Coefficient of the degree-1 part in `name` (a polynomial in the rest).

    Requires the polynomial to have degree <= 1 in `name`.
    """
    i = p.chart.index(name)
    acc: Dict[Exponent, Coefficient] = {}
    for exp, coeff in p.terms:
        if exp[i] == 0:
            continue
        if exp[i] > 1:
            raise ValueError(f"degree in {name} exceeds 1")
        new = list(exp)
        new[i] = 0
        acc[tuple(new)] = coeff
    return Polynomial(p.chart, acc)


def dense_core_algebroid(dla) -> LieAlgebroid:
    """The core algebroid read off every entry of the Poisson matrix that
    the induced dual pair puts on the core dual (`applied_core_poisson`),
    zero entries included, with `restrict` and `coefficient_of`, and its
    fibrewise linearity checked: the oracle of `doublela.core_algebroid`,
    which reads it off the generator data of the two LA-vector bundles."""
    pois = applied_core_poisson(dla)
    base = dla.chart
    n = base.dim
    rc = len(dla.core_frames)
    xi_names = [fibre_coordinate(f) for f in dla.core_frames]
    anchor = []
    for gamma in range(rc):
        row = []
        for i in range(n):
            entry = pois.matrix[n + gamma][i]
            row.append(restrict(entry, base))
        anchor.append(tuple(row))
    brackets = {}
    for g1, g2 in itertools.combinations(range(rc), 2):
        entry = pois.matrix[n + g1][n + g2]
        vec = []
        for g3 in range(rc):
            vec.append(restrict(coefficient_of(entry, xi_names[g3]), base))
        remainder = entry
        for g3, coeff in enumerate(vec):
            remainder = remainder - coeff.lift(pois.chart) * Polynomial.coordinate(
                pois.chart, xi_names[g3]
            )
        if remainder:
            raise DoubleMismatch(
                f"core-dual bracket not fibrewise linear at ({g1}, {g2}): {remainder}"
            )
        brackets[(g1, g2)] = tuple(vec)
    return LieAlgebroid(base, dla.core_frames, anchor, brackets)


def check_cor_sdp(mp: MatchedPair) -> CheckReport:
    """The semidirect pair is a dual pair; run the bialgebroid check on it.

    By the semidirect correspondence this verdict must coincide with
    `check_matched` on every input (both truth values).
    """
    items: List[CheckItem] = []
    items.extend(check_representation(mp.algebroid_a, mp.rho, "rho", mp.algebroid_b.rank).items)
    items.extend(check_representation(mp.algebroid_b, mp.sigma, "sigma", mp.algebroid_a.rank).items)
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
        twist=dict(v.twist),
    )
    data.update(changes)
    return LAVBundle(v.side, v.bundle_frames, v.core_frames, **data)


def bumped(rows, i, j, p):
    """The dense `rows` with `p` added to entry (i, j), as entries."""
    return entries(
        [[e + p if (r, c) == (i, j) else e for c, e in enumerate(row)] for r, row in enumerate(rows)]
    )


def bumped_derivation(rng, v, ders, rank):
    """`ders`, on a bundle of rank `rank`, with one matrix entry of one
    derivation moved by a bump."""
    beta = rng.randrange(len(ders))
    d = dense(ders[beta], rank, rank, v.chart)
    i, j = rng.randrange(rank), rng.randrange(rank)
    moved = bumped(d, i, j, bump(rng, v))
    return tuple(moved if k == beta else e for k, e in enumerate(ders))


def perturbations(name, v, seed):
    """Seeded perturbations of the twist, the core anchor and both kinds of
    derivation of `v`, each as (name, bundle).  Each perturbation reaches
    the `generators` item."""
    rng = random.Random(seed)
    ra, rb, rc = v.bundle_rank, v.side.rank, v.core_rank
    out = []
    if rb >= 2 and ra and rc:
        i, j = rng.randrange(ra), rng.randrange(rc)
        twist = bumped(dense_twist(v)[0][1], i, j, bump(rng, v))
        out.append((f"{name}:twist", rebuilt(v, twist={(0, 1): twist})))
    if ra and rc:
        rows = dense(v.core_anchor, rc, ra, v.chart)
        anchor = bumped(rows, rng.randrange(rc), rng.randrange(ra), bump(rng, v))
        out.append((f"{name}:core_anchor", rebuilt(v, core_anchor=anchor)))
    if ra:
        ders = bumped_derivation(rng, v, v.anchor_derivations, ra)
        out.append((f"{name}:anchor_derivation", rebuilt(v, anchor_derivations=ders)))
    if rc:
        ders = bumped_derivation(rng, v, v.core_derivations, rc)
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


def reference_check_lavb(v: LAVBundle) -> CheckReport:
    """`lavb.check_lavb` as it was before it decided on the induced dual:
    `generators` on the total algebroid, and `induced_dual` read off it on
    a pass, checked only when it fails."""
    items: List[CheckItem] = []
    side_rep = check_algebroid(v.side)
    items.append(side_rep.as_item("side"))
    items.append(passed("base_fields"))
    if side_rep.ok:
        total_rep = check_algebroid(v.total)
        items.append(total_rep.as_item("generators"))
        induced_rep = total_rep if total_rep.ok else check_algebroid(v.induced_dual)
        items.append(induced_rep.as_item("induced_dual"))
    return CheckReport(tuple(items))


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


def standard_gl_bialgebra(n: int) -> ImageBialgebra:
    """gl(n) with the coboundary cobracket delta(x) = ad_x r of the standard
    r-matrix r = sum_{i<j} E_ij ^ E_ji, whose Schouten square is
    ad-invariant: a Lie bialgebra."""
    g = gl(n)
    c = constants(g)
    images = {}
    for x in range(g.rank):
        image: Dict[Tuple[int, int], Fraction] = {}
        for i, j in itertools.combinations(range(n), 2):
            u, v = n * i + j, n * j + i
            # ad_x (e_u ^ e_v) = [x, e_u] ^ e_v + e_u ^ [x, e_v]
            for k in range(g.rank):
                for p, q, coeff in ((k, v, c[x][u][k]), (u, k, c[x][v][k])):
                    if coeff and p != q:
                        pair, coeff = ((p, q), coeff) if p < q else ((q, p), -coeff)
                        image[pair] = image.get(pair, 0) + coeff
        images[x] = {pair: coeff for pair, coeff in image.items() if coeff}
    return bialgebra(g, images)


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


def tt_pair(n):
    """TM on the coordinates x1..xn against a dual with zero anchor and zero
    bracket on the frames w1..wn: the pair of the `tt<n>` model."""
    chart = Chart(tuple(f"x{i + 1}" for i in range(n)))
    zero = Polynomial.zero(chart)
    dual = LieAlgebroid(chart, tuple(f"w{i + 1}" for i in range(n)), [[zero] * n] * n, {})
    return tangent_algebroid(chart), dual


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
    return bialgebra(LieAlgebra(dim, brackets), images)


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


# --- the gate corpora: each is built once per session and shared by every
# gate that reads it, so the structures a double or an LA-vector bundle
# derives on first use (`total`, `induced_dual`, `dual_pair`, `core`) are
# derived once.  A test that counts calls or checks laziness builds fresh
# objects instead.


def count_calls(monkeypatch, targets):
    """Count calls of the functions and methods `targets` names, on their
    owner and wherever a package module binds them."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("doublealg.")]
    for owner, name in targets:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


@functools.cache
def diagnostics_parts():
    """The structural-diagnostics gate in three parts of (name, double):
    every corpus double, each followed by the doubles in which one of its
    LA-vector bundles is replaced by a seeded perturbation, then the ladder
    rungs; the cored corpus doubles with both core anchors scaled by 2 and
    by -1; the cotangent doubles of the benchmark sweep's families at seeds
    501-508 and of the gl(3)* rung."""
    corpus = double_corpus()
    perturbed = []
    for seed, (name, dla) in enumerate(corpus):
        perturbed.append((name, dla))
        for label, v in perturbations(f"{name}:vertical", dla.vertical, seed):
            perturbed.append((label, DoubleLieAlgebroid(v, dla.horizontal)))
        for label, h in perturbations(f"{name}:horizontal", dla.horizontal, seed):
            perturbed.append((label, DoubleLieAlgebroid(dla.vertical, h)))

    def scale_core(v, factor):
        return rebuilt(v, core_anchor={k: entry.scale(factor) for k, entry in v.core_anchor})

    scaled = [
        (f"{name}:core_anchors*{k}", DoubleLieAlgebroid(scale_core(dla.vertical, k), scale_core(dla.horizontal, k)))
        for name, dla in corpus
        if dla.core_frames
        for k in (2, -1)
    ]
    sweep = sweep_doubles(range(501, 509)) + [("gl3", build_cotangent_double(*ladder_pair(gl(3))))]
    return tuple(perturbed + ladder_doubles()), tuple(scaled), tuple(sweep)


@functools.cache
def diagnostics_doubles():
    """The 125 doubles of `diagnostics_parts()`, in order."""
    return sum(diagnostics_parts(), ())


@functools.cache
def tt_doubles():
    """The cotangent doubles of `tt_pair(n)` for n = 1..8, named tt<n>."""
    return tuple((f"tt{n}", build_cotangent_double(*tt_pair(n))) for n in range(1, 9))


def scaled_sigma_pair(mp: MatchedPair, factor: int) -> MatchedPair:
    scale = Polynomial.constant(mp.chart, factor)
    return MatchedPair(mp.algebroid_a, mp.algebroid_b, mp.rho, [scale_derivation(d, scale) for d in mp.sigma])


def name_clash_pair():
    """A matched pair where the dual frame names of A clash with a B-frame
    and those of B with a chart coordinate, so both get an apostrophe."""
    chart = Chart(["x", "b_d"])
    zero, one = Polynomial.zero(chart), Polynomial.constant(chart, 1)
    a_alg = LieAlgebroid(chart, ("a",), [[one, zero]], {})
    b_alg = LieAlgebroid(chart, ("a_d", "b"), [[zero, zero], [zero, zero]], {})
    x = Polynomial.coordinate(chart, "x")
    rho = [entries([[zero, x], [one, zero]])]
    sigma = [entries([[zero]])] * 2
    return MatchedPair(a_alg, b_alg, rho, sigma)


def semidirect_corpus():
    """The bundled matched pairs and catalog pairs of both verdicts, one
    whose sigma is not flat and `name_clash_pair()`, built afresh."""
    bundled = [
        mp for path in sorted(MODELS.glob("*")) for mp in parse_model(path.read_text()).matched_pairs.values()
    ]
    return bundled + [
        catalog.coadjoint_pair(catalog.solvable2_bialgebra()),
        catalog.coadjoint_pair(catalog.abelian_bialgebra()),
        catalog.coadjoint_pair(catalog.heisenberg_noncocycle_bialgebra()),
        catalog.abelian_matched_pair(2, 3),
        catalog.line_action_pair(),
        catalog.line_action_pair(sigma_coeff="x"),
        catalog.line_action_pair(sigma_coeff="1"),
        scaled_sigma_pair(catalog.coadjoint_pair(catalog.solvable2_bialgebra()), 2),  # sigma is not flat
        name_clash_pair(),
    ]


def sparse_polynomial(rng, chart, zero_share):
    """Zero with probability `zero_share`, else a random polynomial of
    degree <= 1."""
    if rng.random() < zero_share:
        return Polynomial.zero(chart)
    return random_polynomial(rng, chart, 1)


def random_side(rng, chart, rank, prefix):
    """A rank-`rank` algebroid on `chart`: a constant bracket over the zero
    anchor, coordinate fields with zero bracket, a cotangent algebroid on
    (x, y), or a random anchor and bracket that mostly fails the axioms."""
    frames = tuple(f"{prefix}{i + 1}" for i in range(rank))
    zero = Polynomial.zero(chart)
    kind = rng.choice(("constant", "constant", "coordinate", "cotangent", "random"))
    if kind == "cotangent" and chart == XY and rank == 2:
        return cotangent(random_polynomial(rng, XY, 2), frames)
    if kind == "coordinate" and rank <= chart.dim:
        anchor = [
            [Polynomial.constant(chart, int(i == j)) for j in range(chart.dim)] for i in range(rank)
        ]
        return LieAlgebroid(chart, frames, anchor, {})
    if kind == "random":
        anchor = [[sparse_polynomial(rng, chart, 0.5) for _ in range(chart.dim)] for _ in range(rank)]
        brackets = {
            (a, b): [sparse_polynomial(rng, chart, 0.5) for _ in range(rank)]
            for a in range(rank)
            for b in range(a + 1, rank)
        }
        return LieAlgebroid(chart, frames, anchor, brackets)
    # a constant bracket: any one on rank <= 2 is a Lie algebra, and on
    # rank 3 the bracket [e1, e2] = c e3 alone is one
    brackets = {}
    if rank == 2:
        brackets[(0, 1)] = [Polynomial.constant(chart, rng.randint(-1, 1)) for _ in range(2)]
    elif rank == 3:
        brackets[(0, 1)] = [zero, zero, Polynomial.constant(chart, rng.randint(-1, 1))]
    return LieAlgebroid(chart, frames, [[zero] * chart.dim for _ in range(rank)], brackets)


def random_representation(rng, acting, target_rank):
    """One sparse random derivation matrix per frame of `acting`."""
    chart = acting.chart
    zero_share = rng.choice((1.0, 0.8, 0.5))
    def row():
        return [sparse_polynomial(rng, chart, zero_share) for _ in range(target_rank)]

    return [entries([row() for _ in range(target_rank)]) for _ in range(acting.rank)]


def random_pairs(count, seed):
    """Seeded pairs on (x) and on (x, y) with ranks 1-3."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        chart = Chart(("x",)) if k % 2 else XY
        a = random_side(rng, chart, rng.randint(1, 3), "a")
        b = random_side(rng, chart, rng.randint(1, 3), "b")
        rho = random_representation(rng, a, b.rank)
        sigma = random_representation(rng, b, a.rank)
        out.append(MatchedPair(a, b, rho, sigma))
    return out


@functools.cache
def matched_gate_pairs():
    """The 1224 pairs of the matched-pair gate: `semidirect_corpus()`, the
    coadjoint pairs of the 400 seeded bialgebras, 200 seeded random pairs,
    and the mirror of each."""
    pairs = semidirect_corpus()
    pairs += [catalog.coadjoint_pair(b) for b in gate_corpus()]
    pairs += random_pairs(200, seed=17)
    mirrors = [MatchedPair(mp.algebroid_b, mp.algebroid_a, mp.sigma, mp.rho) for mp in pairs]
    return tuple(pairs + mirrors)


@functools.cache
def vacant_gate_doubles():
    """The vacant double of each pair of `matched_gate_pairs()`, in order,
    named vacant<k>."""
    return tuple((f"vacant{k}", assemble_vacant_double(mp)) for k, mp in enumerate(matched_gate_pairs()))


@functools.cache
def gate_doubles():
    """The diagnostics doubles, the vacant gate doubles and the tt doubles,
    in that order: the doubles whose derived structures the gates compare
    with their dense oracles."""
    return diagnostics_doubles() + vacant_gate_doubles() + tt_doubles()


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
            part = component_general(omega, rest, L.chart)
            term = L.anchor_fields[frame].apply(part)
            total = total + (term if i % 2 == 0 else -term)
        for i, j in itertools.combinations(range(k + 1), 2):
            rest = tuple(t for pos, t in enumerate(target) if pos not in (i, j))
            bracket = structure[target[i]][target[j]]
            term = Polynomial.zero(L.chart)
            for gamma, coeff in enumerate(bracket):
                if coeff:
                    term = term + coeff * component_general(omega, (gamma,) + rest, L.chart)
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
        lhs = anchor_of(L, frame_bracket(L, a, b))
        defect = difference(lhs, commutator(L.anchor_fields[a], L.anchor_fields[b]))
        if not defect.is_zero:
            witness = (
                f"pair ({L.frames[a]}, {L.frames[b]}): a([.,.]) - [a(.), a(.)] = {defect}"
            )
            break
    items.append(failed("anchor_morphism", witness) if witness else passed("anchor_morphism"))

    witness = None
    for a, b, c in itertools.combinations(range(L.rank), 3):
        jac = add_sections(
            bracket_sections(L, frame_bracket(L, a, b), frame_section(L, c)),
            bracket_sections(L, frame_bracket(L, b, c), frame_section(L, a)),
            bracket_sections(L, frame_bracket(L, c, a), frame_section(L, b)),
        )
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


def scaled_change_frames(L: LieAlgebroid, matrix, new_names) -> LieAlgebroid:
    """The signed-permutation frame change that rescaled every anchor entry,
    zeros included, and every moved structure function through
    `Polynomial.scale(+-1)`; the oracle of `algebroid.permute_frames`,
    which keeps a +1 entry and negates a -1 one."""
    r = L.rank
    perm: List[int] = []
    signs: List[Coefficient] = []
    for j in range(r):
        column = [(i, rat(matrix[i][j])) for i in range(r) if matrix[i][j] != 0]
        if len(column) != 1 or abs(column[0][1]) != 1:
            break
        perm.append(column[0][0])
        signs.append(column[0][1])
    if len(perm) != r or len(set(perm)) != r:
        raise ValueError("frame change must be a signed permutation matrix")
    anchor = [tuple(entry.scale(s) for entry in L.anchor[p]) for p, s in zip(perm, signs)]
    new_index = {p: m for m, p in enumerate(perm)}
    zero = Polynomial.zero(L.chart)
    brackets = {}
    for a, b in itertools.combinations(range(r), 2):
        old = L.nonzero_structure[perm[a]][perm[b]]
        if old:
            vec = [zero] * r
            for p, coeff in old:
                m = new_index[p]
                vec[m] = coeff.scale(signs[a] * signs[b] * signs[m])
            brackets[(a, b)] = vec
    return LieAlgebroid(L.chart, tuple(new_names), anchor, brackets)


def signed_permutation_matrix(columns) -> List[List[int]]:
    """The matrix that `columns`, as `algebroid.permute_frames` reads them,
    describe: column j holds s at row p for columns[j] = (p, s)."""
    matrix = [[0] * len(columns) for _ in columns]
    for j, (p, s) in enumerate(columns):
        matrix[p][j] = s
    return matrix


def matrix_dual_pair_over_core_dual(dla) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """`doublela.dual_pair_over_core_dual` as it wrote the duality
    isomorphism: a dense (ra + rb)^2 signed permutation matrix that
    `change_frames` scans back into columns."""
    e_v = dla.vertical.induced_dual
    e_h = dla.horizontal.induced_dual
    ra = dla.side_a.rank
    rb = dla.side_b.rank
    size = ra + rb
    matrix = [[0] * size for _ in range(size)]
    names: List[str] = []
    for beta in range(rb):
        matrix[ra + beta][beta] = 1
        names.append(e_h.frames[ra + beta])
    for a in range(ra):
        matrix[a][rb + a] = -1
        names.append(f"{e_h.frames[a]}_op")
    names = list(unique_names(names, e_h.chart.names))
    return e_v, change_frames(e_h, matrix, names)


def matrix_build_semidirects(mp: MatchedPair) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """`matched.build_semidirects` as it wrote its reorder and its negation:
    dense (ra + rb)^2 matrices that `change_frames` scans back."""
    vertical, horizontal = vacant_lavbundles(mp)
    ra, rb = mp.algebroid_a.rank, mp.algebroid_b.rank
    size = ra + rb
    e_v = vertical.induced_dual
    order = list(range(rb, size)) + list(range(rb))
    reorder = [[int(i == order[k]) for k in range(size)] for i in range(size)]
    semidirect = change_frames(e_v, reorder, [e_v.frames[k] for k in order])
    e_h = horizontal.induced_dual
    signs = [-1] * ra + [1] * rb
    negate = [[signs[k] if i == k else 0 for k in range(size)] for i in range(size)]
    opposite = change_frames(e_h, negate, e_h.frames)
    return semidirect, opposite


def chart_layout(chart: Chart) -> Dict[str, object]:
    """The packing layout and shared zero of `chart` by the formulas of the
    cached properties that `Chart.__init__` replaced, keyed by attribute
    name; the zero is built through the validating constructor."""
    n = chart.dim
    shifts = tuple(EXPONENT_BITS * (n - 1 - i) for i in range(n))
    degree = 1 << EXPONENT_BITS * n
    return {
        "_positions": {name: i for i, name in enumerate(chart.names)},
        "_shifts": shifts,
        "_units": tuple((1 << shift) + degree for shift in shifts),
        "_limit": 1 << EXPONENT_BITS * (n + 1),
        "_fields": struct.Struct(f">{n}H"),
        "_zero": Polynomial(chart, {}),
    }


def substitute(p: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """`p` with coordinate i replaced by `images[i]`, on the same chart."""
    out = Polynomial.zero(p.chart)
    for exp, coeff in p.terms:
        term = Polynomial.constant(p.chart, coeff)
        for image, power in zip(images, exp):
            for _ in range(power):
                term = term * image
        out = out + term
    return out


def change_coordinates(L: LieAlgebroid, P, q) -> LieAlgebroid:
    """`L` in the affine coordinates y = P x + q of its base, under the old
    coordinate names, for a unimodular integer matrix P and an integer
    vector q.  Structure functions pull back by substituting
    x = P^-1 (y - q); anchors push forward, d/dx_i = sum_j P_ji d/dy_j."""
    chart, n = L.chart, L.chart.dim
    inverse = linalg.inverse([[rat(entry) for entry in row] for row in P]) if n else []
    assert all(entry.denominator == 1 for row in inverse for entry in row)
    shifted = [
        Polynomial.coordinate(chart, name) - Polynomial.constant(chart, q[j])
        for j, name in enumerate(chart.names)
    ]
    zero = Polynomial.zero(chart)
    images = [sum((y.scale(rat(c)) for c, y in zip(row, shifted)), zero) for row in inverse]
    anchor = []
    for row in L.anchor:
        pulled = [substitute(entry, images) for entry in row]
        anchor.append(
            tuple(sum((a.scale(P[j][i]) for i, a in enumerate(pulled)), zero) for j in range(n))
        )
    brackets = {}
    for a, b in itertools.combinations(range(L.rank), 2):
        if L.nonzero_structure[a][b]:
            vec = [zero] * L.rank
            for g, coeff in L.nonzero_structure[a][b]:
                vec[g] = substitute(coeff, images)
            brackets[(a, b)] = vec
    return LieAlgebroid(chart, L.frames, anchor, brackets)


def section_check_compatibility(L: LieAlgebroid, Lstar: LieAlgebroid, seed=7, max_degree=2) -> CheckReport:
    """The compatibility families through the section calculus: every
    frame defect is `compatibility_defect` on sections, three `schouten`
    and three `differential` calls each, every function defect is
    `summed_compatibility_defect` with a function as Y, and the symmetric part
    applies the anchor of d_* x_i to x_j.  The oracle of
    `algebroid.check_compatibility`, which scatters the same values from
    the structure functions and the anchor rows."""
    rank, frames, names = L.rank, L.frames, L.chart.names
    coords = [Polynomial.coordinate(L.chart, name) for name in names]
    functions = [function(rank, c) for c in coords]
    defect = functools.partial(compatibility_defect, L, Lstar)

    @functools.cache
    def frame_defect(a, b):
        if a == b:
            return Multisection.zero(rank, 2)
        if a > b:
            return frame_defect(b, a).scale(-1)
        return defect(frame_section(L, a), frame_section(L, b))

    @functools.cache
    def function_defect(a, i):
        return summed_compatibility_defect(L, Lstar, frame_section(L, a), functions[i])

    def scaled_defect(a, b, i):
        return add_sections(
            scale_section(frame_defect(a, b), coords[i]), wedge(function_defect(a, i), frame_section(L, b))
        )

    def random_defects():
        rng = random.Random(seed if seed >= 0 else str(seed))
        for trial in range(RANDOM_PAIRS):
            x = random_section(rng, L, max_degree)
            y = random_section(rng, L, max_degree)
            where = f"random trial {trial}: X = {x.format(frames)}, Y = {y.format(frames)}, "
            yield where, defect(x, y)

    def first_nonzero(check_id, cases):
        for where, d in cases:
            if not d.is_zero:
                return failed(check_id, f"{where}defect = {d.format(frames)}")
        return passed(check_id)

    items = [
        first_nonzero(
            "frames",
            (
                (f"pair ({frames[a]}, {frames[b]}): ", frame_defect(a, b))
                for a, b in itertools.combinations(range(rank), 2)
            ),
        ),
        first_nonzero(
            "scaled",
            (
                (f"pair ({frames[a]}, {names[i]} * {frames[b]}): ", scaled_defect(a, b, i))
                for a, b in itertools.product(range(rank), repeat=2)
                for i in range(len(names))
            ),
        ),
        first_nonzero(
            "function_pairs",
            (
                (f"pair ({frames[a]}, {names[i]}): ", function_defect(a, i))
                for a in range(rank)
                for i in range(len(names))
            ),
        ),
    ]
    flow = functools.cache(lambda i: anchor_of(L, differential(Lstar, functions[i])))
    witness = None
    for i, j in itertools.combinations_with_replacement(range(len(names)), 2):
        value = flow(i).apply(coords[j]) + flow(j).apply(coords[i])
        if value:
            witness = f"functions ({names[i]}, {names[j]}): a(d_*f)(g) + a(d_*g)(f) = {value}"
            break
    items.append(failed("symmetric_part", witness) if witness else passed("symmetric_part"))
    if all(item.ok for item in items):
        items.append(passed("random"))
    else:
        items.append(first_nonzero("random", random_defects()))
    return CheckReport(tuple(items))


def function(rank: int, poly: Polynomial) -> Multisection:
    """The function `poly` as a degree-0 multisection."""
    return Multisection(rank, 0, {(): poly})


def component_general(ms: Multisection, idx: Tuple[int, ...], chart: Chart) -> Polynomial:
    """Antisymmetric lookup: the signed component of `ms` at any index tuple."""
    poly = dict(ms.components).get(tuple(sorted(idx)))  # None on a repeated index
    if poly is None:
        return Polynomial.zero(chart)
    return -poly if sum(a > b for a, b in itertools.combinations(idx, 2)) % 2 else poly


def summed_schouten(L: LieAlgebroid, p: Multisection, q: Multisection) -> Multisection:
    """The Schouten bracket whose `dq >= 2` branch adds each wedge of the
    biderivation rule to a running sum, recursing into itself, extended to
    functions by [X, f] = a(X)(f) and [f, g] = 0: the oracle of
    `algebroid.schouten`, which wedges both families into one component
    map and takes no function."""
    dp, dq = p.degree, q.degree
    out_degree = max(dp + dq - 1, 0)
    if p.is_zero or q.is_zero or (dp == 0 and dq == 0):
        return Multisection.zero(L.rank, out_degree)
    if dp == 1 and dq == 0:
        return function(L.rank, anchor_of(L, p).apply(component_general(q, (), L.chart)))
    if dp == 0 and dq == 1:
        return function(L.rank, -anchor_of(L, q).apply(component_general(p, (), L.chart)))
    if dp == 1 and dq == 1:
        return schouten(L, p, q)
    if dq >= 2:
        result = Multisection.zero(L.rank, out_degree)
        sign = (-1) ** ((dp - 1) % 2)
        one = Polynomial.constant(L.chart, 1)
        for idx, poly in q.components:
            head = Multisection(L.rank, 1, {(idx[0],): poly})
            tail = Multisection(L.rank, dq - 1, {idx[1:]: one})
            result = add_sections(
                result,
                wedge(summed_schouten(L, p, head), tail),
                wedge(head, summed_schouten(L, p, tail)).scale(sign),
            )
        return result
    swap_sign = (-1) ** (((dp - 1) * (dq - 1) + 1) % 2)
    return summed_schouten(L, q, p).scale(swap_sign)


def summed_compatibility_defect(
    L: LieAlgebroid, Lstar: LieAlgebroid, x: Multisection, y: Multisection
) -> Multisection:
    """`algebroid.compatibility_defect` through `summed_schouten`."""
    d_star = functools.partial(differential, Lstar)
    return (
        d_star(summed_schouten(L, x, y))
        - summed_schouten(L, d_star(x), y)
        - summed_schouten(L, x, d_star(y))
    )


# --- the dense frame loops that the output-sensitive checkers replaced


def full_decide_axioms(L: LieAlgebroid) -> CheckReport:
    """The anchor-morphism and Jacobi items of `check_algebroid`, decided on
    every frame pair and every frame triple: the oracle of
    `algebroid._decide_axioms`, which skips the tuples that the sparsity
    pattern proves zero."""
    items: List[CheckItem] = []
    witness = None
    for a, b in itertools.combinations(range(L.rank), 2):
        defect = anchor_defect(L.nonzero_structure, L.anchor_fields, a, b)
        if any(defect):
            field = VectorField(L.chart, defect)
            witness = f"pair ({L.frames[a]}, {L.frames[b]}): a([.,.]) - [a(.), a(.)] = {field}"
            break
    items.append(failed("anchor_morphism", witness) if witness else passed("anchor_morphism"))
    witness = None
    for a, b, c in itertools.combinations(range(L.rank), 3):
        jac = jacobiator(L.nonzero_structure, L.anchor_fields, a, b, c)
        if any(jac.values()):
            section = Multisection(L.rank, 1, {(k,): poly for k, poly in jac.items()})
            witness = (
                f"triple ({L.frames[a]}, {L.frames[b]}, {L.frames[c]}): "
                f"jacobiator = {section.format(L.frames)}"
            )
            break
    items.append(failed("jacobi", witness) if witness else passed("jacobi"))
    return CheckReport(tuple(items))


def full_function_defect(L: LieAlgebroid, Lstar: LieAlgebroid, a: int, i: int) -> Dict:
    """`algebroid.function_defect` walking every row of Lstar's anchor."""
    acc: Dict = {}
    field, entry = L.anchor_fields[a], L.anchor[a][i]
    for m, (sigma, row) in enumerate(zip(Lstar.anchor_fields, Lstar.anchor)):
        _accumulate(acc, (m,), sigma.apply(entry))
        if row[i]:
            _accumulate(acc, (m,), -field.apply(row[i]))
            for k, c in L.nonzero_structure[a][m]:
                _accumulate(acc, (k,), -(row[i] * c))
    for p, q, g in Lstar.brackets_by_gamma[a]:
        _accumulate(acc, (p,), g * L.anchor[q][i])
        _accumulate(acc, (q,), -(g * L.anchor[p][i]))
    return acc


def full_anchor_products(L: LieAlgebroid, Lstar: LieAlgebroid) -> List[List[Polynomial]]:
    """`algebroid.anchor_products` on every entry of both anchors."""
    n = L.chart.dim
    matrix = [[Polynomial.zero(L.chart)] * n for _ in range(n)]
    for left, right in zip(L.anchor, Lstar.anchor):
        for u, a in enumerate(left):
            for w, b in enumerate(right):
                if a and b:
                    matrix[u][w] = matrix[u][w] + a * b
    return matrix


def full_compatibility_families(L: LieAlgebroid, Lstar: LieAlgebroid) -> Tuple[CheckItem, ...]:
    """The items of `algebroid.compatibility_families`, decided on every
    frame pair, (frame, coordinate) pair and (frame, coordinate, frame)
    case: its oracle, which skips the cases that the sparsity patterns
    prove zero."""
    rank, frames, names = L.rank, L.frames, L.chart.names
    coords = [Polynomial.coordinate(L.chart, name) for name in names]
    pairs = {(a, b): frame_defect(L, Lstar, a, b) for a, b in itertools.combinations(range(rank), 2)}
    functions = {(a, i): full_function_defect(L, Lstar, a, i) for a in range(rank) for i in range(len(names))}

    def scaled_at(a: int, b: int, i: int) -> Dict:
        coord = coords[i] if a < b else -coords[i]
        acc = {idx: coord * p for idx, p in pairs[min(a, b), max(a, b)].items()} if a != b else {}
        for (k,), p in functions[a, i].items():
            _add_wedge(acc, k, b, p)
        return acc

    frame_item = _first_nonzero(
        "frames", 2, frames, ((f"pair ({frames[a]}, {frames[b]}): ", acc) for (a, b), acc in pairs.items())
    )
    function_item = _first_nonzero(
        "function_pairs",
        1,
        frames,
        ((f"pair ({frames[a]}, {names[i]}): ", acc) for (a, i), acc in functions.items()),
    )
    scaled_item = passed("scaled") if frame_item.ok and function_item.ok else _first_nonzero(
        "scaled",
        2,
        frames,
        (
            (f"pair ({frames[a]}, {names[i]} * {frames[b]}): ", scaled_at(a, b, i))
            for a, b in itertools.product(range(rank), repeat=2)
            for i in range(len(names))
        ),
    )
    products = full_anchor_products(L, Lstar)
    symmetric_item = passed("symmetric_part")
    for i, j in itertools.combinations_with_replacement(range(len(names)), 2):
        value = products[i][j] + products[j][i]
        if value:
            symmetric_item = failed(
                "symmetric_part", f"functions ({names[i]}, {names[j]}): a(d_*f)(g) + a(d_*g)(f) = {value}"
            )
            break
    return frame_item, scaled_item, function_item, symmetric_item

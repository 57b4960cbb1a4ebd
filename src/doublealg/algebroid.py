"""Lie algebroids over polynomial charts and their calculus.

An algebroid is presented by a frame: anchor components a^i_alpha and
structure functions c^gamma_{alpha beta} are polynomials on the base chart.
On top of that this module provides the Cartan differential, the Schouten
bracket on multisections, the dual linear Poisson structure, cotangent
algebroids of Poisson charts, and the dual-pair compatibility check (the
coboundary of one structure acting as a derivation of the other's bracket).

Multisections and forms share one sparse representation: polynomial
components indexed by strictly increasing frame multi-indices.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .exact import _MASK, Chart, ChartMismatch, Coefficient, DegreeOverflow, Polynomial, rat
from .sparsity import (
    Sparsity,
    anchor_pairs,
    bits,
    bracket_triples,
    build_sparsity,
    frame_partners,
    function_coordinates,
)
from .verdicts import CheckItem, CheckReport, failed, passed

Index = Tuple[int, ...]
# per frame pair (a, b), the nonzero c^g_{ab} as (g, c^g_{ab}) in increasing g
Structure = Tuple[Tuple[Tuple[Tuple[int, Polynomial], ...], ...], ...]


class NotPoisson(ValueError):
    """A bivector fails [pi, pi] = 0; carries the defect witness."""


class InvalidAlgebroid(ValueError):
    """A structure fails the algebroid axioms where validity is required."""


# ---------------------------------------------------------------------------
# vector fields


def _off_chart(chart: Chart, rows: Iterable[Sequence[Polynomial]]) -> bool:
    """Whether an entry of `rows` lives on a chart other than `chart`."""
    for row in rows:
        for p in row:
            if p.chart is not chart and p.chart.names != chart.names:
                return True
    return False


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field on a chart; components per coordinate."""

    chart: Chart
    components: Tuple[Polynomial, ...]

    def __init__(self, chart: Chart, components: Sequence[Polynomial]):
        """One component per coordinate, all on `chart`, as in the checked
        anchor rows and the computed defects the package builds fields from.
        `_nonzero`, the (terms, shift, unit) of each nonzero X^i that `apply`
        walks, is no field: it stays out of `==`, `hash` and `repr`."""
        components = tuple(components)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", components)
        parts = zip(components, chart._shifts, chart._units)
        walk = tuple([(comp.coeffs.items(), shift, unit) for comp, shift, unit in parts if comp.coeffs])
        object.__setattr__(self, "_nonzero", walk)

    def apply(self, f: Polynomial) -> Polynomial:
        """X(f) = sum_i X^i df/dx^i over the nonzero X^i, into one map."""
        chart = self.chart
        if f.chart is not chart and f.chart.names != chart.names:
            raise ChartMismatch(f"charts differ: {chart} vs {f.chart}")
        if not f.coeffs:
            return chart._zero
        acc: Dict[int, Coefficient] = {}
        get = acc.get
        limit = chart._limit
        terms = f.coeffs.items()
        for right, shift, unit in self._nonzero:
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

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __str__(self) -> str:
        pieces = [f"({comp}) d/d{name}" for name, comp in zip(self.chart.names, self.components) if comp]
        return " + ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# multisections / forms


@dataclass(frozen=True)
class Multisection:
    """Degree-k element of the exterior algebra on a rank-r frame.

    components maps strictly increasing index tuples to polynomials; only
    nonzero components are stored, in increasing index order.  Degree 0 is
    a single ()-indexed function.  The same representation serves forms
    (indices then refer to the dual frame).

    Every multisection is one the package computed, so the constructor
    trusts `components` to map strictly increasing index tuples of length
    `degree` below `rank` to polynomials on one chart; it drops zero
    components and sorts the rest by index.
    """

    rank: int
    degree: int
    components: Tuple[Tuple[Index, Polynomial], ...]

    def __init__(self, rank: int, degree: int, components: Mapping[Index, Polynomial]):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", tuple(sorted((i, p) for i, p in components.items() if p)))

    @staticmethod
    def zero(rank: int, degree: int) -> "Multisection":
        return Multisection(rank, degree, {})

    @staticmethod
    def from_vector(rank: int, comps: Sequence[Polynomial]) -> "Multisection":
        return Multisection(rank, 1, {(i,): p for i, p in enumerate(comps)})

    def vector(self, chart: Chart) -> Tuple[Polynomial, ...]:
        if self.degree != 1:
            raise ValueError("vector() requires degree 1")
        table, zero = dict(self.components), Polynomial.zero(chart)
        return tuple(table.get((i,), zero) for i in range(self.rank))

    def __sub__(self, other: "Multisection") -> "Multisection":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("rank/degree mismatch")
        if not other.components:
            return self
        acc = dict(self.components)
        for idx, poly in other.components:
            acc[idx] = acc[idx] - poly if idx in acc else -poly
        return Multisection(self.rank, self.degree, acc)

    def scale(self, value) -> "Multisection":
        c = rat(value)
        if c == 1:
            return self
        return Multisection(self.rank, self.degree, {i: p.scale(c) for i, p in self.components})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def format(self, frame_names: Sequence[str]) -> str:
        if not self.components:
            return "0"
        pieces = []
        for idx, poly in self.components:
            atom = " ^ ".join(frame_names[i] for i in idx) if idx else "1"
            pieces.append(f"({poly}) {atom}" if idx else f"({poly})")
        return " + ".join(pieces)


def _wedge_into(acc: Dict[Index, Polynomial], left: Multisection, right: Multisection, sign: int) -> None:
    """Add sign * (left ^ right) to the components `acc`.  A component whose
    sum is zero is dropped, as a running sum of multisections drops it, so
    that no later term is added to a zero."""
    for i1, p1 in left.components:
        for i2, p2 in right.components:
            if set(i1) & set(i2):
                continue
            merged = i1 + i2
            target = tuple(sorted(merged))
            term = p1 * p2
            if _permutation_sign(merged) != sign:
                term = -term
            if target in acc:
                total = acc[target] + term
                if total:
                    acc[target] = total
                else:
                    del acc[target]
            else:
                acc[target] = term


def _permutation_sign(idx: Sequence[int]) -> int:
    sign = 1
    items = list(idx)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# derivations on a framed bundle


# A matrix stores its nonzero entries as ((row, col), entry) items in increasing
# (row, col) order.  A derivation along frame e is its matrix, entry (a, b) the
# component b of D(e_a), over the anchor of e: D(f mu) = f D(mu) + a(e)(f) mu.
Matrix = Tuple[Tuple[Tuple[int, int], Polynomial], ...]
MatrixInput = Dict[Tuple[int, int], Polynomial] | Matrix  # what the constructors read


def sparse_matrix(matrix: MatrixInput, rows: int, cols: int, message: str) -> Matrix:
    """The stored form of a rows x cols matrix given as (row, col) -> entry
    items or dict, zeros allowed; `ValueError(message)` for an index
    outside it, and a `ValueError` naming an entry given twice."""
    items = tuple(matrix.items() if isinstance(matrix, dict) else matrix)
    if any(not (0 <= i < rows and 0 <= j < cols) for (i, j), _ in items):
        raise ValueError(message)
    items = sorted(items, key=lambda item: item[0])
    for (key, _), (following, _) in zip(items, items[1:]):
        if key == following:
            raise ValueError(f"matrix entry {key} is given twice")
    return tuple([item for item in items if item[1]])


def contragredient(matrix: Matrix) -> Matrix:
    """Dual derivation, the negated transpose: <D* phi, mu> = X<phi, mu> - <phi, D mu>."""
    return tuple(sorted(((b, a), -p) for (a, b), p in matrix))


# ---------------------------------------------------------------------------
# Lie algebroids


@dataclass(frozen=True)
class LieAlgebroid:
    """Frame presentation: anchor rows and antisymmetric structure functions.

    The structure functions are stored sparsely and only once:
    nonzero_structure[a][b] holds the nonzero c^g_{ab} as (g, c^g_{ab}) in
    increasing g, for every frame pair; the diagonal is empty and the b < a
    half is the negation of the a < b half.  A Lie algebra is the case of
    the point chart, `Chart(())`, with constant structure functions.
    `LieAlgebroid(...)` validates outside input (model files, `LieAlgebra`,
    tangent and cotangent algebroids); `_from_store` trusts derived data.
    """

    chart: Chart
    frames: Tuple[str, ...]
    anchor: Tuple[Tuple[Polynomial, ...], ...]  # anchor[alpha][i]
    nonzero_structure: Structure

    def __init__(
        self,
        chart: Chart,
        frames: Sequence[str],
        anchor: Sequence[Sequence[Polynomial]],
        brackets: Mapping[Tuple[int, int], Sequence[Polynomial]] | None = None,
    ):
        frames = tuple(frames)
        if len(set(frames)) != len(frames):
            raise ValueError("frame names must be distinct")
        if set(frames) & set(chart.names):
            raise ValueError("frame names must not collide with chart coordinates")
        r, n = len(frames), chart.dim
        anchor = tuple(tuple(row) for row in anchor)
        if len(anchor) != r or any(len(row) != n for row in anchor):
            raise ValueError("anchor must be rank x dim")
        brackets = brackets or {}
        for (a, b), comps in brackets.items():
            if a == b:
                raise ValueError("bracket(e_a, e_a) must be omitted (it is 0)")
            if a > b:
                raise ValueError("provide brackets with a < b only")
            if a < 0 or b >= r:
                raise ValueError(f"bracket pair {(a, b)} is not a < b among {r} frames")
            if len(comps) != r:
                raise ValueError("bracket value has wrong rank")
        if _off_chart(chart, anchor):
            raise ChartMismatch("anchor entry on another chart")
        if _off_chart(chart, brackets.values()):
            raise ChartMismatch("structure function on another chart")
        table = pair_store(r, {pair: dict(enumerate(comps)) for pair, comps in brackets.items()})
        set_fields(self, chart, frames, anchor, table)

    @classmethod
    def _from_store(cls, chart: Chart, frames, anchor, nonzero_structure: Structure) -> "LieAlgebroid":
        """Trusted constructor: distinct frame names off the chart, a tuple
        of rank x dim anchor rows on `chart`, and a store of `pair_store`."""
        return set_fields(object.__new__(cls), chart, frames, anchor, nonzero_structure)

    @property
    def rank(self) -> int:
        return len(self.frames)

    @functools.cached_property
    def anchor_fields(self) -> Tuple[VectorField, ...]:
        """The anchors a(e_alpha) as vector fields, built once, on first
        read: the constructor checked the chart of every entry."""
        return tuple(VectorField(self.chart, row) for row in self.anchor)

    @functools.cached_property
    def sparsity(self) -> Sparsity:
        """The sparsity pattern of the anchor and the structure functions,
        built once, on first read; like `anchor_fields` it stays out of
        `==`, `hash` and `repr`, and dies with the algebroid."""
        return build_sparsity(self)

    @functools.cached_property
    def _axiom_report(self) -> CheckReport:
        """The report of `check_algebroid`, decided once per object."""
        return _decide_axioms(self)

    def _anchor_sums(self, x: Multisection) -> List[Dict[int, Coefficient]]:
        """The terms of a(x)^i = sum_alpha x^alpha a^i_alpha per coordinate
        i, over the nonzero coefficients and anchor entries; a coefficient
        may be zero where terms cancel.  Computed once per section and
        algebroid: the section keeps the last algebroid's sums, which its
        readers do not mutate."""
        cached = getattr(x, "_anchor_sums", None)
        if cached is not None and cached[0] is self:
            return cached[1]
        accs: List[Dict[int, Coefficient]] = [{} for _ in range(self.chart.dim)]
        limit = self.chart._limit
        for (alpha,), coeff in x.components:
            left = coeff.coeffs.items()
            for acc, entry in zip(accs, self.anchor[alpha]):
                get = acc.get
                for e2, c2 in entry.coeffs.items():
                    for e1, c1 in left:
                        exp = e1 + e2
                        if exp >= limit:
                            raise DegreeOverflow
                        acc[exp] = get(exp, 0) + c1 * c2
        object.__setattr__(x, "_anchor_sums", (self, accs))
        return accs

    def section(self, comps: Sequence[Polynomial]) -> Multisection:
        return Multisection.from_vector(self.rank, comps)


def set_fields(obj, *fields):
    """`obj`, a frozen dataclass instance, with its fields set in order."""
    for name, value in zip(obj.__dataclass_fields__, fields):
        object.__setattr__(obj, name, value)
    return obj


def pair_store(rank: int, pairs: Mapping[Tuple[int, int], Mapping[int, Polynomial]]) -> Structure:
    """The sparse store of `rank` frames from the components g -> c^g_{ab}
    of pairs a < b: nonzero ones sorted by g, the b < a half negated."""
    table: List[List[Tuple[Tuple[int, Polynomial], ...]]] = [[()] * rank for _ in range(rank)]
    for (a, b), comps in pairs.items():
        entry = tuple(sorted([(g, p) for g, p in comps.items() if p]))
        if entry:
            table[a][b] = entry
            table[b][a] = tuple([(g, -p) for g, p in entry])
    return tuple(map(tuple, table))


def tangent_algebroid(chart: Chart) -> LieAlgebroid:
    """Anchor = identity, zero brackets; frames del_<coord>."""
    n = chart.dim
    one = Polynomial.constant(chart, 1)
    zero = Polynomial.zero(chart)
    anchor = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return LieAlgebroid(chart, tuple(f"del_{name}" for name in chart.names), anchor, {})


def coadjoint(L: LieAlgebroid) -> Tuple[Matrix, ...]:
    """The coadjoint representation of L on its dual, one derivation matrix
    per frame e_a: <ad*_X psi, Y> = -<psi, [X, Y]>, so the matrix of e_a has
    entry (j, k) = -c^j_{ak}, stored where c^j_{ak} is nonzero."""
    return tuple(
        tuple(sorted(((j, k), -coeff) for k, entry in enumerate(row) for j, coeff in entry))
        for row in L.nonzero_structure
    )


def bracket_sections(L: LieAlgebroid, x: Multisection, y: Multisection) -> Multisection:
    """[X, Y] = sum_k (sum_{a,b} X^a Y^b c^k_ab + a(X)(Y^k) - a(Y)(X^k)) e_k.

    Built term by term into one exponent map per frame, each component
    built once: the structure part from the nonzero c^k_ab, the anchor part
    from a(X)^i = sum_a X^a a^i_a, read off the anchor rows, times the
    partials of Y^k (and likewise with X and Y swapped).  The Leibniz
    expansion through `VectorField.apply` that this replaces is kept in
    the tests as its oracle.  The first component of X, then of Y, on a
    foreign chart raises `ChartMismatch`.
    """
    if x.degree != 1 or y.degree != 1:
        raise ValueError("bracket_sections needs degree-1 sections")
    if x.rank != L.rank or y.rank != L.rank:
        raise ValueError("section rank does not match algebroid")
    chart = L.chart
    for _, poly in x.components + y.components:
        if poly.chart is not chart and poly.chart.names != chart.names:
            raise ChartMismatch(f"charts differ: {chart} vs {poly.chart}")
    if not x.components or not y.components:
        return Multisection(L.rank, 1, {})
    accs: Dict[int, Dict[int, Coefficient]] = {}
    limit = chart._limit
    for (a,), fa in x.components:
        row = L.nonzero_structure[a]
        for (b,), gb in y.components:
            if not row[b]:
                continue
            product: Dict[int, Coefficient] = {}
            get = product.get
            right = gb.coeffs.items()
            for e1, c1 in fa.coeffs.items():
                for e2, c2 in right:
                    exp = e1 + e2
                    if exp >= limit:
                        raise DegreeOverflow
                    product[exp] = get(exp, 0) + c1 * c2
            for k, c in row[b]:
                acc = accs.setdefault(k, {})
                get = acc.get
                right = c.coeffs.items()
                for e1, c1 in product.items():
                    for e2, c2 in right:
                        exp = e1 + e2
                        if exp >= limit:
                            raise DegreeOverflow
                        acc[exp] = get(exp, 0) + c1 * c2
    for field_of, along, sign in ((x, y, 1), (y, x, -1)):
        field = [
            (sums.items(), shift, unit)
            for sums, shift, unit in zip(L._anchor_sums(field_of), chart._shifts, chart._units)
            if sums
        ]
        for (k,), g in along.components:
            acc = accs.setdefault(k, {})
            get = acc.get
            for e1, c1 in g.coeffs.items():
                for sums, shift, unit in field:
                    power = e1 >> shift & _MASK
                    if not power:
                        continue
                    lowered = e1 - unit
                    scaled = sign * c1 * power
                    for e2, c2 in sums:
                        exp = lowered + e2
                        if exp >= limit:
                            raise DegreeOverflow
                        acc[exp] = get(exp, 0) + scaled * c2
    return Multisection(
        L.rank, 1, {(k,): Polynomial._from_terms(chart, acc) for k, acc in accs.items()}
    )


def anchor_defect(
    nonzero: Structure, fields: Sequence[VectorField], a: int, b: int
) -> Tuple[Polynomial, ...]:
    """a([e_a, e_b]) - [a_a, a_b] per coordinate, the first structure
    equation of `check_algebroid`, for the sparse store `nonzero` and the
    anchors `fields` of a frame."""
    fa, fb = fields[a], fields[b]
    defect = [fb.apply(pa) - fa.apply(pb) for pa, pb in zip(fa.components, fb.components)]
    for g, coeff in nonzero[a][b]:
        defect = [d + coeff * p if p else d for d, p in zip(defect, fields[g].components)]
    return tuple(defect)


def jacobiator(
    nonzero: Structure, fields: Sequence[VectorField], a: int, b: int, c: int
) -> Dict[int, Polynomial]:
    """Jac(e_a, e_b, e_c) by the second structure equation of
    `check_algebroid`, as components by frame; some may be zero."""
    jac: Dict[int, Polynomial] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for g, coeff in nonzero[x][y]:
            for k, other in nonzero[g][z]:
                term = coeff * other
                jac[k] = jac[k] + term if k in jac else term
            term = fields[z].apply(coeff)
            if term:
                jac[g] = jac[g] - term if g in jac else -term
    return jac


def check_algebroid(L: LieAlgebroid) -> CheckReport:
    """Anchor morphism on frame pairs, Jacobi on frame triples, read off
    the nonzero structure functions c^g_{ab} and the anchors a_a = a(e_a)
    by the local structure equations of a Lie algebroid (Mackenzie 2005,
    General Theory of Lie Groupoids and Lie Algebroids, LMS LN 213):

        (a([e_a, e_b]) - [a_a, a_b])^i = sum_g c^g_{ab} a_g^i - a_a(a_b^i) + a_b(a_a^i)
        Jac(e_a, e_b, e_c)^k = sum_cyc (sum_g c^g_{ab} c^k_{gc} - a_c(c^k_{ab}))

    the cyclic sum running over (a, b, c), (b, c, a), (c, a, b).  Both
    defects are function-linear by the Leibniz rule, so frame-level
    vanishing decides the axioms for all polynomial sections.  A tuple
    whose defect these equations prove exactly zero from `L.sparsity` is
    skipped: a pair (a, b) with c_ab = 0 where neither a_a nor a_b points
    along a coordinate that the other's entries depend on, so that both
    a_a(a_b^i) and a_b(a_a^i) vanish (`sparsity.anchor_pairs`), and a
    triple none of whose pairs has a nonzero bracket, since every term
    carries one (`first_jacobiator`).  The rest are visited in
    `itertools.combinations` order, as the full loops (kept in the tests
    as the oracle) visit them, so the first failure is the same.  Only the
    first failing pair or triple of each item builds its witness, the
    same vector field or multisection the frame loop through
    `bracket_sections` computes (kept in the tests as the oracle).  The
    two defects are `anchor_defect` and `jacobiator`, which
    `matched.check_matched` also reads on the bowtie of a pair.

    The algebroid is immutable, so the report is decided once per object
    and stored on it (`LieAlgebroid._axiom_report`, outside `==`, `hash`
    and `repr`): every later call returns the same report.
    """
    return L._axiom_report


def _decide_axioms(L: LieAlgebroid) -> CheckReport:
    """The anchor-morphism and Jacobi items of `check_algebroid`."""
    items: List[CheckItem] = []
    witness = None
    for a, b in anchor_pairs(L):
        defect = anchor_defect(L.nonzero_structure, L.anchor_fields, a, b)
        if any(defect):
            field = VectorField(L.chart, defect)
            witness = f"pair ({L.frames[a]}, {L.frames[b]}): a([.,.]) - [a(.), a(.)] = {field}"
            break
    items.append(failed("anchor_morphism", witness) if witness else passed("anchor_morphism"))

    found = first_jacobiator(L)
    witness = None
    if found:
        (a, b, c), section = found
        witness = (
            f"triple ({L.frames[a]}, {L.frames[b]}, {L.frames[c]}): "
            f"jacobiator = {section.format(L.frames)}"
        )
    items.append(failed("jacobi", witness) if witness else passed("jacobi"))
    return CheckReport(tuple(items))


def first_jacobiator(L: LieAlgebroid) -> Tuple[Index, Multisection] | None:
    """The first frame triple a < b < c, in `itertools.combinations` order,
    whose Jacobiator is nonzero, with that Jacobiator; None when Jacobi
    holds.  Every term of Jac(e_a, e_b, e_c) carries c_ab, c_bc or c_ca,
    so only the triples with a nonzero bracket on one of their pairs are
    decided (`sparsity.bracket_triples`); the others are exactly zero."""
    for a, b, c in bracket_triples(L):
        jac = jacobiator(L.nonzero_structure, L.anchor_fields, a, b, c)
        if any(jac.values()):
            return (a, b, c), Multisection(L.rank, 1, {(k,): poly for k, poly in jac.items()})
    return None


def require_valid(L: LieAlgebroid, label: str = "algebroid") -> None:
    report = check_algebroid(L)
    if not report.ok:
        raise InvalidAlgebroid(f"{label}: {report.first_failure.witness}")


def differential(L: LieAlgebroid, omega: Multisection) -> Multisection:
    """Cartan formula; d^2 = 0 whenever the algebroid axioms hold.

    Scattered from the nonzero components w_I of omega.  Each frame f not
    in I adds (-1)^pos(f) a(e_f)(w_I) to the component I + {f}, pos(f)
    being the place of f there.  Each gamma at place p of I and each
    nonzero c^gamma_{ab} with a, b not in rest = I - {gamma} add
    (-1)^(i+j+p) c^gamma_{ab} w_I to rest + {a, b}, with a and b at places
    i < j there.
    """
    if omega.rank != L.rank:
        raise ValueError("form rank does not match algebroid")
    acc: Dict[Index, Polynomial] = {}
    by_gamma = L.sparsity.brackets_by_gamma
    for idx, poly in omega.components:
        for f, field in enumerate(L.anchor_fields):
            pos = bisect.bisect_left(idx, f)
            if pos < len(idx) and idx[pos] == f:
                continue
            term = field.apply(poly)
            if term:
                target = idx[:pos] + (f,) + idx[pos:]
                term = term if pos % 2 == 0 else -term
                acc[target] = acc[target] + term if target in acc else term
        coeffs: Dict[Index, Polynomial] = {}
        for p, gamma in enumerate(idx):
            rest = idx[:p] + idx[p + 1 :]
            for a, b, c in by_gamma[gamma]:
                if a in rest or b in rest:
                    continue
                i = bisect.bisect_left(rest, a)
                m = bisect.bisect_left(rest, b)
                target = rest[:i] + (a,) + rest[i:m] + (b,) + rest[m:]
                if (i + m + 1 + p) % 2:
                    coeffs[target] = coeffs[target] - c if target in coeffs else -c
                else:
                    coeffs[target] = coeffs[target] + c if target in coeffs else c
        for target, c in coeffs.items():
            if c:
                term = c * poly
                acc[target] = acc[target] + term if target in acc else term
    return Multisection(L.rank, omega.degree + 1, acc)


def schouten(L: LieAlgebroid, p: Multisection, q: Multisection) -> Multisection:
    """Schouten bracket of multisections of degrees p, q >= 1, of degree
    p + q - 1; a function operand raises `ValueError`.

    Pinned conventions: [X, Y] is `bracket_sections` on sections, and the
    biderivation rule [P, Q ^ R] = [P, Q] ^ R + (-1)^((p-1) q) Q ^ [P, R]
    with graded antisymmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P] extend it.
    """
    dp, dq = p.degree, q.degree
    if not dp or not dq:
        raise ValueError("schouten needs multisections of degree >= 1")
    out_degree = dp + dq - 1
    if p.is_zero or q.is_zero:
        return Multisection.zero(L.rank, out_degree)
    if dp == 1 and dq == 1:
        return bracket_sections(L, p, q)
    if dq >= 2:
        # q = sum_I q_I e_I ^ e_J with I = idx[0] and J = idx[1:], so each
        # component adds [p, q_I e_I] ^ e_J + (-1)^(dp - 1) q_I e_I ^ [p, e_J]
        acc: Dict[Index, Polynomial] = {}
        sign = (-1) ** ((dp - 1) % 2)
        one = Polynomial.constant(L.chart, 1)
        tails: Dict[Index, Multisection] = {}
        for idx, poly in q.components:
            head = Multisection(L.rank, 1, {(idx[0],): poly})
            tail = tails.get(idx[1:])
            if tail is None:
                tail = tails[idx[1:]] = Multisection(L.rank, dq - 1, {idx[1:]: one})
            _wedge_into(acc, schouten(L, p, head), tail, 1)
            _wedge_into(acc, head, schouten(L, p, tail), sign)
        return Multisection(L.rank, out_degree, acc)
    swap_sign = (-1) ** (((dp - 1) * (dq - 1) + 1) % 2)
    return schouten(L, q, p).scale(swap_sign)


# ---------------------------------------------------------------------------
# dual Poisson structures and cotangent algebroids


def fibre_coordinate(frame_name: str) -> str:
    """Chart coordinate on the dual bundle that is linear along frame `frame_name`."""
    return f"xi_{frame_name}"


def unique_names(primary: Sequence[str], taken: Sequence[str]) -> Tuple[str, ...]:
    """Disambiguate generated names against already-used ones (apostrophes)."""
    out: List[str] = []
    used = set(taken)
    for name in primary:
        candidate = name
        while candidate in used:
            candidate += "'"
        out.append(candidate)
        used.add(candidate)
    return tuple(out)


@dataclass(frozen=True)
class PoissonChart:
    """Antisymmetric polynomial bivector matrix on a chart."""

    chart: Chart
    matrix: Tuple[Tuple[Polynomial, ...], ...]

    def __init__(self, chart: Chart, matrix: Sequence[Sequence[Polynomial]]):
        n = chart.dim
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("bivector matrix must be dim x dim")
        if any(matrix[i][j] + matrix[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("bivector matrix must be antisymmetric")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _from_matrix(cls, chart: Chart, matrix: Tuple[Tuple[Polynomial, ...], ...]) -> "PoissonChart":
        """Trusted constructor for a matrix antisymmetric by construction."""
        P = object.__new__(cls)
        object.__setattr__(P, "chart", chart)
        object.__setattr__(P, "matrix", matrix)
        return P

    def _cyclic_sums(self) -> Iterator[Tuple[Index, Polynomial]]:
        """For each i < j < k, the cyclic sum over (i, j, k) of
        sum_l pi^{il} d_l pi^{jk}: half the (i, j, k) component of [pi, pi]."""
        names, m = self.chart.names, self.matrix
        rows = [[(l, p) for l, p in enumerate(row) if p] for row in m]

        def flow(i: int, j: int, k: int) -> Polynomial:
            out = Polynomial.zero(self.chart)
            if m[j][k]:
                for l, p in rows[i]:
                    out = out + p * m[j][k].partial(names[l])
            return out

        for i, j, k in itertools.combinations(range(self.chart.dim), 3):
            yield (i, j, k), flow(i, j, k) + flow(j, k, i) + flow(k, i, j)

    def jacobiator(self) -> Multisection:
        """[pi, pi] as a trivector of the tangent algebroid of the chart:
        twice the cyclic sums, the Schouten bracket of pi with itself."""
        return Multisection(self.chart.dim, 3, {idx: s.scale(2) for idx, s in self._cyclic_sums()})

    def is_poisson(self) -> bool:
        """[pi, pi] = 0, decided on the cyclic sums that `jacobiator`
        doubles.  It stops at the first nonzero sum, so a passing bivector
        never builds the trivector."""
        return not any(s for _, s in self._cyclic_sums())


def dual_poisson(L: LieAlgebroid) -> PoissonChart:
    """Linear Poisson structure on the dual: {l_X, l_Y} = l_{[X,Y]},
    {l_X, f} = a(X)(f), {f, g} = 0, on the chart (x, xi_frame), with
    apostrophes on a xi_frame already on the chart (`unique_names`)."""
    xi = unique_names([fibre_coordinate(f) for f in L.frames], L.chart.names)
    ext = L.chart.extend(xi)
    n, r = L.chart.dim, L.rank
    zero = Polynomial.zero(ext)
    matrix = [[zero] * (n + r) for _ in range(n + r)]
    for a in range(r):
        for i in range(n):
            entry = L.anchor[a][i].lift(ext)
            matrix[n + a][i], matrix[i][n + a] = entry, -entry
        for b in range(a + 1, r):
            entry = zero
            for g, coeff in L.nonzero_structure[a][b]:
                entry = entry + coeff.lift(ext) * Polynomial.coordinate(ext, xi[g])
            matrix[n + a][n + b], matrix[n + b][n + a] = entry, -entry
    return PoissonChart._from_matrix(ext, tuple(map(tuple, matrix)))


def gradient(p: Polynomial) -> List[Tuple[int, Polynomial]]:
    """The nonzero (i, dp/dx^i): those along the coordinates p depends on."""
    names = p.chart.names
    return [(i, p.partial(names[i])) for i in bits(p.variables())]


def cotangent_algebroid(P: PoissonChart) -> LieAlgebroid:
    """Algebroid on the frame d<coord>: anchor pi#, bracket [dz^i, dz^j] = d(pi^ij).

    Rejects non-Poisson input, decided by `is_poisson`; the witness is the
    full `jacobiator`.  The Koszul identity [df, dg] = d{f, g} then holds
    for all functions.
    """
    if not P.is_poisson():
        frames = tuple(f"del_{n}" for n in P.chart.names)
        raise NotPoisson(f"[pi, pi] = {P.jacobiator().format(frames)}")
    n = P.chart.dim
    frames = tuple(f"d{name}" for name in P.chart.names)
    anchor = [[P.matrix[i][j] for j in range(n)] for i in range(n)]
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        entry = P.matrix[i][j]
        brackets[(i, j)] = tuple(entry.partial(name) for name in P.chart.names)
    return LieAlgebroid(P.chart, frames, anchor, brackets)


# ---------------------------------------------------------------------------
# dual-pair compatibility (bialgebroid condition)

RANDOM_PAIRS = 4  # seeded section pairs drawn by the `random` family


def random_polynomial(rng: random.Random, chart: Chart, max_degree: int = 2) -> Polynomial:
    terms: Dict[Index, Coefficient] = {}
    n = chart.dim
    for _ in range(rng.randint(1, 3)):
        exp = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if n == 0:
                break
            exp[rng.randrange(n)] += 1
        coeff = rng.randint(-3, 3)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(chart, terms)


def random_section(rng: random.Random, L: LieAlgebroid, max_degree: int = 2) -> Multisection:
    return L.section([random_polynomial(rng, L.chart, max_degree) for _ in range(L.rank)])


def check_bialgebroid(
    L: LieAlgebroid,
    Lstar: LieAlgebroid,
    seed: int = 7,
    max_degree: int = 2,
) -> CheckReport:
    """d_*[X, Y] = [d_* X, Y] + [X, d_* Y] for the dual pair (L, Lstar).

    Lstar lives on the same chart with positionally dual frames.  Both
    algebroid axiom checks (`side`, `dual_side`) gate the compatibility
    families of `check_compatibility`.
    """
    if L.chart != Lstar.chart:
        raise ChartMismatch("dual pair must share a chart")
    if L.rank != Lstar.rank:
        raise ValueError("dual pair must have equal ranks")
    axioms = CheckReport(
        (check_algebroid(L).as_item("side"), check_algebroid(Lstar).as_item("dual_side"))
    )
    if not axioms.ok:
        return axioms
    return CheckReport(
        axioms.items + check_compatibility(L, Lstar, seed=seed, max_degree=max_degree).items
    )


def compatibility_defect(
    L: LieAlgebroid, Lstar: LieAlgebroid, x: Multisection, y: Multisection
) -> Multisection:
    """D(X, Y) = d_*[X, Y] - [d_*X, Y] - [X, d_*Y], with d_* the differential
    of Lstar acting on multisections of L and [ , ] the Schouten bracket of
    L, for sections X and Y."""
    d_star = lambda ms: differential(Lstar, ms)
    return d_star(schouten(L, x, y)) - schouten(L, d_star(x), y) - schouten(L, x, d_star(y))


def _accumulate(acc: Dict[Index, Polynomial], key: Index, poly: Polynomial) -> None:
    if poly:
        acc[key] = acc[key] + poly if key in acc else poly


def _add_wedge(acc: Dict[Index, Polynomial], i: int, j: int, poly: Polynomial) -> None:
    """Add poly e_i ^ e_j to the bivector components `acc`."""
    if i < j:
        _accumulate(acc, (i, j), poly)
    elif i > j:
        _accumulate(acc, (j, i), -poly)


def _add_theta_bracket(
    acc: Dict[Index, Polynomial], L: LieAlgebroid, Lstar: LieAlgebroid, x: int, y: int, negate: bool
) -> None:
    """Add [e_x, Theta_y] to `acc`, or minus it when `negate`, where
    Theta_y = d_* e_y = -sum_{p<q} gamma^{pq}_y e_p ^ e_q, by the Leibniz
    rule [e_x, g e_p ^ e_q] = a_x(g) e_p ^ e_q + g c_xp ^ e_q + g e_p ^ c_xq."""
    field, row = L.anchor_fields[x], L.nonzero_structure[x]
    for p, q, g in Lstar.sparsity.brackets_by_gamma[y]:
        terms = [(p, q, field.apply(g))]
        terms += [(k, q, g * c) for k, c in row[p]]
        terms += [(p, k, g * c) for k, c in row[q]]
        for i, j, term in terms:
            # the minus sign of Theta_y swaps the wedge factors
            _add_wedge(acc, *((i, j) if negate else (j, i)), term)


def frame_defect(L: LieAlgebroid, Lstar: LieAlgebroid, a: int, b: int) -> Dict[Index, Polynomial]:
    """D(e_a, e_b) by the first formula of `check_compatibility`, as the
    components of a bivector on increasing frame pairs; some may be zero."""
    acc: Dict[Index, Polynomial] = {}
    for k, c in L.nonzero_structure[a][b]:
        for m, field in enumerate(Lstar.anchor_fields):
            if m != k:
                _add_wedge(acc, m, k, field.apply(c))
        for p, q, g in Lstar.sparsity.brackets_by_gamma[k]:
            _add_wedge(acc, q, p, c * g)
    _add_theta_bracket(acc, L, Lstar, b, a, False)
    _add_theta_bracket(acc, L, Lstar, a, b, True)
    return acc


def function_defect(L: LieAlgebroid, Lstar: LieAlgebroid, a: int, i: int) -> Dict[Index, Polynomial]:
    """D(e_a, x_i) by the second formula of `check_compatibility`, as the
    components of a section on (k,); some may be zero.

    Only the nonzero terms are computed: sigma_m(rho^i_a) for the m whose
    anchor points along a coordinate that rho^i_a depends on, and the
    terms of sigma^{mi} for the m of column i of Lstar's anchor
    (`Sparsity.columns`); the others are exactly zero."""
    acc: Dict[Index, Polynomial] = {}
    entry, star = L.anchor[a][i], Lstar.sparsity
    if entry:
        movers = 0  # the frames m whose anchor points along a coordinate of rho^i_a
        for j in bits(entry.variables()):
            movers |= star.along[j]
        for m in bits(movers):
            _accumulate(acc, (m,), Lstar.anchor_fields[m].apply(entry))
    field, directions, row = L.anchor_fields[a], L.sparsity.directions[a], L.nonzero_structure[a]
    for m, sigma, depends in star.columns[i]:
        if depends & directions:
            _accumulate(acc, (m,), -field.apply(sigma))
        for k, c in row[m]:
            _accumulate(acc, (k,), -(sigma * c))
    for p, q, g in star.brackets_by_gamma[a]:
        _accumulate(acc, (p,), g * L.anchor[q][i])
        _accumulate(acc, (q,), -(g * L.anchor[p][i]))
    return acc


def anchor_products(L: LieAlgebroid, Lstar: LieAlgebroid) -> List[List[Polynomial]]:
    """M[u][w] = sum_m rho^u_m sigma^{mw}, with rho^u_m = L.anchor[m][u]
    and sigma^{mw} = Lstar.anchor[m][w], summed over the nonzero entries of
    each row (`Sparsity.rows`): the bracket {x_u, x_w} of the coordinates
    that a dual pair induces on its base, whose symmetric part is
    S(x_u, x_w) = M[u][w] + M[w][u]."""
    n = L.chart.dim
    matrix = [[Polynomial.zero(L.chart)] * n for _ in range(n)]
    for left, right in zip(L.sparsity.rows, Lstar.sparsity.rows):
        for u, p, _ in left:
            out = matrix[u]
            for w, q, _ in right:
                out[w] = out[w] + p * q
    return matrix


def check_compatibility(
    L: LieAlgebroid,
    Lstar: LieAlgebroid,
    seed: int = 7,
    max_degree: int = 2,
) -> CheckReport:
    """The compatibility families of `check_bialgebroid`, for a dual pair
    whose two algebroid axiom checks are already decided.

    Every family reads one defect, D(X, Y) = d_*[X, Y] - [d_*X, Y] -
    [X, d_*Y] (`compatibility_defect`).  `frames` reads it on frame pairs,
    `function_pairs` on (frame, coordinate) pairs and `symmetric_part`
    reads S(f, g) = a(d_*f)(g) + a(d_*g)(f) on coordinate pairs; together
    they decide the condition for all polynomial sections.  The first
    three are first order in the anchors and the structure functions
    (Mackenzie & Xu 1994, Lie bialgebroids and Poisson groupoids, Duke
    Math. J. 73, section 3; Kosmann-Schwarzbach 1995, Exact Gerstenhaber
    algebras and Lie bialgebroids, Acta Appl. Math. 41), so they are
    scattered from the nonzero structure functions and anchor entries.
    With rho^i_a = L.anchor[a][i], sigma^{mi} = Lstar.anchor[m][i], the
    brackets c^k_{ab} of L and gamma^{pq}_k of Lstar, and
    Theta_a = d_* e_a = -sum_{p<q} gamma^{pq}_a e_p ^ e_q:

        D(e_a, e_b) = sum_{k,m} sigma_m(c^k_ab) e_m ^ e_k
                      - sum_k c^k_ab sum_{p<q} gamma^{pq}_k e_p ^ e_q
                      + [e_b, Theta_a] - [e_a, Theta_b],
            [e_b, g e_p ^ e_q] = rho_b(g) e_p ^ e_q + g c_bp ^ e_q + g e_p ^ c_bq;
        D(e_a, x_i) = sum_k (sigma_k(rho^i_a) - rho_a(sigma^{ki})
                             - sum_m sigma^{mi} c^k_am) e_k
                      + sum_{p<q} gamma^{pq}_a (rho^i_q e_p - rho^i_p e_q);
        S(x_i, x_j) = sum_m (sigma^{mi} rho^j_m + sigma^{mj} rho^i_m).

    These are `frame_defect`, `function_defect` and the symmetric part of
    `anchor_products`; only a failing entry becomes a `Multisection`, the
    witness the section calculus writes (kept in the tests as the oracle).
    Every term of D(e_a, e_b) carries c_ab, Theta_a or Theta_b, so a frame
    pair with c_ab = 0 whose frames are not brackets of Lstar (gamma_a =
    gamma_b = 0) is skipped (`sparsity.frame_partners`).  A (frame,
    coordinate) pair is skipped when each term of D(e_a, x_i) vanishes by
    the patterns (`sparsity.function_coordinates`): rho^i_a depends on no
    coordinate that an anchor of Lstar points along, no sigma^{ki} depends
    on one that rho_a points along, no sigma^{mi} is nonzero for an m with
    c_am != 0, and gamma_a has no pair (p, q) with rho^i_p or rho^i_q
    nonzero.  The pairs decided keep the order of the full loops (kept in
    the tests as the oracle), so each witness is the same.  `scaled` is read
    off the first two by the Leibniz rule D(X, fY) = f D(X, Y) + D(X, f) ^ Y
    (Jacobi is not needed), so it passes unread when both pass.  These four
    are `compatibility_families`.  `random` draws seeded section pairs of
    bounded degree and runs `compatibility_defect` on them, but only when
    one of the other four families fails: once they all pass, every trial
    defect is zero, so `random` is reported as passed without drawing.  The
    tests keep the trial loop on every pair as its oracle.  Each family
    reports its first nonzero defect.
    """
    items = list(compatibility_families(L, Lstar))

    def random_item() -> CheckItem:
        # `random.Random` seeds an int by its absolute value, so a negative
        # seed is seeded by its decimal text instead
        rng = random.Random(seed if seed >= 0 else str(seed))
        for trial in range(RANDOM_PAIRS):
            x = random_section(rng, L, max_degree)
            y = random_section(rng, L, max_degree)
            defect = compatibility_defect(L, Lstar, x, y)
            if defect.components:
                where = f"random trial {trial}: X = {x.format(L.frames)}, Y = {y.format(L.frames)}, "
                return failed("random", f"{where}defect = {defect.format(L.frames)}")
        return passed("random")

    # D is antisymmetric, D(X, gY) = g D(X, Y) + D(X, g) ^ Y, D(e_a, g) =
    # sum_i d_i g * function_defect(a, i), and D(fX, g) = f D(X, g) +
    # S(f, g) X with S the symmetric part (a biderivation, so fixed by its
    # values on coordinates).  D at any polynomial pair is therefore a
    # combination of frame defects, function defects and S(x_i, x_j), and
    # the trials can only fail when one of those families has.
    if all(item.ok for item in items):
        items.append(passed("random"))
    else:
        items.append(random_item())
    return CheckReport(tuple(items))


def _first_nonzero(check_id: str, degree: int, frames: Tuple[str, ...], cases) -> CheckItem:
    """`check_id` failed at the first (where, components) case of `cases`
    with a nonzero component, as a degree-`degree` multisection witness;
    passed when there is none."""
    for where, components in cases:
        if any(components.values()):
            witness = Multisection(len(frames), degree, components).format(frames)
            return failed(check_id, f"{where}defect = {witness}")
    return passed(check_id)


def compatibility_families(L: LieAlgebroid, Lstar: LieAlgebroid) -> Iterator[CheckItem]:
    """The closed-form families of `check_compatibility`, in report order:
    `frames`, `scaled`, `function_pairs` and `symmetric_part`.

    They are yielded one at a time, so a caller that asks only whether all
    of them pass stops at the first failure.  Once all four pass, so does
    `random`, and the pair is compatible.  Each family visits its cases in
    the order of the full loops and skips only those whose defect the
    sparsity patterns prove zero (`sparsity.frame_partners` and
    `function_coordinates`), so every item and witness is the one the
    full loops give.
    """
    rank, frames, names = L.rank, L.frames, L.chart.names
    coords = [Polynomial.coordinate(L.chart, name) for name in names]
    partners = frame_partners(L, Lstar)

    @functools.cache
    def frames_at(a: int, b: int) -> Dict[Index, Polynomial]:
        return frame_defect(L, Lstar, a, b) if partners[a] >> b & 1 else {}

    @functools.cache
    def functions_at(a: int, i: int) -> Dict[Index, Polynomial]:
        return function_defect(L, Lstar, a, i) if reached[a] >> i & 1 else {}

    def scaled_at(a: int, b: int, i: int) -> Dict[Index, Polynomial]:
        # D is antisymmetric, so D(e_a, e_b) = -D(e_b, e_a) and D(e_a, e_a) = 0
        coord = coords[i] if a < b else -coords[i]
        acc = {idx: coord * p for idx, p in frames_at(min(a, b), max(a, b)).items()} if a != b else {}
        for (k,), p in functions_at(a, i).items():
            _add_wedge(acc, k, b, p)
        return acc

    frame_item = _first_nonzero(
        "frames",
        2,
        frames,
        (
            (f"pair ({frames[a]}, {frames[b]}): ", frames_at(a, b))
            for a in range(rank)
            for b in bits(partners[a] & -2 << a)
        ),
    )
    yield frame_item
    # the coordinates i with D(e_a, x_i) possibly nonzero, per frame a
    reached = [function_coordinates(L, Lstar, a) for a in range(rank)]
    function_item = _first_nonzero(
        "function_pairs",
        1,
        frames,
        (
            (f"pair ({frames[a]}, {names[i]}): ", functions_at(a, i))
            for a in range(rank)
            for i in bits(reached[a])
        ),
    )
    if frame_item.ok and function_item.ok:
        yield passed("scaled")
    else:
        # D(e_a, x_i * e_b) = x_i D(e_a, e_b) + D(e_a, x_i) ^ e_b
        yield _first_nonzero(
            "scaled",
            2,
            frames,
            (
                (f"pair ({frames[a]}, {names[i]} * {frames[b]}): ", scaled_at(a, b, i))
                for a, b in itertools.product(range(rank), repeat=2)
                for i in (range(len(names)) if a != b and partners[a] >> b & 1 else bits(reached[a]))
            ),
        )
    yield function_item

    products = anchor_products(L, Lstar)
    for i, j in itertools.combinations_with_replacement(range(len(names)), 2):
        value = products[i][j] + products[j][i]
        if value:
            yield failed(
                "symmetric_part",
                f"functions ({names[i]}, {names[j]}): a(d_*f)(g) + a(d_*g)(f) = {value}",
            )
            return
    yield passed("symmetric_part")


# ---------------------------------------------------------------------------
# frame changes and bridges to the finite-dimensional layer


def permute_frames(L: LieAlgebroid, columns: Sequence[Tuple[int, int]], new_names: Sequence[str]) -> LieAlgebroid:
    """Relabel and re-sign the frames by a signed permutation (trusted).

    `columns[j] = (p(j), s_j)`, s_j = +-1, makes new frame j equal to
    s_j e_{p(j)}: its anchor is s_j a_{p(j)}, and c'^m_{ab} =
    s_a s_b s_m c^{p(m)}_{p(a) p(b)} is written from the stored nonzero
    pairs only.  The columns name each old frame once; `new_names` are
    distinct and off the chart."""
    anchor = tuple(L.anchor[p] if s == 1 else tuple(-e for e in L.anchor[p]) for p, s in columns)
    index, sign = [0] * L.rank, [1] * L.rank  # old frame p(m) is sign[p(m)] times new frame m
    for m, (p, s) in enumerate(columns):
        index[p], sign[p] = m, s
    pairs = {}
    for i, row in enumerate(L.nonzero_structure):
        for j, old in enumerate(row):
            if old and index[i] < index[j]:
                s = sign[i] * sign[j]
                pairs[index[i], index[j]] = {index[g]: c if s * sign[g] == 1 else -c for g, c in old}
    return LieAlgebroid._from_store(L.chart, tuple(new_names), anchor, pair_store(L.rank, pairs))


def change_frames(L: LieAlgebroid, matrix: Sequence[Sequence[Coefficient]], new_names: Sequence[str]) -> LieAlgebroid:
    """`permute_frames` by an outside signed permutation matrix.

    Column j of `matrix` is new frame j in old frames; its one nonzero entry
    s_j = +-1 sits in row p(j), so new frame j is s_j e_{p(j)}.  Raises
    `ValueError` on any other matrix and unless `new_names` holds one
    distinct name per frame, off the chart.
    """
    r = L.rank
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise ValueError("frame change must be a signed permutation matrix")
    columns: List[Tuple[int, int]] = []
    for j in range(r):
        column = [(i, rat(matrix[i][j])) for i in range(r) if matrix[i][j] != 0]
        if len(column) != 1 or abs(column[0][1]) != 1:
            break
        columns.append(column[0])
    if len(columns) != r or len({p for p, _ in columns}) != r:
        raise ValueError("frame change must be a signed permutation matrix")
    new_names = tuple(new_names)
    if len(new_names) != r or len(set(new_names)) != r or set(new_names) & set(L.chart.names):
        raise ValueError("frame change needs one distinct new name per frame, off the chart")
    return permute_frames(L, columns, new_names)


def lie_algebra_to_algebroid(g: LieAlgebroid) -> LieAlgebroid:
    """`g` itself: `liealg.LieAlgebra` already builds a Lie algebra as the
    algebroid over the point chart it is.  Kept for the benchmark harness,
    which calls it on the Lie algebras of its ladder."""
    return g


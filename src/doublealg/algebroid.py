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
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .exact import Chart, ChartMismatch, Polynomial, rat
from .verdicts import CheckItem, CheckReport, failed, passed

Index = Tuple[int, ...]


class NotPoisson(ValueError):
    """A bivector fails [pi, pi] = 0; carries the defect witness."""


class InvalidAlgebroid(ValueError):
    """A structure fails the algebroid axioms where validity is required."""


# ---------------------------------------------------------------------------
# vector fields


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field on a chart; components per coordinate."""

    chart: Chart
    components: Tuple[Polynomial, ...]

    def __init__(self, chart: Chart, components: Sequence[Polynomial]):
        components = tuple(components)
        if len(components) != chart.dim:
            raise ValueError("component count does not match chart dimension")
        for c in components:
            if c.chart != chart:
                raise ChartMismatch("vector field component on wrong chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", components)

    @classmethod
    def _from_components(cls, chart: Chart, components: Tuple[Polynomial, ...]) -> "VectorField":
        """Trusted constructor: one component per coordinate, all on `chart`."""
        field = object.__new__(cls)
        object.__setattr__(field, "chart", chart)
        object.__setattr__(field, "components", components)
        return field

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        zero = Polynomial.zero(chart)
        return VectorField._from_components(chart, (zero,) * chart.dim)

    def apply(self, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(self.chart)
        if not f:
            return out
        for name, comp in zip(self.chart.names, self.components):
            if comp:
                out = out + comp * f.partial(name)
        return out

    def commutator(self, other: "VectorField") -> "VectorField":
        comps = tuple(
            self.apply(yc) - other.apply(xc)
            for xc, yc in zip(self.components, other.components)
        )
        return VectorField._from_components(self.chart, comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return VectorField._from_components(self.chart, comps)

    def __sub__(self, other: "VectorField") -> "VectorField":
        comps = tuple(a - b for a, b in zip(self.components, other.components))
        return VectorField._from_components(self.chart, comps)

    def scale_by(self, f: Polynomial) -> "VectorField":
        return VectorField._from_components(self.chart, tuple(f * c for c in self.components))

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
    nonzero components are stored.  Degree 0 is a single ()-indexed function.
    The same representation serves forms (indices then refer to the dual
    frame).
    """

    rank: int
    degree: int
    components: Tuple[Tuple[Index, Polynomial], ...]

    def __init__(self, rank: int, degree: int, components: Mapping[Index, Polynomial] | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        cleaned: Dict[Index, Polynomial] = {}
        if components:
            for idx, poly in components.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index {idx} has wrong length for degree {degree}")
                if any(not (0 <= i < rank) for i in idx):
                    raise ValueError(f"index {idx} out of range for rank {rank}")
                if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                    raise ValueError(f"index {idx} not strictly increasing")
                if poly:
                    cleaned[idx] = cleaned[idx] + poly if idx in cleaned else poly
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "components", tuple(sorted(((i, p) for i, p in cleaned.items() if p), key=lambda t: t[0]))
        )

    @staticmethod
    def zero(rank: int, degree: int) -> "Multisection":
        return Multisection(rank, degree, {})

    @staticmethod
    def function(rank: int, poly: Polynomial) -> "Multisection":
        return Multisection(rank, 0, {(): poly})

    @staticmethod
    def from_vector(rank: int, comps: Sequence[Polynomial]) -> "Multisection":
        return Multisection(rank, 1, {(i,): p for i, p in enumerate(comps)})

    @functools.cached_property
    def _table(self) -> Dict[Index, Polynomial]:
        return dict(self.components)

    def component_general(self, idx: Index, chart: Chart) -> Polynomial:
        """Antisymmetric lookup: signed component for an arbitrary index tuple."""
        if len(set(idx)) != len(idx):
            return Polynomial.zero(chart)
        order = tuple(sorted(idx))
        sign = _permutation_sign(idx)
        poly = self._table.get(order)
        if poly is None:
            return Polynomial.zero(chart)
        return poly if sign == 1 else -poly

    def vector(self, chart: Chart) -> Tuple[Polynomial, ...]:
        if self.degree != 1:
            raise ValueError("vector() requires degree 1")
        table, zero = self._table, Polynomial.zero(chart)
        return tuple(table.get((i,), zero) for i in range(self.rank))

    def __add__(self, other: "Multisection") -> "Multisection":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("rank/degree mismatch")
        acc = dict(self.components)
        for idx, poly in other.components:
            acc[idx] = acc[idx] + poly if idx in acc else poly
        return Multisection(self.rank, self.degree, acc)

    def __sub__(self, other: "Multisection") -> "Multisection":
        return self + other.scale(Fraction(-1))

    def scale(self, value) -> "Multisection":
        c = rat(value)
        return Multisection(self.rank, self.degree, {i: p.scale(c) for i, p in self.components})

    def scale_by(self, f: Polynomial) -> "Multisection":
        return Multisection(self.rank, self.degree, {i: f * p for i, p in self.components})

    def wedge(self, other: "Multisection") -> "Multisection":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc: Dict[Index, Polynomial] = {}
        for i1, p1 in self.components:
            for i2, p2 in other.components:
                if set(i1) & set(i2):
                    continue
                merged = i1 + i2
                sign = _permutation_sign(merged)
                target = tuple(sorted(merged))
                term = p1 * p2 if sign == 1 else -(p1 * p2)
                acc[target] = acc[target] + term if target in acc else term
        return Multisection(self.rank, self.degree + other.degree, acc)

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


@dataclass(frozen=True)
class Derivation:
    """First-order operator on a framed bundle: D(f mu) = f D(mu) + X(f) mu.

    matrix[a] is the image of frame a as component polynomials.
    """

    base_field: VectorField
    matrix: Tuple[Tuple[Polynomial, ...], ...]

    def __init__(self, base_field: VectorField, matrix: Sequence[Sequence[Polynomial]]):
        object.__setattr__(self, "base_field", base_field)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))

    @property
    def bundle_rank(self) -> int:
        return len(self.matrix)

    @staticmethod
    def zero(chart: Chart, rank: int) -> "Derivation":
        z = Polynomial.zero(chart)
        return Derivation(VectorField.zero(chart), tuple(tuple(z for _ in range(rank)) for _ in range(rank)))

    def apply(self, comps: Sequence[Polynomial]) -> Tuple[Polynomial, ...]:
        chart = self.base_field.chart
        out = [self.base_field.apply(c) for c in comps]
        for a, coeff in enumerate(comps):
            if not coeff:
                continue
            for b in range(len(out)):
                if self.matrix[a][b]:
                    out[b] = out[b] + coeff * self.matrix[a][b]
        return tuple(out)

    def commutator(self, other: "Derivation") -> "Derivation":
        rank = self.bundle_rank
        chart = self.base_field.chart
        rows = []
        for a in range(rank):
            unit = [Polynomial.zero(chart) for _ in range(rank)]
            unit[a] = Polynomial.constant(chart, 1)
            first = self.apply(other.apply(unit))
            second = other.apply(self.apply(unit))
            rows.append(tuple(f - s for f, s in zip(first, second)))
        return Derivation(self.base_field.commutator(other.base_field), rows)

    def contragredient(self) -> "Derivation":
        """Dual derivation: <D* phi, mu> = X<phi, mu> - <phi, D mu>."""
        rank = self.bundle_rank
        rows = [tuple(-self.matrix[a][b] for a in range(rank)) for b in range(rank)]
        return Derivation(self.base_field, rows)

    def __add__(self, other: "Derivation") -> "Derivation":
        rows = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.matrix, other.matrix)
        )
        return Derivation(self.base_field + other.base_field, rows)

    def scale_by(self, f: Polynomial) -> "Derivation":
        rows = tuple(tuple(f * entry for entry in row) for row in self.matrix)
        return Derivation(self.base_field.scale_by(f), rows)

    def equals(self, other: "Derivation") -> bool:
        return (
            self.base_field.components == other.base_field.components
            and self.matrix == other.matrix
        )


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
    """

    chart: Chart
    frames: Tuple[str, ...]
    anchor: Tuple[Tuple[Polynomial, ...], ...]  # anchor[alpha][i]
    nonzero_structure: Tuple[Tuple[Tuple[Tuple[int, Polynomial], ...], ...], ...]

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
        table: List[List[Tuple[Tuple[int, Polynomial], ...]]] = [[()] * r for _ in range(r)]
        if brackets:
            for (a, b), comps in brackets.items():
                if a == b:
                    raise ValueError("bracket(e_a, e_a) must be omitted (it is 0)")
                if a > b:
                    raise ValueError("provide brackets with a < b only")
                if len(comps) != r:
                    raise ValueError("bracket value has wrong rank")
                entry = tuple((g, p) for g, p in enumerate(comps) if p)
                if entry:
                    table[a][b] = entry
                    table[b][a] = tuple((g, -p) for g, p in entry)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "nonzero_structure", tuple(tuple(row) for row in table))

    @property
    def rank(self) -> int:
        return len(self.frames)

    @functools.cached_property
    def anchor_fields(self) -> Tuple[VectorField, ...]:
        """The anchors a(e_alpha) as vector fields, built once."""
        return tuple(VectorField(self.chart, row) for row in self.anchor)

    def anchor_field(self, alpha: int) -> VectorField:
        return self.anchor_fields[alpha]

    @functools.cached_property
    def brackets_by_gamma(self) -> Tuple[Tuple[Tuple[int, int, Polynomial], ...], ...]:
        """For each frame gamma, the nonzero c^gamma_{ab} with a < b as
        (a, b, c^gamma_{ab}), built once."""
        out: List[List[Tuple[int, int, Polynomial]]] = [[] for _ in range(self.rank)]
        for a, row in enumerate(self.nonzero_structure):
            for b in range(a + 1, self.rank):
                for gamma, coeff in row[b]:
                    out[gamma].append((a, b, coeff))
        return tuple(tuple(row) for row in out)

    def anchor_of(self, x: Multisection) -> VectorField:
        comps = x.vector(self.chart)
        out = VectorField.zero(self.chart)
        for alpha, coeff in enumerate(comps):
            if coeff:
                out = out + self.anchor_field(alpha).scale_by(coeff)
        return out

    @functools.cached_property
    def frame_sections(self) -> Tuple[Multisection, ...]:
        """The frames e_alpha as degree-1 sections, built once."""
        one = Polynomial.constant(self.chart, 1)
        return tuple(Multisection(self.rank, 1, {(alpha,): one}) for alpha in range(self.rank))

    def frame_section(self, alpha: int) -> Multisection:
        return self.frame_sections[alpha]

    def frame_bracket(self, a: int, b: int) -> Multisection:
        return Multisection(self.rank, 1, {(g,): p for g, p in self.nonzero_structure[a][b]})

    def section(self, comps: Sequence[Polynomial]) -> Multisection:
        return Multisection.from_vector(self.rank, comps)


def tangent_algebroid(chart: Chart) -> LieAlgebroid:
    """Anchor = identity, zero brackets; frames del_<coord>."""
    n = chart.dim
    one = Polynomial.constant(chart, 1)
    zero = Polynomial.zero(chart)
    anchor = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return LieAlgebroid(chart, tuple(f"del_{name}" for name in chart.names), anchor, {})


def bracket_sections(L: LieAlgebroid, x: Multisection, y: Multisection) -> Multisection:
    """[X, Y] with the Leibniz expansion over polynomial coefficients."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("bracket_sections needs degree-1 sections")
    if x.rank != L.rank or y.rank != L.rank:
        raise ValueError("section rank does not match algebroid")
    xs, ys = x.vector(L.chart), y.vector(L.chart)
    acc: Dict[Index, Polynomial] = {}

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
    ax, ay = L.anchor_of(x), L.anchor_of(y)
    for k in range(L.rank):
        add(k, ax.apply(ys[k]) - ay.apply(xs[k]))
    return Multisection(L.rank, 1, acc)


def check_algebroid(L: LieAlgebroid) -> CheckReport:
    """Anchor morphism on frame pairs, Jacobi on frame triples, read off
    the nonzero structure functions c^g_{ab} and the anchors a_a = a(e_a)
    by the local structure equations of a Lie algebroid (Mackenzie 2005,
    General Theory of Lie Groupoids and Lie Algebroids, LMS LN 213):

        (a([e_a, e_b]) - [a_a, a_b])^i = sum_g c^g_{ab} a_g^i - a_a(a_b^i) + a_b(a_a^i)
        Jac(e_a, e_b, e_c)^k = sum_cyc (sum_g c^g_{ab} c^k_{gc} - a_c(c^k_{ab}))

    the cyclic sum running over (a, b, c), (b, c, a), (c, a, b).  Both
    defects are function-linear by the Leibniz rule, so frame-level
    vanishing decides the axioms for all polynomial sections.  Only the
    first failing pair or triple of each item builds its witness, the
    same vector field or multisection the frame loop through
    `bracket_sections` computes (kept in the tests as the oracle).
    """
    fields, nonzero = L.anchor_fields, L.nonzero_structure
    items: List[CheckItem] = []
    witness = None
    for a, b in itertools.combinations(range(L.rank), 2):
        fa, fb = fields[a], fields[b]
        defect = [fb.apply(pa) - fa.apply(pb) for pa, pb in zip(fa.components, fb.components)]
        for g, coeff in nonzero[a][b]:
            defect = [d + coeff * p if p else d for d, p in zip(defect, L.anchor[g])]
        if any(defect):
            field = VectorField._from_components(L.chart, tuple(defect))
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
    whose Jacobiator (the structure equation of `check_algebroid`) is
    nonzero, with that Jacobiator; None when Jacobi holds."""
    fields, nonzero = L.anchor_fields, L.nonzero_structure
    for a, b, c in itertools.combinations(range(L.rank), 3):
        jac: Dict[int, Polynomial] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for g, coeff in nonzero[x][y]:
                for k, other in nonzero[g][z]:
                    term = coeff * other
                    jac[k] = jac[k] + term if k in jac else term
                term = fields[z].apply(coeff)
                if term:
                    jac[g] = jac[g] - term if g in jac else -term
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
            for a, b, c in L.brackets_by_gamma[gamma]:
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
    """Schouten bracket, degree p + q - 1 (functions stay at degree 0).

    Pinned conventions: [X, f] = a(X)(f) and the biderivation rule
    [P, Q ^ R] = [P, Q] ^ R + (-1)^((p-1) q) Q ^ [P, R], which give graded
    antisymmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P].
    """
    dp, dq = p.degree, q.degree
    out_degree = max(dp + dq - 1, 0)
    if p.is_zero or q.is_zero:
        return Multisection.zero(L.rank, out_degree)
    if dp <= 1 and dq <= 1:
        if dp == 0 and dq == 0:
            return Multisection.zero(L.rank, 0)
        if dp == 1 and dq == 0:
            f = q.component_general((), L.chart)
            return Multisection.function(L.rank, L.anchor_of(p).apply(f))
        if dp == 0 and dq == 1:
            f = p.component_general((), L.chart)
            return Multisection.function(L.rank, -L.anchor_of(q).apply(f))
        return bracket_sections(L, p, q)
    if dq >= 2:
        result = Multisection.zero(L.rank, out_degree)
        sign = Fraction(-1) ** ((dp - 1) % 2)
        for idx, poly in q.components:
            head = Multisection(L.rank, 1, {(idx[0],): poly})
            tail = Multisection(L.rank, dq - 1, {idx[1:]: Polynomial.constant(L.chart, 1)})
            result = result + schouten(L, p, head).wedge(tail)
            result = result + head.wedge(schouten(L, p, tail)).scale(sign)
        return result
    swap_sign = Fraction(-1) ** (((dp - 1) * (dq - 1) + 1) % 2)
    return schouten(L, q, p).scale(swap_sign)


# ---------------------------------------------------------------------------
# dual Poisson structures and cotangent algebroids


def fibre_coordinate(frame_name: str) -> str:
    """Chart coordinate on the dual bundle that is linear along frame `frame_name`."""
    return f"xi_{frame_name}"


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
        for i in range(n):
            for j in range(n):
                if (matrix[i][j] + matrix[j][i]):
                    raise ValueError("bivector matrix must be antisymmetric")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "matrix", matrix)

    def bivector(self) -> Multisection:
        """As a degree-2 multisection of the tangent algebroid of the chart."""
        n = self.chart.dim
        comps = {}
        for i, j in itertools.combinations(range(n), 2):
            if self.matrix[i][j]:
                comps[(i, j)] = self.matrix[i][j]
        return Multisection(n, 2, comps)

    def jacobiator(self) -> Multisection:
        """[pi, pi] as a trivector of the tangent algebroid."""
        tm = tangent_algebroid(self.chart)
        pi = self.bivector()
        return schouten(tm, pi, pi)

    def is_poisson(self) -> bool:
        """[pi, pi] = 0, decided in closed form: for each i < j < k the
        cyclic sum of sum_l pi^{il} d_l pi^{jk} over (i, j, k) vanishes.
        That sum is a fixed nonzero multiple of the (i, j, k) component of
        `jacobiator`, which builds [pi, pi] through `schouten`."""
        names, m = self.chart.names, self.matrix
        rows = [[(l, p) for l, p in enumerate(row) if p] for row in m]

        def flow(i: int, j: int, k: int) -> Polynomial:
            out = Polynomial.zero(self.chart)
            if m[j][k]:
                for l, p in rows[i]:
                    out = out + p * m[j][k].partial(names[l])
            return out

        return not any(
            flow(i, j, k) + flow(j, k, i) + flow(k, i, j)
            for i, j, k in itertools.combinations(range(self.chart.dim), 3)
        )


def dual_poisson(L: LieAlgebroid) -> PoissonChart:
    """Linear Poisson structure on the dual: {l_X, l_Y} = l_{[X,Y]},
    {l_X, f} = a(X)(f), {f, g} = 0, on the chart (x, xi_frame)."""
    ext = L.chart.extend(fibre_coordinate(f) for f in L.frames)
    n, r = L.chart.dim, L.rank
    size = n + r
    zero = Polynomial.zero(ext)
    matrix = [[zero for _ in range(size)] for _ in range(size)]
    for a in range(r):
        for i in range(n):
            entry = L.anchor[a][i].lift(ext)
            matrix[n + a][i] = entry
            matrix[i][n + a] = -entry
        for b in range(a + 1, r):
            entry = Polynomial.zero(ext)
            for g, coeff in L.nonzero_structure[a][b]:
                entry = entry + coeff.lift(ext) * Polynomial.coordinate(
                    ext, fibre_coordinate(L.frames[g])
                )
            matrix[n + a][n + b] = entry
            matrix[n + b][n + a] = -entry
    return PoissonChart(ext, matrix)


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
    terms: Dict[Index, Fraction] = {}
    n = chart.dim
    for _ in range(rng.randint(1, 3)):
        exp = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if n == 0:
                break
            exp[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-3, 3))
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
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
    items: List[CheckItem] = []
    for label, alg in (("side", L), ("dual_side", Lstar)):
        rep = check_algebroid(alg)
        if not rep.ok:
            items.append(failed(label, rep.first_failure.witness))
        else:
            items.append(passed(label))
    axioms = CheckReport(tuple(items))
    if not axioms.ok:
        return axioms
    return axioms.merged_with(
        check_compatibility(L, Lstar, seed=seed, max_degree=max_degree)
    )


def compatibility_defect(
    L: LieAlgebroid, Lstar: LieAlgebroid, x: Multisection, y: Multisection
) -> Multisection:
    """D(X, Y) = d_*[X, Y] - [d_*X, Y] - [X, d_*Y], with d_* the differential
    of Lstar acting on multisections of L and [ , ] the Schouten bracket of
    L; Y is a section or a function."""
    d_star = lambda ms: differential(Lstar, ms)
    return d_star(schouten(L, x, y)) - schouten(L, d_star(x), y) - schouten(L, x, d_star(y))


def check_compatibility(
    L: LieAlgebroid,
    Lstar: LieAlgebroid,
    seed: int = 7,
    max_degree: int = 2,
) -> CheckReport:
    """The compatibility families of `check_bialgebroid`, for a dual pair
    whose two algebroid axiom checks are already decided.

    Every family reads one defect, D(X, Y) =
    `compatibility_defect(L, Lstar, X, Y)`.  `frames` evaluates it on
    frame pairs and `function_pairs` on (frame, coordinate) pairs; with
    `symmetric_part` these decide the condition for all polynomial
    sections.  `scaled` is read off the first
    two by the Leibniz rule D(X, fY) = f D(X, Y) + D(X, f) ^ Y, an exact
    identity of the Leibniz rules built into `bracket_sections`,
    `differential` and `schouten` (Jacobi is not needed).  `random` draws
    seeded section pairs of bounded degree, but only when one of the other
    four families fails: once they all pass, every trial defect is zero, so
    `random` is reported as passed without drawing.  The tests keep the
    trial loop on every pair as its oracle.  Each family reports its first
    nonzero defect.
    """
    rank, frames, names = L.rank, L.frames, L.chart.names
    coords = [Polynomial.coordinate(L.chart, name) for name in names]
    functions = [Multisection.function(rank, c) for c in coords]
    defect = functools.partial(compatibility_defect, L, Lstar)

    @functools.cache
    def frame_defect(a: int, b: int) -> Multisection:
        if a == b:
            return Multisection.zero(rank, 2)
        if a > b:
            return frame_defect(b, a).scale(-1)
        return defect(L.frame_section(a), L.frame_section(b))

    @functools.cache
    def function_defect(a: int, i: int) -> Multisection:
        return defect(L.frame_section(a), functions[i])

    def scaled_defect(a: int, b: int, i: int) -> Multisection:
        return frame_defect(a, b).scale_by(coords[i]) + function_defect(a, i).wedge(
            L.frame_section(b)
        )

    def random_defects():
        rng = random.Random(seed)
        for trial in range(RANDOM_PAIRS):
            x = random_section(rng, L, max_degree)
            y = random_section(rng, L, max_degree)
            where = f"random trial {trial}: X = {x.format(frames)}, Y = {y.format(frames)}, "
            yield where, defect(x, y)

    def first_nonzero(check_id: str, cases) -> CheckItem:
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

    # the symmetric part a(d_*f)(g) + a(d_*g)(f) = 0 on coordinate functions
    flow = functools.cache(lambda i: L.anchor_of(differential(Lstar, functions[i])))
    witness = None
    for i, j in itertools.combinations_with_replacement(range(len(names)), 2):
        value = flow(i).apply(coords[j]) + flow(j).apply(coords[i])
        if value:
            witness = f"functions ({names[i]}, {names[j]}): a(d_*f)(g) + a(d_*g)(f) = {value}"
            break
    items.append(failed("symmetric_part", witness) if witness else passed("symmetric_part"))
    # D is antisymmetric, D(X, gY) = g D(X, Y) + D(X, g) ^ Y, D(e_a, g) =
    # sum_i d_i g * function_defect(a, i), and D(fX, g) = f D(X, g) +
    # S(f, g) X with S the symmetric part above (a biderivation, so fixed by
    # its values on coordinates).  D at any polynomial pair is therefore a
    # combination of frame defects, function defects and S(x_i, x_j), and
    # the trials can only fail when one of those families has.
    if all(item.ok for item in items):
        items.append(passed("random"))
    else:
        items.append(first_nonzero("random", random_defects()))
    return CheckReport(tuple(items))


# ---------------------------------------------------------------------------
# frame changes and bridges to the finite-dimensional layer


def change_frames(L: LieAlgebroid, matrix: Sequence[Sequence[Fraction]], new_names: Sequence[str]) -> LieAlgebroid:
    """Relabel and re-sign the frames by a signed permutation matrix.

    Column j of `matrix` is new frame j in old frames; its one nonzero entry
    s_j = +-1 sits in row p(j), so new frame j is s_j e_{p(j)} and old frame
    p(m) is s_m times new frame m.  Hence the new anchor of frame j is
    s_j a_{p(j)} and the new structure functions are
    c'^m_{ab} = s_a s_b s_m c^{p(m)}_{p(a) p(b)}.  Raises `ValueError` on
    any other matrix; every frame change the package makes is of this kind.
    """
    r = L.rank
    perm: List[int] = []
    signs: List[Fraction] = []
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


def lie_algebra_to_algebroid(g: LieAlgebroid) -> LieAlgebroid:
    """`g` itself: `liealg.LieAlgebra` already builds a Lie algebra as the
    algebroid over the point chart it is.  Kept for the benchmark harness,
    which calls it on the Lie algebras of its ladder."""
    return g


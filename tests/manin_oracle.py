"""The Manin-triple check and the dense bialgebra gates kept from replaced
production code.

`liealg.check_manin` states the five Manin items of a Drinfel'd double
without computing them.  This module keeps the computation: a 2n-dim
algebra with a symmetric nondegenerate pairing and two marked halves
(`PairedAlgebra`), the hyperbolic pairing of g + g*, the double bracket
assembled by the formula of `drinfeld_double` without its gates, and the
dense check of invariance, isotropy and closure (`check_paired`).

`liealg.drinfeld_double` decides Jacobi, co-Jacobi and the cocycle
condition on the dual pair over a point.  This module keeps the dense
vector code that decided them before (`jacobi_report`, `dual_bracket`,
`check_cocycle`) and the double it guarded (`dense_drinfeld_double`), with
the same witness texts, as their oracle.

A Lie algebra is an algebroid over the point; this code reads it through
the dense structure constants `support.constants` and a cobracket through
its dense components `support.component`, as the package did before it
kept only nonzero entries.  The cobracket is the one the test built
(`support.ImageBialgebra.cobracket`), never the g* that
`liealg.cobracket_dual` built from it.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import linalg
from doublealg.algebroid import LieAlgebroid
from doublealg.exact import format_rat, signed_sum
from doublealg.liealg import BialgebraError, LieAlgebra, Wedge
from doublealg.verdicts import CheckItem, CheckReport, failed, passed
from support import Cobracket, ImageBialgebra, component, constants, format_wedge

Vector = Tuple[Fraction, ...]
Table = Tuple[Tuple[Vector, ...], ...]  # Table[i][j] = [e_i, e_j]


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def format_vector(v: Sequence[Fraction], names: Sequence[str]) -> str:
    return signed_sum((coeff, [name]) for coeff, name in zip(v, names))


def basis(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if t == i else 0) for t in range(n))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def bracket(table: Table, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    """[u, v] of two coordinate vectors, bilinear in the structure constants
    `table` (a `support.constants` result)."""
    out = (Fraction(0),) * len(table)
    for i, ci in enumerate(u):
        if ci == 0:
            continue
        for j, cj in enumerate(v):
            if cj == 0:
                continue
            out = vec_add(out, vec_scale(ci * cj, table[i][j]))
    return out


def ad_wedge(table: Table, x: Sequence[Fraction], w: Wedge) -> Wedge:
    """Adjoint action extended as a derivation of the exterior square."""
    out: Wedge = {}
    n = len(table)
    for (j, k), coeff in w.items():
        ej = basis(n, j)
        ek = basis(n, k)
        _wedge_accumulate(out, bracket(table, x, ej), ek, coeff)
        _wedge_accumulate(out, ej, bracket(table, x, ek), coeff)
    return {key: c for key, c in out.items() if c != 0}


def _wedge_accumulate(acc: Wedge, u: Sequence[Fraction], v: Sequence[Fraction], scale: Fraction) -> None:
    for j, a in enumerate(u):
        if a == 0:
            continue
        for k, b in enumerate(v):
            if b == 0 or j == k:
                continue
            coeff = scale * a * b
            if j < k:
                acc[(j, k)] = acc.get((j, k), Fraction(0)) + coeff
            else:
                acc[(k, j)] = acc.get((k, j), Fraction(0)) - coeff


def jacobi_report(g: LieAlgebroid) -> CheckReport:
    """Jacobi on all basis triples; witness = first failing triple."""
    c, n = constants(g), g.rank
    for i, j, k in itertools.combinations(range(n), 3):
        defect = vec_add(
            vec_add(bracket(c, c[i][j], basis(n, k)), bracket(c, c[j][k], basis(n, i))),
            bracket(c, c[k][i], basis(n, j)),
        )
        if any(x != 0 for x in defect):
            names = g.frames
            witness = (
                f"triple ({names[i]}, {names[j]}, {names[k]}): "
                f"jacobiator = {format_vector(defect, names)}"
            )
            return CheckReport((failed("jacobi", witness),))
    return CheckReport((passed("jacobi"),))


def image(delta: Cobracket, i: int) -> Wedge:
    """delta(e_i)."""
    return dict(delta.images[i])


def image_of(delta: Cobracket, x: Sequence[Fraction]) -> Wedge:
    """delta(x) of a coordinate vector."""
    out: Wedge = {}
    for i, coeff in enumerate(x):
        if coeff == 0:
            continue
        for pair, c in delta.images[i]:
            out[pair] = out.get(pair, Fraction(0)) + coeff * c
    return {p: c for p, c in out.items() if c != 0}


def dual_names(b: ImageBialgebra) -> Tuple[str, ...]:
    return tuple(f"{name}_d" for name in b.algebra.frames)


def dual_algebra(b: ImageBialgebra) -> LieAlgebroid:
    """Bracket on the dual induced by the cobracket via the determinant
    pairing, [eps^i, eps^j]_* = sum_k delta^{ij}_k eps^k, built densely."""
    n = b.dim
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(component(b.cobracket, k, i, j) for k in range(n))
    return LieAlgebra(n, brackets, basis_names=dual_names(b))


def dual_bracket(b: ImageBialgebra) -> LieAlgebroid:
    """`dual_algebra(b)`, raising `BialgebraError` with a witness if it fails
    Jacobi (the cobracket is then not a Lie cobracket)."""
    dual = dual_algebra(b)
    report = jacobi_report(dual)
    if not report.ok:
        raise BialgebraError(f"dual bracket fails Jacobi: {report.first_failure.witness}")
    return dual


def cocycle_defect(b: ImageBialgebra, i: int, j: int) -> Wedge:
    """delta([e_i, e_j]) - ad_{e_i} delta(e_j) + ad_{e_j} delta(e_i), nonzero
    components only."""
    n, c = b.dim, constants(b.algebra)
    lhs = image_of(b.cobracket, c[i][j])
    rhs: Wedge = dict(ad_wedge(c, basis(n, i), image(b.cobracket, j)))
    for pair, coeff in ad_wedge(c, basis(n, j), image(b.cobracket, i)).items():
        rhs[pair] = rhs.get(pair, Fraction(0)) - coeff
    defect = dict(lhs)
    for pair, coeff in rhs.items():
        defect[pair] = defect.get(pair, Fraction(0)) - coeff
    return {p: c for p, c in defect.items() if c != 0}


def check_cocycle(b: ImageBialgebra) -> CheckReport:
    """delta([e_i, e_j]) = ad_{e_i} delta(e_j) - ad_{e_j} delta(e_i) on all pairs."""
    names = b.algebra.frames
    for i, j in itertools.combinations(range(b.dim), 2):
        defect = cocycle_defect(b, i, j)
        if defect:
            witness = (
                f"pair ({names[i]}, {names[j]}): defect = {format_wedge(defect, names)}"
            )
            return CheckReport((failed("cocycle", witness),))
    return CheckReport((passed("cocycle"),))


def dense_drinfeld_double(b: ImageBialgebra) -> LieAlgebroid:
    """`liealg.drinfeld_double` with its three gates decided by the dense
    code above, in the same order and with the same error texts."""
    jac = jacobi_report(b.algebra)
    if not jac.ok:
        raise BialgebraError(f"algebra fails Jacobi: {jac.first_failure.witness}")
    dual_bracket(b)  # raises on co-Jacobi failure
    coc = check_cocycle(b)
    if not coc.ok:
        raise BialgebraError(f"cocycle condition fails: {coc.first_failure.witness}")
    clash = next((name for name in dual_names(b) if name in b.algebra.frames), None)
    if clash is not None:
        raise ValueError(f"dual basis name {clash!r} is already a basis name")
    return formula_double(b)


def halves(n2: int):
    """The first and the second half of the standard basis of dim n2."""
    return (
        tuple(basis(n2, i) for i in range(n2 // 2)),
        tuple(basis(n2, i) for i in range(n2 // 2, n2)),
    )


@dataclass(frozen=True)
class PairedAlgebra:
    """A 2n-dim algebra with a symmetric nondegenerate pairing and two marked
    half-dimensional subspaces (given by bases)."""

    algebra: LieAlgebroid
    pairing: Tuple[Vector, ...]
    marked1: Tuple[Vector, ...]
    marked2: Tuple[Vector, ...]

    def __post_init__(self):
        n2 = self.algebra.rank
        pairing = [list(row) for row in self.pairing]
        if len(pairing) != n2 or any(len(row) != n2 for row in pairing):
            raise ValueError("pairing matrix has wrong shape")
        for i in range(n2):
            for j in range(n2):
                if pairing[i][j] != pairing[j][i]:
                    raise ValueError("pairing not symmetric")
        if not linalg.is_invertible(pairing):
            raise ValueError("pairing degenerate")
        if 2 * len(self.marked1) != n2 or 2 * len(self.marked2) != n2:
            raise ValueError("marked subspaces must be half-dimensional")
        combined = [list(v) for v in self.marked1 + self.marked2]
        if linalg.rank(combined) != n2:
            raise ValueError("marked subspaces do not span complementary halves")

    def pair(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, c in enumerate(v):
                if c != 0:
                    total += a * self.pairing[i][j] * c
        return total


def hyperbolic_pairing(n: int) -> Tuple[Vector, ...]:
    """<X + phi, Y + psi> = <psi, X> + <phi, Y> on g + g* coordinates."""
    size = 2 * n
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        partner = i + n if i < n else i - n
        row[partner] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def formula_double(b: ImageBialgebra) -> LieAlgebroid:
    """The double bracket of `drinfeld_double` on g + g* without its gates:
    [e_i, e_j] = c_ij, [eps^i, eps^j] = sum_k delta^{ij}_k eps^k and
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k, for any
    constants and cobracket (Jacobi is not required)."""
    n, c = b.dim, constants(b.algebra)
    zero = (Fraction(0),) * n
    brackets: Dict[Tuple[int, int], Vector] = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(c[i][j]) + zero
        vec = tuple(component(b.cobracket, k, i, j) for k in range(n))
        brackets[(n + i, n + j)] = zero + vec
    for i in range(n):
        for j in range(n):
            g_part = tuple(component(b.cobracket, i, j, k) for k in range(n))
            d_part = tuple(-c[i][k][j] for k in range(n))
            brackets[(i, n + j)] = g_part + d_part
    return LieAlgebra(2 * n, brackets, basis_names=b.algebra.frames + dual_names(b))


def paired_double(double: LieAlgebroid) -> PairedAlgebra:
    """A double on g + g* with the hyperbolic pairing and the halves g, g*."""
    return PairedAlgebra(double, hyperbolic_pairing(double.rank // 2), *halves(double.rank))


def check_paired(p: PairedAlgebra) -> CheckReport:
    """Invariance of the pairing, isotropy of the marked halves, closure:
    the five items `liealg.check_manin` states, each with its first
    witness."""
    g = p.algebra
    names = g.frames
    n2 = g.rank
    table = constants(g)
    items: List[CheckItem] = []

    # <[z_i, z_j], z_k> + <z_j, [z_i, z_k]> = sum_m c_ij^m P[m][k] + c_ik^m P[j][m],
    # summed over the nonzero structure constants only
    pairing = p.pairing
    support = [
        [[(m, c) for m, c in enumerate(table[i][j]) if c] for j in range(n2)]
        for i in range(n2)
    ]
    invariance_fail = None
    for i, j, k in itertools.product(range(n2), repeat=3):
        value = sum(c * pairing[m][k] for m, c in support[i][j]) + sum(
            c * pairing[j][m] for m, c in support[i][k]
        )
        if value != 0:
            invariance_fail = (
                f"triple ({names[i]}, {names[j]}, {names[k]}): "
                f"<[z1,z2],z3> + <z2,[z1,z3]> = {format_rat(value)}"
            )
            break
    items.append(
        failed("invariance", invariance_fail) if invariance_fail else passed("invariance")
    )

    for label, marked in (("isotropy.marked1", p.marked1), ("isotropy.marked2", p.marked2)):
        witness = None
        for u, v in itertools.product(marked, repeat=2):
            value = p.pair(u, v)
            if value != 0:
                witness = (
                    f"<{format_vector(u, names)}, {format_vector(v, names)}> = "
                    f"{format_rat(value)}"
                )
                break
        items.append(failed(label, witness) if witness else passed(label))

    for label, marked in (("closure.marked1", p.marked1), ("closure.marked2", p.marked2)):
        echelon = linalg.row_echelon(marked)
        witness = None
        for u, v in itertools.combinations(marked, 2):
            w = bracket(table, u, v)
            if any(linalg.reduce(w, echelon)):
                witness = (
                    f"[{format_vector(u, names)}, {format_vector(v, names)}] = "
                    f"{format_vector(w, names)} leaves the subspace"
                )
                break
        items.append(failed(label, witness) if witness else passed(label))

    return CheckReport(tuple(items))

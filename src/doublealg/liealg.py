"""Finite-dimensional Lie algebras and Lie bialgebras over the rationals.

Structure constants are exact; the Drinfel'd double of a bialgebra is built
from the two coadjoint actions and verified against the Manin-triple
conditions (invariant pairing, isotropy, subalgebra closure).

Conventions pinned here and relied on throughout the package:

* wedge pairing is the determinant convention
  <phi ^ psi, X ^ Y> = <phi, X><psi, Y> - <phi, Y><psi, X>;
* coadjoint actions carry the sign <ad*_X psi, Y> = -<psi, [X, Y]>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from . import linalg
from .exact import format_rat, rat, signed_sum
from .verdicts import CheckItem, CheckReport, failed, passed

Vector = Tuple[Fraction, ...]
Wedge = Dict[Tuple[int, int], Fraction]  # keys j < k


class BialgebraError(ValueError):
    """Input fails a required bialgebra axiom; carries the witness text."""


def _zero_vector(n: int) -> Vector:
    return tuple(Fraction(0) for _ in range(n))


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def format_vector(v: Sequence[Fraction], names: Sequence[str]) -> str:
    return signed_sum((coeff, [name]) for coeff, name in zip(v, names))


@dataclass(frozen=True)
class LieAlgebra:
    """dim n with exact structure constants c^k_{ij}, antisymmetric in (i, j)."""

    dim: int
    constants: Tuple[Tuple[Vector, ...], ...]  # constants[i][j] = [e_i, e_j]
    basis_names: Tuple[str, ...]

    def __init__(
        self,
        dim: int,
        brackets: Mapping[Tuple[int, int], Sequence] | None = None,
        basis_names: Sequence[str] | None = None,
    ):
        object.__setattr__(self, "dim", dim)
        table = [[_zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
        if brackets:
            for (i, j), vec in brackets.items():
                if i == j:
                    raise ValueError("bracket(e_i, e_i) must be omitted (it is 0)")
                v = tuple(rat(x) for x in vec)
                if len(v) != dim:
                    raise ValueError("bracket value has wrong dimension")
                table[i][j] = vec_add(table[i][j], v)
                table[j][i] = vec_sub(table[j][i], v)
        object.__setattr__(self, "constants", tuple(tuple(row) for row in table))
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        if len(names) != dim or len(set(names)) != dim:
            raise ValueError("basis names must be distinct and match dim")
        object.__setattr__(self, "basis_names", names)

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        out = _zero_vector(self.dim)
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                out = vec_add(out, vec_scale(ci * cj, self.constants[i][j]))
        return out

    def ad_wedge(self, x: Sequence[Fraction], w: Wedge) -> Wedge:
        """Adjoint action extended as a derivation of the exterior square."""
        out: Wedge = {}
        for (j, k), coeff in w.items():
            ej = tuple(Fraction(1 if t == j else 0) for t in range(self.dim))
            ek = tuple(Fraction(1 if t == k else 0) for t in range(self.dim))
            _wedge_accumulate(out, self.bracket(x, ej), ek, coeff)
            _wedge_accumulate(out, ej, self.bracket(x, ek), coeff)
        return {key: c for key, c in out.items() if c != 0}

    def jacobi_report(self) -> CheckReport:
        """Jacobi on all basis triples; witness = first failing triple."""
        for i, j, k in itertools.combinations(range(self.dim), 3):
            defect = vec_add(
                vec_add(
                    self.bracket(self.constants[i][j], _basis(self.dim, k)),
                    self.bracket(self.constants[j][k], _basis(self.dim, i)),
                ),
                self.bracket(self.constants[k][i], _basis(self.dim, j)),
            )
            if any(c != 0 for c in defect):
                names = self.basis_names
                witness = (
                    f"triple ({names[i]}, {names[j]}, {names[k]}): "
                    f"jacobiator = {format_vector(defect, names)}"
                )
                return CheckReport((failed("jacobi", witness),))
        return CheckReport((passed("jacobi"),))


def _basis(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if t == i else 0) for t in range(n))


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


def format_wedge(w: Wedge, names: Sequence[str]) -> str:
    return signed_sum((w[(j, k)], [f"{names[j]} ^ {names[k]}"]) for j, k in sorted(w))


@dataclass(frozen=True)
class Cobracket:
    """delta(e_i) as an exterior-square element, antisymmetric components."""

    dim: int
    images: Tuple[Tuple[Tuple[Tuple[int, int], Fraction], ...], ...]

    def __init__(self, dim: int, images: Mapping[int, Wedge] | None = None):
        object.__setattr__(self, "dim", dim)
        table: List[Tuple[Tuple[Tuple[int, int], Fraction], ...]] = []
        source = images or {}
        for i in range(dim):
            w = source.get(i, {})
            cleaned = {}
            for (j, k), coeff in w.items():
                coeff = rat(coeff)
                if coeff == 0:
                    continue
                if j == k:
                    raise ValueError("wedge of a basis vector with itself")
                if j < k:
                    cleaned[(j, k)] = cleaned.get((j, k), Fraction(0)) + coeff
                else:
                    cleaned[(k, j)] = cleaned.get((k, j), Fraction(0)) - coeff
            table.append(tuple(sorted((p, c) for p, c in cleaned.items() if c != 0)))
        object.__setattr__(self, "images", tuple(table))

    def image(self, i: int) -> Wedge:
        return dict(self.images[i])

    def component(self, i: int, j: int, k: int) -> Fraction:
        """Full antisymmetric component delta^{jk}_i."""
        if j == k:
            return Fraction(0)
        w = dict(self.images[i])
        return w.get((j, k), Fraction(0)) if j < k else -w.get((k, j), Fraction(0))

    def image_of(self, x: Sequence[Fraction]) -> Wedge:
        out: Wedge = {}
        for i, coeff in enumerate(x):
            if coeff == 0:
                continue
            for pair, c in self.images[i]:
                out[pair] = out.get(pair, Fraction(0)) + coeff * c
        return {p: c for p, c in out.items() if c != 0}


@dataclass(frozen=True)
class Bialgebra:
    algebra: LieAlgebra
    cobracket: Cobracket

    def __post_init__(self):
        if self.algebra.dim != self.cobracket.dim:
            raise ValueError("algebra and cobracket dimensions differ")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def dual_names(self) -> Tuple[str, ...]:
        return tuple(f"{name}_d" for name in self.algebra.basis_names)


def dual_bracket(b: Bialgebra) -> LieAlgebra:
    """Bracket on the dual induced by the cobracket via the determinant pairing.

    [eps^i, eps^j]_* = sum_k delta^{ij}_k eps^k.  Raises `BialgebraError`
    with a witness if the result fails Jacobi (the cobracket is then not a
    Lie cobracket).
    """
    n = b.dim
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        vec = tuple(b.cobracket.component(k, i, j) for k in range(n))
        brackets[(i, j)] = vec
    dual = LieAlgebra(n, brackets, basis_names=b.dual_names())
    report = dual.jacobi_report()
    if not report.ok:
        raise BialgebraError(f"dual bracket fails Jacobi: {report.first_failure.witness}")
    return dual


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Swap roles: the dual bracket with the original bracket as cobracket."""
    dual = dual_bracket(b)
    n = b.dim
    images = {}
    for k in range(n):
        w: Wedge = {}
        for i, j in itertools.combinations(range(n), 2):
            c = b.algebra.constants[i][j][k]
            if c != 0:
                w[(i, j)] = c
        images[k] = w
    return Bialgebra(dual, Cobracket(n, images))


def check_cocycle(b: Bialgebra) -> CheckReport:
    """delta([e_i, e_j]) = ad_{e_i} delta(e_j) - ad_{e_j} delta(e_i) on all pairs."""
    n = b.dim
    names = b.algebra.basis_names
    for i, j in itertools.combinations(range(n), 2):
        lhs = b.cobracket.image_of(b.algebra.constants[i][j])
        rhs: Wedge = dict(b.algebra.ad_wedge(_basis(n, i), b.cobracket.image(j)))
        for pair, coeff in b.algebra.ad_wedge(_basis(n, j), b.cobracket.image(i)).items():
            rhs[pair] = rhs.get(pair, Fraction(0)) - coeff
        defect = dict(lhs)
        for pair, coeff in rhs.items():
            defect[pair] = defect.get(pair, Fraction(0)) - coeff
        defect = {p: c for p, c in defect.items() if c != 0}
        if defect:
            witness = (
                f"pair ({names[i]}, {names[j]}): defect = {format_wedge(defect, names)}"
            )
            return CheckReport((failed("cocycle", witness),))
    return CheckReport((passed("cocycle"),))


@dataclass(frozen=True)
class PairedAlgebra:
    """A 2n-dim algebra with a symmetric nondegenerate pairing and two marked
    half-dimensional subspaces (given by bases)."""

    algebra: LieAlgebra
    pairing: Tuple[Vector, ...]
    marked1: Tuple[Vector, ...]
    marked2: Tuple[Vector, ...]

    def __post_init__(self):
        n2 = self.algebra.dim
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


def drinfeld_double(b: Bialgebra) -> PairedAlgebra:
    """The double bracket on g + g* from the two coadjoint actions.

    basis order: e_1..e_n then the dual basis.  Mixed bracket:
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k.
    Rejects input failing Jacobi, co-Jacobi or the cocycle condition, since
    the double would then violate Jacobi.
    """
    jac = b.algebra.jacobi_report()
    if not jac.ok:
        raise BialgebraError(f"algebra fails Jacobi: {jac.first_failure.witness}")
    dual = dual_bracket(b)  # raises on co-Jacobi failure
    coc = check_cocycle(b)
    if not coc.ok:
        raise BialgebraError(f"cocycle condition fails: {coc.first_failure.witness}")

    n = b.dim
    size = 2 * n
    brackets: Dict[Tuple[int, int], Vector] = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(b.algebra.constants[i][j]) + _zero_vector(n)
        brackets[(n + i, n + j)] = _zero_vector(n) + tuple(dual.constants[i][j])
    for i in range(n):
        for j in range(n):
            g_part = tuple(b.cobracket.component(i, j, k) for k in range(n))
            dual_part = tuple(-b.algebra.constants[i][k][j] for k in range(n))
            brackets[(i, n + j)] = g_part + dual_part
    names = b.algebra.basis_names + b.dual_names()
    double = LieAlgebra(size, brackets, basis_names=names)
    marked1 = tuple(_basis(size, i) for i in range(n))
    marked2 = tuple(_basis(size, n + i) for i in range(n))
    return PairedAlgebra(double, hyperbolic_pairing(n), marked1, marked2)


def check_manin(p: PairedAlgebra) -> CheckReport:
    """Invariance of the pairing, isotropy of the marked halves, closure."""
    g = p.algebra
    names = g.basis_names
    n2 = g.dim
    items: List[CheckItem] = []

    # <[z_i, z_j], z_k> + <z_j, [z_i, z_k]> = sum_m c_ij^m P[m][k] + c_ik^m P[j][m],
    # summed over the nonzero structure constants only
    pairing = p.pairing
    support = [
        [[(m, c) for m, c in enumerate(g.constants[i][j]) if c] for j in range(n2)]
        for i in range(n2)
    ]
    invariance_fail = None
    for i in range(n2):
        for j in range(n2):
            for k in range(n2):
                value = sum(c * pairing[m][k] for m, c in support[i][j]) + sum(
                    c * pairing[j][m] for m, c in support[i][k]
                )
                if value != 0:
                    invariance_fail = (
                        f"triple ({names[i]}, {names[j]}, {names[k]}): "
                        f"<[z1,z2],z3> + <z2,[z1,z3]> = {format_rat(value)}"
                    )
                    break
            if invariance_fail:
                break
        if invariance_fail:
            break
    items.append(
        failed("invariance", invariance_fail) if invariance_fail else passed("invariance")
    )

    for label, basis in (("isotropy.marked1", p.marked1), ("isotropy.marked2", p.marked2)):
        witness = None
        for u, v in itertools.product(basis, repeat=2):
            value = p.pair(u, v)
            if value != 0:
                witness = (
                    f"<{format_vector(u, names)}, {format_vector(v, names)}> = "
                    f"{format_rat(value)}"
                )
                break
        items.append(failed(label, witness) if witness else passed(label))

    for label, basis in (("closure.marked1", p.marked1), ("closure.marked2", p.marked2)):
        echelon = linalg.row_echelon(basis)
        witness = None
        for u, v in itertools.combinations(basis, 2):
            w = g.bracket(u, v)
            if any(linalg.reduce(w, echelon)):
                witness = (
                    f"[{format_vector(u, names)}, {format_vector(v, names)}] = "
                    f"{format_vector(w, names)} leaves the subspace"
                )
                break
        items.append(failed(label, witness) if witness else passed(label))

    return CheckReport(tuple(items))


def coadjoint_rho_matrix(b: Bialgebra, i: int) -> List[List[Fraction]]:
    """Action of e_i on the dual basis: rho_{e_i}(eps^j) = -sum_k c^j_{ik} eps^k.

    Returned as matrix[j][k] = coefficient of eps^k in rho_{e_i}(eps^j).
    """
    n = b.dim
    return [[-b.algebra.constants[i][k][j] for k in range(n)] for j in range(n)]


def coadjoint_sigma_matrix(b: Bialgebra, i: int) -> List[List[Fraction]]:
    """Action of eps^i on g: sigma_{eps^i}(e_j) = -sum_k delta^{ik}_j e_k."""
    n = b.dim
    return [[-b.cobracket.component(j, i, k) for k in range(n)] for j in range(n)]

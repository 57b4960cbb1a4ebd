"""Finite-dimensional Lie algebras and Lie bialgebras over the rationals.

Structure constants are exact.  The Drinfel'd double of a bialgebra is
built from the two coadjoint actions once the algebra passes Jacobi, its
dual bracket passes Jacobi and the cobracket is a 1-cocycle; the
Manin-triple conditions of the double (invariant hyperbolic pairing,
isotropic halves g and g*, both halves subalgebras) then hold by
construction, and `check_manin` states them.

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

from .exact import rat, signed_sum
from .verdicts import CheckReport, failed, passed

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


def dual_algebra(b: Bialgebra) -> LieAlgebra:
    """Bracket on the dual induced by the cobracket via the determinant pairing.

    [eps^i, eps^j]_* = sum_k delta^{ij}_k eps^k.  It satisfies Jacobi
    exactly when the cobracket satisfies co-Jacobi; this builder does not
    check it (`dual_bracket` does).
    """
    n = b.dim
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(b.cobracket.component(k, i, j) for k in range(n))
    return LieAlgebra(n, brackets, basis_names=b.dual_names())


def dual_bracket(b: Bialgebra) -> LieAlgebra:
    """`dual_algebra(b)`, raising `BialgebraError` with a witness if it fails
    Jacobi (the cobracket is then not a Lie cobracket)."""
    dual = dual_algebra(b)
    report = dual.jacobi_report()
    if not report.ok:
        raise BialgebraError(f"dual bracket fails Jacobi: {report.first_failure.witness}")
    return dual


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


def drinfeld_double(b: Bialgebra) -> LieAlgebra:
    """The double bracket on g + g* from the two coadjoint actions.

    basis order: e_1..e_n then the dual basis.  Mixed bracket:
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k.
    Rejects input failing Jacobi, co-Jacobi or the cocycle condition, since
    the double would then violate Jacobi.  Raises `ValueError` when a dual
    basis name <name>_d is already a basis name.
    """
    jac = b.algebra.jacobi_report()
    if not jac.ok:
        raise BialgebraError(f"algebra fails Jacobi: {jac.first_failure.witness}")
    dual = dual_bracket(b)  # raises on co-Jacobi failure
    coc = check_cocycle(b)
    if not coc.ok:
        raise BialgebraError(f"cocycle condition fails: {coc.first_failure.witness}")
    clash = next((name for name in b.dual_names() if name in b.algebra.basis_names), None)
    if clash is not None:
        raise ValueError(f"dual basis name {clash!r} is already a basis name")

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
    return LieAlgebra(size, brackets, basis_names=b.algebra.basis_names + b.dual_names())


def check_manin() -> CheckReport:
    """The Manin-triple items of every double `drinfeld_double` returns:
    g + g* with the hyperbolic pairing <X + phi, Y + psi> = phi(Y) + psi(X)
    and the marked halves g (marked1) and g* (marked2).  They hold by
    construction (Chari & Pressley, A Guide to Quantum Groups, 1994, ch. 1):

    isotropy: the pairing only pairs g with g*, so it vanishes on each half;
    closure: the double bracket restricts to [ , ] on g and [ , ]_* on g*;
    invariance: the coadjoint terms of the mixed bracket cancel the others,
        e.g. <[e_i, e_j], eps^k> + <e_j, [e_i, eps^k]> = c^k_{ij} - c^k_{ij}.

    So they are reported without computing them.  The tests keep the
    dense check on the paired algebra as the oracle.
    """
    items = (
        "invariance",
        "isotropy.marked1",
        "isotropy.marked2",
        "closure.marked1",
        "closure.marked2",
    )
    return CheckReport(tuple(passed(item) for item in items))

"""Finite-dimensional Lie algebras and Lie bialgebras over the rationals.

Structure constants are exact.  The Drinfel'd double of a bialgebra is
built from the two coadjoint actions once the algebra passes Jacobi, its
dual bracket passes Jacobi and the cobracket is a 1-cocycle.  A Lie
bialgebra is a Lie bialgebroid over a point (Mackenzie & Xu 1994, Lie
bialgebroids and Poisson groupoids, Duke Math. J. 73), so these three
gates are decided on the dual pair `bialgebra_to_dual_pair` by the code
of `algebroid` that `check_algebroid` and `check_compatibility` run:
`first_jacobiator` on each side and `compatibility_defect` on frame
pairs.  This module only renders their witnesses.  The Manin-triple
conditions of the double (invariant hyperbolic pairing, isotropic halves
g and g*, both halves subalgebras) then hold by construction, and
`check_manin` states them.

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

from .algebroid import (
    LieAlgebroid,
    compatibility_defect,
    first_jacobiator,
    lie_algebra_to_algebroid,
)
from .exact import Polynomial, rat, signed_sum
from .verdicts import CheckReport, passed

Vector = Tuple[Fraction, ...]
Wedge = Dict[Tuple[int, int], Fraction]  # keys j < k


class BialgebraError(ValueError):
    """Input fails a required bialgebra axiom; carries the witness text."""


def _zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


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

    def component(self, i: int, j: int, k: int) -> Fraction:
        """Full antisymmetric component delta^{jk}_i."""
        if j == k:
            return Fraction(0)
        w = dict(self.images[i])
        return w.get((j, k), Fraction(0)) if j < k else -w.get((k, j), Fraction(0))


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
    check it (`drinfeld_double` does).
    """
    n = b.dim
    brackets = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(b.cobracket.component(k, i, j) for k in range(n))
    return LieAlgebra(n, brackets, basis_names=b.dual_names())


def bialgebra_to_dual_pair(b: Bialgebra) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """(g, g*) as a dual pair of algebroids over the point, unchecked: the
    checks the pair goes to report a co-Jacobi failure of g*."""
    return lie_algebra_to_algebroid(b.algebra), lie_algebra_to_algebroid(dual_algebra(b))


def _value(p: Polynomial) -> Fraction:
    """The value of a polynomial on the point chart."""
    return p.terms[0][1] if p.terms else Fraction(0)


def _require_jacobi(side: LieAlgebroid, label: str) -> None:
    found = first_jacobiator(side)
    if found:
        (i, j, k), jac = found
        names = side.frames
        vector = tuple(_value(p) for p in jac.vector(side.chart))
        raise BialgebraError(
            f"{label} fails Jacobi: triple ({names[i]}, {names[j]}, {names[k]}): "
            f"jacobiator = {format_vector(vector, names)}"
        )


def drinfeld_double(b: Bialgebra) -> LieAlgebra:
    """The double bracket on g + g* from the two coadjoint actions.

    basis order: e_1..e_n then the dual basis.  Mixed bracket:
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k.
    Rejects input failing Jacobi, co-Jacobi or the cocycle condition, since
    the double would then violate Jacobi.  These are decided on the dual
    pair (g, g*) over a point, where they are the Jacobi items of
    `check_algebroid` on each side and the `frames` family of
    `check_compatibility`: there d_* = -delta, so the cocycle defect
    delta([e_i, e_j]) - ad_{e_i} delta(e_j) + ad_{e_j} delta(e_i) is minus
    `compatibility_defect` on (e_i, e_j).  Raises `ValueError` when a dual
    basis name <name>_d is already a basis name.
    """
    g, dual = bialgebra_to_dual_pair(b)
    _require_jacobi(g, "algebra")
    _require_jacobi(dual, "dual bracket")
    names = b.algebra.basis_names
    for i, j in itertools.combinations(range(b.dim), 2):
        defect = compatibility_defect(g, dual, g.frame_section(i), g.frame_section(j))
        if not defect.is_zero:
            wedge = {idx: -_value(p) for idx, p in defect.components}
            raise BialgebraError(
                f"cocycle condition fails: pair ({names[i]}, {names[j]}): "
                f"defect = {format_wedge(wedge, names)}"
            )
    clash = next((name for name in b.dual_names() if name in names), None)
    if clash is not None:
        raise ValueError(f"dual basis name {clash!r} is already a basis name")

    n = b.dim
    zero = _zero_vector(n)
    brackets: Dict[Tuple[int, int], Vector] = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(b.algebra.constants[i][j]) + zero
        brackets[(n + i, n + j)] = zero + tuple(_value(p) for p in dual.structure[i][j])
    for i in range(n):
        for j in range(n):
            g_part = tuple(b.cobracket.component(i, j, k) for k in range(n))
            dual_part = tuple(-b.algebra.constants[i][k][j] for k in range(n))
            brackets[(i, n + j)] = g_part + dual_part
    return LieAlgebra(2 * n, brackets, basis_names=names + b.dual_names())


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

"""Finite-dimensional Lie algebras and Lie bialgebras over the rationals.

A Lie algebra is a Lie algebroid over a point: `LieAlgebra` builds the
`LieAlgebroid` on the point chart `Chart(())` with constant structure
functions, so its structure constants are exact and stored once, only
the nonzero ones.  The Drinfel'd double of a bialgebra is the same kind of
algebroid, scattered from the nonzero entries of g, g* and the cobracket
images.  It is built from the two coadjoint actions once the algebra
passes Jacobi, its dual bracket passes Jacobi and the cobracket is a
1-cocycle.  A Lie bialgebra is a Lie bialgebroid over a point (Mackenzie
& Xu 1994, Lie bialgebroids and Poisson groupoids, Duke Math. J. 73), so
these three gates are decided on the dual pair `bialgebra_to_dual_pair`
by the code of `algebroid` that `check_algebroid` and
`check_compatibility` run:
`first_jacobiator` on each side and `compatibility_defect` on frame
pairs.  This module only renders their witnesses, through
`formatting.format_combination` and `format_wedge`.  The Manin-triple
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

from .algebroid import LieAlgebroid, compatibility_defect, first_jacobiator
from .exact import Chart, Polynomial, rat, signed_sum
from .formatting import format_combination
from .verdicts import CheckReport, passed

Wedge = Dict[Tuple[int, int], Fraction]  # keys j < k


class BialgebraError(ValueError):
    """Input fails a required bialgebra axiom; carries the witness text."""


def LieAlgebra(
    dim: int,
    brackets: Mapping[Tuple[int, int], Sequence] | None = None,
    basis_names: Sequence[str] | None = None,
) -> LieAlgebroid:
    """The Lie algebra with [e_i, e_j] = brackets[(i, j)], a vector of dim
    rationals or point-chart polynomials, as the algebroid over the point
    `Chart(())` it is.  Omitted pairs are zero; a pair given as (j, i) with
    j > i gives [e_i, e_j] its negative.  The basis defaults to e1..en."""
    names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
    if len(names) != dim or len(set(names)) != dim:
        raise ValueError("basis names must be distinct and match dim")
    point = Chart(())
    table: Dict[Tuple[int, int], List[Polynomial]] = {}
    for (i, j), vec in (brackets or {}).items():
        if i == j:
            raise ValueError("bracket(e_i, e_i) must be omitted (it is 0)")
        if len(vec) != dim:
            raise ValueError("bracket value has wrong dimension")
        vec = [c if isinstance(c, Polynomial) else Polynomial.constant(point, c) for c in vec]
        if i > j:
            i, j, vec = j, i, [-c for c in vec]
        if (i, j) in table:
            vec = [a + c for a, c in zip(table[(i, j)], vec)]
        table[(i, j)] = vec
    return LieAlgebroid(point, names, [()] * dim, table)


def format_wedge(w: Wedge, names: Sequence[str]) -> str:
    return signed_sum((w[(j, k)], [f"{names[j]} ^ {names[k]}"]) for j, k in sorted(w))


@dataclass(frozen=True)
class Cobracket:
    """delta(e_i) as an exterior-square element: images[i] holds its nonzero
    components ((j, k), delta^{jk}_i) with j < k, in increasing (j, k)."""

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


@dataclass(frozen=True)
class Bialgebra:
    algebra: LieAlgebroid  # a Lie algebra: an algebroid over the point
    cobracket: Cobracket

    def __post_init__(self):
        if self.algebra.rank != self.cobracket.dim:
            raise ValueError("algebra and cobracket dimensions differ")

    @property
    def dim(self) -> int:
        return self.algebra.rank

    def dual_names(self) -> Tuple[str, ...]:
        return tuple(f"{name}_d" for name in self.algebra.frames)


def _scattered(size: int, entries) -> Dict[Tuple[int, int], List[Polynomial]]:
    """Bracket vectors of length `size` on the point chart from the nonzero
    entries (a, b, k, c^k_{ab}) with a < b, each (a, b, k) at most once."""
    zero = Polynomial.zero(Chart(()))
    out: Dict[Tuple[int, int], List[Polynomial]] = {}
    for a, b, k, value in entries:
        if (a, b) not in out:
            out[(a, b)] = [zero] * size
        out[(a, b)][k] = value
    return out


def bialgebra_to_dual_pair(b: Bialgebra) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """(g, g*) as a dual pair of algebroids over the point, unchecked: the
    checks the pair goes to report a co-Jacobi failure of g*.  The bracket
    of g* is the transpose of the cobracket under the determinant pairing,
    [eps^i, eps^j]_* = sum_k delta^{ij}_k eps^k."""
    n, point = b.dim, b.algebra.chart
    entries = (
        (i, j, k, Polynomial.constant(point, c))
        for k, image in enumerate(b.cobracket.images)
        for (i, j), c in image
    )
    dual = LieAlgebroid(point, b.dual_names(), [()] * n, _scattered(n, entries))
    return b.algebra, dual


def _value(p: Polynomial) -> Fraction:
    """The value of a polynomial on the point chart."""
    return p.terms[0][1] if p.terms else Fraction(0)


def _require_jacobi(side: LieAlgebroid, label: str) -> None:
    found = first_jacobiator(side)
    if found:
        (i, j, k), jac = found
        names = side.frames
        raise BialgebraError(
            f"{label} fails Jacobi: triple ({names[i]}, {names[j]}, {names[k]}): "
            f"jacobiator = {format_combination(jac.vector(side.chart), names)}"
        )


def drinfeld_double(b: Bialgebra) -> LieAlgebroid:
    """The double bracket on g + g* from the two coadjoint actions, as a
    Lie algebra over the point.

    basis order: e_1..e_n then the dual basis.  Mixed bracket:
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k.
    Rejects input failing Jacobi, co-Jacobi or the cocycle condition, since
    the double would then violate Jacobi.  These are decided on the dual
    pair (g, g*) over a point, where they are the Jacobi items of
    `check_algebroid` on each side and the `frames` family of
    `check_compatibility`: there d_* = -delta, so the cocycle defect
    delta([e_i, e_j]) - ad_{e_i} delta(e_j) + ad_{e_j} delta(e_i) is minus
    `compatibility_defect` on (e_i, e_j).  Raises `ValueError` when a dual
    basis name <name>_d is already a basis name.  The bracket is scattered
    from the nonzero entries of g, g* and the cobracket images.
    """
    g, dual = bialgebra_to_dual_pair(b)
    _require_jacobi(g, "algebra")
    _require_jacobi(dual, "dual bracket")
    names = g.frames
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

    def entries():
        for offset, side in ((0, g), (n, dual)):
            for i, row in enumerate(side.nonzero_structure):
                for j in range(i + 1, n):
                    for k, c in row[j]:
                        yield offset + i, offset + j, offset + k, c
        for i, image in enumerate(b.cobracket.images):
            for (j, k), c in image:
                yield i, n + j, k, Polynomial.constant(g.chart, c)
                yield i, n + k, j, Polynomial.constant(g.chart, -c)
        for i, row in enumerate(g.nonzero_structure):
            for k, pairs in enumerate(row):
                for j, c in pairs:
                    yield i, n + j, n + k, -c

    return LieAlgebroid(g.chart, names + b.dual_names(), [()] * (2 * n), _scattered(2 * n, entries()))


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

"""Finite-dimensional Lie algebras and Lie bialgebras over the rationals.

A Lie algebra is a Lie algebroid over a point: `LieAlgebra` builds the
`LieAlgebroid` on the point chart `Chart(())` with constant structure
functions, so its structure constants are exact and stored once, only
the nonzero ones.  A Lie bialgebra is a Lie bialgebroid over a point
(Mackenzie & Xu 1994, Lie bialgebroids and Poisson groupoids, Duke Math.
J. 73), and `Bialgebra` stores it as that pair (g, g*): `cobracket_dual`
builds g* once from the cobracket images, the transpose of the cobracket.
The Drinfel'd double g + g* is the bowtie of the coadjoint matched pair
(g, g*, ad*, ad*) (Majid 1990, Pacific J. Math. 141; Mokri 1997, Glasgow
Math. J. 39), so `matched.assemble_bowtie` writes its bracket from the
two `algebroid.coadjoint` representations.  It is built once the algebra
passes Jacobi, its dual bracket passes Jacobi and the cobracket is a
1-cocycle.  These three gates are decided on the pair by
the code of `algebroid` that `check_algebroid` and
`check_compatibility` run: `first_jacobiator` on each side and
`frame_defect`, the compatibility defect in closed form, on frame pairs.
This module only renders their witnesses, through
`formatting.format_combination`.  The Manin-triple
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
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebroid import LieAlgebroid, coadjoint, first_jacobiator, frame_defect
from .exact import Chart, Coefficient, Polynomial, rat
from .formatting import format_combination
from .matched import MatchedPair, assemble_bowtie
from .verdicts import CheckReport, passed

Wedge = Dict[Tuple[int, int], Coefficient]  # keys j < k


class BialgebraError(ValueError):
    """Input fails a required bialgebra axiom; carries the witness text."""


def LieAlgebra(
    dim: int,
    brackets: Mapping[Tuple[int, int], Sequence] | None = None,
    basis_names: Sequence[str] | None = None,
) -> LieAlgebroid:
    """The Lie algebra with [e_i, e_j] = brackets[(i, j)] on pairs i < j, a
    vector of dim rationals or point-chart polynomials, as the algebroid
    over the point `Chart(())` it is.  Omitted pairs are zero; the pairs
    are checked by the validating `LieAlgebroid(...)`.  The basis defaults
    to e1..en."""
    names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
    if len(names) != dim or len(set(names)) != dim:
        raise ValueError("basis names must be distinct and match dim")
    point = Chart(())
    table = {
        pair: [c if isinstance(c, Polynomial) else Polynomial.constant(point, c) for c in vec]
        for pair, vec in (brackets or {}).items()
    }
    return LieAlgebroid(point, names, [()] * dim, table)


@dataclass(frozen=True)
class Bialgebra:
    """A Lie bialgebra as the Lie bialgebroid over the point it is: the
    algebra g and the dual g* whose bracket transposes the cobracket."""

    algebra: LieAlgebroid  # g: an algebroid over the point
    dual: LieAlgebroid  # g*, basis <name>_d: see `cobracket_dual`

    def __post_init__(self):
        if self.algebra.rank != self.dual.rank:
            raise ValueError("algebra and dual dimensions differ")

    @property
    def dim(self) -> int:
        return self.algebra.rank


def cobracket_dual(g: LieAlgebroid, images: Mapping[int, Wedge]) -> LieAlgebroid:
    """g*, unchecked, from the cobracket delta(e_k) = images[k] of g: the
    transpose of delta under the determinant pairing,
    [eps^i, eps^j]_* = sum_k delta^{ij}_k eps^k.  Its basis is <name>_d;
    the checks it goes to report a co-Jacobi failure.  A key (j, i) with
    j > i is the wedge eps^j ^ eps^i = -eps^i ^ eps^j; an index outside
    the basis raises `ValueError`."""
    n = g.rank
    brackets: Dict[Tuple[int, int], List[Coefficient]] = {}
    for k, image in images.items():
        outside = [x for x in (k, *itertools.chain(*image)) if not 0 <= x < n]
        if outside:
            raise ValueError(f"cobracket index {outside[0]} is outside the basis of {n}")
        for (i, j), c in image.items():
            pair, sign = ((j, i), -1) if i > j else ((i, j), 1)
            brackets.setdefault(pair, [0] * n)[k] += sign * rat(c)
    return LieAlgebra(n, brackets, [f"{name}_d" for name in g.frames])


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
    `frame_defect` on (e_i, e_j).  Also raises `BialgebraError` when a
    dual basis name <name>_d is already a basis name.  The double is then the
    bowtie of the coadjoint matched pair: the mixed bracket
    -ad*_{eps^j} e_i + ad*_{e_i} eps^j is the one above, since the g*
    structure constant of eps^i at (j, k) is delta^{jk}_i.
    """
    g, dual = b.algebra, b.dual
    _require_jacobi(g, "algebra")
    _require_jacobi(dual, "dual bracket")
    names = g.frames
    for i, j in itertools.combinations(range(b.dim), 2):
        defect = frame_defect(g, dual, i, j)
        if any(defect.values()):
            pairs = sorted(defect.items())
            wedge = format_combination(
                [-p for _, p in pairs], [f"{names[u]} ^ {names[w]}" for (u, w), _ in pairs]
            )
            raise BialgebraError(
                f"cocycle condition fails: pair ({names[i]}, {names[j]}): defect = {wedge}"
            )
    clash = next((name for name in dual.frames if name in names), None)
    if clash is not None:
        raise BialgebraError(f"dual basis name {clash!r} is already a basis name")
    return assemble_bowtie(MatchedPair(g, dual, coadjoint(g), coadjoint(dual)))


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

"""Canonical instances shared by the test suite; the bundled models repeat
some of them as model files.

Passing and failing inputs are both first-class: every equivalence theorem
is exercised in both truth values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from doublealg.algebroid import (
    Derivation,
    LieAlgebroid,
    PoissonChart,
    cotangent_algebroid,
    tangent_algebroid,
)
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import Bialgebra, LieAlgebra
from doublealg.matched import MatchedPair


def solvable2_bialgebra() -> Bialgebra:
    """[e1, e2] = e2 with delta(e2) = e1 ^ e2; the standard 2-dim example."""
    from support import bialgebra  # support imports this module

    return bialgebra(LieAlgebra(2, {(0, 1): (0, 1)}), {1: {(0, 1): 1}})


def abelian_bialgebra(dim: int = 2) -> Bialgebra:
    from support import bialgebra  # support imports this module

    return bialgebra(LieAlgebra(dim, {}))


def heisenberg_noncocycle_bialgebra() -> Bialgebra:
    """[e1, e2] = e3 with delta(e3) = e1 ^ e2: fails the cocycle identity
    on the pair (e1, e2)."""
    from support import bialgebra  # support imports this module

    return bialgebra(LieAlgebra(3, {(0, 1): (0, 0, 1)}), {2: {(0, 1): 1}})


def point_pair(b: Bialgebra) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """(g, g*): the dual pair over the point that `b` stores."""
    return b.algebra, b.dual


def coadjoint_rho_matrix(b: Bialgebra, i: int) -> List[List[Fraction]]:
    """Action of e_i on the dual basis: rho_{e_i}(eps^j) = -sum_k c^j_{ik} eps^k.

    Returned as matrix[j][k] = coefficient of eps^k in rho_{e_i}(eps^j).
    """
    from support import constants  # support imports this module

    n, c = b.dim, constants(b.algebra)
    return [[-c[i][k][j] for k in range(n)] for j in range(n)]


def coadjoint_sigma_matrix(b: Bialgebra, i: int) -> List[List[Fraction]]:
    """Action of eps^i on g: sigma_{eps^i}(e_j) = -sum_k delta^{ik}_j e_k."""
    from support import component  # support imports this module

    n = b.dim
    return [[-component(b.cobracket, j, i, k) for k in range(n)] for j in range(n)]


def coadjoint_pair(b: Bialgebra) -> MatchedPair:
    """The mutual coadjoint actions of a bialgebra as a matched pair at a point."""
    chart = Chart(())
    from support import zero_field  # support imports this module

    def action(matrix):
        return Derivation(
            zero_field(chart), [[Polynomial.constant(chart, c) for c in row] for row in matrix]
        )

    rho = [action(coadjoint_rho_matrix(b, i)) for i in range(b.dim)]
    sigma = [action(coadjoint_sigma_matrix(b, i)) for i in range(b.dim)]
    return MatchedPair(b.algebra, b.dual, rho, sigma)


def abelian_matched_pair(rank_a: int = 1, rank_b: int = 1) -> MatchedPair:
    chart = Chart(())
    a_alg = LieAlgebra(rank_a, {}, [f"a{i+1}" for i in range(rank_a)])
    b_alg = LieAlgebra(rank_b, {}, [f"b{i+1}" for i in range(rank_b)])
    from support import zero_derivation  # support imports this module

    rho = [zero_derivation(chart, rank_b) for _ in range(rank_a)]
    sigma = [zero_derivation(chart, rank_a) for _ in range(rank_b)]
    return MatchedPair(a_alg, b_alg, rho, sigma)


def line_action_pair(action_coeff: str = "x", sigma_coeff: str | None = None) -> MatchedPair:
    """Tangent algebroid of the line acting on an abelian line bundle.

    rho(del_x) multiplies the single frame of B by a polynomial; sigma is
    zero for the matched instance.  Passing `sigma_coeff` produces a pair
    that breaks the anchor identity while both representations stay flat.
    """
    chart = Chart(("x",))
    a_alg = tangent_algebroid(chart)
    b_alg = LieAlgebroid(chart, ("f1",), [[Polynomial.zero(chart)]], {})
    from support import parse_polynomial, zero_field  # support imports this module

    rho = [Derivation(a_alg.anchor_field(0), [[parse_polynomial(action_coeff, chart)]])]
    sigma_val = (
        Polynomial.zero(chart) if sigma_coeff is None else parse_polynomial(sigma_coeff, chart)
    )
    sigma = [Derivation(zero_field(chart), [[sigma_val]])]
    return MatchedPair(a_alg, b_alg, rho, sigma)


def poisson_chart_xy() -> PoissonChart:
    """pi = x d/dx ^ d/dy on the chart (x, y)."""
    chart = Chart(("x", "y"))
    zero = Polynomial.zero(chart)
    x = Polynomial.coordinate(chart, "x")
    return PoissonChart(chart, [[zero, x], [-x, zero]])


def tangent_cotangent_pair() -> Tuple[LieAlgebroid, LieAlgebroid]:
    """(TM, T*M) for pi = x d/dx ^ d/dy: the chart-level bialgebroid."""
    pois = poisson_chart_xy()
    return tangent_algebroid(pois.chart), cotangent_algebroid(pois)


def broken_dual_pair_point() -> Tuple[LieAlgebroid, LieAlgebroid]:
    """Both sides valid Lie algebras, but not a bialgebra pair:
    the 3-dim Heisenberg algebra against the dual of its non-cocycle
    cobracket."""
    return point_pair(heisenberg_noncocycle_bialgebra())


def broken_dual_pair_chart() -> Tuple[LieAlgebroid, LieAlgebroid]:
    """TM on (x, y) against a valid but incompatible structure on the dual:
    [phi1, phi2] = phi1 with zero anchor."""
    chart = Chart(("x", "y"))
    tm = tangent_algebroid(chart)
    zero = Polynomial.zero(chart)
    one = Polynomial.constant(chart, 1)
    dual = LieAlgebroid(
        chart,
        ("ph1", "ph2"),
        [[zero, zero], [zero, zero]],
        {(0, 1): (one, zero)},
    )
    return tm, dual


def broken_dual_pair_so3() -> Tuple[LieAlgebroid, LieAlgebroid]:
    """The rotation algebra against an incompatible dual: [eps2, eps3] = eps1.

    Both sides satisfy Jacobi; the induced cobracket delta(e1) = e2 ^ e3
    fails the cocycle identity on (e1, e2), so the pair is not a bialgebra.
    (The 2-dim solvable algebra cannot serve here: its exterior square is a
    line on which every antisymmetric map is a cocycle.)
    """
    so3 = LieAlgebra(3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)})
    dual = LieAlgebra(3, {(1, 2): (1, 0, 0)}, ("e1_d", "e2_d", "e3_d"))
    return so3, dual

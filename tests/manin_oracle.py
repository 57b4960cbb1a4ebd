"""The Manin-triple check kept from replaced production code.

`liealg.check_manin` states the five Manin items of a Drinfel'd double
without computing them.  This module keeps the computation: a 2n-dim
algebra with a symmetric nondegenerate pairing and two marked halves
(`PairedAlgebra`), the hyperbolic pairing of g + g*, the double bracket
assembled by the formula of `drinfeld_double` without its gates, and the
dense check of invariance, isotropy and closure (`check_paired`).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import linalg
from doublealg.exact import format_rat
from doublealg.liealg import Bialgebra, LieAlgebra, format_vector
from doublealg.verdicts import CheckItem, CheckReport, failed, passed

Vector = Tuple[Fraction, ...]


def basis(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if t == i else 0) for t in range(n))


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


def formula_double(b: Bialgebra) -> LieAlgebra:
    """The double bracket of `drinfeld_double` on g + g* without its gates:
    [e_i, e_j] = c_ij, [eps^i, eps^j] = sum_k delta^{ij}_k eps^k and
    [e_i, eps^j] = sum_k delta^{jk}_i e_k - sum_k c^j_{ik} eps^k, for any
    constants and cobracket (Jacobi is not required)."""
    n = b.dim
    zero = (Fraction(0),) * n
    brackets: Dict[Tuple[int, int], Vector] = {}
    for i, j in itertools.combinations(range(n), 2):
        brackets[(i, j)] = tuple(b.algebra.constants[i][j]) + zero
        vec = tuple(b.cobracket.component(k, i, j) for k in range(n))
        brackets[(n + i, n + j)] = zero + vec
    for i in range(n):
        for j in range(n):
            g_part = tuple(b.cobracket.component(i, j, k) for k in range(n))
            d_part = tuple(-b.algebra.constants[i][k][j] for k in range(n))
            brackets[(i, n + j)] = g_part + d_part
    return LieAlgebra(2 * n, brackets, basis_names=b.algebra.basis_names + b.dual_names())


def paired_double(double: LieAlgebra) -> PairedAlgebra:
    """A double on g + g* with the hyperbolic pairing and the halves g, g*."""
    return PairedAlgebra(double, hyperbolic_pairing(double.dim // 2), *halves(double.dim))


def check_paired(p: PairedAlgebra) -> CheckReport:
    """Invariance of the pairing, isotropy of the marked halves, closure:
    the five items `liealg.check_manin` states, each with its first
    witness."""
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
            w = g.bracket(u, v)
            if any(linalg.reduce(w, echelon)):
                witness = (
                    f"[{format_vector(u, names)}, {format_vector(v, names)}] = "
                    f"{format_vector(w, names)} leaves the subspace"
                )
                break
        items.append(failed(label, witness) if witness else passed(label))

    return CheckReport(tuple(items))

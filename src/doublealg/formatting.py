"""Deterministic printers for report details.

Everything prints in the model-file grammar (signed monomial terms), so
emitted structures can be pasted back into model files.  The pairing rows
of a Drinfel'd double are the hyperbolic pairing, printed from its
dimension alone.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from .algebroid import Derivation, LieAlgebroid, VectorField
from .exact import Polynomial, monomial_atoms, signed_sum
from .liealg import LieAlgebra, format_vector


def format_combination(components: Sequence[Polynomial], names: Sequence[str]) -> str:
    """Linear combination of frames, expanded to grammar-level terms."""
    return signed_sum(
        (coeff, monomial_atoms(poly.chart, exp) + [frame])
        for poly, frame in zip(components, names)
        for exp, coeff in poly.terms
    )


def format_vector_field(vf: VectorField) -> str:
    return format_combination(vf.components, [f"d/d{name}" for name in vf.chart.names])


def format_algebroid_lines(name: str, L: LieAlgebroid) -> List[str]:
    lines = [f"[algebroid {name}]"]
    lines.append(f"base = [{', '.join(L.chart.names)}]")
    lines.append(f"frame = [{', '.join(L.frames)}]")
    for alpha in range(L.rank):
        field = L.anchor_field(alpha)
        if not field.is_zero:
            lines.append(f"anchor({L.frames[alpha]}) = {format_vector_field(field)}")
    for a, b in itertools.combinations(range(L.rank), 2):
        vec = L.structure[a][b]
        if any(vec):
            lines.append(
                f"bracket({L.frames[a]}, {L.frames[b]}) = "
                f"{format_combination(vec, L.frames)}"
            )
    return lines


def format_lie_algebra_lines(name: str, g: LieAlgebra) -> List[str]:
    lines = [f"[lie_algebra {name}]", f"dim = {g.dim}"]
    lines.append(f"basis = [{', '.join(g.basis_names)}]")
    for i, j in itertools.combinations(range(g.dim), 2):
        vec = g.constants[i][j]
        if any(c != 0 for c in vec):
            lines.append(
                f"bracket({g.basis_names[i]}, {g.basis_names[j]}) = "
                f"{format_vector(vec, g.basis_names)}"
            )
    return lines


def format_pairing_lines(double: LieAlgebra) -> List[str]:
    """The hyperbolic pairing of a Drinfel'd double (basis g then g*), one
    row per basis vector: the row of the i-th vector of either half has its
    one 1 at the i-th vector of the other half."""
    size = double.dim
    n = size // 2
    return [
        f"pairing({name}) = [{', '.join('1' if j == (i + n) % size else '0' for j in range(size))}]"
        for i, name in enumerate(double.basis_names)
    ]


def format_derivation_lines(prefix: str, d: Derivation, frames: Sequence[str]) -> List[str]:
    lines = []
    base = format_vector_field(d.base_field)
    lines.append(f"{prefix}.base = {base}")
    for i, name in enumerate(frames):
        row = format_combination(d.matrix[i], frames)
        if row != "0":
            lines.append(f"{prefix}({name}) = {row}")
    return lines

"""Deterministic printers for report details.

Everything prints in the model-file grammar (signed monomial terms), so
emitted structures can be pasted back into model files.  The pairing rows
of a Drinfel'd double are the hyperbolic pairing, printed from its
dimension alone.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from .algebroid import LieAlgebroid, Matrix, VectorField
from .exact import Polynomial, monomial_atoms, signed_sum


def format_combination(components: Sequence[Polynomial], names: Sequence[str]) -> str:
    """Linear combination of frames, expanded to grammar-level terms."""
    return signed_sum(
        (coeff, monomial_atoms(poly.chart, exp) + [frame])
        for poly, frame in zip(components, names)
        for exp, coeff in poly.terms
    )


def format_vector_field(vf: VectorField) -> str:
    return format_combination(vf.components, [f"d/d{name}" for name in vf.chart.names])


def _bracket_lines(L: LieAlgebroid) -> List[str]:
    """bracket(e_a, e_b) = ... for every a < b with a nonzero bracket."""
    frames = L.frames
    return [
        f"bracket({frames[a]}, {frames[b]}) = "
        f"{format_combination([p for _, p in row[b]], [frames[g] for g, _ in row[b]])}"
        for a, row in enumerate(L.nonzero_structure)
        for b in range(a + 1, L.rank)
        if row[b]
    ]


def format_algebroid_lines(name: str, L: LieAlgebroid) -> List[str]:
    lines = [f"[algebroid {name}]"]
    lines.append(f"base = [{', '.join(L.chart.names)}]")
    lines.append(f"frame = [{', '.join(L.frames)}]")
    for alpha in range(L.rank):
        field = L.anchor_field(alpha)
        if not field.is_zero:
            lines.append(f"anchor({L.frames[alpha]}) = {format_vector_field(field)}")
    return lines + _bracket_lines(L)


def format_lie_algebra_lines(name: str, g: LieAlgebroid) -> List[str]:
    """A Lie algebra, an algebroid over the point, as a [lie_algebra] block."""
    lines = [f"[lie_algebra {name}]", f"dim = {g.rank}"]
    lines.append(f"basis = [{', '.join(g.frames)}]")
    return lines + _bracket_lines(g)


def format_pairing_lines(double: LieAlgebroid) -> List[str]:
    """The hyperbolic pairing of a Drinfel'd double (basis g then g*), one
    row per basis vector: the row of the i-th vector of either half has its
    one 1 at the i-th vector of the other half."""
    size = double.rank
    n = size // 2
    return [
        f"pairing({name}) = [{', '.join('1' if j == (i + n) % size else '0' for j in range(size))}]"
        for i, name in enumerate(double.frames)
    ]


def format_derivation_lines(
    prefix: str, base: VectorField, matrix: Matrix, frames: Sequence[str]
) -> List[str]:
    """A derivation with base field `base` and its nonzero (stored) matrix rows."""
    lines = [f"{prefix}.base = {format_vector_field(base)}"]
    for i, row in itertools.groupby(matrix, lambda item: item[0][0]):
        entries, names = zip(*((p, frames[k]) for (_, k), p in row))
        lines.append(f"{prefix}({frames[i]}) = {format_combination(entries, names)}")
    return lines

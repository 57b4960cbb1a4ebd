"""Small exact linear algebra over Fraction matrices (lists of lists).

The package eliminates nowhere; the test oracles and models that need a
rank, an inverse or a span test (the Manin check, the general frame
change, the Gram matrices of `dvb_model`) use this module."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Matrix = List[List[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def row_echelon(matrix: Sequence[Sequence[Fraction]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination: the nonzero
    rows and their pivot columns.  Every routine here eliminates through it."""
    rows = [list(row) for row in matrix]
    cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def reduce(vector: Sequence[Fraction], echelon: Tuple[Matrix, List[int]]) -> List[Fraction]:
    """The remainder of `vector` against a `row_echelon` form; it is zero
    exactly when the vector lies in the row space."""
    out = list(vector)
    for row, c in zip(*echelon):
        if out[c] != 0:
            factor = out[c]
            out = [x - factor * y for x, y in zip(out, row)]
    return out


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(row_echelon(matrix)[1])


def is_invertible(matrix: Sequence[Sequence[Fraction]]) -> bool:
    n = len(matrix)
    return n == 0 or (len(matrix[0]) == n and rank(matrix) == n)


def inverse(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(matrix)
    rows, pivots = row_echelon(
        [list(row) + ident_row for row, ident_row in zip(matrix, identity(n))]
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in rows[:n]]

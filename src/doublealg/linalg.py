"""Small exact linear algebra over Fraction matrices (lists of lists)."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
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
        r += 1
        if r == len(rows):
            break
    return r


def is_invertible(matrix: Sequence[Sequence[Fraction]]) -> bool:
    n = len(matrix)
    return n == 0 or (len(matrix[0]) == n and rank(matrix) == n)


def inverse(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(matrix)
    aug = [list(row) + ident_row for row, ident_row in zip(matrix, identity(n))]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix not invertible")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return [row[n:] for row in aug]


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    if not matrix:
        return []
    return [[matrix[i][j] for i in range(len(matrix))] for j in range(len(matrix[0]))]

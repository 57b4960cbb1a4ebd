"""Verdicts do not depend on the frame.

A Lie bialgebroid and a double Lie algebroid are intrinsic notions
(Mackenzie & Xu 1994; the paper defines a double Lie algebroid through the
duality of double vector bundles).  So a constant invertible frame change
of L, with the contragredient change of L*, must leave three verdicts
alone: the overall verdict of `check_bialgebroid`, its `side` and
`dual_side` items, and the overall verdict of `check_double` on the
cotangent double (or that `build_cotangent_double` rejects an invalid
side).  Which compatibility family fails first may depend on the frame,
since the defect D is not tensorial, so the per-family items are not
compared.

The frame changes are seeded unimodular integer matrices, so their
inverses are integral too, applied with the oracle
`support.general_change_frames`.
"""

import random
from collections import Counter

import pytest

import linalg
from doublealg.algebroid import check_bialgebroid
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.liealg import bialgebra_to_dual_pair
from support import (
    SO3,
    corpus_dual_pairs,
    double_corpus,
    gate_corpus,
    general_change_frames,
    gl,
    ladder_pair,
    sweep_pairs,
)


def unimodular(rng, r):
    """A seeded r x r integer matrix of determinant +-1: a signed
    permutation times a few elementary row operations."""
    order = list(range(r))
    rng.shuffle(order)
    matrix = [[rng.choice((1, -1)) if j == order[i] else 0 for j in range(r)] for i in range(r)]
    for _ in range(r):
        if r < 2:
            break
        i, j = rng.sample(range(r), 2)
        factor = rng.choice((1, -1))
        matrix[i] = [a + factor * b for a, b in zip(matrix[i], matrix[j])]
    return matrix


def changed_pair(rng, L, Lstar):
    """(L, L*) in a seeded unimodular frame of L and its dual frame of L*,
    under the old frame names:
    new frame j of L is sum_i M_ij e_i, so new dual frame j is
    sum_i (M^-1)_ji eps^i, the inverse transpose."""
    matrix = unimodular(rng, L.rank)
    inverse = linalg.inverse(matrix) if L.rank else []
    assert all(entry.denominator == 1 for row in inverse for entry in row)
    dual = [[inverse[j][i] for j in range(L.rank)] for i in range(L.rank)]
    return (
        general_change_frames(L, matrix, L.frames),
        general_change_frames(Lstar, dual, Lstar.frames),
    )


def verdicts(L, Lstar):
    """The frame-independent verdicts of a dual pair."""
    report = check_bialgebroid(L, Lstar)
    sides = tuple(item.ok for item in report.items if item.check_id in ("side", "dual_side"))
    try:
        double = check_double(build_cotangent_double(L, Lstar)).ok
    except ValueError as exc:
        # `InvalidAlgebroid`, a `ValueError`, for an invalid side
        double = type(exc).__name__
    return report.ok, sides, double


def assert_frame_invariant(pairs, seed, rounds=1):
    """Compare the verdicts of every pair with those in `rounds` seeded
    frames; return the count of each original verdict."""
    rng = random.Random(seed)
    seen = Counter()
    for name, (L, Lstar) in pairs:
        expected = verdicts(L, Lstar)
        for _ in range(rounds):
            assert verdicts(*changed_pair(rng, L, Lstar)) == expected, name
        seen[expected] += 1
    return seen


def test_unimodular_frames_have_integral_inverses():
    rng = random.Random(0)
    for r in range(6):
        matrix = unimodular(rng, r)
        if r:
            product = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*linalg.inverse(matrix))]
                for row in matrix
            ]
            assert product == linalg.identity(r)


def test_sweep_families():
    seen = assert_frame_invariant(sweep_pairs(range(901, 909)), seed=1)
    # seeds 901-908 give 34 bialgebroids and 30 failing pairs
    assert sum(seen.values()) == 64
    assert seen[True, (True, True), True] >= 25
    assert seen[False, (True, True), False] >= 20


def test_corpus_dual_pairs():
    seen = assert_frame_invariant(corpus_dual_pairs(double_corpus()), seed=2, rounds=2)
    # 10 passing and 10 failing pairs, among them the induced pairs on
    # (x, y, xi_dx, xi_dy) and their mirrors
    assert seen[True, (True, True), True] >= 10
    assert seen[False, (True, True), False] >= 10


@pytest.mark.parametrize("name,g", [("so3", SO3), ("gl2", gl(2))])
def test_lie_poisson_rungs(name, g):
    seen = assert_frame_invariant([(name, ladder_pair(g))], seed=3)
    assert seen == {(True, (True, True), True): 1}


def test_seeded_bialgebras_as_point_pairs():
    pairs = [(f"bialgebra{k}", bialgebra_to_dual_pair(b)) for k, b in enumerate(gate_corpus())]
    seen = assert_frame_invariant(pairs, seed=4)
    # seed 5's corpus gives 252 pairs with a failing side, 14 with valid
    # sides that fail compatibility and 134 bialgebras
    assert sum(n for (_, sides, _), n in seen.items() if sides != (True, True)) >= 200
    assert seen[False, (True, True), False] >= 10
    assert seen[True, (True, True), True] >= 100

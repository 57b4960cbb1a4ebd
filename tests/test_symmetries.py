"""The paper's symmetries as metamorphic gates.

The definition of a double Lie algebroid is symmetric in its two LA-vector
bundle structures, so transposing a double keeps its verdict; transposing a
vacant double swaps the roles of the two actions of its matched pair.  A
dual pair (L, L*) is a Lie bialgebroid exactly when (L*, L) is (Mackenzie &
Xu 1994), so the cotangent doubles of the two orders get one verdict.  The
core of a double is one Lie algebroid, so a passing double and its
transpose read the same core.  Each gate asserts lower bounds on its
passing and failing counts, so that it keeps deciding both verdicts.
"""

import pytest

from doublealg.doublela import (
    DoubleLieAlgebroid,
    build_cotangent_double,
    check_double,
    core_algebroid,
    matched_from_vacant,
)
from doublealg.matched import MatchedPair, MatchedPairError, check_matched
from support import (
    corpus_dual_pairs,
    diagnostics_doubles,
    matched_gate_pairs,
    sweep_pairs,
    tt_doubles,
    tt_pair,
    vacant_gate_doubles,
)


def transposed(dla: DoubleLieAlgebroid) -> DoubleLieAlgebroid:
    return DoubleLieAlgebroid(dla.horizontal, dla.vertical)


def test_transposing_a_double_keeps_its_verdict():
    verdicts = []
    for name, dla in diagnostics_doubles() + tt_doubles():
        ok = check_double(dla).ok
        assert check_double(transposed(dla)).ok == ok, name
        verdicts.append(ok)
    # 60 of the 133 doubles pass: the diagnostics corpus with the ladder
    # rungs, and tt1 .. tt8
    assert len(verdicts) >= 130
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 70


def test_transposing_a_passing_double_keeps_its_core():
    passing = 0
    for name, dla in diagnostics_doubles() + tt_doubles():
        if dla.core_frames and check_double(dla).ok:
            assert core_algebroid(dla) == core_algebroid(transposed(dla)), name
            passing += 1
    # 53 passing doubles have a core
    assert passing >= 50, passing


def test_transposing_a_vacant_double_swaps_its_actions():
    passing = failing = 0
    for mp, (k, dla) in zip(matched_gate_pairs(), vacant_gate_doubles()):
        ok = check_double(dla).ok
        flipped = transposed(dla)
        assert check_double(flipped).ok == ok, k
        swapped = MatchedPair(mp.algebroid_b, mp.algebroid_a, mp.sigma, mp.rho)
        if ok:
            # `matched_from_vacant` passes `check_matched` on what it reads
            passing += 1
            assert matched_from_vacant(flipped)[0] == swapped, k
        else:
            failing += 1
            assert not check_matched(swapped).ok, k
            with pytest.raises(MatchedPairError):
                matched_from_vacant(flipped)
    # 410 of the 1224 vacant doubles pass
    assert passing >= 400 and failing >= 800


def test_reversing_a_dual_pair_keeps_its_cotangent_verdict():
    pairs = corpus_dual_pairs(diagnostics_doubles())
    forward = [(name, pair) for name, pair in pairs if not name.endswith(":reversed")]
    tt = [(f"tt{n}", tt_pair(n)) for n in range(1, 9)]
    pairs = forward + sweep_pairs(range(1, 9)) + tt
    verdicts = []
    for name, (L, Lstar) in pairs:
        ok = check_double(build_cotangent_double(L, Lstar)).ok
        assert check_double(build_cotangent_double(Lstar, L)).ok == ok, name
        verdicts.append(ok)
    # 94 of the 171 pairs pass
    assert len(verdicts) >= 170
    assert verdicts.count(True) >= 90 and verdicts.count(False) >= 70

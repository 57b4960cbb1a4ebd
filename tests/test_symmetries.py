"""The paper's symmetries as metamorphic gates.

The definition of a double Lie algebroid is symmetric in its two LA-vector
bundle structures, so transposing a double keeps its verdict; transposing a
vacant double swaps the roles of the two actions of its matched pair.  A
dual pair (L, L*) is a Lie bialgebroid exactly when (L*, L) is (Mackenzie &
Xu 1994), so the cotangent doubles of the two orders get one verdict.  Each
gate asserts lower bounds on its passing and failing counts, so that it
keeps deciding both verdicts.
"""

import pytest

from doublealg.doublela import (
    DoubleLieAlgebroid,
    assemble_vacant_double,
    build_cotangent_double,
    check_double,
    matched_from_vacant,
)
from doublealg.matched import MatchedPair, MatchedPairError, check_matched
from support import corpus_dual_pairs, sweep_pairs, tt_pair
from test_matched_gate import gate_pairs
from test_structural_diagnostics import DOUBLES, TT


def transposed(dla: DoubleLieAlgebroid) -> DoubleLieAlgebroid:
    return DoubleLieAlgebroid(dla.horizontal, dla.vertical)


def test_transposing_a_double_keeps_its_verdict():
    verdicts = []
    for name, dla in {**DOUBLES, **TT}.items():
        ok = check_double(dla).ok
        assert check_double(transposed(dla)).ok == ok, name
        verdicts.append(ok)
    # 60 of the 133 doubles pass: the diagnostics corpus with the ladder
    # rungs, and tt1 .. tt8
    assert len(verdicts) >= 130
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 70


def test_transposing_a_vacant_double_swaps_its_actions():
    passing = failing = 0
    for k, mp in enumerate(gate_pairs()):
        dla = assemble_vacant_double(mp)
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
    forward = [(name, pair) for name, pair in corpus_dual_pairs(DOUBLES.items()) if not name.endswith(":reversed")]
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

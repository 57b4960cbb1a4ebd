"""Randomized cross-module consistency: the same mathematical fact computed
through independent routes must agree on arbitrary (seeded) instances,
whatever the truth value turns out to be."""

import random
from fractions import Fraction
from typing import Dict

import pytest

from doublealg.algebroid import (
    Derivation,
    LieAlgebroid,
    check_bialgebroid,
    tangent_algebroid,
)
from doublealg.doublela import assemble_vacant_double, build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import BialgebraError, LieAlgebra, Wedge, check_manin, drinfeld_double
from doublealg.matched import MatchedPair, check_matched
from manin_oracle import check_cocycle, check_paired, dual_bracket, jacobi_report, paired_double
from support import (
    assert_matched_decides_bowtie_and_double,
    bialgebra,
    check_cor_sdp,
    parse_polynomial,
    zero_field,
)


def random_cobracket(rng: random.Random, dim: int) -> Dict[int, Wedge]:
    images = {}
    for i in range(dim):
        wedge = {}
        for j in range(dim):
            for k in range(j + 1, dim):
                coeff = rng.choice([0, 0, 0, 0, 0, 0, 1, -1, 2])
                if coeff:
                    wedge[(j, k)] = Fraction(coeff)
        images[i] = wedge
    return images


HEISENBERG = LieAlgebra(3, {(0, 1): (0, 0, 1)})
SOLVABLE3 = LieAlgebra(3, {(0, 1): (0, 1, 0), (0, 2): (0, 0, -1)})


class TestBialgebraRoutesAgree:
    def test_random_cobrackets_on_three_algebras(self):
        rng = random.Random(20240809)
        seen_pass = seen_fail = 0
        for algebra in (HEISENBERG, SOLVABLE3, LieAlgebra(3, {})):
            assert jacobi_report(algebra).ok
            for _ in range(25):
                b = bialgebra(algebra, random_cobracket(rng, 3))
                try:
                    dual = dual_bracket(b)
                except BialgebraError:
                    # no valid dual structure: the double must be rejected too
                    with pytest.raises(BialgebraError):
                        drinfeld_double(b)
                    continue
                cocycle_ok = check_cocycle(b).ok
                pair_ok = check_bialgebroid(algebra, dual).ok
                assert cocycle_ok is pair_ok
                double_ok = check_double(build_cotangent_double(algebra, dual)).ok
                assert double_ok is cocycle_ok
                if cocycle_ok:
                    seen_pass += 1
                    double = drinfeld_double(b)
                    assert jacobi_report(double).ok
                    assert check_paired(paired_double(double)).items == check_manin().items
                else:
                    seen_fail += 1
                    with pytest.raises(BialgebraError):
                        drinfeld_double(b)
        # the combined sample must exercise both truth values
        assert seen_pass >= 5 and seen_fail >= 5


class TestMatchedRoutesAgree:
    def random_action_pair(self, rng: random.Random, break_anchor: bool) -> MatchedPair:
        chart = Chart(("x",))
        a_alg = tangent_algebroid(chart)
        b_alg = LieAlgebroid(
            chart, ("f1", "f2"), [[Polynomial.zero(chart)]] * 2, {}
        )

        def rpoly():
            return parse_polynomial(
                rng.choice(["0", "1", "x", "2 * x", "x^2", "-x"]), chart
            )

        rho = [Derivation(a_alg.anchor_field(0), [[rpoly(), rpoly()], [rpoly(), rpoly()]])]
        sigma_entry = rpoly() if break_anchor else Polynomial.zero(chart)
        sigma = [
            Derivation(zero_field(chart), [[sigma_entry]]),
            Derivation(zero_field(chart), [[Polynomial.zero(chart)]]),
        ]
        return MatchedPair(a_alg, b_alg, rho, sigma), sigma_entry

    def test_thirty_random_pairs(self):
        rng = random.Random(99)
        seen_pass = seen_fail = 0
        for trial in range(30):
            mp, sigma_entry = self.random_action_pair(rng, break_anchor=trial % 2 == 1)
            # over the zero anchor of B, the anchor identity forces sigma = 0
            expected = sigma_entry.is_zero
            matched_ok = check_matched(mp).ok
            vacant_ok = check_double(assemble_vacant_double(mp)).ok
            sdp_ok = check_cor_sdp(mp).ok
            assert matched_ok is vacant_ok is sdp_ok is expected
            if expected:
                seen_pass += 1
            else:
                seen_fail += 1
        assert seen_pass >= 5 and seen_fail >= 5

    def test_check_matched_decides_bowtie_and_vacant_double(self):
        # the same thirty pairs, both halves (sigma zero and sigma random)
        rng = random.Random(99)
        verdicts = [
            assert_matched_decides_bowtie_and_double(
                self.random_action_pair(rng, break_anchor=trial % 2 == 1)[0]
            )
            for trial in range(30)
        ]
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5

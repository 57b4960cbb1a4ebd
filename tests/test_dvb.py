"""Split double vector bundles: interchange law, duality pairing, the
canonical isomorphisms and their sign facts."""

import random
from fractions import Fraction

import pytest

from doublealg import linalg
from doublealg.dvb import DecomposedDVB
from doublealg.exact import Chart
from dvb_model import (
    OutlineMismatch,
    add,
    core_element,
    cotangent_dvb,
    cotangent_tangent_pairing,
    cstar_pair,
    double_zero,
    dual_a,
    dual_add,
    dual_b,
    element,
    evaluate,
    gram_matrix,
    pair,
    pairing_rank,
    r_map,
    ranks,
    tangent_dvb,
    tangent_pairing,
    z_iso,
    zero_over_a,
    zero_over_b,
)

CH = Chart(["x"])
D = DecomposedDVB(CH, ("a1", "a2"), ("b1",), ("c1",))
PT = [Fraction(1, 2)]


def rvec(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


class TestAdditions:
    def test_zero_section_is_identity_for_leg_a(self):
        d = element(D, PT, (1, 2), (3,), (4,))
        zero = zero_over_a(D, PT, (1, 2))
        assert add(d, zero, "A") == d

    def test_interchange_law_on_random_quadruples(self):
        rng = random.Random(2)
        for _ in range(50):
            a12 = rvec(rng, 2)
            a34 = rvec(rng, 2)
            b13 = rvec(rng, 1)
            b24 = rvec(rng, 1)
            d1 = element(D, PT, a12, b13, rvec(rng, 1))
            d2 = element(D, PT, a12, b24, rvec(rng, 1))
            d3 = element(D, PT, a34, b13, rvec(rng, 1))
            d4 = element(D, PT, a34, b24, rvec(rng, 1))
            lhs = add(add(d1, d2, "A"), add(d3, d4, "A"), "B")
            rhs = add(add(d1, d3, "B"), add(d2, d4, "B"), "A")
            assert lhs == rhs

    def test_double_zero_coincides(self):
        za = zero_over_a(D, PT, (0, 0))
        zb = zero_over_b(D, PT, (0,))
        assert za == zb == double_zero(D, PT)

    def test_mismatches_rejected(self):
        d = element(D, PT, (1, 2), (3,), (4,))
        other = element(D, PT, (9, 2), (3,), (4,))
        with pytest.raises(OutlineMismatch):
            add(d, other, "A")
        with pytest.raises(OutlineMismatch):
            add(d, element(D, [Fraction(0)], (1, 2), (3,), (4,)), "A")


class TestEvaluate:
    def test_zero_dual_element_pairs_core(self):
        kappa = (Fraction(7),)
        phi = dual_a(D, PT, (0, 0), (0,), kappa)  # zero of the dual over kappa
        d = add(zero_over_b(D, PT, (5,)), core_element(D, PT, (3,)), "A")
        assert evaluate(phi, d) == Fraction(21)  # <kappa, c>

    def test_core_dual_element_pairs_side(self):
        psi_bar = dual_a(D, PT, (0, 0), (2,), (0,))
        d = add(zero_over_b(D, PT, (5,)), core_element(D, PT, (3,)), "A")
        assert evaluate(psi_bar, d) == Fraction(10)  # <psi, b>

    def test_cstar_addition_identity(self):
        rng = random.Random(4)
        for _ in range(30):
            kappa = rvec(rng, 1)
            p1 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            p2 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            b = rvec(rng, 1)
            d1 = element(D, PT, p1.side, b, rvec(rng, 1))
            d2 = element(D, PT, p2.side, b, rvec(rng, 1))
            lhs = evaluate(dual_add(p1, p2, "cstar"), add(d1, d2, "B"))
            assert lhs == evaluate(p1, d1) + evaluate(p2, d2)

    def test_outline_mismatch(self):
        phi = dual_a(D, PT, (1, 0), (0,), (0,))
        d = element(D, PT, (0, 0), (1,), (0,))
        with pytest.raises(OutlineMismatch):
            evaluate(phi, d)


class TestPairing:
    def test_worked_example(self):
        phi = dual_a(D, PT, (1, 2), (3,), (9,))
        psi = dual_b(D, PT, (5,), (1, 1), (9,))
        assert pair(phi, psi) == Fraction(12)  # 3*5 - (1 + 2)

    def test_zero_covector_sides_pair_to_zero(self):
        rng = random.Random(6)
        phi = dual_a(D, PT, (1, 2), (0,), (4,))
        for _ in range(10):
            psi = dual_b(D, PT, rvec(rng, 1), (0, 0), (4,))
            assert pair(phi, psi) == 0

    def test_independence_of_core_choice(self):
        rng = random.Random(8)
        for _ in range(40):
            kappa = rvec(rng, 1)
            phi = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            psi = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            base = pair(phi, psi)
            assert pair(phi, psi, core_choice=rvec(rng, 1)) == base

    def test_kappa_mismatch_rejected(self):
        phi = dual_a(D, PT, (1, 2), (3,), (0,))
        psi = dual_b(D, PT, (5,), (1, 1), (1,))
        with pytest.raises(OutlineMismatch):
            pair(phi, psi)

    def test_nondegeneracy_of_fibre_pairing(self):
        rng = random.Random(10)
        for _ in range(20):
            sizes = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4))
            names_a = tuple(f"a{i}" for i in range(sizes[0]))
            names_b = tuple(f"b{i}" for i in range(sizes[1]))
            names_c = tuple(f"c{i}" for i in range(sizes[2]))
            dvb = DecomposedDVB(CH, names_a, names_b, names_c)
            kappa = rvec(rng, sizes[2])
            ra, rb = sizes[0], sizes[1]
            size = ra + rb
            matrix = []
            for i in range(size):
                side = [Fraction(1 if t == i else 0) for t in range(ra)]
                cov = [Fraction(1 if t == i - ra else 0) for t in range(rb)]
                phi = dual_a(dvb, PT, side, cov, kappa)
                row = []
                for j in range(size):
                    bside = [Fraction(1 if t == j else 0) for t in range(rb)]
                    bcov = [Fraction(1 if t == j - rb else 0) for t in range(ra)]
                    psi = dual_b(dvb, PT, bside, bcov, kappa)
                    row.append(pair(phi, psi))
                matrix.append(row)
            assert linalg.is_invertible(matrix)

    def test_pairing_rank_is_full(self):
        assert pairing_rank(D) == 3
        assert pairing_rank(tangent_dvb(Chart(["x", "y"]), ["e1"])) == 3
        assert pairing_rank(cotangent_dvb(CH, ["e1", "e2"])) == 4
        assert pairing_rank(DecomposedDVB(CH, (), (), ("c1",))) == 0

    @pytest.mark.parametrize(
        "ra,rb,rc",
        [(ra, rb, rc) for ra in range(4) for rb in range(4) for rc in range(3)] + [(32, 32, 1)],
    )
    def test_gram_matrix_is_a_signed_permutation(self, ra, rb, rc):
        """The fact `dualize dvb` states without computing: in split form
        the pairing over C* is nondegenerate by construction."""
        shape = DecomposedDVB(
            CH,
            tuple(f"a{i}" for i in range(ra)),
            tuple(f"b{i}" for i in range(rb)),
            tuple(f"c{i}" for i in range(rc)),
        )
        gram = gram_matrix(shape)
        assert len(gram) == ra + rb and all(len(row) == ra + rb for row in gram)
        for line in gram + [list(col) for col in zip(*gram)]:
            assert sorted(abs(v) for v in line if v) == [1]
        assert linalg.rank(gram) == ra + rb


class TestZIso:
    def test_z_b_negates_dual_core(self):
        psi = dual_b(D, PT, (5,), (1, 2), (3,))
        image = z_iso(psi, "Z_B")
        assert image.side == psi.side
        assert image.kappa == psi.kappa
        assert image.covector == (Fraction(-1), Fraction(-2))

    def test_z_a_fixes_zero_side_elements(self):
        phi = dual_a(D, PT, (0, 0), (3,), (2,))
        assert z_iso(phi, "Z_A") == phi

    def test_z_a_reproduces_pairing(self):
        rng = random.Random(12)
        for _ in range(40):
            kappa = rvec(rng, 1)
            phi = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            psi = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            assert cstar_pair(z_iso(phi, "Z_A"), psi) == pair(phi, psi)

    def test_z_b_is_cstar_dual_of_z_a(self):
        rng = random.Random(14)
        for _ in range(40):
            kappa = rvec(rng, 1)
            phi = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            psi = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            assert cstar_pair(z_iso(phi, "Z_A"), psi) == cstar_pair(z_iso(psi, "Z_B"), phi)

    def test_linearity_over_both_structures(self):
        rng = random.Random(16)
        for _ in range(20):
            kappa = rvec(rng, 1)
            p1 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            p2 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            assert z_iso(dual_add(p1, p2, "cstar"), "Z_A") == dual_add(
                z_iso(p1, "Z_A"), z_iso(p2, "Z_A"), "cstar"
            )
            p3 = dual_a(D, PT, p1.side, rvec(rng, 1), rvec(rng, 1))
            got = z_iso(dual_add(p1, p3, "side"), "Z_A")
            expected = dual_add(z_iso(p1, "Z_A"), z_iso(p3, "Z_A"), "side")
            assert got == expected


class TestCotangentDouble:
    def test_line_bundle_over_point(self):
        pt = Chart([])
        t = cotangent_dvb(pt, ("f",))
        assert ranks(t) == (1, 1, 0)

    def test_fibre_dimension_count(self):
        t = cotangent_dvb(Chart(["x", "y", "z"]), ("f1", "f2"))
        assert sum(ranks(t)) == 2 + 2 + 3

    def test_core_pairs_with_side_only(self):
        t = cotangent_dvb(CH, ("f1", "f2"))
        psi_bar = dual_a(t, PT, (0, 0), (5, 0), (0,))
        d = element(t, PT, (0, 0), (3, 0), (7,))
        assert evaluate(psi_bar, d) == Fraction(15)


class TestRMap:
    def setup_method(self):
        self.t_a = cotangent_dvb(CH, ("f1", "f2"))  # T*A split form
        self.t_a_star = DecomposedDVB(
            CH, self.t_a.frames_b, self.t_a.frames_a, self.t_a.frames_c
        )  # T*(A*) split form: sides swapped, same core

    def test_zero_core_fixed_pointwise(self):
        f = element(self.t_a_star, PT, (1, 2), (3, 4), (0,))
        image = r_map(f, self.t_a)
        assert image == element(self.t_a, PT, (3, 4), (1, 2), (0,))

    def test_core_negated(self):
        f = element(self.t_a_star, PT, (0, 0), (0, 0), (9,))
        assert r_map(f, self.t_a).c == (Fraction(-9),)

    def test_duality_equation_on_100_random_instances(self):
        # <F, X> + <R(F), xi> = <<X, xi>> with matching outlines
        rng = random.Random(18)
        t_dual = tangent_dvb(CH, self.t_a.frames_b)  # T(A*) split form
        t_bundle = tangent_dvb(CH, self.t_a.frames_a)  # T(A) split form
        for _ in range(100):
            phi = rvec(rng, 2)  # base point in A*
            a = rvec(rng, 2)  # base point in A
            v = rvec(rng, 1)  # shared base velocity
            phidot = rvec(rng, 2)
            adot = rvec(rng, 2)
            p = rvec(rng, 1)
            f = element(self.t_a_star, PT, phi, a, p)
            x = element(t_dual, PT, phi, v, phidot)
            xi = element(t_bundle, PT, a, v, adot)
            lhs = cotangent_tangent_pairing(f, x) + cotangent_tangent_pairing(
                r_map(f, self.t_a), xi
            )
            assert lhs == tangent_pairing(x, xi)

    def test_involution_up_to_core_sign(self):
        rng = random.Random(20)
        for _ in range(25):
            d = element(self.t_a, PT, rvec(rng, 2), rvec(rng, 2), rvec(rng, 1))
            step = r_map(d, self.t_a_star)  # R for the dual bundle
            back = r_map(step, self.t_a)  # R for the bundle
            assert back == d

    def test_shape_mismatch_rejected(self):
        with pytest.raises(OutlineMismatch):
            r_map(element(self.t_a, PT, (1, 2), (3, 4), (5,)), self.t_a)


class TestPairBilinearity:
    def test_pair_additive_over_cstar_in_both_slots(self):
        rng = random.Random(22)
        for _ in range(20):
            kappa = rvec(rng, 1)
            p1 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            p2 = dual_a(D, PT, rvec(rng, 2), rvec(rng, 1), kappa)
            q1 = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            q2 = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            assert pair(dual_add(p1, p2, "cstar"), q1) == pair(p1, q1) + pair(p2, q1)
            assert pair(p1, dual_add(q1, q2, "cstar")) == pair(p1, q1) + pair(p1, q2)


class TestZbLinearity:
    def test_z_b_linear_over_both_structures(self):
        rng = random.Random(24)
        for _ in range(15):
            kappa = rvec(rng, 1)
            q1 = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            q2 = dual_b(D, PT, rvec(rng, 1), rvec(rng, 2), kappa)
            assert z_iso(dual_add(q1, q2, "cstar"), "Z_B") == dual_add(
                z_iso(q1, "Z_B"), z_iso(q2, "Z_B"), "cstar"
            )
            q3 = dual_b(D, PT, q1.side, rvec(rng, 2), rvec(rng, 1))
            assert z_iso(dual_add(q1, q3, "side"), "Z_B") == dual_add(
                z_iso(q1, "Z_B"), z_iso(q3, "Z_B"), "side"
            )

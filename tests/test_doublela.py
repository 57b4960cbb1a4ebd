"""Double Lie algebroids: the defining check, its examples and counterexamples,
the cotangent double criterion, vacant doubles and diagonal structures."""

import itertools
import random
from fractions import Fraction

import pytest

import catalog
from doublealg.algebroid import (
    LieAlgebroid,
    change_frames,
    check_algebroid,
    check_bialgebroid,
    tangent_algebroid,
)
from doublealg.doublela import (
    DoubleLieAlgebroid,
    DoubleMismatch,
    assemble_vacant_double,
    build_cotangent_double,
    check_double,
    core_algebroid,
    dual_pair_over_core_dual,
    matched_from_vacant,
    structural_diagnostics,
)
from doublealg.dvb import DecomposedDVB
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import LAVBundle
from doublealg.liealg import drinfeld_double
from doublealg.matched import (
    MatchedPair,
    MatchedPairError,
    assemble_bowtie,
    build_semidirects,
    check_matched,
)
from diagnostics_oracle import oracle_diagnostics
from dvb_model import dual_a, dual_b, pair
from support import (
    assert_matched_decides_bowtie_and_double,
    bialgebra,
    entries,
    check_cor_sdp,
    constants,
    dense_structure,
    gl,
    ladder_pair,
    matrix_build_semidirects,
    matrix_dual_pair_over_core_dual,
    scale_derivation,
    standard_gl_bialgebra,
    tangent_lavb,
    tt_pair,
)


def double_tangent(chart: Chart) -> DoubleLieAlgebroid:
    """T(TM) with both prolongation structures, in generator data."""
    n = chart.dim
    a_frames = tuple(f"v_{name}" for name in chart.names)
    core = tuple(f"c_{name}" for name in chart.names)
    vert = tangent_lavb(chart, a_frames, core)
    side_a = tangent_algebroid(chart)
    one = Polynomial.constant(chart, 1)
    zero = Polynomial.zero(chart)
    side_a = side_a.__class__(
        chart,
        a_frames,
        side_a.anchor,
        {},
    )
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    zero_mat = [[zero for _ in range(n)] for _ in range(n)]
    hor = LAVBundle(
        side_a,
        tuple(f"del_{name}" for name in chart.names),
        core,
        [entries(zero_mat)] * n,
        [entries(zero_mat)] * n,
        entries(ident),
        {},
    )
    return DoubleLieAlgebroid(vert, hor)


def transpose(dla: DoubleLieAlgebroid) -> DoubleLieAlgebroid:
    return DoubleLieAlgebroid(dla.horizontal, dla.vertical)


class TestDoubleTangent:
    def test_passes_on_line_and_plane(self):
        for chart in (Chart(["x"]), Chart(["x", "y"])):
            dla = double_tangent(chart)
            assert check_double(dla).ok

    def test_diagnostics_pass(self):
        dla = double_tangent(Chart(["x"]))
        report = oracle_diagnostics(dla)
        assert report.ok and report.items == structural_diagnostics(dla).items

    def test_core_algebroid_is_the_tangent_structure(self):
        dla = double_tangent(Chart(["x"]))
        core = core_algebroid(dla)
        assert check_algebroid(core).ok
        # anchor = a o del_A = identity on the single core frame
        assert core.anchor[0][0] == Polynomial.constant(dla.chart, 1)

    def test_perturbed_structure_fails_with_bialgebroid_witness(self):
        chart = Chart(["x"])
        dla = double_tangent(chart)
        hor = dla.horizontal
        two = Polynomial.constant(chart, 2)
        doubled = LAVBundle(
            hor.side.__class__(chart, hor.side.frames, [[two]], {}),
            hor.bundle_frames,
            hor.core_frames,
            hor.anchor_derivations,
            hor.core_derivations,
            hor.core_anchor,
            {},
        )
        bad = DoubleLieAlgebroid(dla.vertical, doubled)
        report = check_double(bad)
        assert not report.ok
        failure = report.first_failure
        assert failure.check_id.startswith("bialgebroid")
        assert failure.witness

    def test_symmetric_verdict_under_transposition(self):
        dla = double_tangent(Chart(["x"]))
        assert check_double(dla).ok is check_double(transpose(dla)).ok is True


class TestCotangentDoubles:
    PASSING = (
        ("solvable2", lambda: catalog.tangent_cotangent_pair()),
    )

    def passing_pairs(self):
        return [
            catalog.point_pair(catalog.solvable2_bialgebra()),
            catalog.point_pair(catalog.abelian_bialgebra(2)),
            catalog.tangent_cotangent_pair(),
        ]

    def failing_pairs(self):
        return [
            catalog.broken_dual_pair_point(),
            catalog.broken_dual_pair_chart(),
            catalog.broken_dual_pair_so3(),
        ]

    def test_criterion_both_directions(self):
        for L, Ls in self.passing_pairs():
            assert check_bialgebroid(L, Ls).ok
            assert check_double(build_cotangent_double(L, Ls)).ok
        for L, Ls in self.failing_pairs():
            assert not check_bialgebroid(L, Ls).ok
            assert not check_double(build_cotangent_double(L, Ls)).ok

    def test_criterion_on_a_chart_with_fibre_coordinates(self):
        """The induced dual pairs of the cotangent doubles of these two pairs
        live on (x, y, xi_dx', xi_dy') and on (x, y, xi_dx, xi_dy).  Their
        own cotangent doubles must pick core frames whose fibre coordinates
        xi_<core frame> are not on the chart yet."""
        for name, expected, core in (
            ("tangent_cotangent_pair", True, ("dx''", "dy''", "dxi_dx'", "dxi_dy'")),
            ("broken_dual_pair_chart", False, ("dx'", "dy'", "dxi_dx", "dxi_dy")),
        ):
            L, Ls = build_cotangent_double(*getattr(catalog, name)()).dual_pair
            for pair in ((L, Ls), (Ls, L)):
                dla = build_cotangent_double(*pair)
                assert dla.core_frames == core
                assert check_bialgebroid(*pair).ok is expected
                assert check_double(dla).ok is expected

    def test_fibre_coordinates_avoid_the_chart(self):
        """On a chart that already holds u_v1, the total algebroid of the
        vertical LA-vector bundle (bundle frames v1, v2) must not name its
        fibre coordinates u_v1 and u_v2."""
        chart = Chart(("x", "u_v1"))
        zero = Polynomial.zero(chart)
        tm = change_frames(tangent_algebroid(chart), [[1, 0], [0, 1]], ("v1", "v2"))
        dual = LieAlgebroid(chart, ("w1", "w2"), [[zero, zero], [zero, zero]], {})
        dla = build_cotangent_double(tm, dual)
        assert dla.vertical.total.chart.names == ("x", "u_v1", "u_v1'", "u_v2")
        assert check_bialgebroid(tm, dual).ok and check_double(dla).ok

    def test_bialgebra_case_is_vacant_with_coadjoint_actions(self):
        b = catalog.solvable2_bialgebra()
        dla = build_cotangent_double(*catalog.point_pair(b))
        assert dla.is_vacant
        mp, _ = matched_from_vacant(dla)
        reference = catalog.coadjoint_pair(b)
        for d1, d2 in zip(mp.rho, reference.rho):
            assert d1 == d2
        for d1, d2 in zip(mp.sigma, reference.sigma):
            assert d1 == d2

    def test_plane_double_diagnostics(self):
        tm, ct = catalog.tangent_cotangent_pair()
        dla = build_cotangent_double(tm, ct)
        report = oracle_diagnostics(dla)
        assert report.ok and report.items == structural_diagnostics(dla).items

    def test_invalid_inputs_rejected(self):
        chart = Chart([])
        one = Polynomial.constant(chart, 1)
        zero = Polynomial.zero(chart)
        from doublealg.algebroid import InvalidAlgebroid, LieAlgebroid

        bad = LieAlgebroid(
            chart,
            ["e1", "e2", "e3"],
            [[], [], []],
            {(0, 1): (zero, zero, one), (0, 2): (one, zero, zero), (1, 2): (zero, one, zero)},
        )
        with pytest.raises(InvalidAlgebroid):
            build_cotangent_double(bad, bad)


def diagonal(dla):
    """The third structure of a vacant double: the bowtie of its actions."""
    return assemble_bowtie(matched_from_vacant(dla)[0])


class TestDiagonal:
    def test_bialgebra_diagonal_equals_drinfeld(self):
        b = catalog.solvable2_bialgebra()
        dla = build_cotangent_double(*catalog.point_pair(b))
        diag = diagonal(dla)
        assert constants(diag) == constants(drinfeld_double(b))

    def test_abelian_diagonal_abelian(self):
        dla = assemble_vacant_double(catalog.abelian_matched_pair())
        diag = diagonal(dla)
        assert all(
            p.is_zero for row in dense_structure(diag) for vec in row for p in vec
        )

    def test_nonabelian_chart_diagonal_valid(self):
        dla = assemble_vacant_double(catalog.line_action_pair())
        assert check_algebroid(diagonal(dla)).ok

    def test_nonzero_core_rejected(self):
        dla = double_tangent(Chart(["x"]))
        with pytest.raises(DoubleMismatch):
            diagonal(dla)


class TestVacantEquivalence:
    def catalog_pairs(self):
        def scaled(mp, k):
            scale = Polynomial.constant(mp.chart, k)
            return MatchedPair(
                mp.algebroid_a,
                mp.algebroid_b,
                mp.rho,
                [scale_derivation(d, scale) for d in mp.sigma],
            )

        passing = [
            catalog.abelian_matched_pair(),
            catalog.coadjoint_pair(catalog.solvable2_bialgebra()),
            catalog.line_action_pair(),
        ]
        failing = [
            scaled(catalog.coadjoint_pair(catalog.solvable2_bialgebra()), 2),
            catalog.line_action_pair(sigma_coeff="x"),
            catalog.line_action_pair(sigma_coeff="1"),
        ]
        return passing, failing

    def test_three_way_equivalence(self):
        passing, failing = self.catalog_pairs()
        for mp in passing:
            assert check_matched(mp).ok
            assert check_double(assemble_vacant_double(mp)).ok
            assert check_cor_sdp(mp).ok
        for mp in failing:
            assert not check_matched(mp).ok
            assert not check_double(assemble_vacant_double(mp)).ok
            assert not check_cor_sdp(mp).ok

    def test_check_matched_decides_bowtie_and_vacant_double(self):
        passing, failing = self.catalog_pairs()
        mp = catalog.coadjoint_pair(catalog.solvable2_bialgebra())
        two = Polynomial.constant(mp.chart, 2)
        # rho scaled by 2 is no longer flat
        rho_not_flat = MatchedPair(
            mp.algebroid_a,
            mp.algebroid_b,
            [scale_derivation(d, two) for d in mp.rho],
            mp.sigma,
        )
        assert check_matched(rho_not_flat).first_failure.check_id == "rho.flat"
        for pair in passing:
            assert assert_matched_decides_bowtie_and_double(pair)
        for pair in failing + [rho_not_flat]:
            assert not assert_matched_decides_bowtie_and_double(pair)

    def test_round_trips_are_identities(self):
        passing, _ = self.catalog_pairs()
        for mp in passing:
            dla = assemble_vacant_double(mp)
            again, _ = matched_from_vacant(dla)
            assert dense_structure(again.algebroid_a) == dense_structure(mp.algebroid_a)
            assert dense_structure(again.algebroid_b) == dense_structure(mp.algebroid_b)
            for d1, d2 in zip(again.rho, mp.rho):
                assert d1 == d2
            for d1, d2 in zip(again.sigma, mp.sigma):
                assert d1 == d2
            rebuilt = assemble_vacant_double(again)
            assert rebuilt.vertical.core_anchor == dla.vertical.core_anchor
            assert rebuilt.vertical.twist == dla.vertical.twist

    def test_forward_rejects_failing_pairs(self):
        _, failing = self.catalog_pairs()
        for mp in failing:
            assert check_matched(mp).ok is False
            with pytest.raises(MatchedPairError):
                matched_from_vacant(assemble_vacant_double(mp))

    def test_vacant_duality_pairing_formula(self):
        # the pairing of the two duals of the vacant double evaluates to
        # <psi, Y> - <phi, X> on random rational instances
        mp = catalog.line_action_pair()
        dla = assemble_vacant_double(mp)
        shape = DecomposedDVB(
            dla.chart, dla.vertical.bundle_frames, dla.side_b.frames, dla.core_frames
        )
        rng = random.Random(42)
        point = [Fraction(1, 3)]
        for _ in range(40):
            x = [Fraction(rng.randint(-5, 5))]
            psi = [Fraction(rng.randint(-5, 5))]
            y = [Fraction(rng.randint(-5, 5))]
            phi = [Fraction(rng.randint(-5, 5))]
            phi_el = dual_a(shape, point, x, psi, ())
            psi_el = dual_b(shape, point, y, phi, ())
            assert pair(phi_el, psi_el) == psi[0] * y[0] - phi[0] * x[0]

    def test_induced_duals_are_the_semidirect_products(self):
        # the dual pair over the core dual of a vacant double matches the
        # two semidirect structures (second one through the sign transport)
        from doublealg.matched import build_semidirects

        mp = catalog.coadjoint_pair(catalog.solvable2_bialgebra())
        dla = assemble_vacant_double(mp)
        e_v, dual = dual_pair_over_core_dual(dla)
        semidirect, opposite = build_semidirects(mp)
        ra, rb = mp.algebroid_a.rank, mp.algebroid_b.rank
        # e_v frames: [transposed linear (B), core (A*)]; semidirect frames:
        # [A*, B] - compare after the positional permutation
        for i, j in itertools.combinations(range(ra + rb), 2):
            def permute(k):
                return k + ra if k < rb else k - rb
            got = dense_structure(e_v)[i][j]
            expected_vec = dense_structure(semidirect)[permute(i)][permute(j)]
            assert tuple(got[k] for k in range(ra + rb)) == tuple(
                expected_vec[permute(k)] for k in range(ra + rb)
            )
        # the transported dual: frames [B* core, opposite linear (A)]
        for i, j in itertools.combinations(range(ra + rb), 2):
            def permute2(k):
                return k + ra if k < rb else k - rb
            got = dense_structure(dual)[i][j]
            expected_vec = dense_structure(opposite)[permute2(i)][permute2(j)]
            assert tuple(got[k] for k in range(ra + rb)) == tuple(
                expected_vec[permute2(k)] for k in range(ra + rb)
            )


class TestTransposeSymmetryOnFailures:
    def test_failing_verdict_is_also_symmetric(self):
        bad = catalog.line_action_pair(sigma_coeff="x")
        dla = assemble_vacant_double(bad)
        assert check_double(dla).ok is check_double(transpose(dla)).ok is False


class TestDiagnosticsAreNotVacuous:
    """The redundant oracles must actually fire on inconsistent inputs."""

    def _line_sides(self):
        chart = Chart(["x"])
        one = Polynomial.constant(chart, 1)
        zero = Polynomial.zero(chart)
        from doublealg.algebroid import LieAlgebroid

        side_b = LieAlgebroid(chart, ("del_x",), [[one]], {})
        side_a = LieAlgebroid(chart, ("v_x",), [[one]], {})
        return chart, one, zero, side_a, side_b

    def _plain_horizontal(self, chart, one, zero, side_a):
        return LAVBundle(
            side_a,
            ("del_x",),
            ("c_x",),
            ({(0, 0): zero},),
            ({(0, 0): zero},),
            {(0, 0): one},
            {},
        )

    def test_core_anchor_flip_caught(self):
        chart, one, zero, side_a, side_b = self._line_sides()
        vert = LAVBundle(
            side_b,
            ("v_x",),
            ("c_x",),
            ({(0, 0): zero},),
            ({(0, 0): zero},),
            {(0, 0): Polynomial.constant(chart, -1)},
            {},
        )
        from doublealg.lavb import check_lavb

        assert check_lavb(vert).ok  # individually valid
        bad = DoubleLieAlgebroid(vert, self._plain_horizontal(chart, one, zero, side_a))
        assert not check_double(bad).ok
        diag = oracle_diagnostics(bad)
        failing = {i.check_id for i in diag.items if not i.ok}
        assert "core_anchor_match" in failing
        assert "anchor_compat" in failing

    def test_weighted_derivation_mismatch_caught_at_bracket_level(self):
        chart, one, zero, side_a, side_b = self._line_sides()
        vert = LAVBundle(
            side_b,
            ("v_x",),
            ("c_x",),
            ({(0, 0): one},),
            ({(0, 0): one},),
            {(0, 0): one},
            {},
        )
        from doublealg.lavb import check_lavb

        assert check_lavb(vert).ok
        bad = DoubleLieAlgebroid(vert, self._plain_horizontal(chart, one, zero, side_a))
        report = check_double(bad)
        assert not report.ok
        assert report.first_failure.check_id.startswith("bialgebroid")
        diag = oracle_diagnostics(bad)
        failing = {i.check_id for i in diag.items if not i.ok}
        assert "anchor_brackets_A" in failing
        assert "anchor_brackets_B" in failing
        assert "anchor_compat" in failing


# --- the paper's two correspondences past tt8 and gl(3)*


def large_dual_pair(name):
    """gl(4)* and tt<n>, each with one failing perturbation that keeps both
    sides valid algebroids: the anchor of T*M_pi set to zero, which leaves
    the bundle of Lie algebras gl(4) over gl(4)*, and [w1, w2] = w3 on the
    dual of tt<n> (TM against a constant bracket c is a bialgebroid exactly
    when c = 0)."""
    base, _, perturbation = name.partition(":")
    L, Lstar = ladder_pair(gl(4)) if base == "gl4" else tt_pair(int(base[2:]))
    zero = Polynomial.zero(L.chart)
    anchor, table, r = Lstar.anchor, dense_structure(Lstar), Lstar.rank
    brackets = {(a, b): table[a][b] for a, b in itertools.combinations(range(r), 2)}
    if perturbation == "zero_anchor":
        anchor = [[zero] * L.chart.dim] * r
    elif perturbation == "heisenberg":
        brackets[0, 1] = [Polynomial.constant(L.chart, int(g == 2)) for g in range(r)]
    return L, LieAlgebroid(L.chart, Lstar.frames, anchor, brackets)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("gl4", True),
        ("gl4:zero_anchor", False),
        ("tt16", True),
        ("tt16:heisenberg", False),
        ("tt32", True),
        ("tt32:heisenberg", False),
    ],
)
def test_cotangent_double_criterion_past_tt8_and_gl3(name, expected):
    """The duality theorem where the dual pair over the core dual has rank
    32 (gl(4)*, tt16) and 64 (tt32), and `permute_frames` meets the dense
    matrix it replaced."""
    L, Lstar = large_dual_pair(name)
    dla = build_cotangent_double(L, Lstar)
    assert check_bialgebroid(L, Lstar).ok is expected
    assert check_double(dla).ok is expected
    assert dual_pair_over_core_dual(dla) == matrix_dual_pair_over_core_dual(dla)


@pytest.mark.parametrize("perturbed", [False, True], ids=["gl3", "gl3:cocycle"])
def test_vacant_double_criterion_on_a_gl3_coadjoint_pair(perturbed):
    """The matched pair (g, g*, ad*, ad*) of the standard bialgebra on gl(3)
    is matched, and so is its vacant double; adding E_11 ^ E_33 to
    delta(E_13) keeps g* a Lie algebra and breaks the cocycle condition."""
    b = standard_gl_bialgebra(3)
    if perturbed:
        images = {k: dict(image) for k, image in enumerate(b.cobracket.images)}
        images[2][0, 8] = 1
        b = bialgebra(b.algebra, images)
    mp = catalog.coadjoint_pair(b)
    dla = assemble_vacant_double(mp)
    assert check_matched(mp).ok is check_double(dla).ok is not perturbed
    assert build_semidirects(mp) == matrix_build_semidirects(mp)
    assert dual_pair_over_core_dual(dla) == matrix_dual_pair_over_core_dual(dla)

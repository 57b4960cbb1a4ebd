"""LA-vector bundles: the tangent-prolongation example, the induced dual
algebroid, generator brackets, reciprocity and the Poisson-route cross-check.

`check_lavb` decides both `generators` and `induced_dual` on the induced
dual when it passes, by duality, and checks the total algebroid only when
it fails; the full `check_algebroid` of both stays here as its oracle, on
a corpus with failing bundles, and the check that decided on the total
algebroid first, `support.reference_check_lavb`, as its differential
gate.  Duality holds in both directions because `dual_lavb` is an
involution up to frame names, which is checked on the same bundles.

Every algebroid and bundle the package derives is built by a trusted
constructor; each equals, with equal hash and repr, what the validating
constructor builds from its stored data.

Every matrix of the generator data holds only its nonzero entries, and
the twist is stored once; the dense builder they replaced,
`support.dense_generator_algebroid`, fed the dense matrices
(`support.dense_data`, and `support.dense_dual_data` for the dual as the
dense code computed it), is the oracle of `total` and `induced_dual` on
every LA-vector bundle of the structural-diagnostics corpus, of the
vacant doubles of the matched-pair gate and of the cotangent doubles of
tt1..tt8.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from doublealg import lavb
from doublealg.algebroid import (
    LieAlgebroid,
    bracket_sections,
    change_frames,
    check_algebroid,
    dual_poisson,
    fibre_coordinate,
    tangent_algebroid,
)
from doublealg.doublela import check_double
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import (
    LAVBundle,
    bundle_fibre_coordinate,
    check_lavb,
    dual_lavb,
    induced_dual_algebroid,
    total_algebroid,
)
from doublealg.model import parse_model
from doublealg.verdicts import failed, passed
from support import (
    MODELS,
    anchor_of,
    check_representation,
    commutator,
    dense_data,
    dense_dual_data,
    dense_generator_algebroid,
    dense_structure,
    diagnostics_doubles,
    frame_bracket,
    frame_section,
    gate_doubles,
    ladder_doubles,
    lavb_corpus,
    parse_polynomial,
    perturbations,
    poisson_bracket,
    rebuilt,
    reference_check_lavb,
    rename,
    tangent_lavb,
    zero_derivation,
)

LINE = Chart(["x"])
TA = tangent_lavb(LINE, ["f"])


def core_section(v, components):
    """The core section with base-chart components, as a section of v.total
    (whose frames are the canonical linear sections, then the core)."""
    total = v.total
    zero = Polynomial.zero(total.chart)
    return total.section([zero] * v.side.rank + [c.lift(total.chart) for c in components])


class TestTangentExample:
    def test_check_lavb_passes(self):
        assert check_lavb(TA).ok

    def test_total_space_is_the_tangent_algebroid(self):
        total = total_algebroid(TA)
        reference = tangent_algebroid(total.chart)
        assert total.chart.names == ("x", "u_f")
        assert total.anchor == reference.anchor
        assert dense_structure(total) == dense_structure(reference)

    def test_induced_dual_is_tangent_up_to_core_sign(self):
        induced = induced_dual_algebroid(TA)
        assert induced.chart.names == ("x", fibre_coordinate("f_c"))
        reference = tangent_algebroid(induced.chart)
        # canonical generator matching: transposed linear -> del_x,
        # core generator -> minus the vertical frame
        sign = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        matched = change_frames(induced, sign, reference.frames)
        assert matched.anchor == reference.anchor
        assert dense_structure(matched) == dense_structure(reference)

    def test_core_sections_commute(self):
        c1 = core_section(TA, [parse_polynomial("x", LINE)])
        c2 = core_section(TA, [parse_polynomial("x^2 + 1", LINE)])
        assert bracket_sections(TA.total, c1, c2).is_zero

    def test_linear_core_bracket_is_the_module_action(self):
        # [coordinate lift, vertical lift of g(x) f] = vertical lift of g'(x) f
        total = TA.total
        core = core_section(TA, [parse_polynomial("x^2", LINE)])
        got = bracket_sections(total, frame_section(total, 0), core)
        expected = total.section(
            [Polynomial.zero(total.chart), parse_polynomial("2 * x", total.chart)]
        )
        assert got == expected

    def test_module_action_against_commutator_oracle(self):
        total = TA.total
        lin = frame_section(total, 0)
        core = core_section(TA, [parse_polynomial("x^2", LINE)])
        got = bracket_sections(total, lin, core)
        oracle = commutator(anchor_of(total, lin), anchor_of(total, core))
        assert anchor_of(total, got).components == oracle.components


class TestValidation:
    def test_perturbed_twist_fails(self):
        plane = Chart(["x", "y"])
        v = tangent_lavb(plane, ["f"])
        one = Polynomial.constant(plane, 1)
        bad = LAVBundle(
            v.side,
            v.bundle_frames,
            v.core_frames,
            v.anchor_derivations,
            v.core_derivations,
            v.core_anchor,
            {(0, 1): {(0, 0): one}},
        )
        report = check_lavb(bad)
        assert not report.ok
        assert report.first_failure.check_id == "generators"
        assert report.first_failure.witness

    def test_vacant_case_is_representation_condition(self):
        # rank-0 core, action data sigma: the structure is valid iff sigma is
        # a flat representation over the anchor
        chart = LINE
        side = tangent_algebroid(chart)  # B = TM
        good = LAVBundle(
            side,
            ("a1",),
            (),
            ({(0, 0): parse_polynomial("x", chart)},),
            ((),),
            [],
            {},
        )
        assert check_lavb(good).ok


class TestShapeErrors:
    """The constructor's shape errors, pinned by text.  Each bad input
    gives zero matrices of rank 2, where TA has rank 1, with every entry
    written out: a stored zero matrix has no entry, so only given entries
    have a shape to get wrong.  `TWICE` gives the entry (0, 0) twice."""

    WIDE = [zero_derivation(LINE, 2)] * TA.side.rank
    TWICE = [(((0, 0), Polynomial.constant(LINE, 1)), ((0, 0), Polynomial.constant(LINE, 2)))] * TA.side.rank
    COUNT = "need one anchor and one core derivation per side frame"

    @pytest.mark.parametrize(
        "anchor_ders, core_ders, text",
        [
            (TA.anchor_derivations[:-1], TA.core_derivations, COUNT),
            (TA.anchor_derivations, TA.core_derivations * 2, COUNT),
            (WIDE, TA.core_derivations, "anchor derivation rank mismatch"),
            (TA.anchor_derivations, WIDE, "core derivation rank mismatch"),
            (TWICE, TA.core_derivations, "matrix entry (0, 0) is given twice"),
        ],
    )
    def test_derivation_shape_errors_are_pinned(self, anchor_ders, core_ders, text):
        v = TA
        with pytest.raises(ValueError) as err:
            LAVBundle(v.side, v.bundle_frames, v.core_frames, anchor_ders, core_ders, v.core_anchor)
        assert str(err.value) == text


class TestReciprocity:
    def test_double_dual_returns_total_structure(self):
        again = induced_dual_algebroid(dual_lavb(TA))
        total = total_algebroid(TA)
        mapping = {again.chart.names[1]: total.chart.names[1]}
        assert again.chart.names[0] == "x"
        got_anchor = tuple(
            tuple(rename(p, total.chart, mapping) for p in row) for row in again.anchor
        )
        assert got_anchor == total.anchor
        got_structure = tuple(
            tuple(
                tuple(rename(p, total.chart, mapping) for p in vec) for vec in row
            )
            for row in dense_structure(again)
        )
        assert got_structure == dense_structure(total)

    def test_transposed_brackets_respected(self):
        # [xi^T, eta^T] = [xi, eta]^T on a structure with nontrivial side
        plane = Chart(["x", "y"])
        v = tangent_lavb(plane, ["f1", "f2"])
        induced = induced_dual_algebroid(v)
        for a, b in itertools.combinations(range(v.side.rank), 2):
            lifted = frame_bracket(induced, a, b)
            side_bracket = frame_bracket(v.side, a, b)
            comps = lifted.vector(induced.chart)
            for beta in range(v.side.rank):
                assert comps[beta] == side_bracket.vector(v.chart)[beta].lift(induced.chart)


LAVB_CORPUS = lavb_corpus()


def assert_dual_poisson_route(v):
    """Realize the fibrewise-linear functions of `v.induced_dual` on the
    dual-Poisson chart of `v.total` and compare the Poisson brackets and
    anchors with the induced algebroid.

    The transposed linear frame beta is the coordinate xi_<side frame beta>
    and the core frame a is u_<bundle frame a>; the base coordinates
    (x, xi_<core frame>) of the induced dual keep their names.
    """
    pois = dual_poisson(v.total)  # chart (x, u_a, xi_<side frame>, xi_<core frame>)
    induced = v.induced_dual  # frames (side, core from A*) over (x, xi_<core frame>)
    big = pois.chart
    ell = [Polynomial.coordinate(big, fibre_coordinate(f)) for f in v.side.frames] + [
        Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in v.bundle_frames
    ]

    def realize(section):
        out = Polynomial.zero(big)
        for coeff, l in zip(section.vector(induced.chart), ell):
            out = out + coeff.lift(big) * l
        return out

    for i, j in itertools.combinations(range(induced.rank), 2):
        assert poisson_bracket(pois, ell[i], ell[j]) == realize(frame_bracket(induced, i, j))

    # anchors through the same dictionary: e(g)(G) o gamma = {l_g, G o gamma}
    for i in range(induced.rank):
        for name in induced.chart.names:
            lhs = poisson_bracket(pois, ell[i], Polynomial.coordinate(big, name))
            rhs = induced.anchor_fields[i].apply(Polynomial.coordinate(induced.chart, name))
            assert lhs == rhs.lift(big)


class TestPoissonRoute:
    def test_dual_poisson_route_agrees_on_generator_pairs(self):
        assert dual_poisson(TA.total).chart.names == ("x", "u_f", "xi_del_x", "xi_f_c")
        assert_dual_poisson_route(TA)

    @pytest.mark.parametrize("v", [v for _, v in LAVB_CORPUS], ids=[n for n, _ in LAVB_CORPUS])
    def test_dual_poisson_route_matches_induced_dual(self, v):
        assert_dual_poisson_route(v)


def item(check_id, report):
    return passed(check_id) if report.ok else failed(check_id, report.first_failure.witness)


class TestImpliedInducedDual:
    @pytest.mark.parametrize("v", [v for _, v in LAVB_CORPUS], ids=[n for n, _ in LAVB_CORPUS])
    def test_items_match_checking_every_derived_algebroid(self, v):
        items = check_lavb(v).items
        assert [i.check_id for i in items] == ["side", "base_fields", "generators", "induced_dual"]
        assert items[2:] == (
            item("generators", check_algebroid(v.total)),
            item("induced_dual", check_algebroid(v.induced_dual)),
        )

    def test_corpus_has_passing_and_failing_induced_duals(self):
        verdicts = Counter(check_algebroid(v.induced_dual).ok for _, v in LAVB_CORPUS)
        assert verdicts[True] >= 3 and verdicts[False] >= 3

    def test_corpus_covers_every_kind_of_failing_generator_data(self):
        failing = {n.rsplit(":", 1)[1] for n, v in LAVB_CORPUS if not check_lavb(v).ok}
        assert failing == {"twist", "core_anchor", "anchor_derivation", "core_derivation"}

    def test_passing_bundle_checks_side_and_induced_dual_only(self, monkeypatch):
        seen = []
        real = lavb.check_algebroid
        monkeypatch.setattr(lavb, "check_algebroid", lambda L: seen.append(L) or real(L))
        v = parse_model((MODELS / "t2m_double.pass").read_text()).doubles["T2M"].vertical
        assert check_lavb(v).ok
        assert seen == [v.side, v.induced_dual]
        assert "total" not in vars(v)


class TestCrossModuleRepresentationCheck:
    def test_vacant_lavb_verdict_matches_representation_check(self):
        # rank-0 core action data is valid exactly when the action is a flat
        # representation in the matched-pair sense
        chart = LINE
        side = tangent_algebroid(chart)
        action = {(0, 0): parse_polynomial("x", chart)}
        rep_ok = check_representation(side, [action], "rho", 1).ok
        v = LAVBundle(
            side,
            ("a1",),
            (),
            (action,),
            ((),),
            [],
            {},
        )
        assert check_lavb(v).ok is rep_ok is True


class TestZeroStructure:
    def test_all_zero_lavb_over_abelian_side(self):
        # abelian side with zero anchor, all generator data zero: every
        # bracket vanishes and the induced algebroid is abelian with zero
        # anchor
        chart = LINE
        from doublealg.algebroid import LieAlgebroid

        side = LieAlgebroid(chart, ("b1", "b2"), [[Polynomial.zero(chart)]] * 2, {})
        zero = Polynomial.zero(chart)
        v = LAVBundle(
            side,
            ("a1",),
            ("c1",),
            [{(0, 0): zero}] * 2,
            [{(0, 0): zero}] * 2,
            {(0, 0): zero},
            {},
        )
        assert check_lavb(v).ok
        total = v.total
        lin1, lin2 = frame_section(total, 0), frame_section(total, 1)
        core = core_section(v, [Polynomial.constant(chart, 1)])
        assert bracket_sections(total, lin1, lin2).is_zero
        assert bracket_sections(total, lin1, core).is_zero
        assert bracket_sections(total, core, core).is_zero
        induced = induced_dual_algebroid(v)
        assert all(p.is_zero for row in induced.anchor for p in row)
        assert all(
            p.is_zero for row in dense_structure(induced) for vec in row for p in vec
        )


PLANE = Chart(["x", "y"])


def plane_twist(twist):
    """The tangent prolongation over the plane with the twist `twist`."""
    return rebuilt(tangent_lavb(PLANE, ["f"]), twist=twist)


class TestTwistStore:
    ONE = Polynomial.constant(PLANE, 1)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 5), (1, 0), (1, 1)])
    def test_pair_out_of_range_is_rejected(self, pair):
        with pytest.raises(ValueError, match="twist pair"):
            plane_twist({pair: {(0, 0): self.ONE}})

    def test_only_nonzero_pairs_are_stored(self):
        assert plane_twist({(0, 1): {(0, 0): Polynomial.zero(PLANE)}}).twist == ()
        assert plane_twist({(0, 1): {(0, 0): self.ONE}}).twist == (((0, 1), (((0, 0), self.ONE),)),)

    def test_pairs_are_stored_in_increasing_order(self):
        chart = Chart(["x", "y", "z"])
        v = tangent_lavb(chart, ["f"])
        one = Polynomial.constant(chart, 1)
        pairs = [(1, 2), (0, 2), (0, 1)]
        w = rebuilt(v, twist={pair: {(0, 0): one} for pair in pairs})
        assert [pair for pair, _ in w.twist] == sorted(pairs)


# both LA-vector bundles of every double of `support.gate_doubles()`: the
# structural-diagnostics doubles, the vacant doubles of the matched-pair
# gate and the cotangent doubles of tt1..tt8
SIDES = ("vertical", "horizontal")
GATE = [(f"{name}:{side}", getattr(dla, side)) for name, dla in gate_doubles() for side in SIDES]
DIAGNOSTICS_BUNDLES = 2 * len(diagnostics_doubles())


def dense_oracle(side, data, built):
    """The dense builder over `side` on the dense generator data `data`,
    with the fibre coordinate and core frame names of `built`."""
    return dense_generator_algebroid(
        side, data, built.chart.names[side.chart.dim:], built.frames[side.rank:]
    )


def assert_as_validated(built, validated, label):
    """`built`, by a trusted constructor, equals `validated`, by the
    validating one, with equal hash and repr."""
    assert built == validated, label
    assert hash(built) == hash(validated), label
    assert repr(built) == repr(validated), label


class TestSparseTwistGate:
    def test_corpus_has_twists_and_failing_bundles(self):
        bundles = [v for _, v in GATE[:DIAGNOSTICS_BUNDLES]]
        assert len(bundles) == 250
        assert sum(1 for v in bundles if v.twist) == 42
        assert sum(1 for v in bundles if not check_lavb(v).ok) == 26

    def test_total_and_induced_dual_match_the_dense_builder(self):
        for name, v in GATE:
            assert_as_validated(v.total, dense_oracle(v.side, dense_data(v), v.total), name)
            assert_as_validated(v.induced_dual, dense_oracle(v.side, dense_dual_data(v), v.induced_dual), name)

    def test_tt8_stores_no_twist(self):
        for _, v in GATE[-16:]:
            assert v.twist == () and dual_lavb(v).twist == ()


# --- generators are decided on the induced dual

FAILING_KINDS = ("twist", "core_anchor", "anchor_derivation", "core_derivation")


def differential_corpus():
    """`LAVB_CORPUS`, the bundles of `GATE` (the diagnostics doubles, the
    vacant doubles of the matched-pair gate and tt1..tt8), the duals of the tt
    bundles, the bundles of the ladder rungs, and seeded perturbations of
    every diagnostics bundle."""
    out = LAVB_CORPUS + GATE
    out += [(f"{name}:dual", dual_lavb(v)) for name, v in GATE[-16:]]
    for name, dla in ladder_doubles():
        out += [(f"{name}:vertical", dla.vertical), (f"{name}:horizontal", dla.horizontal)]
    for seed, (name, v) in enumerate(GATE[:DIAGNOSTICS_BUNDLES]):
        out += perturbations(name, v, seed)
    return out


DIFFERENTIAL = differential_corpus()


class TestInducedDualDecides:
    def test_reports_equal_the_reference_check(self):
        for name, v in DIFFERENTIAL:
            assert check_lavb(v) == reference_check_lavb(v), name

    def test_corpus_fails_generators_of_every_kind(self):
        failing = Counter(
            name.rsplit(":", 1)[1]
            for name, v in DIFFERENTIAL
            if not check_lavb(v).ok and name.endswith(FAILING_KINDS)
        )
        assert set(failing) == set(FAILING_KINDS) and min(failing.values()) >= 20, failing

    def test_dual_lavb_is_an_involution_up_to_frame_names(self):
        for name, v in DIFFERENTIAL:
            w = dual_lavb(dual_lavb(v))
            assert (w.bundle_rank, w.core_rank) == (v.bundle_rank, v.core_rank), name
            assert w.side == v.side, name
            assert w.anchor_derivations == v.anchor_derivations, name
            assert w.core_derivations == v.core_derivations, name
            assert w.core_anchor == v.core_anchor, name
            assert w.twist == v.twist, name


def validated_algebroid(L):
    """`L` rebuilt by the validating constructor from its frames, anchor
    and dense brackets."""
    structure = dense_structure(L)
    brackets = {
        (a, b): structure[a][b] for a, b in itertools.combinations(range(L.rank), 2) if any(structure[a][b])
    }
    return LieAlgebroid(L.chart, L.frames, L.anchor, brackets)


def validated_bundle(v):
    """`v` rebuilt by the validating constructor from its stored data."""
    return LAVBundle(
        v.side, v.bundle_frames, v.core_frames, v.anchor_derivations, v.core_derivations, v.core_anchor,
        dict(v.twist),
    )


class TestTrustedConstructors:
    """The algebroids of the `GATE` bundles are compared with the dense
    builder by `TestSparseTwistGate`."""

    def test_derived_bundles_and_their_algebroids(self):
        for name, v in DIFFERENTIAL:
            dual = dual_lavb(v)
            assert_as_validated(dual, validated_bundle(dual), name)
        gate = {id(v) for _, v in GATE}
        for name, v in DIFFERENTIAL:
            if id(v) not in gate:
                for L in (v.total, v.induced_dual):
                    assert_as_validated(L, validated_algebroid(L), name)

    def test_cotangent_bundles_dual_pairs_and_cores(self):
        for name, dla in gate_doubles():
            for v in (dla.vertical, dla.horizontal):
                assert_as_validated(v, validated_bundle(v), name)
            for L in (*dla.dual_pair, dla.core):
                assert_as_validated(L, validated_algebroid(L), name)


class TestNamesOnTheChart:
    """A core frame named like a coordinate, or a side frame named like the
    fibre coordinate xi_<core frame> of an induced dual, gets apostrophes
    in the algebroids built from the bundle, so that the double is decided
    as it is under fresh names."""

    T2M = (MODELS / "t2m_double.pass").read_text()

    @pytest.mark.parametrize("old,new", [("c1", "x"), ("b1", "xi_c1")])
    def test_double_is_decided_as_under_fresh_names(self, old, new):
        dla = parse_model(self.T2M.replace(old, new)).doubles["T2M"]
        assert check_double(dla) == check_double(parse_model(self.T2M).doubles["T2M"])
        assert dla.vertical.total == validated_algebroid(dla.vertical.total)
        assert dla.core == validated_algebroid(dla.core)

    def test_core_frame_on_the_chart_gets_an_apostrophe(self):
        dla = parse_model(self.T2M.replace("c1", "x")).doubles["T2M"]
        assert dla.core.frames == ("x'",) and dla.vertical.total.frames == ("b1", "x'")
        assert dla.horizontal.induced_dual.chart.names == ("x", "xi_x")

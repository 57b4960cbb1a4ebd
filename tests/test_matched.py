"""Matched pairs: the compatibility identities, the bowtie, the semidirect
products on the duals, and the equivalence with the bialgebroid route."""

import itertools
import pathlib

import pytest

import catalog
from doublealg.algebroid import (
    LieAlgebroid,
    check_algebroid,
    contragredient,
    tangent_algebroid,
)
from doublealg.exact import Chart, ChartMismatch, Polynomial
from doublealg.liealg import drinfeld_double
from doublealg.matched import (
    MatchedPair,
    MatchedPairError,
    assemble_bowtie,
    build_semidirects,
    check_matched,
)
from doublealg.model import parse_model
from support import (
    apply_derivation,
    check_cor_sdp,
    check_representation,
    constants,
    dense,
    dense_structure,
    entries,
    frame_section,
    scale_derivation,
    zero_derivation,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def scaled_sigma_pair(mp: MatchedPair, factor: int) -> MatchedPair:
    chart = mp.chart
    scale = Polynomial.constant(chart, factor)
    sigma = [scale_derivation(d, scale) for d in mp.sigma]
    return MatchedPair(mp.algebroid_a, mp.algebroid_b, mp.rho, sigma)


PASSING = [
    catalog.abelian_matched_pair(),
    catalog.coadjoint_pair(catalog.solvable2_bialgebra()),
    catalog.line_action_pair(),
]
FAILING = [
    scaled_sigma_pair(catalog.coadjoint_pair(catalog.solvable2_bialgebra()), 2),
    catalog.line_action_pair(sigma_coeff="x"),
    catalog.line_action_pair(sigma_coeff="1"),
]


class TestCheckMatched:
    def test_abelian_pair_passes(self):
        assert check_matched(catalog.abelian_matched_pair()).ok

    def test_coadjoint_pair_passes(self):
        assert check_matched(catalog.coadjoint_pair(catalog.solvable2_bialgebra())).ok

    def test_scaled_sigma_fails(self):
        report = check_matched(FAILING[0])
        assert not report.ok
        # the scaled coadjoint action already fails flatness: commutators
        # scale quadratically, the image of the bracket linearly
        assert report.first_failure.check_id == "sigma.flat"

    def test_broken_anchor_identity(self):
        report = check_matched(catalog.line_action_pair(sigma_coeff="x"))
        assert not report.ok
        assert report.first_failure.check_id == "identity_3"
        assert "d/dx" in report.first_failure.witness

    def test_representation_preconditions_reported(self):
        chart = Chart(["x"])
        tm = tangent_algebroid(chart)
        rep = [{(0, 0): Polynomial.zero(chart)}]
        assert check_representation(tm, rep, "rho", 1).ok


class TestShapeErrors:
    """The constructor's shape errors, pinned by text, on a pair with ranks
    2 and 1.  Each bad input gives zero matrices of rank 3 with every entry
    written out: a stored zero matrix has no entry, so only given entries
    have a shape to get wrong."""

    PAIR = catalog.abelian_matched_pair(2, 1)
    WIDE = zero_derivation(PAIR.chart, 3)

    @pytest.mark.parametrize(
        "rho, sigma, text",
        [
            (PAIR.rho[:-1], PAIR.sigma, "rho needs one derivation per A-frame"),
            (PAIR.rho, PAIR.sigma * 2, "sigma needs one derivation per B-frame"),
            ([WIDE] * 2, PAIR.sigma, "rho derivations must act on B"),
            (PAIR.rho, [WIDE], "sigma derivations must act on A"),
        ],
    )
    def test_derivation_shape_errors_are_pinned(self, rho, sigma, text):
        with pytest.raises(ValueError) as err:
            MatchedPair(self.PAIR.algebroid_a, self.PAIR.algebroid_b, rho, sigma)
        assert str(err.value) == text

    def test_derivation_entry_on_another_chart_is_refused(self):
        """The bowtie is built from the stored entries without a second
        check, so the pair refuses an entry off its chart."""
        foreign = Polynomial.coordinate(Chart(("t",)), "t")
        rho = [(((0, 0), foreign),), ()]
        with pytest.raises(ChartMismatch, match="derivation entry on another chart"):
            MatchedPair(self.PAIR.algebroid_a, self.PAIR.algebroid_b, rho, self.PAIR.sigma)


def bowtie(mp: MatchedPair) -> LieAlgebroid:
    """The bowtie of a pair that `check_matched` accepts."""
    assert check_matched(mp).ok
    return assemble_bowtie(mp)


def extract_actions(total: LieAlgebroid, split: int) -> MatchedPair:
    """Read a matched pair off an algebroid on a marked direct sum A + B.

    Frames [0, split) are A, the rest B; both marked subbundles must be
    closed under the bracket.  The actions come from the mixed bracket
    [X + 0, 0 + Y] = -sigma_Y(X) + rho_X(Y); the round trip with
    `assemble_bowtie` is the identity on the data.  This is the route
    independent of the vacant double, which `doublela.matched_from_vacant`
    reads the actions off.
    """
    ra = split
    rb = total.rank - split
    chart = total.chart
    structure = dense_structure(total)
    for i, j in itertools.combinations(range(ra), 2):
        bad = [g for g in range(ra, total.rank) if structure[i][j][g]]
        if bad:
            raise MatchedPairError(
                f"A-block not closed: [{total.frames[i]}, {total.frames[j]}] leaks into "
                f"{total.frames[bad[0]]}"
            )
    for i, j in itertools.combinations(range(ra, total.rank), 2):
        bad = [g for g in range(ra) if structure[i][j][g]]
        if bad:
            raise MatchedPairError(
                f"B-block not closed: [{total.frames[i]}, {total.frames[j]}] leaks into "
                f"{total.frames[bad[0]]}"
            )
    a_alg = LieAlgebroid(
        chart,
        total.frames[:ra],
        [total.anchor[i] for i in range(ra)],
        {
            (i, j): tuple(structure[i][j][:ra])
            for i, j in itertools.combinations(range(ra), 2)
        },
    )
    b_alg = LieAlgebroid(
        chart,
        total.frames[ra:],
        [total.anchor[ra + i] for i in range(rb)],
        {
            (i, j): tuple(structure[ra + i][ra + j][ra:])
            for i, j in itertools.combinations(range(rb), 2)
        },
    )
    rho = [entries([structure[i][ra + j][ra:] for j in range(rb)]) for i in range(ra)]
    sigma = [
        entries([tuple(-p for p in structure[i][ra + j][:ra]) for i in range(ra)]) for j in range(rb)
    ]
    return MatchedPair(a_alg, b_alg, rho, sigma)


class TestBowtie:
    def test_abelian_direct_sum(self):
        bow = bowtie(catalog.abelian_matched_pair())
        assert check_algebroid(bow).ok
        assert all(
            p.is_zero for row in dense_structure(bow) for vec in row for p in vec
        )

    def test_mixed_bracket_formula_on_frames(self):
        mp = catalog.coadjoint_pair(catalog.solvable2_bialgebra())
        bow = bowtie(mp)
        ra = mp.algebroid_a.rank
        for i in range(ra):
            for j in range(mp.algebroid_b.rank):
                x = frame_section(mp.algebroid_a, i).vector(mp.chart)
                y = frame_section(mp.algebroid_b, j).vector(mp.chart)
                sigma_x = apply_derivation(mp.algebroid_b.anchor_fields[j], mp.sigma[j], x)
                expected = tuple(-p for p in sigma_x) + tuple(
                    apply_derivation(mp.algebroid_a.anchor_fields[i], mp.rho[i], y)
                )
                assert dense_structure(bow)[i][ra + j] == expected

    def test_coadjoint_bowtie_equals_drinfeld_double(self):
        b = catalog.solvable2_bialgebra()
        bow = bowtie(catalog.coadjoint_pair(b))
        assert constants(bow) == constants(drinfeld_double(b))

    def test_summand_restrictions(self):
        mp = catalog.line_action_pair()
        bow = bowtie(mp)
        ra = mp.algebroid_a.rank
        for i, j in itertools.combinations(range(ra), 2):
            assert dense_structure(bow)[i][j][:ra] == dense_structure(mp.algebroid_a)[i][j]

    def test_failing_pair_rejected_and_assembly_fails_axioms(self):
        bad = catalog.line_action_pair(sigma_coeff="x")
        assert check_matched(bad).ok is False
        assembled = assemble_bowtie(bad)
        assert not check_algebroid(assembled).ok


class TestExtractActions:
    def test_abelian_sum_gives_zero_actions(self):
        bow = bowtie(catalog.abelian_matched_pair())
        mp = extract_actions(bow, 1)
        assert all(p.is_zero for m in mp.rho for row in m for p in row)

    def test_round_trip_on_catalog(self):
        for mp in PASSING:
            bow = bowtie(mp)
            again = extract_actions(bow, mp.algebroid_a.rank)
            assert dense_structure(again.algebroid_a) == dense_structure(mp.algebroid_a)
            assert dense_structure(again.algebroid_b) == dense_structure(mp.algebroid_b)
            for d1, d2 in zip(again.rho, mp.rho):
                assert d1 == d2
            for d1, d2 in zip(again.sigma, mp.sigma):
                assert d1 == d2
            rebuilt = bowtie(again)
            assert dense_structure(rebuilt) == dense_structure(bow)
            assert rebuilt.anchor == bow.anchor

    def test_drinfeld_double_actions_recovered(self):
        b = catalog.solvable2_bialgebra()
        mp = catalog.coadjoint_pair(b)
        double = drinfeld_double(b)

        total = double
        again = extract_actions(total, b.dim)
        for d1, d2 in zip(again.rho, mp.rho):
            assert d1 == d2
        for d1, d2 in zip(again.sigma, mp.sigma):
            assert d1 == d2

    def test_unclosed_subspace_rejected(self):
        # the double of the solvable bialgebra split at the wrong place
        b = catalog.solvable2_bialgebra()

        total = drinfeld_double(b)
        with pytest.raises(MatchedPairError):
            extract_actions(total, 1)


def dual_names(frames, taken):
    """`<frame>_d` for each frame, with apostrophes appended until it is free."""
    used, out = set(taken), []
    for frame in frames:
        name = f"{frame}_d"
        while name in used:
            name += "'"
        used.add(name)
        out.append(name)
    return tuple(out)


def unit(chart, rank, k):
    return tuple(Polynomial.constant(chart, int(i == k)) for i in range(rank))


def semidirect_tables(mp):
    """Frames, anchors and frame brackets of the two semidirect products,
    written out from the formulas in the `build_semidirects` docstring.

    The dual actions are paired with frames directly:
    <sigma*_Y phi, X> = b(Y)<phi, X> - <phi, sigma_Y X>, whose first term
    vanishes on constant frames, and likewise for rho*.
    """
    a_alg, b_alg, chart = mp.algebroid_a, mp.algebroid_b, mp.chart
    ra, rb = a_alg.rank, b_alg.rank
    zero = Polynomial.zero(chart)

    def zeros(k):
        return (zero,) * k

    def sigma_dual(j, p):  # sigma*_{Y_j} phi_p along phi_1 .. phi_ra
        field = b_alg.anchor_fields[j]
        return tuple(-apply_derivation(field, mp.sigma[j], unit(chart, ra, c))[p] for c in range(ra))

    def rho_dual(i, q):  # rho*_{X_i} psi_q along psi_1 .. psi_rb
        field = a_alg.anchor_fields[i]
        return tuple(-apply_derivation(field, mp.rho[i], unit(chart, rb, d))[q] for d in range(rb))

    # A* + B: anchor (phi + Y) -> b(Y);
    # [phi1 + Y1, phi2 + Y2] = {sigma*_{Y1} phi2 - sigma*_{Y2} phi1} + [Y1, Y2]
    frames = dual_names(a_alg.frames, b_alg.frames + chart.names) + b_alg.frames
    anchor = [zeros(chart.dim)] * ra + [b_alg.anchor[j] for j in range(rb)]
    brackets = {(p, q): zeros(ra + rb) for p, q in itertools.combinations(range(ra), 2)}
    for p in range(ra):
        for j in range(rb):  # phi1 = phi_p, Y2 = Y_j
            brackets[(p, ra + j)] = tuple(-c for c in sigma_dual(j, p)) + zeros(rb)
    for i, j in itertools.combinations(range(rb), 2):
        brackets[(ra + i, ra + j)] = zeros(ra) + dense_structure(b_alg)[i][j]
    semidirect = (frames, anchor, brackets)

    # A^op + B*: anchor (X + psi) -> -a(X);
    # [X1 + psi1, X2 + psi2] = [X2, X1] + {rho*_{X2} psi1 - rho*_{X1} psi2}
    frames = a_alg.frames + dual_names(b_alg.frames, a_alg.frames + chart.names)
    anchor = [tuple(-p for p in a_alg.anchor[i]) for i in range(ra)] + [zeros(chart.dim)] * rb
    brackets = {
        (i, k): tuple(-p for p in dense_structure(a_alg)[i][k]) + zeros(rb)
        for i, k in itertools.combinations(range(ra), 2)
    }
    for i in range(ra):
        for q in range(rb):  # X1 = X_i, psi2 = psi_q
            brackets[(i, ra + q)] = zeros(ra) + tuple(-c for c in rho_dual(i, q))
    for p, q in itertools.combinations(range(rb), 2):
        brackets[(ra + p, ra + q)] = zeros(ra + rb)
    opposite = (frames, anchor, brackets)
    return semidirect, opposite


def name_clash_pair():
    """A matched pair where the dual frame names of A clash with a B-frame
    and those of B with a chart coordinate, so both get an apostrophe."""
    chart = Chart(["x", "b_d"])
    zero, one = Polynomial.zero(chart), Polynomial.constant(chart, 1)
    a_alg = LieAlgebroid(chart, ("a",), [[one, zero]], {})
    b_alg = LieAlgebroid(chart, ("a_d", "b"), [[zero, zero], [zero, zero]], {})
    x = Polynomial.coordinate(chart, "x")
    rho = [entries([[zero, x], [one, zero]])]
    sigma = [entries([[zero]])] * 2
    return MatchedPair(a_alg, b_alg, rho, sigma)


def bundled_matched_pairs():
    return [
        mp
        for path in sorted(MODELS.glob("*"))
        for mp in parse_model(path.read_text()).matched_pairs.values()
    ]


def semidirect_corpus():
    return bundled_matched_pairs() + [
        catalog.coadjoint_pair(catalog.solvable2_bialgebra()),
        catalog.coadjoint_pair(catalog.abelian_bialgebra()),
        catalog.coadjoint_pair(catalog.heisenberg_noncocycle_bialgebra()),
        catalog.abelian_matched_pair(2, 3),
        catalog.line_action_pair(),
        catalog.line_action_pair(sigma_coeff="x"),
        catalog.line_action_pair(sigma_coeff="1"),
        FAILING[0],  # sigma is not flat
        name_clash_pair(),
    ]


SEMIDIRECT_CORPUS = semidirect_corpus()


class TestSemidirects:
    def test_zero_actions_give_product_structures(self):
        mp = catalog.abelian_matched_pair(2, 1)
        semidirect, opposite = build_semidirects(mp)
        assert check_algebroid(semidirect).ok and check_algebroid(opposite).ok
        assert all(
            p.is_zero for row in dense_structure(semidirect) for vec in row for p in vec
        )

    def test_corpus_has_both_verdicts(self):
        verdicts = {check_matched(mp).ok for mp in SEMIDIRECT_CORPUS}
        assert verdicts == {True, False}
        assert not check_representation(
            FAILING[0].algebroid_b, FAILING[0].sigma, "sigma", FAILING[0].algebroid_a.rank
        ).ok

    @pytest.mark.parametrize("mp", SEMIDIRECT_CORPUS)
    def test_full_tables_match_the_docstring_formulas(self, mp):
        built = build_semidirects(mp)
        for got, (frames, anchor, brackets) in zip(built, semidirect_tables(mp)):
            assert got.frames == frames
            for k, row in enumerate(anchor):
                assert got.anchor[k] == tuple(row), k
            for (k, l), vec in brackets.items():
                assert dense_structure(got)[k][l] == vec, (k, l)
            assert got == LieAlgebroid(mp.chart, frames, anchor, brackets)

    def test_name_clashes_get_apostrophes(self):
        semidirect, opposite = build_semidirects(name_clash_pair())
        assert semidirect.frames == ("a_d'", "a_d", "b")
        assert opposite.frames == ("a", "a_d_d", "b_d'")

    def test_dual_action_bracket_formula(self):
        # [0 + Y, phi + 0] = sigma*_Y(phi) + 0 on frames
        mp = catalog.coadjoint_pair(catalog.solvable2_bialgebra())
        semidirect, _ = build_semidirects(mp)
        ra = mp.algebroid_a.rank
        for a in range(ra):
            for j in range(mp.algebroid_b.rank):
                sigma_star = dense(contragredient(mp.sigma[j]), ra, ra, mp.chart)
                expected = tuple(sigma_star[a]) + tuple(
                    Polynomial.zero(mp.chart) for _ in range(mp.algebroid_b.rank)
                )
                got = tuple(-p for p in dense_structure(semidirect)[a][ra + j])
                assert got == expected

    def test_opposite_anchor_is_negated(self):
        mp = catalog.line_action_pair()
        _, opposite = build_semidirects(mp)
        assert opposite.anchor[0] == tuple(
            -p for p in mp.algebroid_a.anchor[0]
        )

    def test_valid_even_for_non_matched_pairs(self):
        # representations valid, identities broken: both outputs still pass
        bad = catalog.line_action_pair(sigma_coeff="x")
        semidirect, opposite = build_semidirects(bad)
        assert check_algebroid(semidirect).ok and check_algebroid(opposite).ok


class TestCorSdp:
    def test_three_way_verdicts_match(self):
        for mp in PASSING:
            assert check_matched(mp).ok
            assert check_cor_sdp(mp).ok
        for mp in FAILING:
            assert not check_matched(mp).ok
            assert not check_cor_sdp(mp).ok

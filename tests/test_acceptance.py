"""Acceptance suite: every criterion at exact-equality tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or `-rA`).
All arithmetic is rational, so every comparison is exact; the stated time
budgets are asserted as upper bounds on wall time.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import catalog
import dvb_model as dvbmod
import linalg
from doublealg.algebroid import (
    Multisection,
    Polynomial,
    change_frames,
    check_bialgebroid,
    cotangent_algebroid,
    differential,
    dual_poisson,
    fibre_coordinate,
    random_polynomial,
    schouten,
    tangent_algebroid,
)
from doublealg.doublela import (
    assemble_vacant_double,
    build_cotangent_double,
    check_double,
    matched_from_vacant,
    structural_diagnostics,
)
from doublealg.dvb import DecomposedDVB
from doublealg.exact import Chart
from doublealg.lavb import bundle_fibre_coordinate, induced_dual_algebroid, total_algebroid
from doublealg.liealg import BialgebraError, check_manin, drinfeld_double
from doublealg.matched import MatchedPair, assemble_bowtie, check_matched
from diagnostics_oracle import oracle_diagnostics
from dvb_model import cotangent_dvb, dual_a, dual_b, element, pair, r_map, tangent_dvb, z_iso
from manin_oracle import bracket, check_paired, jacobi_report, paired_double
from support import (
    check_cor_sdp,
    entries,
    frame_bracket,
    constants,
    dense_structure,
    poisson_bracket,
    scale_derivation,
    summed_schouten,
    tangent_lavb,
)


def _report(number: int, budget: float, started: float, description: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: pass ({elapsed:.2f}s < {budget:.0f}s) - {description}")
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"


def _rvec(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]


def test_criterion_1_duality_pairing_well_defined_and_nondegenerate():
    started = time.perf_counter()
    rng = random.Random(2024)
    chart = Chart(["x"])
    point = [Fraction(1, 2)]
    for trial in range(50):
        ra, rb, rc = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        shape = DecomposedDVB(
            chart,
            tuple(f"a{i}" for i in range(ra)),
            tuple(f"b{i}" for i in range(rb)),
            tuple(f"c{i}" for i in range(rc)),
        )
        kappa = _rvec(rng, rc)
        phi = dual_a(shape, point, _rvec(rng, ra), _rvec(rng, rb), kappa)
        psi = dual_b(shape, point, _rvec(rng, rb), _rvec(rng, ra), kappa)
        base = pair(phi, psi)
        for _ in range(3):
            assert pair(phi, psi, core_choice=_rvec(rng, rc)) == base
        size = ra + rb
        matrix = []
        for i in range(size):
            row_phi = dual_a(shape, 
                point,
                [Fraction(1 if t == i else 0) for t in range(ra)],
                [Fraction(1 if t == i - ra else 0) for t in range(rb)],
                kappa,
            )
            matrix.append(
                [
                    pair(
                        row_phi,
                        dual_b(shape, 
                            point,
                            [Fraction(1 if t == j else 0) for t in range(rb)],
                            [Fraction(1 if t == j - rb else 0) for t in range(ra)],
                            kappa,
                        ),
                    )
                    for j in range(size)
                ]
            )
        assert linalg.is_invertible(matrix)
    _report(1, 1.0, started, "duality pairing well-defined and nondegenerate on 50 random bundles")


def test_criterion_2_z_and_r_sign_facts():
    started = time.perf_counter()
    rng = random.Random(4096)
    chart = Chart(["x"])
    point = [Fraction(2, 3)]
    shape = DecomposedDVB(chart, ("a0", "a1"), ("b0",), ("c0", "c1"))
    for _ in range(100):
        kappa = _rvec(rng, 2)
        phi = dual_a(shape, point, _rvec(rng, 2), _rvec(rng, 1), kappa)
        psi = dual_b(shape, point, _rvec(rng, 1), _rvec(rng, 2), kappa)
        za = z_iso(phi, "Z_A")
        assert za.kappa == phi.kappa and za.covector == phi.covector
        assert za.side == tuple(-v for v in phi.side)
        zb = z_iso(psi, "Z_B")
        assert zb.kappa == psi.kappa and zb.side == psi.side
        assert zb.covector == tuple(-v for v in psi.covector)
        assert dvbmod.cstar_pair(za, psi) == pair(phi, psi) == dvbmod.cstar_pair(zb, phi)

    t_a = cotangent_dvb(chart, ("f1", "f2"))
    t_a_star = DecomposedDVB(chart, t_a.frames_b, t_a.frames_a, t_a.frames_c)
    t_dual = tangent_dvb(chart, t_a.frames_b)
    t_bundle = tangent_dvb(chart, t_a.frames_a)
    for _ in range(100):
        f = element(t_a_star, point, _rvec(rng, 2), _rvec(rng, 2), _rvec(rng, 1))
        image = r_map(f, t_a)
        assert image.a == f.b and image.b == f.a
        assert image.c == tuple(-v for v in f.c)
        v = _rvec(rng, 1)
        x = element(t_dual, point, f.a, v, _rvec(rng, 2))
        xi = element(t_bundle, point, f.b, v, _rvec(rng, 2))
        lhs = dvbmod.cotangent_tangent_pairing(f, x) + dvbmod.cotangent_tangent_pairing(
            image, xi
        )
        assert lhs == dvbmod.tangent_pairing(x, xi)
    _report(2, 1.0, started, "duality isomorphism and canonical-map sign facts, 100 random instances each")


def test_criterion_3_induced_dual_of_tangent_prolongation():
    started = time.perf_counter()
    line = Chart(["x"])
    ta = tangent_lavb(line, ["f"])
    induced = induced_dual_algebroid(ta)
    reference = tangent_algebroid(induced.chart)
    sign = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    matched = change_frames(induced, sign, reference.frames)
    assert matched.anchor == reference.anchor
    assert dense_structure(matched) == dense_structure(reference)

    total = total_algebroid(ta)
    pois = dual_poisson(total)
    big = pois.chart
    ell = {
        0: Polynomial.coordinate(big, fibre_coordinate("del_x")),
        1: Polynomial.coordinate(big, bundle_fibre_coordinate("f")),
    }
    for i, j in itertools.combinations(range(induced.rank), 2):
        lhs = poisson_bracket(pois, ell[i], ell[j])
        comps = frame_bracket(induced, i, j).vector(induced.chart)
        rhs = Polynomial.zero(big)
        for k, coeff in enumerate(comps):
            rhs = rhs + coeff.lift(big) * ell[k]
        assert lhs == rhs
    for i in range(induced.rank):
        for coord in induced.chart.names:
            lhs = poisson_bracket(pois, ell[i], Polynomial.coordinate(big, coord))
            rhs = induced.anchor_fields[i].apply(
                Polynomial.coordinate(induced.chart, coord)
            ).lift(big)
            assert lhs == rhs
    _report(
        3,
        5.0,
        started,
        "induced dual of the tangent prolongation equals the tangent structure; "
        "linear-Poisson route agrees on all generator pairs",
    )


def test_criterion_4_drinfeld_double():
    started = time.perf_counter()
    for b in (catalog.solvable2_bialgebra(), catalog.abelian_bialgebra(2)):
        double = drinfeld_double(b)
        assert jacobi_report(double).ok
        table = constants(double)
        for i, j, k in itertools.combinations(range(double.rank), 3):
            n = double.rank
            def basis(t):
                return tuple(Fraction(1 if s == t else 0) for s in range(n))
            jac = bracket(table, table[i][j], basis(k))
            jac = tuple(
                a + c
                for a, c in zip(
                    jac, bracket(table, table[j][k], basis(i))
                )
            )
            jac = tuple(
                a + c
                for a, c in zip(
                    jac, bracket(table, table[k][i], basis(j))
                )
            )
            assert all(v == 0 for v in jac)
        assert check_paired(paired_double(double)).items == check_manin().items
    with pytest.raises(BialgebraError) as err:
        drinfeld_double(catalog.heisenberg_noncocycle_bialgebra())
    assert "(e1, e2)" in str(err.value)
    _report(4, 1.0, started, "double bracket passes Jacobi and the pairing conditions; non-cocycle input rejected")


def test_criterion_5_cotangent_double_criterion_both_directions():
    started = time.perf_counter()
    passing = [
        catalog.point_pair(catalog.solvable2_bialgebra()),
        catalog.point_pair(catalog.abelian_bialgebra(2)),
        catalog.tangent_cotangent_pair(),
    ]
    failing = [
        catalog.broken_dual_pair_point(),
        catalog.broken_dual_pair_chart(),
        catalog.broken_dual_pair_so3(),
    ]
    for group, expected in ((passing, True), (failing, False)):
        for L, Lstar in group:
            direct = check_bialgebroid(L, Lstar).ok
            double = check_double(build_cotangent_double(L, Lstar)).ok
            assert direct is expected
            assert double is expected
    _report(
        5,
        30.0,
        started,
        "cotangent-double verdicts match the dual-pair compatibility on 3 passing and 3 failing instances",
    )


def _vacant_catalog():
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


def test_criterion_6_three_way_equivalence():
    started = time.perf_counter()
    passing, failing = _vacant_catalog()
    for group, expected in ((passing, True), (failing, False)):
        for mp in group:
            matched_ok = check_matched(mp).ok
            double_ok = check_double(assemble_vacant_double(mp)).ok
            sdp_ok = check_cor_sdp(mp).ok
            assert matched_ok is double_ok is sdp_ok is expected
    for mp in passing:
        again, _ = matched_from_vacant(assemble_vacant_double(mp))
        assert dense_structure(again.algebroid_a) == dense_structure(mp.algebroid_a)
        assert dense_structure(again.algebroid_b) == dense_structure(mp.algebroid_b)
        for d1, d2 in zip(again.rho, mp.rho):
            assert d1 == d2
        for d1, d2 in zip(again.sigma, mp.sigma):
            assert d1 == d2
    _report(
        6,
        30.0,
        started,
        "matched pair, vacant double and semidirect-pair verdicts coincide on 6 instances; round trips exact",
    )


def test_criterion_7_diagonal_coincides_with_double_bracket():
    started = time.perf_counter()
    b = catalog.solvable2_bialgebra()
    dla = build_cotangent_double(*catalog.point_pair(b))
    diag = assemble_bowtie(matched_from_vacant(dla)[0])
    assert constants(diag) == constants(drinfeld_double(b))
    _report(7, 1.0, started, "diagonal structure of the bialgebra cotangent double equals the double bracket exactly")


def _passing_doubles():
    out = [
        ("t2_line", _double_tangent(Chart(["x"]))),
        ("t2_plane", _double_tangent(Chart(["x", "y"]))),
    ]
    for label, pair_ in (
        ("bialgebra", catalog.point_pair(catalog.solvable2_bialgebra())),
        ("abelian", catalog.point_pair(catalog.abelian_bialgebra(2))),
        ("poisson_chart", catalog.tangent_cotangent_pair()),
    ):
        out.append((f"cotangent_{label}", build_cotangent_double(*pair_)))
    passing, _ = _vacant_catalog()
    for k, mp in enumerate(passing):
        out.append((f"vacant_{k}", assemble_vacant_double(mp)))
    return out


def _double_tangent(chart):
    from doublealg.algebroid import LieAlgebroid
    from doublealg.doublela import DoubleLieAlgebroid
    from doublealg.lavb import LAVBundle

    n = chart.dim
    a_frames = tuple(f"v_{name}" for name in chart.names)
    core = tuple(f"c_{name}" for name in chart.names)
    vert = tangent_lavb(chart, a_frames, core)
    one = Polynomial.constant(chart, 1)
    zero = Polynomial.zero(chart)
    side_a = LieAlgebroid(
        chart, a_frames, [[one if i == j else zero for j in range(n)] for i in range(n)], {}
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


def test_criterion_8_structural_consequences_on_every_passing_double():
    started = time.perf_counter()
    doubles = _passing_doubles()
    assert len(doubles) >= 8
    for label, dla in doubles:
        assert check_double(dla).ok, label
        report = oracle_diagnostics(dla)
        assert report.ok, (label, report.first_failure)
        assert report.items == structural_diagnostics(dla).items, label
    _report(
        8,
        10.0,
        started,
        f"core-map coincidence, bracket preservation and anchor compatibility on {len(doubles)} passing doubles",
    )


def test_criterion_9_calculus_property_suites():
    started = time.perf_counter()
    rng = random.Random(777)
    plane = Chart(["x", "y"])
    tm = tangent_algebroid(plane)
    ct = cotangent_algebroid(catalog.poisson_chart_xy())

    def random_multisection(L, degree, max_degree=1):
        comps = {}
        for idx in itertools.combinations(range(L.rank), degree):
            comps[idx] = random_polynomial(rng, L.chart, max_degree)
        return Multisection(L.rank, degree, comps)

    count = 0
    while count < 200:
        for L in (tm, ct):
            for degree in range(0, L.rank + 1):
                omega = random_multisection(L, degree, max_degree=2)
                assert differential(L, differential(L, omega)).is_zero
                count += 1

    count = 0
    degree_patterns = ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (0, 2, 2))
    while count < 200:
        for L in (tm, ct):
            for dp, dq, dr in degree_patterns:
                p = random_multisection(L, dp)
                q = random_multisection(L, dq)
                r = random_multisection(L, dr)
                # `schouten` takes no function; its oracle extends it to them
                bracket = schouten if dp else summed_schouten
                lhs = bracket(L, p, bracket(L, q, r))
                rhs = bracket(L, bracket(L, p, q), r)
                sign = Fraction(-1) ** (((dp - 1) * (dq - 1)) % 2)
                rhs = rhs + bracket(L, q, bracket(L, p, r)).scale(sign)
                assert lhs == rhs
                count += 1

    big = Chart(["x", "y", "z"])
    for _ in range(200):
        f = random_polynomial(rng, big, max_degree=4)
        for n1, n2 in itertools.combinations(big.names, 2):
            assert f.partial(n1).partial(n2) == f.partial(n2).partial(n1)
    _report(
        9,
        10.0,
        started,
        "d^2 = 0, graded bracket Jacobi and mixed-partial symmetry, 200+ seeded instances each",
    )

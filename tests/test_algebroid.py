"""Algebroid calculus against independent oracles.

The key oracles: vector-field commutators for tangent brackets, the Koszul
formula for cotangent brackets, de Rham examples for the differential, and
cross-checks of the dual-pair compatibility against the point-base cocycle
route.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import catalog
from doublealg.algebroid import (
    LieAlgebroid,
    Multisection,
    NotPoisson,
    PoissonChart,
    VectorField,
    bracket_sections,
    change_frames,
    check_algebroid,
    check_bialgebroid,
    check_compatibility,
    cotangent_algebroid,
    differential,
    dual_poisson,
    fibre_coordinate,
    first_jacobiator,
    random_polynomial,
    random_section,
    schouten,
    tangent_algebroid,
)
from doublealg.exact import Chart, ChartMismatch, Polynomial
from doublealg.liealg import LieAlgebra
from manin_oracle import check_cocycle
from support import (
    add_sections,
    anchor_of,
    anchor_of_sum,
    applied,
    bialgebra,
    bivector,
    commutator,
    component_general,
    constants,
    dense_structure,
    frame_bracket,
    frame_section,
    function,
    parse_polynomial,
    poisson_bracket,
    random_bracket,
    summed_schouten,
    wedge,
    zero_field,
)

XY = Chart(["x", "y"])
TM = tangent_algebroid(XY)


def contract(x_components, omega: Multisection) -> Multisection:
    """Interior product of a frame vector (components) into a form."""
    if omega.degree == 0:
        return Multisection.zero(omega.rank, 0)
    acc = {}
    for idx, poly in omega.components:
        for pos, frame in enumerate(idx):
            coeff = x_components[frame]
            if not coeff:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = coeff * poly
            if pos % 2 == 1:
                term = -term
            acc[rest] = acc[rest] + term if rest in acc else term
    return Multisection(omega.rank, omega.degree - 1, acc)


def lie_derivative_form(L: LieAlgebroid, x: Multisection, omega: Multisection) -> Multisection:
    """Cartan magic formula: L_X omega = i_X d omega + d i_X omega."""
    xs = x.vector(L.chart)
    return add_sections(contract(xs, differential(L, omega)), differential(L, contract(xs, omega)))


def P(text, chart=XY):
    return parse_polynomial(text, chart)


def sec(L, *texts):
    return L.section([P(t, L.chart) for t in texts])


def random_multisection(rng, L, degree, max_degree=2):
    comps = {}
    for idx in itertools.combinations(range(L.rank), degree):
        comps[idx] = random_polynomial(rng, L.chart, max_degree)
    return Multisection(L.rank, degree, comps)


class TestValidatingBoundary:
    """The public constructors check their input; derived values and the
    caches read from them do not change equality or hashing."""

    def test_algebroid_rejects_a_structure_function_on_another_chart(self):
        x, y = Chart(["x"]), Chart(["y"])
        zero = Polynomial.zero(x)
        with pytest.raises(ChartMismatch, match="structure function on another chart"):
            LieAlgebroid(x, ("e", "f"), [[zero], [zero]], {(0, 1): [Polynomial.coordinate(y, "y"), zero]})

    @pytest.mark.parametrize(
        "pair, entry, message",
        [
            ((-1, 1), "1", "bracket pair (-1, 1) is not a < b among 2 frames"),
            ((0, 5), "x", "bracket pair (0, 5) is not a < b among 2 frames"),
            ((0, 5), "0", "bracket pair (0, 5) is not a < b among 2 frames"),
            ((1, 1), "1", "bracket(e_a, e_a) must be omitted (it is 0)"),
            ((1, 0), "1", "provide brackets with a < b only"),
        ],
    )
    def test_algebroid_rejects_a_bracket_pair_out_of_range(self, pair, entry, message):
        """Like the twist pairs of `LAVBundle`, a pair outside 0 <= a < b <
        rank is refused by name, with a zero entry too."""
        zero = Polynomial.zero(XY)
        with pytest.raises(ValueError) as err:
            LieAlgebroid(XY, ("e", "f"), [[zero, zero]] * 2, {pair: [P(entry), zero]})
        assert str(err.value) == message

    def test_lie_algebra_rejects_a_bracket_pair_out_of_range(self):
        with pytest.raises(ValueError) as err:
            LieAlgebra(2, {(-2, 1): (1, 0)})
        assert str(err.value) == "bracket pair (-2, 1) is not a < b among 2 frames"

    def test_algebroid_rejects_an_anchor_entry_on_another_chart(self):
        x, y = Chart(["x"]), Chart(["y"])
        with pytest.raises(ChartMismatch, match="anchor entry on another chart"):
            LieAlgebroid(x, ("e",), [[Polynomial.coordinate(y, "y")]])
        twin = LieAlgebroid(x, ("e",), [[Polynomial.coordinate(Chart(["x"]), "x")]])
        assert twin.anchor_fields[0].apply(Polynomial.coordinate(x, "x")) == Polynomial.coordinate(x, "x")

    def test_algebroid_equal_and_hash_equal_after_anchor_fields_are_cached(self):
        L = cotangent_algebroid(catalog.poisson_chart_xy())
        assert L.anchor_fields[0] is L.anchor_fields[0]
        check_algebroid(L)
        fresh = cotangent_algebroid(catalog.poisson_chart_xy())
        assert "anchor_fields" in vars(L) and "anchor_fields" not in vars(fresh)
        assert L == fresh and fresh == L
        assert hash(L) == hash(fresh)
        assert L.anchor_fields == fresh.anchor_fields

    def test_multisection_equal_and_hash_equal_after_anchor_sums_are_kept(self):
        m = Multisection(3, 2, {(0, 1): P("x"), (1, 2): P("y^2 - 1")})
        assert component_general(m, (2, 1), XY) == -P("y^2 - 1")
        assert component_general(m, (0, 2), XY).is_zero
        assert component_general(m, (1, 1), XY).is_zero
        v = sec(TM, "x", "0")
        assert v.vector(XY) == (P("x"), Polynomial.zero(XY))
        assert anchor_of(TM, v).components == (P("x"), Polynomial.zero(XY))
        fresh = sec(TM, "x", "0")
        assert "_anchor_sums" in vars(v) and "_anchor_sums" not in vars(fresh)
        assert v == fresh and fresh == v
        assert hash(v) == hash(fresh)


exponents_xy = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_coeffs = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(2, 3)))
small_polys = st.dictionaries(exponents_xy, small_coeffs, max_size=3).map(lambda d: Polynomial(XY, d))


@st.composite
def framed_forms(draw):
    """A random rank-1 to rank-3 bracket on (x, y), a form of each degree
    up to the rank (some of them zero) and two sections."""
    rank = draw(st.integers(1, 3))
    L = random_bracket(random.Random(draw(st.integers(0, 10**6))), tuple(f"e{i}" for i in range(rank)))

    def form(degree):
        indices = list(itertools.combinations(range(rank), degree))
        return Multisection(rank, degree, draw(st.dictionaries(st.sampled_from(indices), small_polys, max_size=3)))

    forms = [form(degree) for degree in range(rank + 1)]
    return L, forms, form(1), form(1)


def assert_stored_form(ms: Multisection) -> None:
    """The form every multisection keeps: a tuple of nonzero components
    sorted by index, each index a strictly increasing tuple of `degree`
    frames below `rank`."""
    assert type(ms.components) is tuple
    indices = [idx for idx, _ in ms.components]
    assert indices == sorted(set(indices))
    for idx, poly in ms.components:
        assert type(idx) is tuple and len(idx) == ms.degree
        assert all(0 <= i < ms.rank for i in idx)
        assert all(i < j for i, j in zip(idx, idx[1:]))
        assert poly


class TestTrustedResults:
    """The constructor trusts its components, so every multisection the
    package builds, the kernel's results and the checkers' witnesses,
    must already be in the stored form."""

    @given(
        framed_forms(),
        small_polys,
        st.sampled_from([0, 1, -1, Fraction(3, 4), "2"]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_kernel_result_and_witness_is_in_the_stored_form(self, data, poly, c, seed):
        L, forms, x, y = data
        r = L.rank
        results = [
            Multisection.zero(r, 2),
            Multisection.from_vector(r, [poly] * r),
            L.section([Polynomial.zero(XY)] * r),
            add_sections(x, y),
            x - y,
            x - x,
            x.scale(c),
            bracket_sections(L, x, y),
            schouten(L, x, y),
        ]
        for p in forms:
            results += [add_sections(p, p), p - p.scale(2), p.scale(c), wedge(p, x), wedge(x, p)]
            results.append(differential(L, p))
            results += [schouten(L, p, q) for q in forms if p.degree and q.degree and p.degree + q.degree <= 3]
        found = first_jacobiator(L)
        if found:
            results.append(found[1])
        pois = dual_poisson(L)
        if not pois.is_poisson():
            results.append(pois.jacobiator())
        # the witnesses of a compatibility check are the multisections it
        # formats, one for each failing frame, scaled or function family
        formatted = []
        original = Multisection.format

        def recording(ms, frame_names):
            formatted.append(ms)
            return original(ms, frame_names)

        with mock.patch.object(Multisection, "format", recording):
            report = check_compatibility(L, random_bracket(random.Random(seed), L.frames))
        families = ("frames", "scaled", "function_pairs")
        assert len(formatted) >= sum(not item.ok for item in report.items if item.check_id in families)
        for result in results + formatted:
            assert_stored_form(result)

    def test_adding_zero_or_scaling_by_one_returns_an_operand(self):
        x, zero = sec(TM, "x", "y^2"), Multisection.zero(2, 1)
        assert x - zero is x and x.scale(1) is x
        assert zero - x == x.scale(-1)
        with pytest.raises(ValueError, match="rank/degree mismatch"):
            x - Multisection.zero(2, 2)


class TestBracketSections:
    def test_abelian_zero_anchor_frames_commute(self):
        L = LieAlgebra(2, {})
        assert bracket_sections(L, frame_section(L, 0), frame_section(L, 1)).is_zero

    def test_tangent_example_against_commutator_oracle(self):
        line = Chart(["x"])
        tm = tangent_algebroid(line)
        x_field = sec(tm, "1")
        xdx = sec(tm, "x")
        got = bracket_sections(tm, x_field, xdx)
        assert got == sec(tm, "1")  # [d/dx, x d/dx] = d/dx
        oracle = commutator(anchor_of(tm, x_field), anchor_of(tm, xdx))
        assert anchor_of(tm, got).components == oracle.components

    def test_commutator_oracle_on_random_sections(self):
        rng = random.Random(3)
        for _ in range(25):
            x, y = random_section(rng, TM), random_section(rng, TM)
            got = bracket_sections(TM, x, y)
            oracle = commutator(anchor_of(TM, x), anchor_of(TM, y))
            assert anchor_of(TM, got).components == oracle.components

    def test_antisymmetry(self):
        rng = random.Random(5)
        for _ in range(25):
            x, y = random_section(rng, TM), random_section(rng, TM)
            assert bracket_sections(TM, x, y) == bracket_sections(TM, y, x).scale(-1)


class TestCheckAlgebroid:
    def test_tangent_passes(self):
        assert check_algebroid(TM).ok

    def test_cotangent_of_poisson_passes(self):
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        assert check_algebroid(ct).ok

    def test_jacobi_failure_reported_with_witness(self):
        chart = Chart([])
        one = Polynomial.constant(chart, 1)
        zero = Polynomial.zero(chart)
        bad = LieAlgebroid(
            chart,
            ["e1", "e2", "e3"],
            [[], [], []],
            {(0, 1): (zero, zero, one), (0, 2): (one, zero, zero), (1, 2): (zero, one, zero)},
        )
        report = check_algebroid(bad)
        assert not report.ok
        assert report.first_failure.check_id == "jacobi"
        assert "(e1, e2, e3)" in report.first_failure.witness

    def test_anchor_morphism_failure_reported(self):
        one = Polynomial.constant(XY, 1)
        zero = Polynomial.zero(XY)
        bad = LieAlgebroid(
            XY,
            ["e1", "e2"],
            [[one, zero], [zero, one]],
            {(0, 1): (one, zero)},  # [e1,e2] = e1 but [a(e1), a(e2)] = 0
        )
        report = check_algebroid(bad)
        assert not report.ok
        assert report.first_failure.check_id == "anchor_morphism"


class TestDifferential:
    def test_constant_function_zero_anchor(self):
        L = LieAlgebra(2, {})
        f = function(2, Polynomial.constant(L.chart, 5))
        assert differential(L, f).is_zero

    def test_de_rham_example(self):
        omega = Multisection(2, 1, {(1,): P("x")})  # x dy
        got = differential(TM, omega)
        assert got == Multisection(2, 2, {(0, 1): P("1")})  # dx ^ dy

    def test_d_squared_zero_randomized(self):
        rng = random.Random(11)
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        for L in (TM, ct):
            for degree in range(0, L.rank + 1):
                for _ in range(20):
                    omega = random_multisection(rng, L, degree)
                    assert differential(L, differential(L, omega)).is_zero


class TestSchouten:
    def test_a_function_operand_raises_and_the_oracle_applies_the_anchor(self):
        x = sec(TM, "x", "y")
        f = function(2, P("x * y"))
        for p, q in ((x, f), (f, x), (f, f), (function(2, P("0")), x)):
            with pytest.raises(ValueError, match=r"^schouten needs multisections of degree >= 1$"):
                schouten(TM, p, q)
        assert summed_schouten(TM, x, f) == function(2, P("2 * x * y"))  # (x d/dx + y d/dy)(xy)

    def test_poisson_bivector_squares_to_zero(self):
        pi = bivector(catalog.poisson_chart_xy())
        assert schouten(TM, pi, pi).is_zero

    def test_nonpoisson_bivector_detected(self):
        chart = Chart(["x", "y", "z"])
        tm3 = tangent_algebroid(chart)
        pi = Multisection(
            3, 2, {(0, 1): parse_polynomial("x", chart), (1, 2): parse_polynomial("y", chart)}
        )
        # {x d/dx^d/dy + y d/dy^d/dz} is not Poisson
        assert not schouten(tm3, pi, pi).is_zero

    def test_graded_antisymmetry_random(self):
        rng = random.Random(23)
        for dp, dq in ((1, 1), (1, 2), (2, 2), (0, 2), (2, 0)):
            for _ in range(10):
                p = random_multisection(rng, TM, dp)
                q = random_multisection(rng, TM, dq)
                sign = Fraction(-1) ** (((dp - 1) * (dq - 1) + 1) % 2)
                bracket = schouten if dp and dq else summed_schouten
                assert bracket(TM, p, q) == bracket(TM, q, p).scale(sign)

    def test_graded_jacobi_random_total_degree_at_most_four(self):
        rng = random.Random(29)
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        for L in (TM, ct):
            for degrees in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (0, 2, 2)):
                dp, dq, dr = degrees
                for _ in range(6):
                    p = random_multisection(rng, L, dp, max_degree=1)
                    q = random_multisection(rng, L, dq, max_degree=1)
                    r = random_multisection(rng, L, dr, max_degree=1)
                    bracket = schouten if 0 not in degrees else summed_schouten
                    lhs = bracket(L, p, bracket(L, q, r))
                    rhs = bracket(L, bracket(L, p, q), r)
                    sign = Fraction(-1) ** (((dp - 1) * (dq - 1)) % 2)
                    rhs = add_sections(rhs, bracket(L, q, bracket(L, p, r)).scale(sign))
                    assert lhs == rhs

    def test_biderivation_rule(self):
        rng = random.Random(31)
        for _ in range(10):
            p = random_multisection(rng, TM, 1, max_degree=1)
            q = random_multisection(rng, TM, 1, max_degree=1)
            r = random_multisection(rng, TM, 1, max_degree=1)
            lhs = schouten(TM, p, wedge(q, r))
            rhs = add_sections(wedge(schouten(TM, p, q), r), wedge(q, schouten(TM, p, r)))
            assert lhs == rhs


class TestDualPoisson:
    def test_abelian_zero_anchor_gives_zero_poisson(self):
        L = LieAlgebra(2, {})
        pois = dual_poisson(L)
        assert all(p.is_zero for row in pois.matrix for p in row)

    def test_solvable2_linear_poisson(self):
        L = LieAlgebra(2, {(0, 1): (0, 1)})
        pois = dual_poisson(L)
        xi1 = Polynomial.coordinate(pois.chart, fibre_coordinate("e1"))
        xi2 = Polynomial.coordinate(pois.chart, fibre_coordinate("e2"))
        assert poisson_bracket(pois, xi1, xi2) == xi2
        assert pois.is_poisson()

    def test_tangent_line_gives_canonical_bracket(self):
        line = Chart(["x"])
        tm = tangent_algebroid(line)
        pois = dual_poisson(tm)
        xi = Polynomial.coordinate(pois.chart, fibre_coordinate("del_x"))
        x = Polynomial.coordinate(pois.chart, "x")
        assert poisson_bracket(pois, xi, x) == Polynomial.constant(pois.chart, 1)

    def test_valid_algebroid_gives_poisson_invalid_does_not(self):
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        assert dual_poisson(ct).is_poisson()
        chart = Chart([])
        one = Polynomial.constant(chart, 1)
        zero = Polynomial.zero(chart)
        bad = LieAlgebroid(
            chart,
            ["e1", "e2", "e3"],
            [[], [], []],
            {(0, 1): (zero, zero, one), (0, 2): (one, zero, zero), (1, 2): (zero, one, zero)},
        )
        assert not check_algebroid(bad).ok
        assert not dual_poisson(bad).is_poisson()


class TestCotangentAlgebroid:
    def test_zero_bivector_gives_abelian_zero_anchor(self):
        zero = Polynomial.zero(XY)
        ct = cotangent_algebroid(PoissonChart(XY, [[zero, zero], [zero, zero]]))
        assert all(p.is_zero for row in ct.anchor for p in row)
        assert all(
            p.is_zero for row in dense_structure(ct) for vec in row for p in vec
        )

    def test_linear_example_brackets_and_anchors(self):
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        assert ct.frames == ("dx", "dy")
        assert frame_bracket(ct, 0, 1) == sec(ct, "1", "0")  # [dx, dy] = dx
        assert ct.anchor[0] == (P("0"), P("x"))  # pi#(dx) = x d/dy
        assert ct.anchor[1] == (P("-x"), P("0"))  # pi#(dy) = -x d/dx

    def test_constant_symplectic(self):
        chart = Chart(["q", "p"])
        zero = Polynomial.zero(chart)
        one = Polynomial.constant(chart, 1)
        ct = cotangent_algebroid(PoissonChart(chart, [[zero, one], [-one, zero]]))
        assert all(
            p.is_zero for row in dense_structure(ct) for vec in row for p in vec
        )
        import linalg

        table = dict(ct.anchor[0][0].terms), dict(ct.anchor[0][1].terms)
        matrix = [
            [dict(ct.anchor[i][j].terms).get((0, 0), Fraction(0)) for j in range(2)]
            for i in range(2)
        ]
        assert linalg.is_invertible(matrix)

    def test_non_poisson_rejected(self):
        chart = Chart(["x", "y", "z"])
        zero = Polynomial.zero(chart)
        pi = PoissonChart(
            chart,
            [
                [zero, parse_polynomial("x + y^2", chart), zero],
                [parse_polynomial("-x - y^2", chart), zero, parse_polynomial("z", chart)],
                [zero, parse_polynomial("-z", chart), zero],
            ],
        )
        assert not pi.is_poisson()
        with pytest.raises(NotPoisson) as exc:
            cotangent_algebroid(pi)
        assert str(exc.value) == "[pi, pi] = (-4 * y * z) del_x ^ del_y ^ del_z"

    def test_koszul_oracle_on_frames_and_random_forms(self):
        pois = catalog.poisson_chart_xy()
        ct = cotangent_algebroid(pois)
        rng = random.Random(37)

        def sharp(form):
            comps = form.vector(XY)
            return TM.section(
                [
                    sum(
                        (comps[i] * pois.matrix[i][j] for i in range(2)),
                        Polynomial.zero(XY),
                    )
                    for j in range(2)
                ]
            )

        def koszul(alpha, beta):
            first = lie_derivative_form(TM, sharp(alpha), beta)
            second = lie_derivative_form(TM, sharp(beta), alpha)
            pairing = Polynomial.zero(XY)
            a, b = alpha.vector(XY), beta.vector(XY)
            for i in range(2):
                for j in range(2):
                    pairing = pairing + pois.matrix[i][j] * a[i] * b[j]
            return first - second - differential(TM, function(2, pairing))

        forms = [frame_section(ct, 0), frame_section(ct, 1)] + [
            random_multisection(rng, ct, 1) for _ in range(10)
        ]
        for alpha, beta in itertools.combinations(forms, 2):
            assert bracket_sections(ct, alpha, beta) == koszul(alpha, beta)

    def test_koszul_identity_on_functions(self):
        pois = catalog.poisson_chart_xy()
        ct = cotangent_algebroid(pois)
        rng = random.Random(41)
        for _ in range(10):
            f = random_polynomial(rng, XY)
            g = random_polynomial(rng, XY)
            df = Multisection(2, 1, {(i,): f.partial(n) for i, n in enumerate(XY.names)})
            dg = Multisection(2, 1, {(i,): g.partial(n) for i, n in enumerate(XY.names)})
            fg = poisson_bracket(pois, f, g)
            dfg = Multisection(2, 1, {(i,): fg.partial(n) for i, n in enumerate(XY.names)})
            assert bracket_sections(ct, df, dg) == dfg

    def test_point_base_constant_structure_roundtrip(self):
        g = LieAlgebra(2, {(0, 1): (0, 1)})
        ct = cotangent_algebroid(dual_poisson(g))
        for i, j in itertools.combinations(range(2), 2):
            got = tuple(
                dict(p.terms).get((0,) * ct.chart.dim, Fraction(0))
                for p in dense_structure(ct)[i][j]
            )
            assert got == constants(g)[i][j]


class TestBialgebroid:
    def test_abelian_pair_passes(self):
        L = LieAlgebra(2, {})
        Ls = LieAlgebra(2, {}, ("d1", "d2"))
        assert check_bialgebroid(L, Ls).ok

    def test_point_base_agreement_with_cocycle_route(self):
        cases = [
            (catalog.solvable2_bialgebra(), True),
            (catalog.abelian_bialgebra(2), True),
            (catalog.heisenberg_noncocycle_bialgebra(), False),
        ]
        # a genuinely passing dim-3 instance to balance the failing one
        so3_dual = bialgebra(LieAlgebra(3, {}), {0: {(1, 2): 1}, 1: {(0, 2): -1}, 2: {(0, 1): 1}})
        cases.append((so3_dual, True))
        for b, expected in cases:
            assert check_cocycle(b).ok is expected
            assert check_bialgebroid(b.algebra, b.dual).ok is expected

    def test_tangent_cotangent_pair_passes(self):
        tm, ct = catalog.tangent_cotangent_pair()
        assert check_bialgebroid(tm, ct).ok

    def test_symmetry_of_verdict(self):
        # self-duality: swapping the roles does not change the verdict
        tm, ct = catalog.tangent_cotangent_pair()
        assert check_bialgebroid(ct, tm).ok
        for L, Ls in (catalog.broken_dual_pair_point(), catalog.broken_dual_pair_chart()):
            assert check_bialgebroid(L, Ls).ok is check_bialgebroid(Ls, L).ok is False

    def test_broken_pairs_fail(self):
        for L, Ls in (
            catalog.broken_dual_pair_point(),
            catalog.broken_dual_pair_chart(),
            catalog.broken_dual_pair_so3(),
        ):
            assert check_algebroid(L).ok and check_algebroid(Ls).ok
            report = check_bialgebroid(L, Ls)
            assert not report.ok
            assert report.first_failure.witness


class TestChangeFrames:
    def test_sign_flip_preserves_axioms_and_inverts(self):
        ct = cotangent_algebroid(catalog.poisson_chart_xy())
        flip = [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]]
        changed = change_frames(ct, flip, ["m1", "m2"])
        assert check_algebroid(changed).ok
        back = change_frames(changed, flip, ct.frames)
        assert back.anchor == ct.anchor
        assert dense_structure(back) == dense_structure(ct)


class TestDegenerateCorners:
    def test_rank_zero_algebroid_supported(self):
        L = LieAlgebroid(XY, [], [], {})
        assert L.rank == 0
        assert check_algebroid(L).ok
        pois = dual_poisson(L)
        assert pois.chart == XY
        assert pois.is_poisson()

    def test_point_chart_tangent_is_trivial(self):
        pt = Chart([])
        tm0 = tangent_algebroid(pt)
        assert tm0.rank == 0
        assert check_algebroid(tm0).ok

    def test_zero_dim_chart_bialgebroid(self):
        from doublealg.liealg import LieAlgebra

        L = LieAlgebra(1, {})
        Ls = LieAlgebra(1, {}, ("d1",))
        assert check_bialgebroid(L, Ls).ok


class TestNonPoissonCotangentCandidate:
    def test_manual_assembly_fails_axioms_with_witness(self):
        # assembling the frame structure [dz^i, dz^j] = d(pi^ij) with anchor
        # pi# for a bivector violating [pi, pi] = 0 produces a structure
        # that fails the algebroid axioms
        chart = Chart(["x", "y", "z"])
        zero = Polynomial.zero(chart)
        entry = parse_polynomial("x + y^2", chart)
        zcoord = parse_polynomial("z", chart)
        matrix = [
            [zero, entry, zero],
            [-entry, zero, zcoord],
            [zero, -zcoord, zero],
        ]
        anchor = [[matrix[i][j] for j in range(3)] for i in range(3)]
        brackets = {}
        for i, j in itertools.combinations(range(3), 2):
            brackets[(i, j)] = tuple(matrix[i][j].partial(n) for n in chart.names)
        candidate = LieAlgebroid(chart, ("dx", "dy", "dz"), anchor, brackets)
        report = check_algebroid(candidate)
        assert not report.ok
        assert report.first_failure.witness


# --- the one-pass operators against the sums they replaced

XYZ = Chart(["x", "y", "z"])
ZERO = Polynomial.zero(XYZ)
# ints and proper fractions, as the canonical form stores them
coefficients = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(2, 6))
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=4
).map(lambda d: Polynomial(XYZ, d))
zero_or_polys = st.one_of(st.just(ZERO), polys)
fields = st.lists(zero_or_polys, min_size=3, max_size=3).map(lambda cs: VectorField(XYZ, cs))
algebroids = st.lists(
    st.lists(zero_or_polys, min_size=3, max_size=3), min_size=3, max_size=3
).map(lambda rows: LieAlgebroid(XYZ, ("e1", "e2", "e3"), rows))
sections = st.lists(zero_or_polys, min_size=3, max_size=3).map(
    lambda cs: Multisection.from_vector(3, cs)
)


def assert_canonical(p: Polynomial) -> None:
    """`p` is what the validating constructor makes of its own terms."""
    assert p.terms == Polynomial(p.chart, dict(p.terms)).terms
    for _, coeff in p.terms:
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)


class TestOnePassOperators:
    """`VectorField.apply` and the anchor sums `LieAlgebroid._anchor_sums`
    (read by `support.anchor_of`) accumulate in one pass; the sums of
    products they replaced (`support.applied`, `support.anchor_of_sum`)
    are the oracles."""

    @given(fields, zero_or_polys)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_apply_matches_the_sum_of_partials(self, field, f):
        got = field.apply(f)
        assert got == applied(field, f)
        assert_canonical(got)

    @given(algebroids, sections)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_anchor_of_matches_the_sum_of_scaled_anchors(self, L, x):
        got = anchor_of(L, x)
        assert got == anchor_of_sum(L, x)
        for comp in got.components:
            assert_canonical(comp)

    @given(fields, polys, algebroids)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_zero_operands_give_the_shared_zero(self, field, f, L):
        assert field.apply(ZERO) is ZERO
        assert zero_field(XYZ).apply(f) is ZERO
        zero_section = Multisection.zero(3, 1)
        assert anchor_of(L, zero_section) == anchor_of_sum(L, zero_section)
        assert all(c is ZERO for c in anchor_of(L, zero_section).components)

    def test_cancelling_terms_give_zero(self):
        field = VectorField(XYZ, [P("x", XYZ), P("-y", XYZ), ZERO])
        assert field.apply(P("x * y", XYZ)).is_zero
        rows = [[P("x", XYZ), ZERO, ZERO], [P("-1/2 * x", XYZ), ZERO, ZERO]]
        L = LieAlgebroid(XYZ, ("e1", "e2"), rows)
        assert anchor_of(L, L.section([P("1/2", XYZ), P("1", XYZ)])).is_zero

    @given(fields, polys, algebroids, sections)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_mismatched_charts_raise(self, field, f, L, x):
        other = Chart(["x", "y", "w"])
        with pytest.raises(ChartMismatch):
            field.apply(f.lift(Chart(["x", "y", "z", "w"])))
        with pytest.raises(ChartMismatch):
            field.apply(Polynomial.zero(other))
        moved = Multisection.from_vector(3, [Polynomial.constant(other, 1), *x.vector(XYZ)[1:]])
        with pytest.raises(ChartMismatch):
            anchor_of(L, moved)

"""Ring axioms, calculus rules and grammar round-trips for the exact core."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from doublealg import exact
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.algebroid import VectorField
from doublealg.exact import (
    EXPONENT_BITS,
    Chart,
    ChartMismatch,
    DegreeOverflow,
    Polynomial,
    UnknownCoordinate,
    format_rat,
    monomial_atoms,
    rat,
    signed_sum,
)
from doublealg.parsing import MAX_TOTAL_DEGREE, ParseError
from support import SO3, FractionPolynomial, TuplePolynomial, ladder_pair, parse_polynomial, rename, tuple_apply
from test_double_derived import count_calls

XY = Chart(["x", "y"])
POINT = Chart([])


def P(text, chart=XY):
    return parse_polynomial(text, chart)


coeffs = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 8)
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: Polynomial(XY, d))
scalars = st.one_of(st.integers(-3, 3), coeffs, st.sampled_from(["0", "3/4", "-2"]))
# the shared zero of the chart, a zero built apart, or a drawn polynomial
zero_or_polys = st.one_of(st.just(Polynomial.zero(XY)), st.just(Polynomial(XY, {})), polys)
# ints and proper fractions, as the canonical form stores them
mixed_coeffs = st.one_of(
    st.integers(-40, 40), st.builds(Fraction, st.integers(-40, 40), st.integers(2, 8))
)
mixed_polys = st.dictionaries(exponents, mixed_coeffs, max_size=5).map(lambda d: Polynomial(XY, d))
mixed_scalars = st.one_of(
    mixed_coeffs, st.sampled_from(["0", "3/4", "-2", "6/3", Fraction(4, 2), Fraction(2, 3)])
)


@st.composite
def cancelling_pairs(draw):
    """(p, q) where q shares some monomials of p with a coefficient that
    sums with p's to a small integer, zero included, as 1/2 + 1/2 or
    1/3 - 1/3 do."""
    p = draw(mixed_polys)
    q_terms = draw(st.dictionaries(exponents, mixed_coeffs, max_size=3))
    for exp, coeff in p.terms:
        if draw(st.booleans()):
            q_terms[exp] = draw(st.integers(-2, 2)) - coeff
    return p, Polynomial(XY, q_terms)


def brute_force_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """Independent oracle: expand by repeated distribution, one monomial at
    a time, accumulating with plain additions."""
    total = Polynomial.zero(p.chart)
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            exp = tuple(a + b for a, b in zip(e1, e2))
            total = total + Polynomial(p.chart, {exp: c1 * c2})
    return total


class TestRing:
    def test_difference_of_squares(self):
        assert P("x + 1") * P("x - 1") == P("x^2 - 1")

    def test_additive_identity(self):
        p = P("x^2 + 2 * x * y - 1/3")
        assert p + Polynomial.zero(XY) == p

    def test_square_of_sum_matches_distribution_oracle(self):
        p = P("x + y")
        expected = brute_force_product(p, p)
        assert p * p == expected
        assert p * p == P("x^2 + 2 * x * y + y^2")

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_oracle(self, p, q):
        assert p * q == brute_force_product(p, q)

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    def test_chart_mismatch_rejected(self):
        with pytest.raises(ChartMismatch):
            P("x") + parse_polynomial("x", Chart(["x"]))

    def test_no_zero_terms_stored(self):
        assert (P("x") - P("x")).terms == ()
        assert (P("x") - P("x")).is_zero


class TestPartial:
    def test_power_rule(self):
        assert P("x^2 * y").partial("x") == P("2 * x * y")

    def test_constant(self):
        assert P("5/7").partial("x").is_zero

    def test_unknown_coordinate(self):
        with pytest.raises(UnknownCoordinate):
            P("x").partial("z")

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_mixed_partials_commute(self, p):
        assert p.partial("x").partial("y") == p.partial("y").partial("x")

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_derivation_rule(self, p, q):
        lhs = (p * q).partial("x")
        assert lhs == p * q.partial("x") + q * p.partial("x")


class TestChartAndValues:
    def test_point_chart(self):
        c = Polynomial.constant(POINT, Fraction(3, 2))
        assert c * c == Polynomial.constant(POINT, Fraction(9, 4))
        assert str(c) == "3/2"

    def test_distinct_names_enforced(self):
        with pytest.raises(ValueError):
            Chart(["x", "x"])

    def test_lift_widens_the_chart(self):
        big = Chart(["x", "y", "z"])
        assert P("x * y + 2").lift(big) == P("x * y + 2", big)


def assert_canonical(r: Polynomial) -> None:
    """`r` stores what the validating constructor makes of its terms, keyed
    by packed exponents, and `terms` reads that map in printing order."""
    rebuilt = Polynomial(r.chart, dict(r.terms))
    assert rebuilt.chart == r.chart
    assert rebuilt.coeffs == r.coeffs
    assert all(type(e) is int for e in r.coeffs)
    for exp, coeff in r.terms:
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
        assert type(exp) is tuple and all(type(e) is int for e in exp)
    assert r.terms == tuple(sorted(r.terms, key=lambda t: (sum(t[0]), t[0]), reverse=True))


class TestRenameHelper:
    """The test helper that transports a polynomial to a renamed chart."""

    def test_merged_coordinates_add_up(self):
        z = Chart(["z"])
        assert rename(P("x + y"), z, {"x": "z", "y": "z"}) == P("2 * z", z)
        assert rename(P("x - y"), z, {"x": "z", "y": "z"}).is_zero

    def test_swap_and_widen(self):
        xyu = Chart(["x", "y", "u"])
        got = rename(P("x^2 * y + 3"), xyu, {"x": "y", "y": "u"})
        assert got == P("y^2 * u + 3", xyu)


class TestCanonicalResults:
    """Kernel results are built without re-validation; they must still be
    in the canonical form the public constructor produces."""

    @given(polys, polys, scalars, zero_or_polys)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_every_operation_returns_canonical_terms(self, p, q, c, z):
        results = [
            p + q,
            p + p.scale(-1),
            p - q,
            p - p,
            p - z,
            z - p,
            p * q,
            p * z,
            z * p,
            -p,
            p.scale(c),
            p.partial("x"),
            p.partial("y"),
            p.lift(Chart(["y", "t", "x"])),
        ]
        for result in results:
            assert_canonical(result)

    def test_constructors_are_canonical(self):
        for value in (0, 2, "5/3", Fraction(-1, 2)):
            assert_canonical(Polynomial.constant(XY, value))
        assert_canonical(Polynomial.coordinate(XY, "y"))
        assert_canonical(Polynomial.zero(POINT))

    def test_adding_zero_returns_the_other_operand(self):
        p = P("x * y - 2")
        zero = Polynomial.zero(XY)
        assert p + zero is p
        assert zero + p is p

    def test_subtracting_or_multiplying_by_zero_returns_an_operand(self):
        p = P("x * y - 2")
        zero = Polynomial.zero(XY)
        assert p - zero is p
        assert zero - p == -p
        assert p * zero is zero
        assert zero * p is zero

    @given(zero_or_polys, zero_or_polys)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_zero_operands_match_the_oracles(self, p, q):
        assert p - q == p + (-q)
        assert p * q == brute_force_product(p, q)

    def test_multiplying_by_one_returns_the_other_operand(self):
        p, zero = P("x * y - 2"), Polynomial.zero(XY)
        for one in (Polynomial.constant(XY, 1), P("1/2") * P("2"), Polynomial(XY, {(0, 0): Fraction(3, 3)})):
            assert one.terms == (((0, 0), 1),)
            assert p * one is p and one * p is p
            assert zero * one is zero and one * zero is zero
        assert P("-1") * p == -p and P("x") * p != p

    def test_multiplying_by_one_still_checks_the_chart(self):
        for other in (Chart(["x", "z"]), Chart(["y", "x"]), POINT):
            one = Polynomial.constant(other, 1)
            with pytest.raises(ChartMismatch, match="charts differ"):
                P("x") * one
            with pytest.raises(ChartMismatch, match="charts differ"):
                one * P("x")
            with pytest.raises(ChartMismatch, match="charts differ"):
                Polynomial.zero(XY) * one
        same_names = Polynomial.constant(Chart(["x", "y"]), 1)
        assert P("x") * same_names == P("x")

    @given(mixed_polys)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_unit_operands_match_the_oracle(self, p):
        one = Polynomial.constant(XY, 1)
        assert p * one == brute_force_product(p, one) == one * p


class TestIntegralCoefficients:
    """An integral coefficient is stored as an `int`, a proper fraction as
    a `Fraction`; the kernel agrees with a `Fraction`-only reference."""

    def test_rat_returns_an_int_for_an_integral_value(self):
        for value, expected in ((Fraction(4, 2), 2), ("6/3", 2), (3, 3), (True, 1), ("-0", 0)):
            got = rat(value)
            assert type(got) is int and got == expected
        assert rat("3/4") == Fraction(3, 4) and type(rat("-6/4")) is Fraction

    def test_fractions_summing_to_an_integer_leave_an_int(self):
        half = P("1/2 * x")
        assert (half + half).terms == (((1, 0), 1),)
        assert type((half + half).terms[0][1]) is int
        assert type((P("2/3 * y") * P("3/2 * x")).terms[0][1]) is int
        assert type(P("3/4 * x^2").partial("x").scale(Fraction(2, 3)).terms[0][1]) is int
        assert (half - half).is_zero
        assert str(half + half) == "x"

    def test_an_int_prints_compares_and_hashes_as_the_equal_fraction(self):
        for n in (-3, -1, 1, 7, 10**30):
            f = Fraction(n)
            assert n == f and hash(n) == hash(f) and (n > 0) == (f > 0)
            assert format_rat(n) == format_rat(f) and abs(n) == abs(f)
            assert signed_sum([(n, ["x"]), (n, [])]) == signed_sum([(f, ["x"]), (f, [])])
        assert Polynomial._from_terms(XY, {XY._pack((1, 0)): Fraction(2)}) == Polynomial(XY, {(1, 0): 2})

    @given(cancelling_pairs(), mixed_scalars)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_kernel_matches_the_fraction_reference(self, pq, c):
        p, q = pq
        fp, fq = FractionPolynomial.of(p), FractionPolynomial.of(q)
        big = Chart(["y", "t", "x"])
        pairs = [
            (p + q, fp + fq),
            (p - q, fp - fq),
            (q - p, fq - fp),
            (p - p, fp - fp),
            (p * q, fp * fq),
            (-p, -fp),
            (p.scale(c), fp.scale(c)),
            (q.scale(c), fq.scale(c)),
            (p.partial("x"), fp.partial("x")),
            ((p * q).partial("y"), (fp * fq).partial("y")),
            (p.lift(big), fp.lift(big.names)),
        ]
        for got, want in pairs:
            assert_canonical(got)
            assert want.matches(got)
            assert str(got) == str(want)


class TestSharedZero:
    """`Polynomial.zero(chart)` is built once per chart and kept on it."""

    def test_zero_is_shared(self):
        chart = Chart(["x", "y"])
        assert Polynomial.zero(chart) is Polynomial.zero(chart)
        assert Polynomial.constant(chart, 0) is Polynomial.zero(chart)

    def test_zeros_on_equal_charts_built_apart_are_equal(self):
        a, b = Chart(["x", "y"]), Chart(["x", "y"])
        assert a is not b
        za, zb = Polynomial.zero(a), Polynomial.zero(b)
        assert za is not zb
        assert za == zb and hash(za) == hash(zb)
        assert za == Polynomial(a, {}) and hash(za) == hash(Polynomial(b, {}))
        assert za != Polynomial.zero(Chart(["y", "x"]))

    def test_filling_the_zero_leaves_the_chart_unchanged(self):
        chart, twin = Chart(["x", "y"]), Chart(["x", "y"])
        before = (chart == twin, hash(chart), repr(chart))
        Polynomial.zero(chart)
        assert "_zero" in vars(chart) and "_zero" not in vars(twin)
        assert (chart == twin, hash(chart), repr(chart)) == before
        assert {chart: 1}[twin] == 1

    def test_shared_zero_keeps_its_chart_checks(self):
        with pytest.raises(ChartMismatch):
            Polynomial.zero(XY) - Polynomial.zero(POINT)
        with pytest.raises(ChartMismatch):
            P("x") * Polynomial.zero(POINT)
        with pytest.raises(ChartMismatch):
            Polynomial.zero(POINT) * P("x")


class TestValidatingBoundary:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(XY, {(1, -1): 1})

    def test_wrong_length_exponent_rejected(self):
        with pytest.raises(ValueError, match="does not fit chart"):
            Polynomial(XY, {(1,): 1})
        with pytest.raises(ValueError, match="does not fit chart"):
            Polynomial(XY, {(1, 0, 0): 1})

    def test_non_integer_exponent_rejected(self):
        for exp in ((1.5, 0), (1.0, 0), (True, 0), (0, Fraction(1)), (1, "2")):
            with pytest.raises(ValueError, match=re.escape(f"non-integer exponent in {exp}")):
                Polynomial(XY, {exp: 1})
        with pytest.raises(ValueError, match=re.escape("non-integer exponent in (1.5,)")):
            Polynomial(Chart(["x"]), {(1.5,): 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            Polynomial(XY, {(1, 0): 0.5})

    def test_equal_charts_built_apart_are_compatible(self):
        assert P("x") + P("y", Chart(["x", "y"])) == P("x + y")


class TestMapStore:
    """A polynomial is its chart and one map from exponent to coefficient,
    kept in the order its operation computed it; `terms` is that map in
    printing order, derived on first read."""

    @given(mixed_polys, mixed_polys, mixed_polys)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_operation_order_changes_no_value_hash_order_or_text(self, p, q, r):
        for a, b in ((p + q, q + p), ((p * q) * r, p * (q * r)), (p - q + q, p)):
            assert a == b and hash(a) == hash(b)
            for poly in (a, b):
                keys = [(sum(exp), exp) for exp, _ in poly.terms]
                assert keys == sorted(set(keys), reverse=True)
                assert Polynomial(XY, dict(poly.terms)).coeffs == poly.coeffs
                text = str(poly)
                assert parse_polynomial(text, XY) == poly and str(parse_polynomial(text, XY)) == text

    def test_maps_in_different_orders_are_one_polynomial(self):
        a, b = P("x") + P("y^2 + 1"), P("1 + y^2") + P("x")
        assert list(a.coeffs) != list(b.coeffs)
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a.terms == b.terms == (((0, 2), 1), ((1, 0), 1), ((0, 0), 1))
        assert str(a) == str(b) == "y^2 + x + 1"

    def test_a_passing_ladder_double_orders_no_terms(self, monkeypatch):
        """Only printing orders terms: a passing check prints no witness."""
        dla = build_cotangent_double(*ladder_pair(SO3))
        counts = count_calls(monkeypatch, ((exact, "_ordered"),))
        assert check_double(dla).ok
        assert counts["_ordered"] == 0
        assert str(P("x") * P("y + 1")) == "x * y + x" and counts["_ordered"] == 1


class TestPackedExponents:
    """A packed exponent holds [total degree | e_1 | ... | e_n] in fields of
    EXPONENT_BITS bits; every degree-raising operation refuses a result of
    total degree 2^EXPONENT_BITS, where the fields would carry."""

    TOP = 1 << EXPONENT_BITS

    def test_the_layout_puts_the_degree_above_the_first_coordinate(self):
        xyz = Chart(["x", "y", "z"])
        w = EXPONENT_BITS
        assert xyz._pack((3, 0, 2)) == (5 << 3 * w) | (3 << 2 * w) | 2
        assert xyz._unpack(xyz._pack((3, 0, 2))) == (3, 0, 2)
        assert POINT._pack(()) == 0 and POINT._unpack(0) == ()
        assert P("x^2 * y + 1").lift(xyz).coeffs == {xyz._pack((2, 1, 0)): 1, 0: 1}

    def test_the_constructor_refuses_a_degree_past_the_fields(self):
        top = self.TOP
        assert Polynomial(XY, {(top - 2, 1): 1}).terms == (((top - 2, 1), 1),)
        for exp in ((top, 0), (top - 1, 1), (0, 3 * top)):
            with pytest.raises(DegreeOverflow, match=f"total degree 2\\^{EXPONENT_BITS}"):
                Polynomial(XY, {exp: 1})

    def test_a_product_past_the_fields_raises(self):
        half = Polynomial(XY, {(self.TOP // 2, 0): 1})
        below = Polynomial(XY, {(self.TOP // 2 - 1, 0): 1, (0, 1): 3})
        assert (half * below).terms == (((self.TOP - 1, 0), 1), ((self.TOP // 2, 1), 3))
        with pytest.raises(DegreeOverflow):
            half * half
        with pytest.raises(DegreeOverflow):
            Polynomial(XY, {(0, 1): 2, (1, 0): 1}) * Polynomial(XY, {(0, self.TOP - 1): 1})

    def test_a_vector_field_past_the_fields_raises(self):
        high = Polynomial(XY, {(0, self.TOP - 1): 1})
        field = VectorField(XY, [high, Polynomial.zero(XY)])
        assert field.apply(P("x")) == high
        with pytest.raises(DegreeOverflow):
            field.apply(P("x^2"))


CHARTS = [Chart([f"x{i}" for i in range(n)]) for n in (*range(9), 128)]


@st.composite
def tuple_kernel_cases(draw):
    """A chart of dimension 0-8 or 128 and a few term maps on it, keyed by
    sparse exponent tuples with small and large entries, with `int` and
    `Fraction` coefficients; terms that land on one exponent keep the last."""
    chart = draw(st.sampled_from(CHARTS))
    n = chart.dim
    power = st.one_of(st.integers(0, 3), st.integers(0, 5000))
    exponent = st.dictionaries(st.integers(0, n - 1), power, max_size=min(n, 3)) if n else st.just({})
    coeff = st.one_of(
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
        st.just(10**40),
    )
    terms = st.lists(st.tuples(exponent, coeff), max_size=4).map(
        lambda pairs: {tuple(e.get(i, 0) for i in range(n)): c for e, c in pairs}
    )
    return chart, [draw(terms) for _ in range(3 + n % 2)]


class TestTupleKernelOracle:
    """The packed kernel against the tuple kernel it replaced, operation by
    operation: the same terms in the same order, the same text, and `==`
    and `hash` that agree with the oracle's."""

    @staticmethod
    def assert_same(p: Polynomial, t: TuplePolynomial) -> None:
        assert p.chart == t.chart
        assert p.terms == t.terms
        assert [type(c) for _, c in p.terms] == [type(c) for _, c in t.terms]
        assert str(p) == str(t)
        assert Polynomial(p.chart, dict(p.terms)) == p

    @given(tuple_kernel_cases(), st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_operation_matches_the_tuple_kernel(self, case, c):
        chart, maps = case
        polys = [Polynomial(chart, m) for m in maps]
        tuples = [TuplePolynomial.of(chart, m) for m in maps]
        (p, q, *rest), (tp, tq, *trest) = polys, tuples
        for got, want in zip(polys, tuples):
            self.assert_same(got, want)
        self.assert_same(p + q, tp + tq)
        self.assert_same(p - q, tp - tq)
        self.assert_same(-p, -tp)
        self.assert_same(p * q, tp * tq)
        self.assert_same(p * q * rest[0], tp * tq * trest[0])
        self.assert_same(p.scale(c), tp.scale(c))
        for name in chart.names[:3] + chart.names[-2:]:
            self.assert_same(q.partial(name), tq.partial(name))
        wider = chart.extend(["u", "v"])
        self.assert_same(p.lift(wider), tp.lift(wider))
        shuffled = Chart(("u",) + chart.names[::-1])
        self.assert_same(p.lift(shuffled), tp.lift(shuffled))
        components = (polys + polys)[: chart.dim]
        field = VectorField(chart, components + [Polynomial.zero(chart)] * (chart.dim - len(components)))
        oracle = (tuples + tuples)[: chart.dim] + [TuplePolynomial(chart, {})] * (chart.dim - len(components))
        self.assert_same(field.apply(q), tuple_apply(oracle, tq))
        for a, ta in ((p, tp), (q, tq), (p + q - q, tp + tq - tq), (q * p, tq * tp)):
            for b, tb in ((p, tp), (q, tq), (q + p, tq + tp)):
                assert (a == b) == (ta == tb)
                if a == b:
                    assert hash(a) == hash(b)
        assert hash(p + q - q) == hash(p) and hash(Polynomial(chart, maps[0])) == hash(p)


class TestGrammar:
    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_print_parse_roundtrip(self, p):
        assert parse_polynomial(str(p), XY) == p

    def test_parse_print_roundtrip_on_canonical_text(self):
        for text in ("x^2 + 2 * x * y + y^2", "3/4 * x - 1", "0", "x", "-x + 1/2"):
            assert str(parse_polynomial(text, XY)) == text

    def test_zero(self):
        assert parse_polynomial("0", XY).is_zero
        assert str(Polynomial.zero(XY)) == "0"

    def test_huge_power_parses_without_repeated_multiplication(self, monkeypatch):
        """A power at the total-degree bound is one monomial: the parser adds
        exponents and multiplies no polynomial.  One degree more is refused
        by name."""
        counts = count_calls(monkeypatch, ((Polynomial, "__mul__"),))
        start = time.perf_counter()
        got = parse_polynomial(f"x^{MAX_TOTAL_DEGREE}", XY)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parsing took {elapsed:.3f}s, budget 1.0s"
        assert got == Polynomial(XY, {(MAX_TOTAL_DEGREE, 0): 1})
        assert counts["__mul__"] == 0
        for text in (f"x^{MAX_TOTAL_DEGREE + 1}", f"x^{MAX_TOTAL_DEGREE} * y", f"y * x^{MAX_TOTAL_DEGREE}"):
            with pytest.raises(ValueError, match=f"^a monomial has total degree above {MAX_TOTAL_DEGREE}$"):
                parse_polynomial(text, XY)

    def test_powers_build_the_monomial(self):
        assert P("3 * x^2 * y^0 * y") == Polynomial(XY, {(2, 1): 3})
        assert P("x^0") == Polynomial.constant(XY, 1)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + * y", XY)
        with pytest.raises(ParseError):
            parse_polynomial("q + 1", XY)
        with pytest.raises(ParseError):
            parse_polynomial("x ^ y", XY)


class TestSignedSum:
    def test_grammar_example(self):
        terms = [(Fraction(1), ["a"]), (Fraction(-2), ["b"]), (Fraction(3, 2), ["x^2", "c"])]
        assert signed_sum(terms) == "a - 2 * b + 3/2 * x^2 * c"

    def test_unit_coefficient_kept_only_without_atoms(self):
        assert signed_sum([(Fraction(-1), ["a"]), (Fraction(1), [])]) == "-a + 1"
        assert signed_sum([(Fraction(-1), [])]) == "-1"

    def test_zero_terms_skipped_and_empty_sum(self):
        assert signed_sum([]) == "0"
        assert signed_sum([(Fraction(0), ["a"]), (Fraction(-3), ["b"])]) == "-3 * b"

    def test_monomial_atoms(self):
        assert monomial_atoms(XY, (2, 1)) == ["x^2", "y"]
        assert monomial_atoms(XY, (0, 0)) == []

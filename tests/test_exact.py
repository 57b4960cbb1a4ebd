"""Ring axioms, calculus rules and grammar round-trips for the exact core."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from doublealg.exact import (
    Chart,
    ChartMismatch,
    Polynomial,
    UnknownCoordinate,
    monomial_atoms,
    signed_sum,
)
from doublealg.parsing import ParseError
from support import parse_polynomial, rename

XY = Chart(["x", "y"])
POINT = Chart([])


def P(text, chart=XY):
    return parse_polynomial(text, chart)


coeffs = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 8)
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: Polynomial(XY, d))
# degree <= 1 in y, the domain of `coefficient_of("y")`
linear_in_y = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 1)), coeffs, max_size=5
).map(lambda d: Polynomial(XY, d))
scalars = st.one_of(st.integers(-3, 3), coeffs, st.sampled_from(["0", "3/4", "-2"]))
# the shared zero of the chart, a zero built apart, or a drawn polynomial
zero_or_polys = st.one_of(st.just(Polynomial.zero(XY)), st.just(Polynomial(XY, {})), polys)


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

    def test_lift_restrict_roundtrip(self):
        big = Chart(["x", "y", "z"])
        p = P("x * y + 2")
        lifted = p.lift(big)
        assert lifted.restrict(XY) == p
        with pytest.raises(ValueError):
            parse_polynomial("z", big).restrict(XY)

    def test_coefficient_of(self):
        p = P("2 * x * y + y + 3")
        assert p.coefficient_of("x") == P("2 * y")
        with pytest.raises(ValueError):
            P("x^2").coefficient_of("x")


def assert_canonical(r: Polynomial) -> None:
    """`r` is what the validating constructor makes of its own terms."""
    rebuilt = Polynomial(r.chart, dict(r.terms))
    assert rebuilt.chart == r.chart
    assert rebuilt.terms == r.terms
    for exp, coeff in r.terms:
        assert type(coeff) is Fraction and coeff != 0
        assert type(exp) is tuple and all(type(e) is int for e in exp)


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

    @given(polys, polys, linear_in_y, scalars, zero_or_polys)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_every_operation_returns_canonical_terms(self, p, q, r, c, z):
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
            r.coefficient_of("y"),
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

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            Polynomial(XY, {(1, 0): 0.5})

    def test_equal_charts_built_apart_are_compatible(self):
        assert P("x") + P("y", Chart(["x", "y"])) == P("x + y")


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

    def test_huge_power_parses_without_repeated_multiplication(self):
        start = time.perf_counter()
        got = parse_polynomial("x^99999999", XY)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"parsing took {elapsed:.3f}s, budget 1.0s"
        assert got == Polynomial(XY, {(99999999, 0): 1})

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

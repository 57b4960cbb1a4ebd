"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every coefficient in this package is an exact rational: an `int` when its
value is integral and a `fractions.Fraction` with denominator greater than 1
otherwise.  Nothing is ever rounded, so equality of canonical forms is
decidable and all axiom checks downstream are exact; integral models never
leave `int` arithmetic.

A polynomial lives on a `Chart` (an ordered tuple of coordinate names, possibly
empty for a point base) and is stored sparsely:

    terms: Tuple[Tuple[Tuple[int, ...], Coefficient], ...]

pairs of an exponent tuple (one entry per chart coordinate) and a nonzero
coefficient (an `int`, or a `Fraction` whose denominator exceeds 1), in
canonical order: descending (total degree, exponent tuple).
The zero polynomial has no terms.  Printing follows the same order, and the
text grammar round-trips bit-exactly with the parser in `parsing`.

`Polynomial(chart, terms)` validates its input; the kernel's own results
are built by `Polynomial._from_terms`, which trusts them and only drops
zero coefficients, turns an integral `Fraction` into its numerator and
sorts, or, where an operation keeps its operand's order (negation and
nonzero scaling), by `Polynomial._from_canonical`, which does not sort.
Each chart holds one shared zero polynomial and one name -> position map,
and the ring operations return an operand unchanged where the result
equals it (adding or subtracting zero, multiplying by zero or by the
constant 1, negating zero).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]
Coefficient = int | Fraction


class ChartMismatch(ValueError):
    """Raised when operands live on different charts."""


class UnknownCoordinate(KeyError):
    """Raised when a coordinate name is not part of a chart."""


def rat(value) -> Coefficient:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational
    in canonical form: an `int` when the value is integral, else a
    `Fraction` with denominator greater than 1."""
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rat(value: Coefficient) -> str:
    """Print a rational as `p` or `p/q`.  A numerator or denominator past
    Python's int -> str digit limit is a `ValueError` naming that limit."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a number in the report has more than {limit} digits") from None


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system x^1..x^n; n = 0 is a point base."""

    names: Tuple[str, ...]

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"chart coordinates not distinct: {names}")
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownCoordinate(f"{name!r} not in chart {self.names}") from None

    def extend(self, extra: Iterable[str]) -> "Chart":
        """Adjoin fibre coordinates; duplicates raise."""
        return Chart(self.names + tuple(extra))

    @functools.cached_property
    def _positions(self) -> Dict[str, int]:
        """Each coordinate's position, built once per chart; like `_zero`,
        it stays out of `==`, `hash` and `repr`."""
        return {name: i for i, name in enumerate(self.names)}

    @functools.cached_property
    def _zero(self) -> "Polynomial":
        """The zero polynomial of `Polynomial.zero`, built once per chart.

        A cached property is not a dataclass field, so it stays out of
        `==`, `hash` and `repr`."""
        return Polynomial._from_terms(self, {})

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.names)})"


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial on a chart with exact rational coefficients.

    Immutable; all operations return new values.  Two polynomials are equal
    iff their charts and term maps are equal: canonical form stores no zero
    coefficient, and each coefficient is an `int` when integral and a
    `Fraction` with denominator greater than 1 otherwise.
    """

    chart: Chart
    terms: Tuple[Tuple[Exponent, Coefficient], ...]

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Coefficient] | None = None):
        object.__setattr__(self, "chart", chart)
        cleaned = {}
        if terms:
            n = chart.dim
            for exp, coeff in terms.items():
                coeff = rat(coeff)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} does not fit chart of dim {n}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if coeff != 0:
                    cleaned[tuple(exp)] = coeff
        object.__setattr__(self, "terms", _canonical(list(cleaned.items())))

    @classmethod
    def _from_terms(cls, chart: Chart, acc: Mapping[Exponent, Coefficient]) -> "Polynomial":
        """Trusted constructor for results of the operations below.

        `acc` must map exponent tuples of the chart's length with no
        negative entry to `int`s and `Fraction`s; zero coefficients are
        dropped and a `Fraction` with denominator 1, as in 1/2 + 1/2, is
        replaced by its numerator.  Input from outside the kernel goes
        through `Polynomial(chart, terms)`.
        """
        terms = [
            (e, c.numerator) if type(c) is Fraction and c.denominator == 1 else (e, c)
            for e, c in acc.items()
            if c
        ]
        return cls._from_canonical(chart, _canonical(terms))

    @classmethod
    def _from_canonical(
        cls, chart: Chart, terms: Tuple[Tuple[Exponent, Coefficient], ...]
    ) -> "Polynomial":
        """Trusted constructor for terms already in canonical form and order,
        as `-p` and a nonzero multiple of `p` keep those of `p`."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "chart", chart)
        object.__setattr__(poly, "terms", terms)
        return poly

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Polynomial":
        return chart._zero

    @staticmethod
    def constant(chart: Chart, value) -> "Polynomial":
        c = rat(value)
        if c == 0:
            return Polynomial.zero(chart)
        return Polynomial._from_terms(chart, {(0,) * chart.dim: c})

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Polynomial":
        i = chart.index(name)
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        return Polynomial._from_terms(chart, {exp: 1})

    # --- ring structure -----------------------------------------------

    def _require_same_chart(self, other: "Polynomial") -> None:
        # `names` is a chart's only field: one tuple comparison decides `==`
        if self.chart is not other.chart and self.chart.names != other.chart.names:
            raise ChartMismatch(f"charts differ: {self.chart} vs {other.chart}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc: Dict[Exponent, Coefficient] = dict(self.terms)
        for exp, coeff in other.terms:
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
        return Polynomial._from_terms(self.chart, acc)

    def __neg__(self) -> "Polynomial":
        if not self.terms:
            return self
        return Polynomial._from_canonical(self.chart, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not other.terms:
            return self
        acc: Dict[Exponent, Coefficient] = dict(self.terms)
        for exp, coeff in other.terms:
            acc[exp] = acc[exp] - coeff if exp in acc else -coeff
        return Polynomial._from_terms(self.chart, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not self.terms or _is_one(other.terms):
            return self
        if not other.terms or _is_one(self.terms):
            return other
        acc: Dict[Exponent, Coefficient] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(map(add, e1, e2))
                acc[exp] = acc[exp] + c1 * c2 if exp in acc else c1 * c2
        return Polynomial._from_terms(self.chart, acc)

    def scale(self, value) -> "Polynomial":
        c = rat(value)
        if not c or not self.terms:
            return self.chart._zero
        terms = []
        for e, k in self.terms:
            v = c * k
            terms.append((e, v.numerator if type(v) is Fraction and v.denominator == 1 else v))
        return Polynomial._from_canonical(self.chart, tuple(terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # --- calculus -----------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to a chart coordinate."""
        i = self.chart.index(name)
        acc: Dict[Exponent, Coefficient] = {}
        for exp, coeff in self.terms:
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            acc[tuple(new)] = coeff * exp[i]
        return Polynomial._from_terms(self.chart, acc)

    def lift(self, target: Chart) -> "Polynomial":
        """Reinterpret on a chart containing this chart's coordinates."""
        if not self.terms:
            return target._zero
        index = [target.index(name) for name in self.chart.names]
        acc: Dict[Exponent, Coefficient] = {}
        for exp, coeff in self.terms:
            new = [0] * target.dim
            for j, power in zip(index, exp):
                new[j] = power
            acc[tuple(new)] = coeff
        return Polynomial._from_terms(target, acc)

    # --- printing -------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((coeff, monomial_atoms(self.chart, exp)) for exp, coeff in self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _is_one(terms: Tuple[Tuple[Exponent, Coefficient], ...]) -> bool:
    """Whether `terms` are those of the constant polynomial 1."""
    return len(terms) == 1 and terms[0][1] == 1 and not any(terms[0][0])


def _term_key(item: Tuple[Exponent, Coefficient]):
    exp, _ = item
    return (sum(exp), exp)


def _canonical(terms: List[Tuple[Exponent, Coefficient]]) -> Tuple[Tuple[Exponent, Coefficient], ...]:
    """`terms`, sorted in place by descending (total degree, exponent tuple)."""
    if len(terms) > 1:
        terms.sort(key=_term_key, reverse=True)
    return tuple(terms)


def monomial_atoms(chart: Chart, exp: Exponent) -> List[str]:
    """The factors `x` and `x^k` of one monomial, in chart order."""
    return [
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(chart.names, exp)
        if power
    ]


def signed_sum(terms: Iterable[Tuple[Coefficient, Sequence[str]]]) -> str:
    """Render (coefficient, atoms) pairs in the text grammar, as in
    `a - 2 * b + 3/2 * x^2 * c`.

    Zero coefficients are skipped and a unit coefficient is dropped unless
    the term has no atoms; the empty sum is `0`.
    """
    out = []
    for coeff, atoms in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = " * ".join(([format_rat(mag)] if mag != 1 or not atoms else []) + list(atoms))
        if out:
            out.append(f" + {body}" if coeff > 0 else f" - {body}")
        else:
            out.append(body if coeff > 0 else f"-{body}")
    return "".join(out) or "0"


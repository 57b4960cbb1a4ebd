"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every coefficient in this package is an exact rational: an `int` when its
value is integral and a `fractions.Fraction` with denominator greater than 1
otherwise.  Nothing is ever rounded, so equality of canonical forms is
decidable and all axiom checks downstream are exact; integral models never
leave `int` arithmetic.

A polynomial lives on a `Chart` (an ordered tuple of coordinate names, possibly
empty for a point base) and is stored sparsely as one map

    coeffs: Dict[Tuple[int, ...], Coefficient]

from an exponent tuple (one entry per chart coordinate) to a nonzero
coefficient (an `int`, or a `Fraction` whose denominator exceeds 1).  The
zero polynomial has the empty map.  No kernel operation sorts: the map
keeps the order in which its result was computed, and `==` and `hash` do
not read that order.  `terms`, the same pairs in printing order, descending
(total degree, exponent tuple), is derived once, on first read, by
`_ordered`; the printers read it, and the text grammar round-trips
bit-exactly with the parser in `parsing`.

`Polynomial(chart, terms)` validates its input; the kernel's own results
are built by `Polynomial._from_terms`, which trusts them and only drops
zero coefficients and turns an integral `Fraction` into its numerator, or,
where an operation builds a map already in canonical form (negation,
nonzero scaling, lifting), by `Polynomial._from_canonical`, which keeps
that map as the store.
Each chart holds one shared zero polynomial, which every zero result of
`_from_terms` is, and one name -> position map, and the ring operations
return an operand unchanged where the result equals it (adding or
subtracting zero, multiplying by zero or by the constant 1, negating
zero).
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
        return Polynomial._from_canonical(self, {})

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.names)})"


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial on a chart with exact rational coefficients.

    Immutable; all operations return new values.  Two polynomials are equal
    iff their charts and coefficient maps are equal: canonical form stores
    no zero coefficient, and each coefficient is an `int` when integral and
    a `Fraction` with denominator greater than 1 otherwise.  `coeffs` is
    shared with no other polynomial and never mutated.
    """

    chart: Chart
    coeffs: Dict[Exponent, Coefficient]

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Coefficient] | None = None):
        object.__setattr__(self, "chart", chart)
        cleaned = {}
        if terms:
            n = chart.dim
            for exp, coeff in terms.items():
                coeff = rat(coeff)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} does not fit chart of dim {n}")
                if any(type(e) is not int for e in exp):
                    raise ValueError(f"non-integer exponent in {exp}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if coeff != 0:
                    cleaned[tuple(exp)] = coeff
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _from_terms(cls, chart: Chart, acc: Mapping[Exponent, Coefficient]) -> "Polynomial":
        """Trusted constructor for results of the operations below.

        `acc` must map exponent tuples of the chart's length with no
        negative entry to `int`s and `Fraction`s; zero coefficients are
        dropped and a `Fraction` with denominator 1, as in 1/2 + 1/2, is
        replaced by its numerator.  `acc` itself is not kept, and a zero
        result is the chart's shared zero.  Input from outside the kernel
        goes through `Polynomial(chart, terms)`.
        """
        coeffs = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in acc.items()
            if c
        }
        return cls._from_canonical(chart, coeffs) if coeffs else chart._zero

    @classmethod
    def _from_canonical(cls, chart: Chart, coeffs: Dict[Exponent, Coefficient]) -> "Polynomial":
        """Trusted constructor that keeps `coeffs` as the store: a fresh map
        already in canonical form, as `-p` and `p.lift(chart)` build from
        that of `p`."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "chart", chart)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.coeffs.items())))

    @functools.cached_property
    def terms(self) -> Tuple[Tuple[Exponent, Coefficient], ...]:
        """The (exponent, coefficient) pairs in printing order, descending
        (total degree, exponent tuple), derived on first read.  Like
        `Chart._zero`, a cached property stays out of `==`, `hash` and
        `repr`."""
        return _ordered(self.coeffs)

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Polynomial":
        return chart._zero

    @staticmethod
    def constant(chart: Chart, value) -> "Polynomial":
        c = rat(value)
        if c == 0:
            return Polynomial.zero(chart)
        return Polynomial._from_canonical(chart, {(0,) * chart.dim: c})

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Polynomial":
        i = chart.index(name)
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        return Polynomial._from_canonical(chart, {exp: 1})

    # --- ring structure -----------------------------------------------

    def _require_same_chart(self, other: "Polynomial") -> None:
        # `names` is a chart's only field: one tuple comparison decides `==`
        if self.chart is not other.chart and self.chart.names != other.chart.names:
            raise ChartMismatch(f"charts differ: {self.chart} vs {other.chart}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        acc = self.coeffs.copy()
        get = acc.get
        for exp, coeff in other.coeffs.items():
            acc[exp] = get(exp, 0) + coeff
        return Polynomial._from_terms(self.chart, acc)

    def __neg__(self) -> "Polynomial":
        if not self.coeffs:
            return self
        return Polynomial._from_canonical(self.chart, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not other.coeffs:
            return self
        acc = self.coeffs.copy()
        get = acc.get
        for exp, coeff in other.coeffs.items():
            acc[exp] = get(exp, 0) - coeff
        return Polynomial._from_terms(self.chart, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_chart(other)
        if not self.coeffs or _is_one(other.coeffs):
            return self
        if not other.coeffs or _is_one(self.coeffs):
            return other
        acc: Dict[Exponent, Coefficient] = {}
        get = acc.get
        right = other.coeffs.items()
        for e1, c1 in self.coeffs.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + c1 * c2
        return Polynomial._from_terms(self.chart, acc)

    def scale(self, value) -> "Polynomial":
        c = rat(value)
        if not c or not self.coeffs:
            return self.chart._zero
        coeffs: Dict[Exponent, Coefficient] = {}
        for e, k in self.coeffs.items():
            v = c * k
            coeffs[e] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        return Polynomial._from_canonical(self.chart, coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # --- calculus -----------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to a chart coordinate."""
        i = self.chart.index(name)
        acc: Dict[Exponent, Coefficient] = {}
        for exp, coeff in self.coeffs.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            acc[tuple(new)] = coeff * exp[i]
        return Polynomial._from_terms(self.chart, acc)

    def lift(self, target: Chart) -> "Polynomial":
        """Reinterpret on a chart containing this chart's coordinates."""
        if not self.coeffs:
            return target._zero
        index = [target.index(name) for name in self.chart.names]
        coeffs: Dict[Exponent, Coefficient] = {}
        for exp, coeff in self.coeffs.items():
            new = [0] * target.dim
            for j, power in zip(index, exp):
                new[j] = power
            coeffs[tuple(new)] = coeff
        return Polynomial._from_canonical(target, coeffs)

    # --- printing -------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((coeff, monomial_atoms(self.chart, exp)) for exp, coeff in self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _is_one(coeffs: Dict[Exponent, Coefficient]) -> bool:
    """Whether `coeffs` are those of the constant polynomial 1."""
    if len(coeffs) != 1:
        return False
    ((exp, coeff),) = coeffs.items()
    return coeff == 1 and not any(exp)


def _term_key(item: Tuple[Exponent, Coefficient]):
    exp, _ = item
    return (sum(exp), exp)


def _ordered(coeffs: Dict[Exponent, Coefficient]) -> Tuple[Tuple[Exponent, Coefficient], ...]:
    """The items of `coeffs` in printing order: descending (total degree,
    exponent tuple).  The one place the kernel orders terms."""
    return tuple(sorted(coeffs.items(), key=_term_key, reverse=True))


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


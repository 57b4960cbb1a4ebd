"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every coefficient in this package is an exact rational: an `int` when its
value is integral and a `fractions.Fraction` with denominator greater than 1
otherwise.  Nothing is ever rounded, so equality of canonical forms is
decidable and all axiom checks downstream are exact; integral models never
leave `int` arithmetic.

A polynomial lives on a `Chart` (an ordered tuple of coordinate names, possibly
empty for a point base) and is stored sparsely as one map

    coeffs: Dict[int, Coefficient]

from a packed exponent to a nonzero coefficient (an `int`, or a `Fraction`
whose denominator exceeds 1).  A packed exponent is one int holding the
fields [total degree | e_1 | ... | e_n] of `EXPONENT_BITS` bits each, e_1
the most significant coordinate (Monagan & Pearce, CASC 2007; the packed
monomials of FLINT's `fmpz_mpoly`).  Multiplying two monomials adds their
ints, a partial derivative by x_i subtracts the chart's unit of x_i (one
in field i and in the degree field), and lifting to a `Chart.extend` of the
chart is a left shift.  No field exceeds the total degree, so one
comparison of a result against `Chart._limit` (total degree 2^W) guards
every field: each operation that raises a degree makes it and raises
`DegreeOverflow`.  The parser bounds a model's degrees far below that
limit (`parsing.MAX_TOTAL_DEGREE`).

The zero polynomial has the empty map.  No kernel operation sorts: the map
keeps the order in which its result was computed, and `==` and `hash` do
not read that order.  Descending int order of packed exponents is printing
order, descending (total degree, exponent tuple); `terms`, the pairs with
exponents unpacked to tuples in that order, is derived once, on first read,
by `_ordered`; the printers read it, and the text grammar round-trips
bit-exactly with the parser in `parsing`.

`Polynomial(chart, terms)` validates its input, keyed by exponent tuples;
the kernel's own results are built by `Polynomial._from_terms`, which
trusts them and only drops zero coefficients and turns an integral
`Fraction` into its numerator, or, where an operation builds a map already
in canonical form (negation, nonzero scaling, lifting), by
`Polynomial._from_canonical`, which keeps that map as the store.
Each chart's constructor builds its name -> position map, its packing
layout and one shared zero polynomial, which every zero result of
`_from_terms` is.  The ring operations return an operand unchanged where
the result equals it (adding or subtracting zero, multiplying by zero or
by the constant 1, negating zero).
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]
Coefficient = int | Fraction

# Bits of each field of a packed exponent, the width of `struct`'s "H", in
# which a chart writes its fields to pack and unpack; a monomial's total
# degree stays below 2^EXPONENT_BITS.
EXPONENT_BITS = 16
_MASK = (1 << EXPONENT_BITS) - 1
# the coefficients of the constant 1 on any chart: its exponent packs to 0
_ONE = {0: 1}


class ChartMismatch(ValueError):
    """Raised when operands live on different charts."""


class UnknownCoordinate(KeyError):
    """Raised when a coordinate name is not part of a chart."""


class DegreeOverflow(ValueError):
    """Raised when a monomial's total degree reaches 2^EXPONENT_BITS, where
    the fields of a packed exponent would carry into each other."""

    def __init__(self) -> None:
        super().__init__(
            f"a monomial reached total degree 2^{EXPONENT_BITS}, the limit of the exponent kernel"
        )


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
        n = len(names)
        shifts = tuple(EXPONENT_BITS * (n - 1 - i) for i in range(n))
        degree = 1 << EXPONENT_BITS * n
        object.__setattr__(self, "names", names)
        # The packing layout and the shared zero, built once per chart.  No
        # attribute but `names` is a dataclass field, so they stay out of
        # `==`, `hash` and `repr`.
        object.__setattr__(self, "_positions", {name: i for i, name in enumerate(names)})
        # the bit offset of each coordinate's field in a packed exponent;
        # the total degree sits above them all, at `EXPONENT_BITS * n`
        object.__setattr__(self, "_shifts", shifts)
        # the packed exponent of each coordinate x_i: one in field i and in
        # the degree field
        object.__setattr__(self, "_units", tuple((1 << shift) + degree for shift in shifts))
        # the least packed exponent of total degree 2^EXPONENT_BITS
        object.__setattr__(self, "_limit", degree << EXPONENT_BITS)
        # the coordinate fields e_1 .. e_n of a packed exponent as bytes,
        # each unsigned and big-endian
        object.__setattr__(self, "_fields", struct.Struct(f">{n}H"))
        # the zero polynomial of `Polynomial.zero`
        object.__setattr__(self, "_zero", Polynomial._from_canonical(self, {}))

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

    def _pack(self, exp: Exponent) -> int:
        """The packed form of an exponent tuple of total degree below
        2^EXPONENT_BITS."""
        return sum(exp) << EXPONENT_BITS * self.dim | int.from_bytes(self._fields.pack(*exp), "big")

    def _unpack(self, packed: int) -> Exponent:
        """The exponent tuple of a packed exponent, read past the two bytes
        of its total degree."""
        fields = self._fields
        return fields.unpack_from(packed.to_bytes(fields.size + 2, "big"), 2)

    def __repr__(self) -> str:
        return f"Chart({', '.join(self.names)})"


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial on a chart with exact rational coefficients.

    Immutable; all operations return new values.  Two polynomials are equal
    iff their charts and coefficient maps are equal: canonical form stores
    no zero coefficient, and each coefficient is an `int` when integral and
    a `Fraction` with denominator greater than 1 otherwise.  `coeffs`, keyed
    by packed exponents, is shared with no other polynomial and never
    mutated.
    """

    chart: Chart
    coeffs: Dict[int, Coefficient]

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
                if sum(exp) > _MASK:
                    raise DegreeOverflow
                if coeff != 0:
                    cleaned[chart._pack(exp)] = coeff
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _from_terms(cls, chart: Chart, acc: Mapping[int, Coefficient]) -> "Polynomial":
        """Trusted constructor for results of the operations below.

        `acc` must map packed exponents of the chart below `chart._limit`
        to `int`s and `Fraction`s; zero coefficients are
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
    def _from_canonical(cls, chart: Chart, coeffs: Dict[int, Coefficient]) -> "Polynomial":
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
        (total degree, exponent tuple), derived on first read, since only
        the printers read it.  A cached property is not a dataclass field,
        so it stays out of `==`, `hash` and `repr`."""
        return _ordered(self.chart, self.coeffs)

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Polynomial":
        return chart._zero

    @staticmethod
    def constant(chart: Chart, value) -> "Polynomial":
        c = rat(value)
        if c == 0:
            return Polynomial.zero(chart)
        return Polynomial._from_canonical(chart, {0: c})

    @staticmethod
    def coordinate(chart: Chart, name: str) -> "Polynomial":
        return Polynomial._from_canonical(chart, {chart._units[chart.index(name)]: 1})

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
        if not self.coeffs or other.coeffs == _ONE:
            return self
        if not other.coeffs or self.coeffs == _ONE:
            return other
        acc: Dict[int, Coefficient] = {}
        get = acc.get
        limit = self.chart._limit
        right = other.coeffs.items()
        for e1, c1 in self.coeffs.items():
            for e2, c2 in right:
                exp = e1 + e2
                if exp >= limit:
                    raise DegreeOverflow
                acc[exp] = get(exp, 0) + c1 * c2
        return Polynomial._from_terms(self.chart, acc)

    def scale(self, value) -> "Polynomial":
        c = rat(value)
        if not c or not self.coeffs:
            return self.chart._zero
        coeffs: Dict[int, Coefficient] = {}
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

    def variables(self) -> int:
        """The coordinates this polynomial depends on, bit i for x^i: field
        i of the OR of its packed exponents is nonzero exactly when some
        term holds x^i."""
        packed = 0
        for exp in self.coeffs:
            packed |= exp
        mask = 0
        if packed:
            for i, shift in enumerate(self.chart._shifts):
                if packed >> shift & _MASK:
                    mask |= 1 << i
        return mask

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to a chart coordinate."""
        chart = self.chart
        i = chart.index(name)
        if not self.coeffs:
            return chart._zero
        shift, unit = chart._shifts[i], chart._units[i]
        acc: Dict[int, Coefficient] = {}
        for exp, coeff in self.coeffs.items():
            power = exp >> shift & _MASK
            if power:
                acc[exp - unit] = coeff * power
        return Polynomial._from_terms(chart, acc)

    def lift(self, target: Chart) -> "Polynomial":
        """Reinterpret on a chart containing this chart's coordinates; onto
        a `Chart.extend` of this chart, each exponent is shifted left past
        the new coordinates' fields."""
        if not self.coeffs:
            return target._zero
        names = self.chart.names
        if target.names[: len(names)] == names:
            shift = EXPONENT_BITS * (target.dim - len(names))
            return Polynomial._from_canonical(target, {e << shift: c for e, c in self.coeffs.items()})
        index = [target.index(name) for name in names]
        unpack = self.chart._unpack
        coeffs: Dict[int, Coefficient] = {}
        for exp, coeff in self.coeffs.items():
            new = [0] * target.dim
            for j, power in zip(index, unpack(exp)):
                new[j] = power
            coeffs[target._pack(new)] = coeff
        return Polynomial._from_canonical(target, coeffs)

    # --- printing -------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((coeff, monomial_atoms(self.chart, exp)) for exp, coeff in self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _ordered(chart: Chart, coeffs: Dict[int, Coefficient]) -> Tuple[Tuple[Exponent, Coefficient], ...]:
    """The items of `coeffs` in printing order, descending (total degree,
    exponent tuple), which is descending packed order, with each exponent
    unpacked.  The one place the kernel orders terms."""
    unpack = chart._unpack
    return tuple([(unpack(exp), coeffs[exp]) for exp in sorted(coeffs, reverse=True)])


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


"""Text grammar for exact values: polynomials, frame combinations, wedges.

Grammar (round-trips with the canonical printers):

    poly    :=  ['-'] term (('+'|'-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  rational | NAME ['^' INT]
    rational:=  INT ['/' INT]

Frame combinations reuse the same grammar with frame names as extra atoms
(each term carries at most one frame atom, to the first power).  Vector
fields use `d/d<coord>` atoms.  Wedge combinations (for cobrackets) use
`NAME ^ NAME`; `^` followed by an integer is still a power.

A parsed term is one monomial: the product of its numbers, the sum of its
coordinate powers and its one atom.  Frame combinations and vector fields
sum their terms by atom and monomial, and build each atom's polynomial
once, through the validating `Polynomial(chart, terms)`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .exact import Chart, Coefficient, Polynomial, rat

_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[-+*^/(),;:=\[\]{}]))"
)


# Most decimal digits of a numerator or denominator in a parsed value.  A
# report prints values of degree at most 2 in a model's coefficients, times
# at most three exponents brought down by partial derivatives, so an
# integral one stays far below Python's 4300-digit limit on int -> str
# conversion.
MAX_DIGITS = 500
_LIMIT = 10**MAX_DIGITS
# Largest total degree of a monomial in a parsed value.  A check multiplies
# a few of a model's values and random sections of degree at most 1000
# (DOUBLEALG_MAX_DEGREE), so every degree it reaches stays far below the
# 2^EXPONENT_BITS = 65536 of the exponent kernel.
MAX_TOTAL_DEGREE = 1000
# raised as ValueErrors, not ParseErrors: the model names the block
_TOO_LARGE = f"a number has more than {MAX_DIGITS} digits"
_TOO_HIGH = f"a monomial has total degree above {MAX_TOTAL_DEGREE}"


def _integer(literal: str) -> int:
    if len(literal) > MAX_DIGITS:
        raise ValueError(_TOO_LARGE)
    return int(literal)


def _require_bounded(values: Iterable[Coefficient]) -> None:
    """Raise unless each numerator and denominator of `values` has at most
    MAX_DIGITS digits; products and sums of literals can exceed it."""
    for value in values:
        if max(abs(value.numerator), value.denominator) >= _LIMIT:
            raise ValueError(_TOO_LARGE)


class ParseError(ValueError):
    def __init__(self, message: str, position: int = -1):
        super().__init__(message if position < 0 else f"{message} (at column {position + 1})")
        self.position = position


class Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            self.items.append((m.lastgroup, m.group(m.lastgroup), m.start()))
            pos = m.end()
        self.k = 0

    def peek(self, offset: int = 0) -> Optional[Tuple[str, str, int]]:
        i = self.k + offset
        return self.items[i] if i < len(self.items) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.k += 1
        return tok

    def accept_sym(self, sym: str) -> bool:
        tok = self.peek()
        if tok and tok[0] == "sym" and tok[1] == sym:
            self.k += 1
            return True
        return False

    def expect_done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


def _parse_rational(tokens: Tokens) -> Coefficient:
    kind, value, pos = tokens.next()
    if kind != "int":
        raise ParseError(f"expected number, got {value!r}", pos)
    num = _integer(value)
    if tokens.accept_sym("/"):
        kind, den, pos = tokens.next()
        if kind != "int":
            raise ParseError(f"expected denominator, got {den!r}", pos)
        denominator = _integer(den)
        if denominator == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(num, denominator)
    return num


class _Term:
    """One signed product: a rational coefficient, the exponent of each chart
    coordinate and at most one atom, a frame or direction name or a wedge
    pair."""

    __slots__ = ("coeff", "exps", "atom")

    def __init__(self, sign: int, dim: int) -> None:
        self.coeff: Coefficient = sign
        self.exps = [0] * dim
        self.atom: Optional[str | Tuple[str, str]] = None


def _parse_terms(
    tokens: Tokens,
    chart: Chart,
    frames: Tuple[str, ...],
    allow_wedge: bool,
    allow_vector_field: bool,
) -> List[_Term]:
    position = {name: i for i, name in enumerate(chart.names)}
    frame_set = set(frames)
    terms: List[_Term] = []
    sign = -1 if tokens.accept_sym("-") else 1
    while True:
        term = _Term(sign, chart.dim)
        # the total degree of the term's monomial, refused as soon as a
        # factor takes it past the bound, before the kernel packs it
        degree = 0
        while True:
            tok = tokens.peek()
            if tok is None:
                raise ParseError("expected factor", len(tokens.text))
            kind, value, pos = tok
            # a factor adds a power of one coordinate or an atom, refused
            # with `clash` when the term holds one already
            power, atom, clash = 0, None, ""
            if kind == "int":
                term.coeff *= _parse_rational(tokens)
            elif kind != "name":
                raise ParseError(f"expected factor, got {value!r}", pos)
            elif allow_vector_field and value == "d" and (tokens.peek(1) or ())[:2] == ("sym", "/"):
                tokens.next()
                tokens.next()
                kind, dname, at = tokens.next()
                if kind != "name" or not dname.startswith("d"):
                    raise ParseError("expected d/d<coord>", at)
                atom, clash = dname[1:], "two directions in one term"
                if atom not in position:
                    raise ParseError(f"unknown coordinate {atom!r} in d/{dname}", at)
            else:
                tokens.next()
                if tokens.accept_sym("^"):
                    after = tokens.peek()
                    if after is not None and after[0] == "int":
                        tokens.next()
                        if value not in position:
                            raise ParseError(f"unknown coordinate {value!r}", pos)
                        power = _integer(after[1])
                    elif allow_wedge and after is not None and after[0] == "name":
                        tokens.next()
                        atom, clash = (value, after[1]), "two atoms in one term"
                        if value not in frame_set or after[1] not in frame_set:
                            raise ParseError(f"unknown wedge pair {value}^{after[1]}", pos)
                    else:
                        raise ParseError("expected exponent or wedge partner after ^", pos)
                elif value in position:
                    power = 1
                elif value in frame_set:
                    atom, clash = value, f"two frame atoms in one term near {value!r}"
                else:
                    raise ParseError(f"unknown symbol {value!r}", pos)
                if power:
                    term.exps[position[value]] += power
            degree += power
            if degree > MAX_TOTAL_DEGREE:
                raise ValueError(_TOO_HIGH)
            if atom is not None:
                if term.atom is not None:
                    raise ParseError(clash, pos)
                term.atom = atom
            if not tokens.accept_sym("*"):
                break
        terms.append(term)
        if tokens.accept_sym("+"):
            sign = 1
        elif tokens.accept_sym("-"):
            sign = -1
        else:
            return terms


def _collected(
    text: str, chart: Chart, frames: Tuple[str, ...], directions: bool
) -> Dict[str, Polynomial]:
    """The coefficient of each frame of `frames` in a frame combination, or
    with `directions` of each d/d<coord> in a vector field.  The terms of
    each atom are summed by monomial and its polynomial is built once.

    A pure-scalar `0` term is skipped; any other term without an atom is an
    error."""
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, frames, allow_wedge=False, allow_vector_field=directions)
    tokens.expect_done()
    accs: Dict[str, Dict[Tuple[int, ...], Coefficient]] = {
        name: {} for name in (chart.names if directions else frames)
    }
    for term in terms:
        if term.atom is None:
            if term.coeff == 0:
                continue
            kind = "direction in a vector field" if directions else "frame in a frame combination"
            raise ParseError(f"term without a {kind}")
        acc = accs[term.atom]
        exp = tuple(term.exps)
        acc[exp] = acc.get(exp, 0) + term.coeff
    out = {name: Polynomial(chart, acc) for name, acc in accs.items()}
    _require_bounded(c for poly in out.values() for c in poly.coeffs.values())
    return out


def parse_combination(text: str, chart: Chart, frames: Tuple[str, ...]) -> Dict[str, Polynomial]:
    """Linear combination of frames with polynomial coefficients."""
    return _collected(text, chart, frames, directions=False)


def parse_vector_field(text: str, chart: Chart) -> List[Polynomial]:
    """`x * d/dx + ...` -> component polynomials, one per chart coordinate."""
    return list(_collected(text, chart, (), directions=True).values())


def parse_wedge_combination(
    text: str, frames: Tuple[str, ...]
) -> Dict[Tuple[int, int], Coefficient]:
    """`c * e_j ^ e_k` sums -> antisymmetric coefficients keyed by j < k."""
    tokens = Tokens(text)
    terms = _parse_terms(tokens, Chart(()), frames, allow_wedge=True, allow_vector_field=False)
    tokens.expect_done()
    out: Dict[Tuple[int, int], Coefficient] = {}
    index = {name: i for i, name in enumerate(frames)}
    for term in terms:
        coeff = term.coeff
        if type(term.atom) is not tuple:
            if coeff == 0:
                continue
            raise ParseError("term without a wedge pair")
        i, j = index[term.atom[0]], index[term.atom[1]]
        if i == j:
            if coeff != 0:
                raise ParseError(f"wedge of a frame with itself: {term.atom[0]}")
            continue
        if i < j:
            out[(i, j)] = out.get((i, j), 0) + coeff
        else:
            out[(j, i)] = out.get((j, i), 0) - coeff
    _require_bounded(out.values())
    return {key: rat(value) for key, value in out.items() if value != 0}

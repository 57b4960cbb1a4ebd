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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .exact import Chart, Coefficient, Exponent, Polynomial

_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[-+*^/(),;:=\[\]{}]))"
)


# Most decimal digits of a numerator, denominator or exponent in a parsed
# value.  A report prints values of degree at most 2 in a model's
# coefficients, times at most three exponents brought down by partial
# derivatives, so an integral one stays far below Python's 4300-digit
# limit on int -> str conversion.
MAX_DIGITS = 500
_LIMIT = 10**MAX_DIGITS
# raised as a ValueError, not a ParseError: the model names the block
_TOO_LARGE = f"a number has more than {MAX_DIGITS} digits"


def _integer(literal: str) -> int:
    if len(literal) > MAX_DIGITS:
        raise ValueError(_TOO_LARGE)
    return int(literal)


def _require_bounded(terms: Iterable[Tuple[Exponent, Coefficient]]) -> None:
    """Raise unless each numerator, denominator and exponent of `terms` has
    at most MAX_DIGITS digits; products and sums of literals can exceed it."""
    for exp, coeff in terms:
        if max(abs(coeff.numerator), coeff.denominator, *exp) >= _LIMIT:
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
            if m.group("int") is not None:
                self.items.append(("int", m.group("int"), m.start()))
            elif m.group("name") is not None:
                self.items.append(("name", m.group("name"), m.start()))
            else:
                self.items.append(("sym", m.group("sym"), m.start()))
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
    """One signed product: polynomial coefficient, optional frame/wedge atom."""

    def __init__(self) -> None:
        self.coeff: Optional[Polynomial] = None
        self.frame: Optional[str] = None
        self.pair: Optional[Tuple[str, str]] = None


def _parse_terms(
    tokens: Tokens,
    chart: Chart,
    frames: Tuple[str, ...],
    allow_wedge: bool,
    allow_vector_field: bool,
) -> List[_Term]:
    coord_set = set(chart.names)
    frame_set = set(frames)
    terms: List[_Term] = []
    sign = 1
    if tokens.accept_sym("-"):
        sign = -1
    while True:
        term = _Term()
        term.coeff = Polynomial.constant(chart, sign)
        while True:
            tok = tokens.peek()
            if tok is None:
                raise ParseError("expected factor", len(tokens.text))
            kind, value, pos = tok
            if kind == "int":
                term.coeff = term.coeff * Polynomial.constant(chart, _parse_rational(tokens))
            elif kind == "name":
                if (
                    allow_vector_field
                    and value == "d"
                    and tokens.peek(1) is not None
                    and tokens.peek(1)[:2] == ("sym", "/")
                ):
                    tokens.next()
                    tokens.next()
                    kind2, dname, pos2 = tokens.next()
                    if kind2 != "name" or not dname.startswith("d"):
                        raise ParseError("expected d/d<coord>", pos2)
                    coord = dname[1:]
                    if coord not in coord_set:
                        raise ParseError(f"unknown coordinate {coord!r} in d/d{coord}", pos2)
                    if term.frame is not None:
                        raise ParseError("two directions in one term", pos)
                    term.frame = coord
                else:
                    tokens.next()
                    nxt = tokens.peek()
                    if nxt is not None and nxt[:2] == ("sym", "^"):
                        after = tokens.peek(1)
                        if after is not None and after[0] == "int":
                            tokens.next()
                            _, power, _ = tokens.next()
                            if value not in coord_set:
                                raise ParseError(f"unknown coordinate {value!r}", pos)
                            exp = tuple(_integer(power) if name == value else 0 for name in chart.names)
                            term.coeff = term.coeff * Polynomial(chart, {exp: 1})
                            # fallthrough to separator handling
                            if not tokens.accept_sym("*"):
                                break
                            continue
                        if allow_wedge and after is not None and after[0] == "name":
                            tokens.next()
                            _, second, _ = tokens.next()
                            if value not in frame_set or second not in frame_set:
                                raise ParseError(f"unknown wedge pair {value}^{second}", pos)
                            if term.pair is not None or term.frame is not None:
                                raise ParseError("two atoms in one term", pos)
                            term.pair = (value, second)
                            if not tokens.accept_sym("*"):
                                break
                            continue
                        raise ParseError("expected exponent or wedge partner after ^", pos)
                    if value in coord_set:
                        term.coeff = term.coeff * Polynomial.coordinate(chart, value)
                    elif value in frame_set:
                        if term.frame is not None or term.pair is not None:
                            raise ParseError(f"two frame atoms in one term near {value!r}", pos)
                        term.frame = value
                    else:
                        raise ParseError(f"unknown symbol {value!r}", pos)
            else:
                raise ParseError(f"expected factor, got {value!r}", pos)
            if not tokens.accept_sym("*"):
                break
        terms.append(term)
        if tokens.accept_sym("+"):
            sign = 1
        elif tokens.accept_sym("-"):
            sign = -1
        else:
            return terms


def parse_combination(text: str, chart: Chart, frames: Tuple[str, ...]) -> Dict[str, Polynomial]:
    """Linear combination of frames with polynomial coefficients.

    A pure-scalar `0` is accepted as the zero combination; any other
    frameless term is an error.
    """
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, frames, allow_wedge=False, allow_vector_field=False)
    tokens.expect_done()
    accs: Dict[str, Dict[Exponent, Coefficient]] = {name: {} for name in frames}
    for term in terms:
        if term.frame is None:
            if term.coeff.is_zero:
                continue
            raise ParseError("term without a frame in a frame combination")
        _collect(accs[term.frame], term.coeff)
    out = {name: Polynomial(chart, acc) for name, acc in accs.items()}
    _require_bounded(t for poly in out.values() for t in poly.coeffs.items())
    return out


def parse_vector_field(text: str, chart: Chart) -> List[Polynomial]:
    """`x * d/dx + ...` -> component polynomials, one per chart coordinate."""
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, (), allow_wedge=False, allow_vector_field=True)
    tokens.expect_done()
    accs: List[Dict[Exponent, Coefficient]] = [{} for _ in chart.names]
    for term in terms:
        if term.frame is None:
            if term.coeff.is_zero:
                continue
            raise ParseError("term without a direction in a vector field")
        _collect(accs[chart.index(term.frame)], term.coeff)
    comps = [Polynomial(chart, acc) for acc in accs]
    _require_bounded(t for poly in comps for t in poly.coeffs.items())
    return comps


def _collect(acc: Dict[Exponent, Coefficient], poly: Polynomial) -> None:
    """Add the terms of `poly` to the coefficients `acc` of one atom, whose
    polynomial is then built once."""
    for exp, coeff in poly.coeffs.items():
        acc[exp] = acc.get(exp, 0) + coeff


def parse_wedge_combination(
    text: str, frames: Tuple[str, ...]
) -> Dict[Tuple[int, int], Coefficient]:
    """`c * e_j ^ e_k` sums -> antisymmetric coefficients keyed by j < k."""
    chart = Chart(())
    tokens = Tokens(text)
    terms = _parse_terms(tokens, chart, frames, allow_wedge=True, allow_vector_field=False)
    tokens.expect_done()
    out: Dict[Tuple[int, int], Coefficient] = {}
    index = {name: i for i, name in enumerate(frames)}
    for term in terms:
        coeff = term.coeff.coeffs.get((), 0)
        if term.pair is None:
            if coeff == 0:
                continue
            raise ParseError("term without a wedge pair")
        i, j = index[term.pair[0]], index[term.pair[1]]
        if i == j:
            if coeff != 0:
                raise ParseError(f"wedge of a frame with itself: {term.pair[0]}")
            continue
        if i < j:
            out[(i, j)] = out.get((i, j), 0) + coeff
        else:
            out[(j, i)] = out.get((j, i), 0) - coeff
    _require_bounded(((), value) for value in out.values())
    return {key: value for key, value in out.items() if value != 0}

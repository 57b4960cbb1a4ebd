"""The term loop reads each term as one monomial, and one collector sums
the frame combinations and vector fields: a differential gate against the
term loop that multiplied a `Polynomial` for each factor and the readers
over it, kept as `support.reference_parse_terms` and its readers.

The seeded texts are valid and malformed.  Together they hold rationals,
zero denominators, powers at and past `MAX_TOTAL_DEGREE`, literals at and
past `MAX_DIGITS`, `d/d<coord>` directions, wedges, repeated and zero
atoms, and broken token sequences.  Both sides must give equal values, or
raise the same exception type with the same message, column included.
"""

import random
from collections import Counter

from doublealg.exact import Chart
from doublealg.parsing import (
    MAX_DIGITS,
    MAX_TOTAL_DEGREE,
    Tokens,
    _parse_terms,
    parse_combination,
    parse_vector_field,
    parse_wedge_combination,
)
from support import (
    ReferenceTokens,
    reference_parse_combination,
    reference_parse_terms,
    reference_parse_vector_field,
    reference_parse_wedge_combination,
    term_polynomial,
)

XY = Chart(("x", "y"))
FRAMES = ("e1", "e2", "e3")
TEXTS = 2000


# the atoms of each kind of text, then atoms that no reader knows
ATOMS = {
    "frames": ("e1", "e2", "e3"),
    "directions": ("d/dx", "d/dy"),
    "wedges": ("e1^e2", "e2^e1", "e3^e1", "e2^e3", "e1^e1"),
}
STRAY = ("e4", "d/dz", "d/x", "e1^q", "x^e1", "q", "q^2")


def number(rng):
    roll = rng.random()
    if roll < 0.02:
        return "9" * rng.choice((MAX_DIGITS, MAX_DIGITS + 1))
    if roll < 0.04:
        # two of these multiply past the digit bound
        return "7" * (MAX_DIGITS // 2 + 1)
    if roll < 0.35:
        return f"{rng.randint(0, 9)}/{rng.randint(0, 6)}"
    return str(rng.randint(0, 12))


def coordinate(rng):
    name = rng.choice(("x", "y"))
    roll = rng.random()
    if roll < 0.5:
        return name
    if roll < 0.94:
        return f"{name}^{rng.randint(0, 3)}"
    power = rng.choice((MAX_TOTAL_DEGREE - 1, MAX_TOTAL_DEGREE, MAX_TOTAL_DEGREE + 1))
    return f"{name}^{power}"


def term(rng, kind):
    """A product of numbers, coordinates (none in a wedge) and, mostly, one
    atom of `kind`; now and then a second atom or a stray one."""
    factors = [
        number(rng) if kind == "wedges" or rng.random() < 0.5 else coordinate(rng)
        for _ in range(rng.randint(0, 3))
    ]
    if rng.random() < 0.9 or not factors:
        factors.append(rng.choice(ATOMS[kind]))
    if rng.random() < 0.05:
        factors.append(rng.choice(ATOMS[kind]))
    if rng.random() < 0.04:
        factors.append(rng.choice(STRAY))
    rng.shuffle(factors)
    return " * ".join(factors)


def valid_text(rng, kind):
    text = rng.choice(("", "-")) + term(rng, kind)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice((" + ", " - ")) + term(rng, kind)
    return text


def broken(rng, text):
    """`text` with one token dropped, doubled or inserted, with a stray
    character, or cut short, now and then after a dangling `/`."""
    pieces = text.split(" ")
    k = rng.randrange(len(pieces))
    roll = rng.random()
    if roll < 0.2:
        del pieces[k]
    elif roll < 0.4:
        pieces.insert(k, pieces[k])
    elif roll < 0.7:
        pieces.insert(k, rng.choice(("*", "+", "-", "^", "/", "(", "@", "d", "d/", "^2", ",")))
    else:
        cut = rng.randrange(len(text) + 1)
        if roll < 0.85:
            return text[:cut] + "@" + text[cut:]
        return text[:cut] + rng.choice(("", "", " * 3/", " + d/"))
    return " ".join(pieces)


def corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        text = valid_text(rng, rng.choice(tuple(ATOMS)))
        yield broken(rng, text) if rng.random() < 0.3 else text


def outcome(read, *args):
    try:
        return "value", read(*args)
    except ValueError as exc:  # a ParseError, or a bound refused by name
        return type(exc).__name__, str(exc)


def terms_of(loop, tokens_type, text, frames, wedge, directions):
    """The terms of `text` as (polynomial, atom) pairs, read by `loop`."""
    tokens = tokens_type(text)
    terms = loop(tokens, XY if not wedge else Chart(()), frames, wedge, directions)
    tokens.expect_done()
    return terms


def new_terms(text, frames, wedge, directions):
    chart = Chart(()) if wedge else XY
    terms = terms_of(_parse_terms, Tokens, text, frames, wedge, directions)
    return [(term_polynomial(chart, t), t.atom) for t in terms]


def old_terms(text, frames, wedge, directions):
    terms = terms_of(reference_parse_terms, ReferenceTokens, text, frames, wedge, directions)
    return [(t.coeff, t.pair if t.pair is not None else t.frame) for t in terms]


READERS = (
    ("combination", parse_combination, reference_parse_combination, lambda text: (text, XY, FRAMES)),
    ("rank 0", parse_combination, reference_parse_combination, lambda text: (text, XY, ())),
    ("vector field", parse_vector_field, reference_parse_vector_field, lambda text: (text, XY)),
    ("wedge", parse_wedge_combination, reference_parse_wedge_combination, lambda text: (text, FRAMES)),
)
LOOPS = (
    ("frames", FRAMES, False, False),
    ("directions", (), False, True),
    ("wedges", FRAMES, True, False),
)


def test_term_loop_and_readers_agree_with_the_reference():
    seen = Counter()
    for text in corpus(seed=35, count=TEXTS):
        for label, frames, wedge, directions in LOOPS:
            args = (text, frames, wedge, directions)
            assert outcome(new_terms, *args) == outcome(old_terms, *args), (label, text)
        for label, read, reference, arguments in READERS:
            got, expected = outcome(read, *arguments(text)), outcome(reference, *arguments(text))
            assert got == expected, (label, text)
            kind, detail = got
            seen[label, "value" if kind == "value" else detail.split(" (at")[0].split(":")[0]] += 1
    messages = {message for _, message in seen}
    assert {
        "value",
        "zero denominator",
        f"a number has more than {MAX_DIGITS} digits",
        f"a monomial has total degree above {MAX_TOTAL_DEGREE}",
        "unknown coordinate 'q'",
        "unknown coordinate 'z' in d/dz",
        "two frame atoms in one term near 'e1'",
        "two directions in one term",
        "two atoms in one term",
        "wedge of a frame with itself",
        "term without a frame in a frame combination",
        "term without a direction in a vector field",
        "term without a wedge pair",
        "expected exponent or wedge partner after ^",
        "unexpected character '@'",
        "unexpected end of input",
    } <= messages, messages
    for label in ("combination", "vector field", "wedge"):
        assert seen[label, "value"] >= 150, (label, seen)

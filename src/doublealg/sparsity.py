"""Where the anchor and the structure functions of an algebroid vanish.

The checkers of `algebroid` decide the structure equations frame tuple by
frame tuple.  Most tuples of the sparse algebroids that cotangent doubles
induce are proved zero by which anchor entries and structure functions
are nonzero and which coordinates each anchor entry depends on: a
`Sparsity`, built once per algebroid as `LieAlgebroid.sparsity` in the
one walk of its anchor rows and its store of structure functions.  Every
rule that skips a frame tuple is here: `anchor_pairs` and
`bracket_triples` for the axioms, `frame_partners` and
`function_coordinates` for the compatibility families.  Each yields only
the tuples the patterns leave, in the order of the full loops, so the
first nonzero tuple, and with it every witness, is the one the full loops
find.  Inside a decided tuple, `movers` leaves only the anchors that can
differentiate a given function; the per-entry coordinate masks it and
`algebroid.anchor_defect` read are held by `algebroid.VectorField`.

Masks are ints: bit i of a coordinate mask stands for x^i, bit alpha of a
frame mask for e_alpha.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, List, NamedTuple, Tuple

from .exact import Polynomial

if TYPE_CHECKING:
    from .algebroid import LieAlgebroid


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Sparsity(NamedTuple):
    """The pattern of an algebroid's anchor entries a^i_alpha and structure
    functions c^g_ab."""

    # the nonzero a^i_alpha with the coordinates each depends on: per frame
    # alpha as (i, a^i_alpha, coordinates), per coordinate i as (alpha, ...)
    rows: Tuple[Tuple[Tuple[int, Polynomial, int], ...], ...]
    columns: Tuple[Tuple[Tuple[int, Polynomial, int], ...], ...]
    directions: Tuple[int, ...]  # per frame alpha: the coordinates i with a^i_alpha != 0
    depends: Tuple[int, ...]  # per frame alpha: the coordinates its anchor entries depend on
    along: Tuple[int, ...]  # per coordinate i: the frames alpha with a^i_alpha != 0
    feeds: Tuple[int, ...]  # per coordinate j: the coordinates i with some a^i_alpha depending on x^j
    spread: int  # the coordinates along which some anchor points
    bracketed: Tuple[int, ...]  # per frame a: the frames b with c_ab != 0
    # per frame gamma: the nonzero c^gamma_ab with a < b as (a, b, c^gamma_ab)
    brackets_by_gamma: Tuple[Tuple[Tuple[int, int, Polynomial], ...], ...]


def build_sparsity(L: LieAlgebroid) -> Sparsity:
    """The pattern of `L`, in one walk over its anchor rows and store.  The
    coordinate masks of each anchor entry are read off `L.anchor_fields`,
    which holds them for `algebroid.anchor_defect` too."""
    n = L.chart.dim
    rows, columns = [], [[] for _ in range(n)]
    directions, depends, bracketed = [], [], []
    along, feeds, by_gamma = [0] * n, [0] * n, [[] for _ in L.frames]
    spread = 0
    for alpha, (field, store_row) in enumerate(zip(L.anchor_fields, L.nonzero_structure)):
        row, direction, depend, partners = [], field._directions, 0, 0
        for i in bits(direction):
            p, on = field.components[i], field._variables[i]
            row.append((i, p, on))
            columns[i].append((alpha, p, on))
            depend |= on
            along[i] |= 1 << alpha
            for j in bits(on):
                feeds[j] |= 1 << i
        for b, entry in enumerate(store_row):
            if entry:
                partners |= 1 << b
                if b > alpha:
                    for gamma, coeff in entry:
                        by_gamma[gamma].append((alpha, b, coeff))
        rows.append(tuple(row))
        directions.append(direction)
        depends.append(depend)
        bracketed.append(partners)
        spread |= direction
    return Sparsity(
        tuple(rows),
        tuple(map(tuple, columns)),
        tuple(directions),
        tuple(depends),
        tuple(along),
        tuple(feeds),
        spread,
        tuple(bracketed),
        tuple(map(tuple, by_gamma)),
    )


def movers(pattern: Sparsity, coordinates: int) -> int:
    """The frames whose anchor points along one of `coordinates`: for a
    function f that depends on exactly those coordinates, the frames m
    with a_m(f) possibly nonzero."""
    frames = 0
    for j in bits(coordinates):
        frames |= pattern.along[j]
    return frames


def anchor_pairs(L: LieAlgebroid) -> Iterable[Tuple[int, int]]:
    """The frame pairs a < b, in `itertools.combinations` order, with
    c_ab != 0 or one anchor pointing along a coordinate that an entry of
    the other depends on: the pairs whose anchor defect may be nonzero.
    Over a point the defect has no component, so no pair is left; below
    three frames the one pair is left without reading `L.sparsity`, whose
    walk costs more than that pair's defect."""
    if not L.chart.dim:
        return ()
    if L.rank < 3:
        return itertools.combinations(range(L.rank), 2)
    bracketed, directions, depends = L.sparsity.bracketed, L.sparsity.directions, L.sparsity.depends
    return (
        (a, b)
        for a, b in itertools.combinations(range(L.rank), 2)
        if bracketed[a] >> b & 1 or directions[a] & depends[b] or directions[b] & depends[a]
    )


def bracket_triples(L: LieAlgebroid) -> Iterator[Tuple[int, int, int]]:
    """The frame triples a < b < c, in `itertools.combinations` order, with
    a nonzero bracket on one of their pairs: the triples whose Jacobiator
    may be nonzero.  Read off `Sparsity.bracketed`, each b walked yields a
    triple unless it is the last frame, so the walk costs about one step
    per triple, at most P * rank for P nonzero pairs."""
    rank = L.rank
    if rank < 3:
        return
    bracketed = L.sparsity.bracketed
    every = (1 << rank) - 1
    # the frames bracketed with a frame above them: none exactly when no
    # bracket is nonzero
    upper = sum(1 << x for x, partners in enumerate(bracketed) if partners >> x + 1)
    if not upper:
        return
    for a, partners in enumerate(bracketed):
        above = partners & -2 << a
        # b up to the highest frame bracketed with a, or bracketed upwards itself
        for b in bits(((1 << above.bit_length()) - 1 | upper) & -2 << a):
            third = every if above >> b & 1 else partners | bracketed[b]
            for c in bits(third & -2 << b):
                yield a, b, c


def frame_partners(L: LieAlgebroid, Lstar: LieAlgebroid) -> List[int]:
    """Per frame a, the frames b with D(e_a, e_b) possibly nonzero: every
    term of the first formula of `algebroid.check_compatibility` carries
    c_ab, Theta_a or Theta_b, so b is left when c_ab != 0 or e_a or e_b is
    a value of a bracket of Lstar."""
    every = (1 << L.rank) - 1
    targets = sum(1 << g for g, pairs in enumerate(Lstar.sparsity.brackets_by_gamma) if pairs)
    return [every if targets >> a & 1 else partners | targets for a, partners in enumerate(L.sparsity.bracketed)]


def function_coordinates(L: LieAlgebroid, Lstar: LieAlgebroid, a: int) -> int:
    """The coordinates i with D(e_a, x_i) possibly nonzero, one mask bit for
    each term of the second formula of `algebroid.check_compatibility`
    that the patterns do not prove zero: sigma_k(rho^i_a) needs rho^i_a to
    depend on a direction of Lstar's anchor, rho_a(sigma^{ki}) a
    sigma^{ki} depending on a direction of rho_a, sigma^{mi} c^k_am a
    nonzero c_am, and the gamma^{pq}_a terms a nonzero rho^i_p or
    rho^i_q."""
    mine, star = L.sparsity, Lstar.sparsity
    coordinates = 0
    for i, _, depends in mine.rows[a]:
        if depends & star.spread:
            coordinates |= 1 << i
    for j in bits(mine.directions[a]):
        coordinates |= star.feeds[j]
    for m in bits(mine.bracketed[a]):
        coordinates |= star.directions[m]
    for p, q, _ in star.brackets_by_gamma[a]:
        coordinates |= mine.directions[p] | mine.directions[q]
    return coordinates

"""Where the anchor and the structure functions of an algebroid vanish.

The checkers of `algebroid` decide the structure equations frame tuple by
frame tuple.  Most tuples of the sparse algebroids that cotangent doubles
induce are proved zero by which anchor entries and structure functions
are nonzero and which coordinates each anchor entry depends on: a
`Sparsity`, built once per algebroid as `LieAlgebroid.sparsity`.  The
walks here yield only the tuples it leaves, in the order of the full
loops, so the first nonzero tuple, and with it every witness, is the one
the full loops find.

Masks are ints: bit i of a coordinate mask stands for x^i, bit alpha of a
frame mask for e_alpha.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, List, NamedTuple, Tuple

from .exact import Polynomial

if TYPE_CHECKING:
    from .algebroid import LieAlgebroid, Structure


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


def build_sparsity(L: LieAlgebroid) -> Sparsity:
    """The pattern of `L`, in one walk over its anchor rows and store."""
    n = L.chart.dim
    rows, columns = [], [[] for _ in range(n)]
    directions, depends = [], []
    along, feeds = [0] * n, [0] * n
    spread = 0
    for alpha, anchor_row in enumerate(L.anchor):
        row, direction, depend = [], 0, 0
        for i, p in enumerate(anchor_row):
            if p.coeffs:
                on = p.variables()
                row.append((i, p, on))
                columns[i].append((alpha, p, on))
                direction |= 1 << i
                depend |= on
                along[i] |= 1 << alpha
                if on:
                    for j in bits(on):
                        feeds[j] |= 1 << i
        rows.append(tuple(row))
        directions.append(direction)
        depends.append(depend)
        spread |= direction
    return Sparsity(
        tuple(rows),
        tuple(map(tuple, columns)),
        tuple(directions),
        tuple(depends),
        tuple(along),
        tuple(feeds),
        spread,
        tuple(bracket_partners(L.nonzero_structure)),
    )


def bracket_partners(nonzero: Structure) -> List[int]:
    """Per frame a of the store `nonzero`, the frames b with c_ab != 0."""
    out = []
    for row in nonzero:
        partners = 0
        for b, entry in enumerate(row):
            if entry:
                partners |= 1 << b
        out.append(partners)
    return out


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
    may be nonzero.  After one walk over the store, each b walked yields a
    triple unless it is the last frame, so the walk costs about one step
    per triple, at most P * rank for P nonzero pairs."""
    rank = L.rank
    if rank < 3:
        return
    bracketed = bracket_partners(L.nonzero_structure)
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
    for p, q, _ in Lstar.brackets_by_gamma[a]:
        coordinates |= mine.directions[p] | mine.directions[q]
    return coordinates

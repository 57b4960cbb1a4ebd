"""Double Lie algebroids: the compatibility checker and its main examples.

A candidate double is a pair of LA-vector bundle structures on one split
double vector bundle: a vertical one (algebroid on D -> A over side B) and
a horizontal one (algebroid on D -> B over side A).  The defining check
computes both induced algebroids over the dual of the core, identifies them
as a dual pair through the duality isomorphisms (which fix the transposed
linear generators and negate the opposite core generators), and runs the
bialgebroid compatibility check on that pair.

Also here: the core algebroid, read off the core maps and core
derivations of the two LA-vector bundles; the structural consequences of a
passing double (core anchor coincidence, the core algebroid and its core
maps, the anchors of D as algebroid morphisms), which are theorems and so
are stated, not recomputed; the report of a passing `check_double`, which
the cotangent and vacant build verbs state when the paper's
correspondences decide it; the cotangent double of a dual pair of
algebroids; and the matched pair read off a vacant double.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .algebroid import (
    LieAlgebroid,
    check_compatibility,
    coadjoint,
    fibre_coordinate,
    gradient,
    pair_store,
    permute_frames,
    require_valid,
    unique_names,
)
from .exact import Chart, Polynomial
from .lavb import LAVBundle, check_lavb
from .matched import (
    MatchedPair,
    MatchedPairError,
    check_matched,
    vacant_lavbundles,
)
from .verdicts import CheckItem, CheckReport, passed


class DoubleMismatch(ValueError):
    """The two LA-vector bundle structures do not share one double vector bundle."""


@dataclass(frozen=True)
class DoubleLieAlgebroid:
    """Two LA-vector bundle structures on one split (D; A, B; M) with core C.

    vertical: algebroid on D -> A, side algebroid B;
    horizontal: algebroid on D -> B, side algebroid A.
    Whether the pair is an actual double is decided by `check_double`,
    never assumed.
    """

    vertical: LAVBundle
    horizontal: LAVBundle

    def __post_init__(self):
        v, h = self.vertical, self.horizontal
        if v.chart != h.chart:
            raise DoubleMismatch("charts differ")
        if v.bundle_frames != h.side.frames:
            raise DoubleMismatch("vertical bundle A does not match horizontal side A")
        if h.bundle_frames != v.side.frames:
            raise DoubleMismatch("horizontal bundle B does not match vertical side B")
        if v.core_frames != h.core_frames:
            raise DoubleMismatch("core bundles differ")

    @property
    def chart(self) -> Chart:
        return self.vertical.chart

    @property
    def side_a(self) -> LieAlgebroid:
        return self.horizontal.side

    @property
    def side_b(self) -> LieAlgebroid:
        return self.vertical.side

    @property
    def core_frames(self) -> Tuple[str, ...]:
        return self.vertical.core_frames

    @property
    def is_vacant(self) -> bool:
        return len(self.core_frames) == 0

    # Derived structures, computed on first use and shared by every caller.

    @cached_property
    def dual_pair(self) -> Tuple[LieAlgebroid, LieAlgebroid]:
        return dual_pair_over_core_dual(self)

    @cached_property
    def core(self) -> LieAlgebroid:
        return core_algebroid(self)


def dual_pair_over_core_dual(
    dla: DoubleLieAlgebroid,
) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """The two induced algebroids presented as a standard dual pair.

    The first is the vertical induced algebroid with frames (transposed
    linear over B, core from A*).  The duality pairing over the core dual
    sends a transposed-linear frame to the matching core frame of the other
    induced algebroid (+1) and a core frame to the matching transposed
    linear frame with a minus sign; the second algebroid is rewritten in
    those dual frames, a signed permutation of its own that
    `permute_frames` applies, so the standard bialgebroid check applies.
    """
    e_v = dla.vertical.induced_dual
    e_h = dla.horizontal.induced_dual
    ra = dla.side_a.rank
    rb = dla.side_b.rank
    # dual of transposed-linear frame beta (position beta in e_v) is the
    # core frame psi_beta of e_h (position ra + beta), coefficient +1; dual
    # of core frame a (position rb + a in e_v) is minus the transposed
    # linear frame eta_a of e_h (position a)
    columns = [(ra + beta, 1) for beta in range(rb)] + [(a, -1) for a in range(ra)]
    names = [e_h.frames[p] if s == 1 else f"{e_h.frames[p]}_op" for p, s in columns]
    dual = permute_frames(e_h, columns, unique_names(names, e_h.chart.names))
    return e_v, dual


def check_double(dla: DoubleLieAlgebroid, seed: int = 7, max_degree: int = 2) -> CheckReport:
    """The defining check: both sides are LA-vector bundles and the two
    induced algebroids over the core dual form a Lie bialgebroid."""
    items: List[CheckItem] = []
    vert_rep = check_lavb(dla.vertical).prefixed("vertical")
    hor_rep = check_lavb(dla.horizontal).prefixed("horizontal")
    items.extend(vert_rep.items)
    items.extend(hor_rep.items)
    if not (vert_rep.ok and hor_rep.ok):
        return CheckReport(tuple(items))
    # check_lavb has decided both algebroid axiom checks of the pair on the
    # induced duals it builds: e_v is vertical.induced_dual, and dual is
    # horizontal.induced_dual after an invertible constant frame change,
    # which preserves the axioms.
    e_v, dual = dla.dual_pair
    bial = CheckReport(
        (passed("side"), passed("dual_side"))
        + check_compatibility(e_v, dual, seed=seed, max_degree=max_degree).items
    )
    items.extend(bial.prefixed("bialgebroid").items)
    return CheckReport(tuple(items))


# ---------------------------------------------------------------------------
# the core and the structural consequences of a double


def core_algebroid(dla: DoubleLieAlgebroid) -> LieAlgebroid:
    """The algebroid on the core, read off the generator data of the two
    LA-vector bundles (Gracia-Saz, Jotz Lean, Mackenzie & Mehta 2018).

    With the core maps d_A = `vertical.core_anchor` and d_B =
    `horizontal.core_anchor`, the core derivations q^h of the A-frames and
    q^v of the B-frames, and the anchor rho_A of the side A:

        anchor(c_g)            = sum_a d_A[g][a] rho_A(e_a),
        [c_g1, c_g2] at c_d    = sum_a d_A[g1][a] q^h_a[g2][d]
                                 - sum_b d_B[g2][b] q^v_b[g1][d],

    summed over the stored entries of d_A and d_B and of the derivation
    rows they select.  On a double, `dual_poisson` of
    this algebroid is the Poisson structure that the induced dual pair puts
    on the core dual (Mackenzie & Xu 1994).  A core frame named like a
    coordinate gets apostrophes (`unique_names`).
    """
    v, h = dla.vertical, dla.horizontal
    base, rc = dla.chart, len(dla.core_frames)
    zero = Polynomial.zero(base)
    anchor = [(zero,) * base.dim] * rc
    for (g, a), c in v.core_anchor:
        anchor[g] = tuple([f + c * p if p else f for f, p in zip(anchor[g], dla.side_a.anchor[a])])
    pairs: Dict[Tuple[int, int], Dict[int, Polynomial]] = {}

    def add(g1: int, g2: int, d: int, term: Polynomial) -> None:
        if g1 < g2:
            comps = pairs.setdefault((g1, g2), {})
            comps[d] = comps.get(d, zero) + term

    for (g1, a), c in v.core_anchor:
        for (g2, d), p in h.core_derivations[a]:
            add(g1, g2, d, c * p)
    for (g2, b), c in h.core_anchor:
        for (g1, d), p in v.core_derivations[b]:
            add(g1, g2, d, -(c * p))
    frames = unique_names(dla.core_frames, base.names)
    return LieAlgebroid._from_store(base, frames, tuple(anchor), pair_store(rc, pairs))


def structural_diagnostics(dla: DoubleLieAlgebroid) -> CheckReport:
    """The structural consequences of the double axioms, stated.

    Precondition: every product caller runs this only after
    `check_double(dla)` passed: both sides are LA-vector bundles and the
    two induced algebroids over C* form a Lie bialgebroid, which is the
    paper's definition of a double Lie algebroid.  Each item is then a
    theorem about such doubles (Mackenzie, this paper; Gracia-Saz, Jotz
    Lean, Mackenzie & Mehta 2018, "Double Lie algebroids and
    representations up to homotopy", arXiv:1409.1502):

    core_anchor_match: the core maps d_A: C -> A and d_B: C -> B composed
        with the side anchors agree, rho_A o d_A = rho_B o d_B;
    core_algebroid: the Poisson structure that the Lie bialgebroid induces
        on its base C* (Mackenzie & Xu 1994) is linear, so C is a Lie
        algebroid, `dla.core`;
    core_anchor_induced: its anchor is rho_A o d_A (below);
    core_map_A, core_map_B: d_A and d_B preserve brackets;
    anchor_compat, anchor_brackets_A, anchor_brackets_B: each anchor of D
        is a morphism of Lie algebroids from the opposite structure on D to
        the tangent prolongation of its side, over the side anchor; so the
        two anchors agree at second order at a generic point, and the
        bracket condition holds on generators.

    So every item is reported as passed, the core items only when the
    double has a core, and nothing is computed.  The tests keep the
    hand-built expansion of every item as the oracle and compare the two
    on every passing double of a corpus that also holds failing doubles.

    `core_anchor_induced` also holds by construction: `core_algebroid`
    writes the anchor of c_gamma as sum_a d_A[gamma][a] rho_A(e_a).
    """
    core = ("core_algebroid", "core_anchor_induced", "core_map_A", "core_map_B")
    items = (
        ("core_anchor_match",)
        + (core if dla.core_frames else ())
        + ("anchor_compat", "anchor_brackets_A", "anchor_brackets_B")
    )
    return CheckReport(tuple(passed(item) for item in items))


def passing_double_report() -> CheckReport:
    """The report of `check_double` on a double that passes it, stated.

    The product states it only for the two kinds of double whose verdict a
    theorem of the paper reads off a smaller check:

    - the cotangent double of a dual pair (L, L*) of Lie algebroids,
      `build_cotangent_double(L, Lstar)`, is a double Lie algebroid exactly
      when (L, L*) is a Lie bialgebroid (Mackenzie & Xu 1994, Lie
      bialgebroids and Poisson groupoids, Duke Math. J. 73), which
      `check_compatibility(L, Lstar)` decides on the base chart once both
      sides are valid algebroids;
    - the vacant double of a pair of actions, `assemble_vacant_double(mp)`,
      is a double Lie algebroid exactly when the pair is matched (Mokri
      1997, Matched pairs of Lie algebroids, Glasgow Math. J. 39), which
      `check_matched(mp)` decides.

    A double that passes `check_double` passes every item, so the report is
    the same 15 passed items for every such double.  The tests compare it
    with `check_double` on every passing cotangent and vacant double of a
    corpus that also holds failing ones; a caller runs `check_double`
    itself when the smaller check fails, so failing items and witnesses
    are those of `check_double`.
    """
    lavb = ("side", "base_fields", "generators", "induced_dual")
    bialgebroid = (
        "side", "dual_side", "frames", "scaled", "function_pairs", "symmetric_part", "random"
    )
    items = [f"{side}.{item}" for side in ("vertical", "horizontal") for item in lavb]
    items += [f"bialgebroid.{item}" for item in bialgebroid]
    return CheckReport(tuple(passed(item) for item in items))


# ---------------------------------------------------------------------------
# the cotangent double of a dual pair


def _cotangent_lavb(
    side: LieAlgebroid,
    bundle_frames: Tuple[str, ...],
    core_frames: Tuple[str, ...],
    sign: int,
) -> LAVBundle:
    """One LA-vector bundle structure of the cotangent double over `side`.

    This is the generator data of the cotangent algebroid of the linear
    Poisson structure that `side` induces on its dual, in closed form: the
    linear generators dxi_beta and the core generators dx^i.  `sign` = -1
    applies the canonical map, which negates the cotangent-of-base core.
    Only the anchor entries and structure functions that hold a coordinate
    are differentiated (`gradient`).
    """
    nonzero = side.nonzero_structure
    core_ders = tuple(
        tuple(((gamma, i), d) for gamma, entry in enumerate(row) for i, d in gradient(entry))
        for row in side.anchor
    )
    core_anchor = sorted(
        ((gamma, a), -entry if sign == 1 else entry)
        for a, row in enumerate(side.anchor)
        for gamma, entry in enumerate(row)
        if entry
    )
    twist = []
    for b1, b2 in itertools.combinations(range(side.rank), 2):
        mat = tuple(((a, i), d if sign == 1 else -d) for a, coeff in nonzero[b1][b2] for i, d in gradient(coeff))
        if mat:
            twist.append(((b1, b2), mat))
    data = (coadjoint(side), core_ders, tuple(core_anchor), tuple(twist))
    return LAVBundle._from_stored(side, bundle_frames, core_frames, *data)


def build_cotangent_double(L: LieAlgebroid, Lstar: LieAlgebroid) -> DoubleLieAlgebroid:
    """The candidate double on the cotangent of the underlying bundle.

    Vertical structure: the cotangent algebroid of the linear Poisson
    structure that Lstar induces on the bundle of L.  Horizontal structure:
    the cotangent algebroid of the Poisson structure L induces on the dual,
    carried over by the canonical map (which fixes both sides and negates
    the cotangent-of-base core).  Both are written down in closed form from
    the anchors and structure functions; the linear Poisson structures are
    Poisson because both inputs are valid algebroids.  Validity of the
    double is decided by `check_double`; by the duality criterion it passes
    exactly when (L, Lstar) is a dual pair in the bialgebroid sense.
    """
    require_valid(L, "primary algebroid")
    require_valid(Lstar, "dual algebroid")
    if L.chart != Lstar.chart or L.rank != Lstar.rank:
        raise DoubleMismatch("inputs are not structures on a dual pair of bundles")
    shared = [name for name in L.frames if name in Lstar.frames]
    if shared:
        raise DoubleMismatch(f"primary and dual algebroids share frame names: {', '.join(shared)}")
    # the induced duals add the fibre coordinate xi_<core frame> to the
    # chart, so a core frame must not be named after one already there
    prefix = fibre_coordinate("")
    fibre_named = tuple(name[len(prefix) :] for name in L.chart.names if name.startswith(prefix))
    core_frames = unique_names(
        [f"d{name}" for name in L.chart.names],
        L.frames + Lstar.frames + L.chart.names + fibre_named,
    )
    vert = _cotangent_lavb(Lstar, L.frames, core_frames, 1)
    hor = _cotangent_lavb(L, Lstar.frames, core_frames, -1)
    return DoubleLieAlgebroid(vert, hor)


# ---------------------------------------------------------------------------
# vacant doubles and matched pairs


def assemble_vacant_double(mp: MatchedPair) -> DoubleLieAlgebroid:
    """The candidate vacant double of a pair of actions (no validity gating)."""
    return DoubleLieAlgebroid(*vacant_lavbundles(mp))


def matched_from_vacant(dla: DoubleLieAlgebroid) -> Tuple[MatchedPair, CheckReport]:
    """The two actions of a vacant double and their passing `check_matched`
    report; raises when they are not matched.

    This is the one check of the correspondence: a pair is matched exactly
    when its vacant double is a double Lie algebroid (the paper's last
    theorem), and then its bowtie, `assemble_bowtie`, is the diagonal
    structure of the double (Mokri 1997), so neither is re-checked.
    """
    if not dla.is_vacant:
        raise DoubleMismatch("double has a nonzero core")
    mp = MatchedPair(
        dla.side_a,
        dla.side_b,
        dla.horizontal.anchor_derivations,
        dla.vertical.anchor_derivations,
    )
    rep = check_matched(mp)
    if not rep.ok:
        raise MatchedPairError(
            f"extracted actions are not matched: {rep.first_failure.witness}"
        )
    return mp, rep

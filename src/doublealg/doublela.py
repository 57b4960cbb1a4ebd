"""Double Lie algebroids: the compatibility checker and its main examples.

A candidate double is a pair of LA-vector bundle structures on one split
double vector bundle: a vertical one (algebroid on D -> A over side B) and
a horizontal one (algebroid on D -> B over side A).  The defining check
computes both induced algebroids over the dual of the core, identifies them
as a dual pair through the duality isomorphisms (which fix the transposed
linear generators and negate the opposite core generators), and runs the
bialgebroid compatibility check on that pair.

Also here: the structural consequences used as redundant oracles (core
anchor coincidence, the induced algebroid on the core, anchor morphism
compatibility at a generic point and on generators), the cotangent double
of a dual pair of algebroids, and the matched pair read off a vacant double.
The anchor of D is written from generator data in one place,
`lavb._generator_algebroid`; the anchor items of the diagnostics read it
off the two total algebroids `vertical.total` and `horizontal.total`, and
the core-anchor items compose the core anchors with the side anchors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .algebroid import (
    Derivation,
    LieAlgebroid,
    Multisection,
    PoissonChart,
    VectorField,
    bracket_sections,
    change_frames,
    check_algebroid,
    check_compatibility,
    fibre_coordinate,
    require_valid,
)
from .exact import Chart, Polynomial
from .lavb import LAVBundle, bundle_fibre_coordinate, check_lavb, unique_names
from .matched import (
    MatchedPair,
    MatchedPairError,
    RepresentationMap,
    check_matched,
    vacant_lavbundles,
)
from .verdicts import CheckItem, CheckReport, failed, passed


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
    def core_poisson(self) -> PoissonChart:
        return core_poisson(self)

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
    those dual frames so the standard bialgebroid check applies.
    """
    e_v = dla.vertical.induced_dual
    e_h = dla.horizontal.induced_dual
    ra = dla.side_a.rank
    rb = dla.side_b.rank
    size = ra + rb
    matrix = [[Fraction(0)] * size for _ in range(size)]
    names: List[str] = []
    # dual of transposed-linear frame beta (position beta in e_v) is the
    # core frame psi_beta of e_h (position ra + beta), coefficient +1
    for beta in range(rb):
        matrix[ra + beta][beta] = Fraction(1)
        names.append(e_h.frames[ra + beta])
    # dual of core frame a (position rb + a in e_v) is minus the transposed
    # linear frame eta_a of e_h (position a)
    for a in range(ra):
        matrix[a][rb + a] = Fraction(-1)
        names.append(f"{e_h.frames[a]}_op")
    names = list(unique_names(names, e_h.chart.names))
    dual = change_frames(e_h, matrix, names)
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
    # check_lavb has decided both algebroid axiom checks of the pair: e_v is
    # vertical.induced_dual, and dual is horizontal.induced_dual after an
    # invertible constant frame change, which preserves the axioms.
    e_v, dual = dla.dual_pair
    bial = CheckReport((passed("side"), passed("dual_side"))).merged_with(
        check_compatibility(e_v, dual, seed=seed, max_degree=max_degree)
    )
    items.extend(bial.prefixed("bialgebroid").items)
    return CheckReport(tuple(items))


# ---------------------------------------------------------------------------
# structural consequences (redundant oracles)


def core_poisson(dla: DoubleLieAlgebroid) -> PoissonChart:
    """The Poisson structure induced on the core dual by the bialgebroid pair:
    {f, g} = sum_i e(frame_i)(f) * e_*(dual frame_i)(g)."""
    e_v, dual = dla.dual_pair
    chart = e_v.chart
    size = chart.dim
    coords = [Polynomial.coordinate(chart, name) for name in chart.names]
    matrix = [[Polynomial.zero(chart) for _ in range(size)] for _ in range(size)]
    for u in range(size):
        for w in range(size):
            entry = Polynomial.zero(chart)
            for i in range(e_v.rank):
                left = e_v.anchor_field(i).apply(coords[u])
                if left:
                    right = dual.anchor_field(i).apply(coords[w])
                    if right:
                        entry = entry + left * right
            matrix[u][w] = entry
    # antisymmetry is a consequence of the double axioms; surface any defect
    for u in range(size):
        for w in range(size):
            if matrix[u][w] + matrix[w][u]:
                raise DoubleMismatch(
                    f"induced bracket not antisymmetric at ({chart.names[u]}, {chart.names[w]})"
                )
    return PoissonChart(chart, matrix)


def core_algebroid(dla: DoubleLieAlgebroid) -> LieAlgebroid:
    """The algebroid on the core read off the linear Poisson structure on its
    dual; anchor rows come from the mixed brackets {xi_gamma, x^i}."""
    pois = dla.core_poisson
    base = dla.chart
    n = base.dim
    rc = len(dla.core_frames)
    xi_names = [fibre_coordinate(f) for f in dla.core_frames]
    anchor = []
    for gamma in range(rc):
        row = []
        for i in range(n):
            entry = pois.matrix[n + gamma][i]
            row.append(entry.restrict(base))
        anchor.append(tuple(row))
    brackets: Dict[Tuple[int, int], Tuple[Polynomial, ...]] = {}
    for g1, g2 in itertools.combinations(range(rc), 2):
        entry = pois.matrix[n + g1][n + g2]
        vec = []
        for g3 in range(rc):
            vec.append(entry.coefficient_of(xi_names[g3]).restrict(base))
        remainder = entry
        for g3, coeff in enumerate(vec):
            remainder = remainder - coeff.lift(pois.chart) * Polynomial.coordinate(
                pois.chart, xi_names[g3]
            )
        if remainder:
            raise DoubleMismatch(
                f"core-dual bracket not fibrewise linear at ({g1}, {g2}): {remainder}"
            )
        brackets[(g1, g2)] = tuple(vec)
    return LieAlgebroid(base, dla.core_frames, anchor, brackets)


def _bracket_preserving(
    side: LieAlgebroid, core: LieAlgebroid, core_map, label: str
) -> CheckItem:
    """core_map([c, c']) = [core_map c, core_map c'] on core frames."""
    images = [side.section(row) for row in core_map]
    for g1, g2 in itertools.combinations(range(core.rank), 2):
        lhs = Multisection.zero(side.rank, 1)
        for g3, coeff in enumerate(core.structure[g1][g2]):
            if coeff:
                lhs = lhs + images[g3].scale_by(coeff)
        defect = lhs - bracket_sections(side, images[g1], images[g2])
        if not defect.is_zero:
            return failed(
                label,
                f"core pair ({core.frames[g1]}, {core.frames[g2]}): defect = "
                f"{defect.format(side.frames)}",
            )
    return passed(label)


def _generic_anchor(total: LieAlgebroid, joint: Chart) -> VectorField:
    """The anchor of D at a generic point, sum_k u_k a(e_k) over the frames
    e_k of `total`, with u_k the fibre coordinate of frame k in `joint`."""
    comps = dict.fromkeys(joint.names, Polynomial.zero(joint))
    for frame, row in zip(total.frames, total.anchor):
        u = Polynomial.coordinate(joint, bundle_fibre_coordinate(frame))
        for name, entry in zip(total.chart.names, row):
            if entry:
                comps[name] = comps[name] + u * entry.lift(joint)
    return VectorField(joint, [comps[name] for name in joint.names])


def _anchor_compat(base: Chart, x_v: VectorField, x_h: VectorField) -> CheckItem:
    """Second-order anchor compatibility at a generic point.

    Both anchors D -> TA and D -> TB, pushed through the tangent of the side
    anchors, must give the same second-order velocity: the base part of the
    commutator [X_v, X_h] of the generic anchors vanishes.
    """
    for i, name in enumerate(base.names):
        defect = x_v.apply(x_h.components[i]) - x_h.apply(x_v.components[i])
        if defect:
            return failed("anchor_compat", f"second-order defect on d/d{name}: {defect}")
    return passed("anchor_compat")


def _anchor_bracket_compat(
    delta: LAVBundle, x_delta: VectorField, domain: LAVBundle, label: str
) -> CheckItem:
    """Bracket part of the anchor-morphism condition at generator level.

    `delta` holds the anchor being mapped through (D -> TA for the vertical
    structure) and `x_delta` is its generic anchor; `domain` is the opposite
    structure whose total-space algebroid is the source.  Images of
    generators are decomposed against the tangent-prolongation generators
    (tangent lifts of the side frames and their vertical lifts) pulled back
    along the side anchor, and the morphism identity is compared
    coefficient-by-coefficient.
    """
    dom_alg = domain.total
    chart_b = dom_alg.chart
    joint = x_delta.chart
    side_a = domain.side  # the target side algebroid (frames being lifted)
    ra = side_a.rank
    one, zero = Polynomial.constant(chart_b, 1), Polynomial.zero(chart_b)
    lift_rows = [
        x_delta.components[joint.index(bundle_fibre_coordinate(f))] for f in delta.bundle_frames
    ]

    # decomposition of the anchor image of each domain frame: 2*ra
    # coefficients, first the tangent lifts then the vertical lifts, which
    # are the derivatives of the generic anchor along the frame's coordinate
    def frame_decomposition(k: int) -> List[Polynomial]:
        u = bundle_fibre_coordinate(dom_alg.frames[k])
        return [one if j == k else zero for j in range(ra)] + [
            row.partial(u).restrict(chart_b) for row in lift_rows
        ]

    decompositions = [frame_decomposition(k) for k in range(dom_alg.rank)]

    def section_decomposition(section: Multisection) -> List[Polynomial]:
        out = [zero] * (2 * ra)
        for i, coeff in enumerate(section.vector(chart_b)):
            if not coeff:
                continue
            for k, val in enumerate(decompositions[i]):
                if val:
                    out[k] = out[k] + coeff * val
        return out

    # pullback of the derivative function of a base polynomial along the
    # generic anchor: fdot = X_delta(f)
    def derivative_function(f: Polynomial) -> Polynomial:
        return x_delta.apply(f.lift(joint)).restrict(chart_b)

    def target_bracket(j: int, k: int) -> List[Polynomial]:
        out = [zero] * (2 * ra)
        if j < ra and k < ra:
            for gamma, coeff in enumerate(side_a.structure[j][k]):
                if coeff:
                    out[gamma] = out[gamma] + coeff.lift(chart_b)
                    out[ra + gamma] = out[ra + gamma] + derivative_function(coeff)
        elif j < ra <= k:
            for gamma, coeff in enumerate(side_a.structure[j][k - ra]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] + coeff.lift(chart_b)
        elif k < ra <= j:
            for gamma, coeff in enumerate(side_a.structure[j - ra][k]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] - coeff.lift(chart_b)
        return out

    gen_names = [f"T({name})" for name in side_a.frames] + [
        f"lift({name})" for name in side_a.frames
    ]
    for i, j in itertools.combinations(range(dom_alg.rank), 2):
        u_coeffs = decompositions[i]
        v_coeffs = decompositions[j]
        lhs = section_decomposition(dom_alg.frame_bracket(i, j))
        rhs = [zero] * (2 * ra)
        for p in range(2 * ra):
            if not u_coeffs[p]:
                continue
            for q in range(2 * ra):
                if not v_coeffs[q]:
                    continue
                for k, val in enumerate(target_bracket(p, q)):
                    if val:
                        rhs[k] = rhs[k] + u_coeffs[p] * v_coeffs[q] * val
        anchor_i = dom_alg.anchor_field(i)
        anchor_j = dom_alg.anchor_field(j)
        for k in range(2 * ra):
            rhs[k] = rhs[k] + anchor_i.apply(v_coeffs[k]) - anchor_j.apply(u_coeffs[k])
        for k in range(2 * ra):
            if lhs[k] - rhs[k]:
                return failed(
                    label,
                    f"generator pair ({dom_alg.frames[i]}, {dom_alg.frames[j]}), "
                    f"target {gen_names[k]}: defect = {lhs[k] - rhs[k]}",
                )
    return passed(label)


def _first_difference(rows, other_rows, dim: int):
    """The first (row, coordinate) at which two anchor matrices differ."""
    cells = itertools.product(range(len(rows)), range(dim))
    return next(((g, i) for g, i in cells if rows[g][i] - other_rows[g][i]), None)


def structural_diagnostics(dla: DoubleLieAlgebroid) -> CheckReport:
    """Consequences of the double axioms, re-verified as redundant oracles.

    (i) the two core maps composed with the side anchors agree;
    (ii) the induced algebroid on the core is valid, its anchor is the
         composite of (i), and both core maps preserve brackets;
    (iii) both anchors are algebroid morphisms over the opposite side anchor
         (second-order generic-point identity plus the generator-level
         bracket condition for each direction).

    The anchor item of (ii), `core_anchor_induced`, holds by construction
    and is reported without computing it.  `core_algebroid` reads the anchor
    of c_gamma off {xi_gamma, x^k}, which sums the anchors of the frames of
    e_v on xi_gamma against the base anchors of the dual frames.  The
    transposed-linear frames of e_v meet the B*-core frames of the dual,
    whose base anchor is zero; the A*-core frame a of e_v, with anchor
    -d_A[gamma][a] on xi_gamma, meets -eta_a, whose base anchor is minus the
    base field of the horizontal core derivation of e_a, that is -rho_A(e_a)
    (see below).  So the induced anchor is rho_A o d_A, the composite of
    (i).  The tests keep the comparison as the oracle.

    The items of (iii) read the anchor of D off the total algebroids
    `dla.vertical.total` and `dla.horizontal.total` that `check_lavb`
    builds, through their generic anchors X_v and X_h (`_generic_anchor`,
    on the joint chart (x, u_A, u_B, u_C)); `lavb._generator_algebroid` is
    the one writer of that anchor.  Its base components are the base fields
    of the derivations, which agree with the side anchors whenever
    `check_lavb`'s `base_fields` item passes; on other inputs `check_double`
    fails first.  Any failure on a double that passed `check_double`
    indicates an internal inconsistency, not a property of the input.
    """
    items: List[CheckItem] = []
    side_a, side_b = dla.side_a, dla.side_b
    vert, hor = dla.vertical, dla.horizontal
    base = dla.chart

    a_core = [side_a.anchor_of(side_a.section(row)).components for row in vert.core_anchor]
    b_core = [side_b.anchor_of(side_b.section(row)).components for row in hor.core_anchor]
    hit = _first_difference(a_core, b_core, base.dim)
    if hit:
        gamma, i = hit
        items.append(
            failed(
                "core_anchor_match",
                f"core frame {dla.core_frames[gamma]}, d/d{base.names[i]}: "
                f"{a_core[gamma][i]} vs {b_core[gamma][i]}",
            )
        )
    else:
        items.append(passed("core_anchor_match"))

    if dla.core_frames:
        try:
            core = dla.core
        except (DoubleMismatch, ValueError) as exc:
            items.append(failed("core_algebroid", str(exc)))
            core = None
        if core is not None:
            rep = check_algebroid(core)
            items.append(
                passed("core_algebroid")
                if rep.ok
                else failed("core_algebroid", rep.first_failure.witness)
            )
            # the induced anchor is rho_A o d_A by construction (see above)
            items.append(passed("core_anchor_induced"))
            items.append(_bracket_preserving(side_a, core, vert.core_anchor, "core_map_A"))
            items.append(_bracket_preserving(side_b, core, hor.core_anchor, "core_map_B"))

    joint = base.extend(
        bundle_fibre_coordinate(f)
        for f in vert.bundle_frames + hor.bundle_frames + dla.core_frames
    )
    x_v, x_h = _generic_anchor(vert.total, joint), _generic_anchor(hor.total, joint)
    items.append(_anchor_compat(base, x_v, x_h))
    items.append(_anchor_bracket_compat(vert, x_v, hor, "anchor_brackets_A"))
    items.append(_anchor_bracket_compat(hor, x_h, vert, "anchor_brackets_B"))
    return CheckReport(tuple(items))


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
    """
    names = side.chart.names
    n, r = len(names), side.rank
    anchor_ders = []
    core_ders = []
    for beta in range(r):
        field = side.anchor_field(beta)
        m = [[-side.structure[beta][a][b] for a in range(r)] for b in range(r)]
        q = [[side.anchor[beta][gamma].partial(x) for x in names] for gamma in range(n)]
        anchor_ders.append(Derivation(field, m))
        core_ders.append(Derivation(field, q))
    core_anchor = [[side.anchor[a][gamma].scale(-sign) for a in range(r)] for gamma in range(n)]
    twist = {
        (b1, b2): [[side.structure[b1][b2][a].partial(x).scale(sign) for x in names] for a in range(r)]
        for b1, b2 in itertools.combinations(range(r), 2)
    }
    return LAVBundle(side, bundle_frames, core_frames, anchor_ders, core_ders, core_anchor, twist)


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
    core_frames = unique_names(
        [f"d{name}" for name in L.chart.names],
        L.frames + Lstar.frames + L.chart.names,
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
        RepresentationMap(dla.horizontal.anchor_derivations),
        RepresentationMap(dla.vertical.anchor_derivations),
    )
    rep = check_matched(mp)
    if not rep.ok:
        raise MatchedPairError(
            f"extracted actions are not matched: {rep.first_failure.witness}"
        )
    return mp, rep

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
of a dual pair of algebroids, and the diagonal structure of vacant doubles.
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
    bracket_sections,
    change_frames,
    check_algebroid,
    check_compatibility,
    fibre_coordinate,
    require_valid,
)
from .dvb import DecomposedDVB
from .exact import Chart, Polynomial
from .lavb import LAVBundle, bundle_fibre_coordinate, check_lavb, unique_names
from .matched import (
    MatchedPair,
    MatchedPairError,
    RepresentationMap,
    assemble_bowtie,
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

    def dvb(self) -> DecomposedDVB:
        return DecomposedDVB(
            self.chart, self.vertical.bundle_frames, self.side_b.frames, self.core_frames
        )

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


def _compose_anchor(side: LieAlgebroid, core_anchor) -> List[List[Polynomial]]:
    """(anchor of side) o (core map): matrix with one row per core frame."""
    base = side.chart
    n = base.dim
    rows = []
    for row in core_anchor:
        out = [Polynomial.zero(base) for _ in range(n)]
        for alpha, coeff in enumerate(row):
            if coeff:
                for i in range(n):
                    if side.anchor[alpha][i]:
                        out[i] = out[i] + coeff * side.anchor[alpha][i]
        rows.append(out)
    return rows


def _bracket_preserving(
    side: LieAlgebroid, core: LieAlgebroid, core_map, label: str
) -> CheckItem:
    """core_map([c, c']) = [core_map c, core_map c'] on core frames."""
    base = side.chart
    for g1, g2 in itertools.combinations(range(core.rank), 2):
        image_of_bracket = [Polynomial.zero(base) for _ in range(side.rank)]
        for g3, coeff in enumerate(core.structure[g1][g2]):
            if coeff:
                for alpha in range(side.rank):
                    if core_map[g3][alpha]:
                        image_of_bracket[alpha] = image_of_bracket[alpha] + coeff * core_map[g3][alpha]
        lhs = side.section(image_of_bracket)
        rhs = bracket_sections(
            side, side.section(list(core_map[g1])), side.section(list(core_map[g2]))
        )
        defect = lhs - rhs
        if not defect.is_zero:
            return failed(
                label,
                f"core pair ({core.frames[g1]}, {core.frames[g2]}): defect = "
                f"{defect.format(side.frames)}",
            )
    return passed(label)


def _generic_anchor_identity(dla: DoubleLieAlgebroid) -> CheckItem:
    """Second-order anchor compatibility at a generic point.

    Both anchors D -> TA and D -> TB, pushed through the tangent of the side
    anchors, must give the same second-order velocity; expanded as an exact
    polynomial identity in base, side and core fibre coordinates.
    """
    base = dla.chart
    side_a, side_b = dla.side_a, dla.side_b
    vert, hor = dla.vertical, dla.horizontal
    a_frames, b_frames, c_frames = (
        vert.bundle_frames,
        hor.bundle_frames,
        dla.core_frames,
    )
    big = base.extend(
        [bundle_fibre_coordinate(f) for f in a_frames]
        + [bundle_fibre_coordinate(f) for f in b_frames]
        + [bundle_fibre_coordinate(f) for f in c_frames]
    )
    ua = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in a_frames]
    ub = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in b_frames]
    uc = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in c_frames]
    n, ra, rb, rc = base.dim, len(a_frames), len(b_frames), len(c_frames)

    def lifted(p: Polynomial) -> Polynomial:
        return p.lift(big)

    v = [Polynomial.zero(big) for _ in range(n)]
    for beta in range(rb):
        for i in range(n):
            if side_b.anchor[beta][i]:
                v[i] = v[i] + lifted(side_b.anchor[beta][i]) * ub[beta]
    w = [Polynomial.zero(big) for _ in range(n)]
    for alpha in range(ra):
        for i in range(n):
            if side_a.anchor[alpha][i]:
                w[i] = w[i] + lifted(side_a.anchor[alpha][i]) * ua[alpha]

    adot = [Polynomial.zero(big) for _ in range(ra)]
    for beta in range(rb):
        der = vert.anchor_derivations[beta]
        for b in range(ra):
            for a in range(ra):
                entry = der.matrix[b][a]
                if entry:
                    adot[a] = adot[a] - lifted(entry) * ub[beta] * ua[b]
    for gamma in range(rc):
        for a in range(ra):
            if vert.core_anchor[gamma][a]:
                adot[a] = adot[a] + lifted(vert.core_anchor[gamma][a]) * uc[gamma]

    bdot = [Polynomial.zero(big) for _ in range(rb)]
    for alpha in range(ra):
        der = hor.anchor_derivations[alpha]
        for b in range(rb):
            for c in range(rb):
                entry = der.matrix[b][c]
                if entry:
                    bdot[c] = bdot[c] - lifted(entry) * ua[alpha] * ub[b]
    for gamma in range(rc):
        for b in range(rb):
            if hor.core_anchor[gamma][b]:
                bdot[b] = bdot[b] + lifted(hor.core_anchor[gamma][b]) * uc[gamma]

    for i in range(n):
        lhs = Polynomial.zero(big)
        for alpha in range(ra):
            for j, name in enumerate(base.names):
                d = side_a.anchor[alpha][i].partial(name)
                if d:
                    lhs = lhs + lifted(d) * v[j] * ua[alpha]
            if side_a.anchor[alpha][i]:
                lhs = lhs + lifted(side_a.anchor[alpha][i]) * adot[alpha]
        rhs = Polynomial.zero(big)
        for beta in range(rb):
            for j, name in enumerate(base.names):
                d = side_b.anchor[beta][i].partial(name)
                if d:
                    rhs = rhs + lifted(d) * w[j] * ub[beta]
            if side_b.anchor[beta][i]:
                rhs = rhs + lifted(side_b.anchor[beta][i]) * bdot[beta]
        if lhs - rhs:
            return failed(
                "anchor_compat",
                f"second-order defect on d/d{base.names[i]}: {lhs - rhs}",
            )
    return passed("anchor_compat")


def _anchor_bracket_compat(delta: LAVBundle, domain: LAVBundle, label: str) -> CheckItem:
    """Bracket part of the anchor-morphism condition at generator level.

    `delta` holds the anchor data being mapped through (D -> TA for the
    vertical structure), `domain` the opposite structure whose total-space
    algebroid is the source.  Images of generators are decomposed against
    the tangent-prolongation generators (tangent lifts of the side frames
    and their vertical lifts) pulled back along the side anchor, and the
    morphism identity is compared coefficient-by-coefficient.
    """
    dom_alg = domain.total
    chart_b = dom_alg.chart
    base = domain.chart
    side_a = domain.side  # the target side algebroid (frames being lifted)
    side_b = delta.side
    ra = side_a.rank
    rb = len(domain.bundle_frames)
    u_b = [
        Polynomial.coordinate(chart_b, bundle_fibre_coordinate(f))
        for f in domain.bundle_frames
    ]

    def lift(p: Polynomial) -> Polynomial:
        return p.lift(chart_b)

    # decomposition of the anchor image of each domain frame:
    # 2*ra coefficients, first the tangent lifts then the vertical lifts
    def frame_decomposition(i: int) -> List[Polynomial]:
        coeffs = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        if i < ra:
            coeffs[i] = Polynomial.constant(chart_b, 1)
            for a in range(ra):
                entry = Polynomial.zero(chart_b)
                for beta in range(rb):
                    m = delta.anchor_derivations[beta].matrix[i][a]
                    if m:
                        entry = entry - lift(m) * u_b[beta]
                coeffs[ra + a] = entry
        else:
            gamma = i - ra
            for a in range(ra):
                if delta.core_anchor[gamma][a]:
                    coeffs[ra + a] = lift(delta.core_anchor[gamma][a])
        return coeffs

    def section_decomposition(section: Multisection) -> List[Polynomial]:
        comps = section.vector(chart_b)
        out = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        for i, coeff in enumerate(comps):
            if not coeff:
                continue
            for k, val in enumerate(frame_decomposition(i)):
                if val:
                    out[k] = out[k] + coeff * val
        return out

    # pullback of the derivative function of a base polynomial:
    # fdot(x, xdot) = sum_j d_j f * xdot^j with xdot = side_b anchor of u_b
    def derivative_function(f: Polynomial) -> Polynomial:
        out = Polynomial.zero(chart_b)
        for j, name in enumerate(base.names):
            d = f.partial(name)
            if not d:
                continue
            xdot = Polynomial.zero(chart_b)
            for beta in range(rb):
                if side_b.anchor[beta][j]:
                    xdot = xdot + lift(side_b.anchor[beta][j]) * u_b[beta]
            out = out + lift(d) * xdot
        return out

    def target_bracket(j: int, k: int) -> List[Polynomial]:
        out = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        if j < ra and k < ra:
            for gamma, coeff in enumerate(side_a.structure[j][k]):
                if coeff:
                    out[gamma] = out[gamma] + lift(coeff)
                    out[ra + gamma] = out[ra + gamma] + derivative_function(coeff)
        elif j < ra <= k:
            for gamma, coeff in enumerate(side_a.structure[j][k - ra]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] + lift(coeff)
        elif k < ra <= j:
            for gamma, coeff in enumerate(side_a.structure[j - ra][k]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] - lift(coeff)
        return out

    gen_names = [f"T({name})" for name in side_a.frames] + [
        f"lift({name})" for name in side_a.frames
    ]
    for i, j in itertools.combinations(range(dom_alg.rank), 2):
        u_coeffs = frame_decomposition(i)
        v_coeffs = frame_decomposition(j)
        lhs = section_decomposition(dom_alg.frame_bracket(i, j))
        rhs = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
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


def structural_diagnostics(dla: DoubleLieAlgebroid) -> CheckReport:
    """Consequences of the double axioms, re-verified as redundant oracles.

    (i) the two core maps composed with the side anchors agree;
    (ii) the induced algebroid on the core is valid, its anchor is the
         composite of (i), and both core maps preserve brackets;
    (iii) both anchors are algebroid morphisms over the opposite side anchor
         (second-order generic-point identity plus the generator-level
         bracket condition for each direction).
    Any failure on a double that passed `check_double` indicates an
    internal inconsistency, not a property of the input.
    """
    items: List[CheckItem] = []
    side_a, side_b = dla.side_a, dla.side_b
    base = dla.chart

    a_core = _compose_anchor(side_a, dla.vertical.core_anchor)
    b_core = _compose_anchor(side_b, dla.horizontal.core_anchor)
    witness = None
    for gamma in range(len(dla.core_frames)):
        for i in range(base.dim):
            if a_core[gamma][i] - b_core[gamma][i]:
                witness = (
                    f"core frame {dla.core_frames[gamma]}, d/d{base.names[i]}: "
                    f"{a_core[gamma][i]} vs {b_core[gamma][i]}"
                )
                break
        if witness:
            break
    items.append(failed("core_anchor_match", witness) if witness else passed("core_anchor_match"))

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
            witness = None
            for gamma in range(core.rank):
                for i in range(base.dim):
                    if core.anchor[gamma][i] - a_core[gamma][i]:
                        witness = (
                            f"core frame {core.frames[gamma]}: induced anchor "
                            f"{core.anchor[gamma][i]} vs composite {a_core[gamma][i]}"
                        )
                        break
                if witness:
                    break
            items.append(
                failed("core_anchor_induced", witness)
                if witness
                else passed("core_anchor_induced")
            )
            items.append(
                _bracket_preserving(side_a, core, dla.vertical.core_anchor, "core_map_A")
            )
            items.append(
                _bracket_preserving(side_b, core, dla.horizontal.core_anchor, "core_map_B")
            )

    items.append(_generic_anchor_identity(dla))
    items.append(_anchor_bracket_compat(dla.vertical, dla.horizontal, "anchor_brackets_A"))
    items.append(_anchor_bracket_compat(dla.horizontal, dla.vertical, "anchor_brackets_B"))
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


def vacant_from_matched(mp: MatchedPair) -> DoubleLieAlgebroid:
    """Build the vacant double of a matched pair.

    Runs one check, `check_matched`, as input validation.  A pair is matched
    exactly when its vacant double is a double Lie algebroid (the paper's
    last theorem), so the double is not re-checked; the tests keep
    `check_double(assemble_vacant_double(mp))` as the oracle.
    """
    matched_rep = check_matched(mp)
    if not matched_rep.ok:
        raise MatchedPairError(
            f"not a matched pair: {matched_rep.first_failure.witness}"
        )
    return assemble_vacant_double(mp)


def matched_from_vacant(dla: DoubleLieAlgebroid) -> MatchedPair:
    """Read the two actions off a vacant double; the result is validated."""
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
    return mp


def diagonal_structure(dla: DoubleLieAlgebroid) -> LieAlgebroid:
    """The third structure of a vacant double: the bowtie on A + B over M.

    The one check is the `check_matched` inside `matched_from_vacant`.  The
    bowtie of a matched pair is a Lie algebroid (Mokri 1997), so it is
    assembled without a second `check_matched` or an axiom check.
    """
    return assemble_bowtie(matched_from_vacant(dla))

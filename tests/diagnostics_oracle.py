"""The structural diagnostics of a double, expanded by hand: the oracle of
`doublela.structural_diagnostics`.

The product states every item as passed, since it runs only on doubles
that passed `check_double`, where each item is a theorem.  This module
computes the same items, with the same ids and witnesses, from the generator
data of the two LA-vector bundles:

- `core_anchor_match`: the core anchors composed entry by entry with the
  side anchors;
- `core_algebroid`, `core_anchor_induced`, `core_map_A`, `core_map_B`: the
  axioms of `dla.core`, its anchor against the composite, and the core maps
  against the side brackets;
- `anchor_compat`: the second-order identity at a generic point, as an exact
  polynomial identity in base, side and core fibre coordinates;
- `anchor_brackets_A`, `anchor_brackets_B`: the generator-level bracket
  condition, with the anchor images and derivative functions re-derived
  from the anchor derivations, core anchor and side anchor.

It reads the generator data in the dense form (`support.dense_data`).
It fails on doubles that fail `check_double`, so the tests can show that
the gate comparing it with the product is not vacuous.
"""

import itertools
from typing import List

from doublealg.algebroid import LieAlgebroid, bracket_sections, check_algebroid
from doublealg.doublela import DoubleLieAlgebroid, DoubleMismatch
from doublealg.exact import Polynomial
from doublealg.lavb import LAVBundle, bundle_fibre_coordinate
from doublealg.verdicts import CheckItem, CheckReport, failed, passed
from support import dense_data, dense_structure, frame_bracket


def compose_anchor(side: LieAlgebroid, core_anchor) -> List[List[Polynomial]]:
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


def bracket_preserving(side, core, core_map, label) -> CheckItem:
    """core_map([c, c']) = [core_map c, core_map c'] on core frames."""
    base = side.chart
    structure = dense_structure(core)
    for g1, g2 in itertools.combinations(range(core.rank), 2):
        image_of_bracket = [Polynomial.zero(base) for _ in range(side.rank)]
        for g3, coeff in enumerate(structure[g1][g2]):
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


def generic_anchor_identity(dla: DoubleLieAlgebroid) -> CheckItem:
    """Second-order anchor compatibility at a generic point, expanded as an
    exact polynomial identity in base, side and core fibre coordinates."""
    base = dla.chart
    side_a, side_b = dla.side_a, dla.side_b
    vert, hor = dla.vertical, dla.horizontal
    a_frames, b_frames, c_frames = vert.bundle_frames, hor.bundle_frames, dla.core_frames
    big = base.extend(
        [bundle_fibre_coordinate(f) for f in a_frames]
        + [bundle_fibre_coordinate(f) for f in b_frames]
        + [bundle_fibre_coordinate(f) for f in c_frames]
    )
    ua = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in a_frames]
    ub = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in b_frames]
    uc = [Polynomial.coordinate(big, bundle_fibre_coordinate(f)) for f in c_frames]
    n, ra, rb, rc = base.dim, len(a_frames), len(b_frames), len(c_frames)
    vert_derivations, _, vert_core_anchor, _ = dense_data(vert)
    hor_derivations, _, hor_core_anchor, _ = dense_data(hor)

    def lifted(p):
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
        der = vert_derivations[beta]
        for b in range(ra):
            for a in range(ra):
                entry = der[b][a]
                if entry:
                    adot[a] = adot[a] - lifted(entry) * ub[beta] * ua[b]
    for gamma in range(rc):
        for a in range(ra):
            if vert_core_anchor[gamma][a]:
                adot[a] = adot[a] + lifted(vert_core_anchor[gamma][a]) * uc[gamma]

    bdot = [Polynomial.zero(big) for _ in range(rb)]
    for alpha in range(ra):
        der = hor_derivations[alpha]
        for b in range(rb):
            for c in range(rb):
                entry = der[b][c]
                if entry:
                    bdot[c] = bdot[c] - lifted(entry) * ua[alpha] * ub[b]
    for gamma in range(rc):
        for b in range(rb):
            if hor_core_anchor[gamma][b]:
                bdot[b] = bdot[b] + lifted(hor_core_anchor[gamma][b]) * uc[gamma]

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


def anchor_bracket_compat(delta: LAVBundle, domain: LAVBundle, label: str) -> CheckItem:
    """Bracket part of the anchor-morphism condition at generator level,
    with the anchor images of the generators and the derivative functions
    re-derived from the anchor derivations, core anchor and side anchor."""
    dom_alg = domain.total
    chart_b = dom_alg.chart
    base = domain.chart
    side_a = domain.side
    side_b = delta.side
    ra = side_a.rank
    structure_a = dense_structure(side_a)
    rb = len(domain.bundle_frames)
    anchor_derivations, _, core_anchor, _ = dense_data(delta)
    u_b = [
        Polynomial.coordinate(chart_b, bundle_fibre_coordinate(f))
        for f in domain.bundle_frames
    ]

    def lift(p):
        return p.lift(chart_b)

    def frame_decomposition(i):
        coeffs = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        if i < ra:
            coeffs[i] = Polynomial.constant(chart_b, 1)
            for a in range(ra):
                entry = Polynomial.zero(chart_b)
                for beta in range(rb):
                    m = anchor_derivations[beta][i][a]
                    if m:
                        entry = entry - lift(m) * u_b[beta]
                coeffs[ra + a] = entry
        else:
            gamma = i - ra
            for a in range(ra):
                if core_anchor[gamma][a]:
                    coeffs[ra + a] = lift(core_anchor[gamma][a])
        return coeffs

    def section_decomposition(section):
        comps = section.vector(chart_b)
        out = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        for i, coeff in enumerate(comps):
            if not coeff:
                continue
            for k, val in enumerate(frame_decomposition(i)):
                if val:
                    out[k] = out[k] + coeff * val
        return out

    def derivative_function(f):
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

    def target_bracket(j, k):
        out = [Polynomial.zero(chart_b) for _ in range(2 * ra)]
        if j < ra and k < ra:
            for gamma, coeff in enumerate(structure_a[j][k]):
                if coeff:
                    out[gamma] = out[gamma] + lift(coeff)
                    out[ra + gamma] = out[ra + gamma] + derivative_function(coeff)
        elif j < ra <= k:
            for gamma, coeff in enumerate(structure_a[j][k - ra]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] + lift(coeff)
        elif k < ra <= j:
            for gamma, coeff in enumerate(structure_a[j - ra][k]):
                if coeff:
                    out[ra + gamma] = out[ra + gamma] - lift(coeff)
        return out

    gen_names = [f"T({name})" for name in side_a.frames] + [
        f"lift({name})" for name in side_a.frames
    ]
    for i, j in itertools.combinations(range(dom_alg.rank), 2):
        u_coeffs = frame_decomposition(i)
        v_coeffs = frame_decomposition(j)
        lhs = section_decomposition(frame_bracket(dom_alg, i, j))
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


def oracle_diagnostics(dla: DoubleLieAlgebroid) -> CheckReport:
    """Every item of `structural_diagnostics`, computed."""
    items: List[CheckItem] = []
    side_a, side_b = dla.side_a, dla.side_b
    base = dla.chart

    a_map, b_map = dense_data(dla.vertical)[2], dense_data(dla.horizontal)[2]
    a_core = compose_anchor(side_a, a_map)
    b_core = compose_anchor(side_b, b_map)
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
                failed("core_anchor_induced", witness) if witness else passed("core_anchor_induced")
            )
            items.append(bracket_preserving(side_a, core, a_map, "core_map_A"))
            items.append(bracket_preserving(side_b, core, b_map, "core_map_B"))

    items.append(generic_anchor_identity(dla))
    items.append(anchor_bracket_compat(dla.vertical, dla.horizontal, "anchor_brackets_A"))
    items.append(anchor_bracket_compat(dla.horizontal, dla.vertical, "anchor_brackets_B"))
    return CheckReport(tuple(items))

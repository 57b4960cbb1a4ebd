"""Matched pairs of Lie algebroids: mutual representations, the bowtie
algebroid on the direct sum, and the two semidirect products on the duals.

A representation of A on a bundle E assigns to each frame of A a derivation
on E over the anchor field; flatness (bracket goes to commutator) is a
checked precondition, never assumed.  The three compatibility identities
are expanded exactly on frames with polynomial coefficients.

Matched pairs correspond to vacant double Lie algebroids (the paper's last
theorem), so `check_matched` is the one check of a pair: `assemble_bowtie`
and the vacant double are built without validity gating, and the tests keep
their own checks as oracles.  `vacant_lavbundles` assembles the two
LA-vector bundles of that double.  Their induced duals over the zero core
dual are the semidirect products on A* + B and A^op + B* (Mokri, "Matched
pairs of Lie algebroids", Glasgow Math. J. 39, 1997), so
`build_semidirects` reads them off by constant frame changes and writes
out no anchor or bracket itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebroid import (
    Derivation,
    LieAlgebroid,
    Multisection,
    bracket_sections,
    change_frames,
    check_algebroid,
)
from .exact import Chart, ChartMismatch, Polynomial
from .lavb import LAVBundle
from .verdicts import CheckItem, CheckReport, failed, passed


class MatchedPairError(ValueError):
    """Actions read off a vacant double are not a matched pair."""


@dataclass(frozen=True)
class RepresentationMap:
    """One derivation on the target bundle per frame of the acting algebroid."""

    derivations: Tuple[Derivation, ...]

    def __init__(self, derivations: Sequence[Derivation]):
        object.__setattr__(self, "derivations", tuple(derivations))

    def of_section(self, acting: LieAlgebroid, section: Multisection) -> Derivation:
        """The derivation for a polynomial-coefficient acting section."""
        comps = section.vector(acting.chart)
        rank = self.derivations[0].bundle_rank if self.derivations else 0
        out = Derivation.zero(acting.chart, rank)
        for alpha, coeff in enumerate(comps):
            if coeff:
                out = out + self.derivations[alpha].scale_by(coeff)
        return out

    def apply(self, alpha: int, comps: Sequence[Polynomial]) -> Tuple[Polynomial, ...]:
        return self.derivations[alpha].apply(comps)


def check_representation(
    acting: LieAlgebroid, rep: RepresentationMap, label: str
) -> CheckReport:
    """Base fields match the anchor; bracket of frames acts as commutator."""
    items: List[CheckItem] = []
    witness = None
    for alpha in range(acting.rank):
        d = rep.derivations[alpha]
        if d.base_field.components != acting.anchor_field(alpha).components:
            witness = (
                f"{label}({acting.frames[alpha]}) sits over {d.base_field}, "
                f"expected the anchor {acting.anchor_field(alpha)}"
            )
            break
    items.append(failed(f"{label}.base_fields", witness) if witness else passed(f"{label}.base_fields"))

    witness = None
    for a, b in itertools.combinations(range(acting.rank), 2):
        commutator = rep.derivations[a].commutator(rep.derivations[b])
        expected = rep.of_section(acting, acting.frame_bracket(a, b))
        if not commutator.equals(expected):
            witness = (
                f"flatness fails on ({acting.frames[a]}, {acting.frames[b]})"
            )
            break
    items.append(failed(f"{label}.flat", witness) if witness else passed(f"{label}.flat"))
    return CheckReport(tuple(items))


@dataclass(frozen=True)
class MatchedPair:
    algebroid_a: LieAlgebroid
    algebroid_b: LieAlgebroid
    rho: RepresentationMap  # A acting on the bundle of B
    sigma: RepresentationMap  # B acting on the bundle of A

    def __post_init__(self):
        if self.algebroid_a.chart != self.algebroid_b.chart:
            raise ChartMismatch("matched pair needs a shared base chart")
        if len(self.rho.derivations) != self.algebroid_a.rank:
            raise ValueError("rho needs one derivation per A-frame")
        if len(self.sigma.derivations) != self.algebroid_b.rank:
            raise ValueError("sigma needs one derivation per B-frame")
        for d in self.rho.derivations:
            if d.bundle_rank != self.algebroid_b.rank:
                raise ValueError("rho derivations must act on B")
        for d in self.sigma.derivations:
            if d.bundle_rank != self.algebroid_a.rank:
                raise ValueError("sigma derivations must act on A")

    @property
    def chart(self) -> Chart:
        return self.algebroid_a.chart


def _derivation_identity(
    acting: LieAlgebroid,
    target: LieAlgebroid,
    act: RepresentationMap,
    back: RepresentationMap,
    number: int,
) -> CheckItem:
    """Identity 1 (acting A, act rho, back sigma) or its mirror 2, on frames:
    act_X([Y1, Y2]) = [act_X Y1, Y2] + [Y1, act_X Y2]
                      + act_{back_{Y2} X}(Y1) - act_{back_{Y1} X}(Y2).
    """
    chart = target.chart
    for alpha in range(acting.rank):
        x = acting.frame_section(alpha).vector(chart)
        for t1, t2 in itertools.combinations(range(target.rank), 2):
            y1, y2 = target.frame_section(t1), target.frame_section(t2)
            v1, v2 = y1.vector(chart), y2.vector(chart)
            lhs = act.apply(alpha, target.frame_bracket(t1, t2).vector(chart))
            rhs = bracket_sections(target, target.section(act.apply(alpha, v1)), y2)
            rhs = rhs + bracket_sections(target, y1, target.section(act.apply(alpha, v2)))
            back_2 = act.of_section(acting, acting.section(back.apply(t2, x)))
            back_1 = act.of_section(acting, acting.section(back.apply(t1, x)))
            rhs = rhs + target.section(back_2.apply(v1))
            rhs = rhs - target.section(back_1.apply(v2))
            defect = target.section(lhs) - rhs
            if not defect.is_zero:
                return failed(
                    f"identity_{number}",
                    f"identity {number} at ({acting.frames[alpha]}; {target.frames[t1]}, "
                    f"{target.frames[t2]}): defect = {defect.format(target.frames)}",
                )
    return passed(f"identity_{number}")


def check_matched(mp: MatchedPair) -> CheckReport:
    """The two mixed derivation identities plus the anchor identity, on frames.

    Preconditions (both algebroids valid, both representations flat) are
    re-verified and reported first.
    """
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    items: List[CheckItem] = []
    for label, alg in (("A", a_alg), ("B", b_alg)):
        rep = check_algebroid(alg)
        items.append(passed(f"algebroid_{label}") if rep.ok else failed(f"algebroid_{label}", rep.first_failure.witness))
    items.extend(check_representation(a_alg, mp.rho, "rho").items)
    items.extend(check_representation(b_alg, mp.sigma, "sigma").items)
    if not all(i.ok for i in items):
        return CheckReport(tuple(items))

    items.append(_derivation_identity(a_alg, b_alg, mp.rho, mp.sigma, 1))
    items.append(_derivation_identity(b_alg, a_alg, mp.sigma, mp.rho, 2))

    # identity 3: a(sigma_Y X) - b(rho_X Y) = [b(Y), a(X)]
    witness = None
    for alpha in range(a_alg.rank):
        if witness:
            break
        for beta in range(b_alg.rank):
            x = a_alg.frame_section(alpha)
            y = b_alg.frame_section(beta)
            lhs = a_alg.anchor_of(a_alg.section(mp.sigma.apply(beta, x.vector(a_alg.chart))))
            lhs = lhs - b_alg.anchor_of(b_alg.section(mp.rho.apply(alpha, y.vector(b_alg.chart))))
            rhs = b_alg.anchor_field(beta).commutator(a_alg.anchor_field(alpha))
            defect = lhs - rhs
            if not defect.is_zero:
                witness = (
                    f"identity 3 at ({a_alg.frames[alpha]}, {b_alg.frames[beta]}): "
                    f"defect = {defect}"
                )
                break
    items.append(failed("identity_3", witness) if witness else passed("identity_3"))
    return CheckReport(tuple(items))


def assemble_bowtie(mp: MatchedPair) -> LieAlgebroid:
    """The candidate algebroid on A + B (no validity gating)."""
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    chart = mp.chart
    ra, rb = a_alg.rank, b_alg.rank
    zero = Polynomial.zero(chart)
    frames = a_alg.frames + b_alg.frames
    anchor = [tuple(a_alg.anchor[i]) for i in range(ra)] + [tuple(b_alg.anchor[j]) for j in range(rb)]
    brackets: Dict[Tuple[int, int], List[Polynomial]] = {}
    for offset, side in ((0, a_alg), (ra, b_alg)):
        for i, j in itertools.combinations(range(side.rank), 2):
            if side.nonzero_structure[i][j]:
                vec = brackets[(offset + i, offset + j)] = [zero] * (ra + rb)
                for g, coeff in side.nonzero_structure[i][j]:
                    vec[offset + g] = coeff
    for i in range(ra):
        x = a_alg.frame_section(i)
        for j in range(rb):
            y = b_alg.frame_section(j)
            sigma_part = mp.sigma.apply(j, x.vector(chart))
            rho_part = mp.rho.apply(i, y.vector(chart))
            brackets[(i, ra + j)] = tuple(-p for p in sigma_part) + tuple(rho_part)
    return LieAlgebroid(chart, frames, anchor, brackets)


def vacant_lavbundles(mp: MatchedPair) -> Tuple[LAVBundle, LAVBundle]:
    """The vertical and horizontal LA-vector bundles of the vacant double of
    `mp` (no validity gating): D -> A over side B with anchor derivations
    sigma, and D -> B over side A with anchor derivations rho; the core is
    zero."""

    def vacant(
        side: LieAlgebroid, bundle_frames: Sequence[str], rep: RepresentationMap
    ) -> LAVBundle:
        core_ders = tuple(Derivation(side.anchor_field(i), ()) for i in range(side.rank))
        return LAVBundle(side, bundle_frames, (), rep.derivations, core_ders, [], {})

    return (
        vacant(mp.algebroid_b, mp.algebroid_a.frames, mp.sigma),
        vacant(mp.algebroid_a, mp.algebroid_b.frames, mp.rho),
    )


def build_semidirects(mp: MatchedPair) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """The semidirect structures on A* + B and on A^op + B*.

    They are the two algebroids the vacant double of `mp` induces over its
    (zero) core dual: the induced dual of the vertical LA-vector bundle with
    the A* frames moved in front, and the induced dual of the horizontal
    one with the A frames negated.  Only the representations need to be
    valid; the matched-pair identities are not required.  First output:
    anchor (phi + Y) -> b(Y), bracket
    [phi1 + Y1, phi2 + Y2] = {sigma*_{Y1} phi2 - sigma*_{Y2} phi1} + [Y1, Y2].
    Second output: anchor (X + psi) -> -a(X), bracket
    [X1 + psi1, X2 + psi2] = [X2, X1] + {rho*_{X2} psi1 - rho*_{X1} psi2}.
    """
    vertical, horizontal = vacant_lavbundles(mp)
    ra, rb = mp.algebroid_a.rank, mp.algebroid_b.rank
    size = ra + rb

    # the vertical induced dual has frames B + A*; new frame k is old order[k]
    e_v = vertical.induced_dual
    order = list(range(rb, size)) + list(range(rb))
    reorder = [[Fraction(int(i == order[k])) for k in range(size)] for i in range(size)]
    semidirect = change_frames(e_v, reorder, [e_v.frames[k] for k in order])

    # the horizontal induced dual has frames A + B*
    e_h = horizontal.induced_dual
    signs = [-1] * ra + [1] * rb
    negate = [[Fraction(signs[k] if i == k else 0) for k in range(size)] for i in range(size)]
    opposite = change_frames(e_h, negate, e_h.frames)
    return semidirect, opposite

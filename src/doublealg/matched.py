"""Matched pairs of Lie algebroids: mutual representations, the bowtie
algebroid on the direct sum, and the two semidirect products on the duals.

A representation of A on a bundle E assigns to each frame of A a derivation
on E over the anchor field, a flat connection over the anchor (Mokri 1997);
flatness (bracket goes to commutator) is a checked precondition, never
assumed.  `MatchedPair` stores each representation as a tuple of derivation
matrices, one per acting frame, each over that frame's anchor by
construction: rho of A on B and sigma of B on A, each matrix by its
nonzero entries.

A pair is matched exactly when its bowtie on A + B, with the mixed bracket
[X, Y] = -sigma_Y(X) + rho_X(Y), is a Lie algebroid (Mokri, "Matched pairs
of Lie algebroids", Glasgow Math. J. 39, 1997).  So `check_matched` reads
flatness and the three compatibility identities, exactly and on frames,
off parts of the bowtie's structure equations: the anchor defect and the
Jacobiator that `check_algebroid` runs.

Matched pairs correspond to vacant double Lie algebroids (the paper's last
theorem), so `check_matched` is the one check of a pair: `assemble_bowtie`
and the vacant double are built without validity gating, and the tests keep
their own checks as oracles.  `vacant_lavbundles` assembles the two
LA-vector bundles of that double.  Their induced duals over the zero core
dual are the semidirect products on A* + B and A^op + B* (Mokri 1997), so
`build_semidirects` reads them off by constant frame changes and writes
out no anchor or bracket itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .algebroid import (
    LieAlgebroid,
    Matrix,
    Multisection,
    VectorField,
    anchor_defect,
    change_frames,
    check_algebroid,
    jacobiator,
    sparse_matrix,
    structure_table,
)
from .exact import Chart, ChartMismatch, Polynomial
from .lavb import LAVBundle
from .verdicts import CheckItem, CheckReport, failed, passed


class MatchedPairError(ValueError):
    """Actions read off a vacant double are not a matched pair."""


@dataclass(frozen=True)
class MatchedPair:
    algebroid_a: LieAlgebroid
    algebroid_b: LieAlgebroid
    rho: Tuple[Matrix, ...]  # A acting on the bundle of B, one per A-frame
    sigma: Tuple[Matrix, ...]  # B acting on the bundle of A, one per B-frame

    def __post_init__(self):
        ra, rb = self.algebroid_a.rank, self.algebroid_b.rank
        if self.algebroid_a.chart != self.algebroid_b.chart:
            raise ChartMismatch("matched pair needs a shared base chart")
        rho = tuple(sparse_matrix(m, rb, rb, "rho derivations must act on B") for m in self.rho)
        sigma = tuple(sparse_matrix(m, ra, ra, "sigma derivations must act on A") for m in self.sigma)
        if len(rho) != ra:
            raise ValueError("rho needs one derivation per A-frame")
        if len(sigma) != rb:
            raise ValueError("sigma needs one derivation per B-frame")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    @property
    def chart(self) -> Chart:
        return self.algebroid_a.chart


def _bowtie_brackets(mp: MatchedPair) -> Dict[Tuple[int, int], List[Polynomial]]:
    """The brackets of the bowtie on pairs a < b of the frames of A, then B:
    those of A and of B, and [e_i, f_j] = -sigma_j(e_i) + rho_i(f_j), read
    off the stored entries of row i of sigma_j and row j of rho_i."""
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    ra, rb = a_alg.rank, b_alg.rank
    zero = Polynomial.zero(mp.chart)
    brackets: Dict[Tuple[int, int], List[Polynomial]] = {}

    def vector(pair: Tuple[int, int]) -> List[Polynomial]:
        return brackets.setdefault(pair, [zero] * (ra + rb))

    for offset, side in ((0, a_alg), (ra, b_alg)):
        for i, j in itertools.combinations(range(side.rank), 2):
            for g, coeff in side.nonzero_structure[i][j]:
                vector((offset + i, offset + j))[offset + g] = coeff
    for j, sigma_j in enumerate(mp.sigma):
        for (i, k), p in sigma_j:
            vector((i, ra + j))[k] = -p
    for i, rho_i in enumerate(mp.rho):
        for (j, k), p in rho_i:
            vector((i, ra + j))[ra + k] = p
    return brackets


def check_matched(mp: MatchedPair) -> CheckReport:
    """Both algebroids, both representations and the three compatibility
    identities, on frames e_a of A and f_s of B.

    Flatness and the identities are parts of the bowtie's structure
    equations (`algebroid.anchor_defect` and `algebroid.jacobiator`), whose
    anchors are those of A and B:

        rho.flat at (a, b)    anchor defect at (e_a, e_b) and the B-part of
                              Jac(e_a, e_b, f_t) for each t;
        sigma.flat at (s, t)  anchor defect at (f_s, f_t) and the A-part of
                              Jac(e_a, f_s, f_t) for each a;
        identity_1 at (a; s, t)  rho_X[Y1, Y2] - [rho_X Y1, Y2] - [Y1, rho_X Y2]
                              - rho_{sigma_Y2 X} Y1 + rho_{sigma_Y1 X} Y2, that is
                              minus the B-part of Jac(e_a, f_s, f_t);
        identity_2 at (s; a, b)  its mirror, minus the A-part of Jac(e_a, e_b, f_s);
        identity_3 at (a, s)  a(sigma_Y X) - b(rho_X Y) - [b(Y), a(X)], minus
                              the anchor defect at (e_a, f_s).

    The bowtie stays a table, so A and B may share frame names.  The
    algebroid and representation items are reported first, and the
    identities are checked only once they all pass.
    """
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    ra = a_alg.rank
    in_a, in_b = range(ra), range(ra, ra + b_alg.rank)
    names = a_alg.frames + b_alg.frames
    nonzero = structure_table(len(names), _bowtie_brackets(mp))
    fields = a_alg.anchor_fields + b_alg.anchor_fields
    jac = functools.cache(lambda a, b, c: jacobiator(nonzero, fields, a, b, c))

    def minus_part(triple: Tuple[int, int, int], frames: range) -> Dict[Tuple[int], Polynomial]:
        """Minus the components along `frames` of the Jacobiator of the
        frames `triple`, taken in increasing order, renumbered from 0."""
        return {(k - frames.start,): -p for k, p in jac(*sorted(triple)).items() if k in frames and p}

    def flat(label: str, own: range, other: range) -> CheckItem:
        for x, y in itertools.combinations(own, 2):
            if any(anchor_defect(nonzero, fields, x, y)) or any(
                minus_part((x, y, z), other) for z in other
            ):
                return failed(f"{label}.flat", f"flatness fails on ({names[x]}, {names[y]})")
        return passed(f"{label}.flat")

    def identity(number: int, acting: range, target: range) -> CheckItem:
        for x in acting:
            for y1, y2 in itertools.combinations(target, 2):
                defect = minus_part((x, y1, y2), target)
                if defect:
                    section = Multisection(len(target), 1, defect)
                    return failed(
                        f"identity_{number}",
                        f"identity {number} at ({names[x]}; {names[y1]}, {names[y2]}): "
                        f"defect = {section.format(names[target.start : target.stop])}",
                    )
        return passed(f"identity_{number}")

    items: List[CheckItem] = []
    for label, alg in (("A", a_alg), ("B", b_alg)):
        items.append(check_algebroid(alg).as_item(f"algebroid_{label}"))
    # each derivation acts over the anchor of its acting frame by construction
    items.append(passed("rho.base_fields"))
    items.append(flat("rho", in_a, in_b))
    items.append(passed("sigma.base_fields"))
    items.append(flat("sigma", in_b, in_a))
    if not all(i.ok for i in items):
        return CheckReport(tuple(items))

    items.append(identity(1, in_a, in_b))
    items.append(identity(2, in_b, in_a))
    witness = None
    for a, s in itertools.product(in_a, in_b):
        defect = anchor_defect(nonzero, fields, a, s)
        if any(defect):
            field = VectorField._from_components(mp.chart, tuple(-p for p in defect))
            witness = f"identity 3 at ({names[a]}, {names[s]}): defect = {field}"
            break
    items.append(failed("identity_3", witness) if witness else passed("identity_3"))
    return CheckReport(tuple(items))


def assemble_bowtie(mp: MatchedPair) -> LieAlgebroid:
    """The candidate algebroid on A + B (no validity gating)."""
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    return LieAlgebroid(
        mp.chart, a_alg.frames + b_alg.frames, a_alg.anchor + b_alg.anchor, _bowtie_brackets(mp)
    )


def vacant_lavbundles(mp: MatchedPair) -> Tuple[LAVBundle, LAVBundle]:
    """The vertical and horizontal LA-vector bundles of the vacant double of
    `mp` (no validity gating): D -> A over side B with anchor derivations
    sigma, and D -> B over side A with anchor derivations rho; the core is
    zero."""

    def vacant(side: LieAlgebroid, bundle_frames: Sequence[str], rep: Tuple[Matrix, ...]) -> LAVBundle:
        return LAVBundle(side, bundle_frames, (), rep, [()] * side.rank, [], {})

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
    reorder = [[int(i == order[k]) for k in range(size)] for i in range(size)]
    semidirect = change_frames(e_v, reorder, [e_v.frames[k] for k in order])

    # the horizontal induced dual has frames A + B*
    e_h = horizontal.induced_dual
    signs = [-1] * ra + [1] * rb
    negate = [[signs[k] if i == k else 0 for k in range(size)] for i in range(size)]
    opposite = change_frames(e_h, negate, e_h.frames)
    return semidirect, opposite

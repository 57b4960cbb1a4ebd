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
`build_semidirects` reads them off by signed permutations of their frames
and writes out no anchor or bracket itself.
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
    Structure,
    VectorField,
    _off_chart,
    anchor_defect,
    check_algebroid,
    jacobiator,
    pair_store,
    permute_frames,
    sparse_matrix,
)
from .exact import Chart, ChartMismatch, Polynomial
from .lavb import LAVBundle
from .verdicts import CheckItem, CheckReport, failed, passed


class MatchedPairError(ValueError):
    """Actions read off a vacant double are not matched, or A and B share frames."""


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
        if _off_chart(self.chart, ([p for _, p in m] for m in rho + sigma)):
            raise ChartMismatch("derivation entry on another chart")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    @property
    def chart(self) -> Chart:
        return self.algebroid_a.chart

    @functools.cached_property
    def bowtie_structure(self) -> Structure:
        """The store of the bowtie on the frames of A, then B, written once:
        the brackets of A and of B, and [e_i, f_j] = -sigma_j(e_i) + rho_i(f_j),
        read off the stored entries of row i of sigma_j and row j of rho_i."""
        ra = self.algebroid_a.rank
        pairs: Dict[Tuple[int, int], Dict[int, Polynomial]] = {}
        for offset, side in ((0, self.algebroid_a), (ra, self.algebroid_b)):
            for i, row in enumerate(side.nonzero_structure):
                for j in range(i + 1, side.rank):
                    if row[j]:
                        pairs[offset + i, offset + j] = {offset + g: coeff for g, coeff in row[j]}
        for j, sigma_j in enumerate(self.sigma):
            for (i, k), p in sigma_j:
                pairs.setdefault((i, ra + j), {})[k] = -p
        for i, rho_i in enumerate(self.rho):
            for (j, k), p in rho_i:
                pairs.setdefault((i, ra + j), {})[ra + k] = p
        return pair_store(ra + self.algebroid_b.rank, pairs)


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

    They are read off `mp.bowtie_structure`, which stays a store, so A and
    B may share frame names.  The algebroid and representation items are
    reported first, and the identities are checked only once they all pass.
    """
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    ra = a_alg.rank
    in_a, in_b = range(ra), range(ra, ra + b_alg.rank)
    names = a_alg.frames + b_alg.frames
    nonzero = mp.bowtie_structure
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
            field = VectorField(mp.chart, tuple(-p for p in defect))
            witness = f"identity 3 at ({names[a]}, {names[s]}): defect = {field}"
            break
    items.append(failed("identity_3", witness) if witness else passed("identity_3"))
    return CheckReport(tuple(items))


def _require_distinct_frames(mp: MatchedPair) -> None:
    """Raise `MatchedPairError` naming the frames that A and B share."""
    shared = [name for name in mp.algebroid_a.frames if name in mp.algebroid_b.frames]
    if shared:
        raise MatchedPairError(f"A and B share frame names: {', '.join(shared)}")


def assemble_bowtie(mp: MatchedPair) -> LieAlgebroid:
    """The candidate algebroid on A + B (no validity gating): the store
    `mp.bowtie_structure`, which `check_matched` reads too, wrapped once A
    and B name their frames apart."""
    _require_distinct_frames(mp)
    a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
    return LieAlgebroid._from_store(
        mp.chart, a_alg.frames + b_alg.frames, a_alg.anchor + b_alg.anchor, mp.bowtie_structure
    )


def vacant_lavbundles(mp: MatchedPair) -> Tuple[LAVBundle, LAVBundle]:
    """The vertical and horizontal LA-vector bundles of the vacant double of
    `mp` (no validity gating): D -> A over side B with anchor derivations
    sigma, and D -> B over side A with anchor derivations rho; the core is
    zero.  The actions are stored already and A and B name their frames
    apart, so the bundles take the trusted constructor."""
    _require_distinct_frames(mp)

    def vacant(side: LieAlgebroid, bundle_frames: Sequence[str], rep: Tuple[Matrix, ...]) -> LAVBundle:
        return LAVBundle._from_stored(side, bundle_frames, (), rep, ((),) * side.rank, (), ())

    return (
        vacant(mp.algebroid_b, mp.algebroid_a.frames, mp.sigma),
        vacant(mp.algebroid_a, mp.algebroid_b.frames, mp.rho),
    )


def build_semidirects(mp: MatchedPair) -> Tuple[LieAlgebroid, LieAlgebroid]:
    """The semidirect structures on A* + B and on A^op + B*.

    They are the two algebroids the vacant double of `mp` induces over its
    (zero) core dual: the induced dual of the vertical LA-vector bundle with
    the A* frames moved in front, and the induced dual of the horizontal
    one with the A frames negated, each a signed permutation of frames
    that `permute_frames` applies.  Only the representations need to be
    valid; the matched-pair identities are not required.  First output:
    anchor (phi + Y) -> b(Y), bracket
    [phi1 + Y1, phi2 + Y2] = {sigma*_{Y1} phi2 - sigma*_{Y2} phi1} + [Y1, Y2].
    Second output: anchor (X + psi) -> -a(X), bracket
    [X1 + psi1, X2 + psi2] = [X2, X1] + {rho*_{X2} psi1 - rho*_{X1} psi2}.
    """
    vertical, horizontal = vacant_lavbundles(mp)
    ra, rb = mp.algebroid_a.rank, mp.algebroid_b.rank

    # the vertical induced dual has frames B + A*; new frame k is old order[k]
    e_v = vertical.induced_dual
    order = list(range(rb, ra + rb)) + list(range(rb))
    semidirect = permute_frames(e_v, [(k, 1) for k in order], [e_v.frames[k] for k in order])

    # the horizontal induced dual has frames A + B*
    e_h = horizontal.induced_dual
    negate = [(k, -1) for k in range(ra)] + [(ra + k, 1) for k in range(rb)]
    opposite = permute_frames(e_h, negate, e_h.frames)
    return semidirect, opposite

"""LA-vector bundles in decomposed generator form.

One pair of parallel sides of a split double vector bundle (D; A, B; M)
with core C carries Lie algebroid structures: B -> M is given as an honest
algebroid, and the structure on D -> A is presented by its action on the
canonical generators of its section module:

* per B-frame, a derivation on A (the linear vector field that anchors the
  corresponding linear section) and a derivation on C (the bracket action
  on core sections), each stored as its matrix: both act over the anchor
  of their B-frame, since the anchor of D -> A is a morphism of double
  vector bundles over the anchor of B;
* a core anchor C -> A (the restriction of the anchor to the core);
* an antisymmetric Hom(A, C)-valued twist for each B-frame pair (the core
  component of the bracket of two canonical linear sections), stored once:
  only the pairs alpha < beta whose matrix is nonzero.

Every matrix stores only its nonzero entries (`algebroid.Matrix`), and the
builders below walk those entries only.

From this data one builder writes down the honest algebroid on the total
space of A (generator-level Jacobi and Leibniz checks reduce to
`check_algebroid` there).  The induced algebroid over the dual of the core,
whose frames are the transposed linear sections and the core sections
coming from A*, is the same builder applied to the dual generator data
`dual_lavb(v)` (bundle C*, core A*).  The dual of an LA-vector bundle is an
LA-vector bundle and `dual_lavb` is an involution up to frame names, so the
induced dual is valid exactly when the generators are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebroid import (
    LieAlgebroid,
    Matrix,
    MatrixInput,
    check_algebroid,
    contragredient,
    fibre_coordinate,
    pair_store,
    set_fields,
    sparse_matrix,
    unique_names,
)
from .exact import Chart, Polynomial
from .verdicts import CheckItem, CheckReport, failed, passed


def bundle_fibre_coordinate(frame_name: str) -> str:
    """Fibre coordinate on a bundle's own total space for one of its frames."""
    return f"u_{frame_name}"


def dual_frame_name(frame_name: str) -> str:
    return f"{frame_name}_d"


@dataclass(frozen=True)
class LAVBundle:
    """Generator data for an algebroid structure on D -> A over side B."""

    side: LieAlgebroid  # the algebroid B over the base chart
    bundle_frames: Tuple[str, ...]  # frames of A
    core_frames: Tuple[str, ...]  # frames of C
    anchor_derivations: Tuple[Matrix, ...]  # on A, one per B-frame
    core_derivations: Tuple[Matrix, ...]  # on C, one per B-frame
    core_anchor: Matrix  # entry (gamma, a): A-component a of the image of c_gamma
    # ((alpha, beta), m) for alpha < beta with m nonzero, in increasing pair
    # order; entry (a, gamma) of m is the C-component gamma of the twist of
    # a_a, and the beta < alpha half is the negation.
    twist: Tuple[Tuple[Tuple[int, int], Matrix], ...]

    def __init__(
        self,
        side: LieAlgebroid,
        bundle_frames: Sequence[str],
        core_frames: Sequence[str],
        anchor_derivations: Sequence[MatrixInput],
        core_derivations: Sequence[MatrixInput],
        core_anchor: MatrixInput,
        twist: Mapping[Tuple[int, int], MatrixInput] | None = None,
    ):
        bundle_frames, core_frames = tuple(bundle_frames), tuple(core_frames)
        ra, rc, rb = len(bundle_frames), len(core_frames), side.rank
        anchor_derivations = tuple(
            sparse_matrix(m, ra, ra, "anchor derivation rank mismatch") for m in anchor_derivations
        )
        core_derivations = tuple(
            sparse_matrix(m, rc, rc, "core derivation rank mismatch") for m in core_derivations
        )
        if len(anchor_derivations) != rb or len(core_derivations) != rb:
            raise ValueError("need one anchor and one core derivation per side frame")
        core_anchor = sparse_matrix(core_anchor, rc, ra, "core anchor must be (core rank) x (bundle rank)")
        all_names = side.frames + bundle_frames + core_frames
        if len(set(all_names)) != len(all_names):
            raise ValueError("side, bundle and core frame names must be distinct")
        stored = []
        for a, b in sorted(twist or {}):
            if not 0 <= a < b < rb:
                raise ValueError(f"twist pair {(a, b)} is not alpha < beta among {rb} side frames")
            mat = sparse_matrix(twist[(a, b)], ra, rc, "twist entry must be (bundle rank) x (core rank)")
            if mat:
                stored.append(((a, b), mat))
        data = (anchor_derivations, core_derivations, core_anchor, tuple(stored))
        set_fields(self, side, bundle_frames, core_frames, *data)

    @classmethod
    def _from_stored(cls, *fields) -> "LAVBundle":
        """Trusted constructor: the fields in stored form, distinct names."""
        return set_fields(object.__new__(cls), *fields)

    @property
    def chart(self) -> Chart:
        return self.side.chart

    @property
    def bundle_rank(self) -> int:
        return len(self.bundle_frames)

    @property
    def core_rank(self) -> int:
        return len(self.core_frames)

    # Derived structures, computed on first use and shared by every caller.

    @cached_property
    def total(self) -> LieAlgebroid:
        return total_algebroid(self)

    @cached_property
    def induced_dual(self) -> LieAlgebroid:
        return induced_dual_algebroid(self)


def total_algebroid(v: LAVBundle) -> LieAlgebroid:
    """The algebroid D -> A written over the total-space chart (x, u_a).

    Frames: the canonical linear sections (one per B-frame, zero twist)
    followed by the core sections.  A core frame or fibre coordinate u_a
    named like a coordinate or frame gets apostrophes (`unique_names`).
    """
    core = unique_names(v.core_frames, v.chart.names)
    fibre = [bundle_fibre_coordinate(f) for f in v.bundle_frames]
    fibre = unique_names(fibre, v.chart.names + v.side.frames + core)
    return _generator_algebroid(v, fibre, core)


def induced_dual_algebroid(v: LAVBundle) -> LieAlgebroid:
    """The algebroid over the dual of the core induced by the structure on
    D -> A: the total algebroid of `dual_lavb(v)`.

    Base chart (x, xi_core), with apostrophes on a xi_core already on the
    chart or named like a frame of A or B, so that the two structures of a
    double agree on it; frames: transposed linear sections (one per
    B-frame) followed by the core sections coming from the frames of A*.
    """
    taken = v.chart.names + v.side.frames + v.bundle_frames
    fibre = unique_names([fibre_coordinate(f) for f in v.core_frames], taken)
    core = unique_names(
        [dual_frame_name(f) for f in v.bundle_frames], v.side.frames + v.chart.names + fibre
    )
    return _generator_algebroid(dual_lavb(v), fibre, core)


def _generator_algebroid(
    v: LAVBundle, fibre_names: Sequence[str], core_names: Sequence[str]
) -> LieAlgebroid:
    """The algebroid D -> A of the generator data `v` over the chart (x, u)
    with fibre coordinates `fibre_names` along the frames of A.

    Frames: the canonical linear sections (named after the B-frames) then
    the core sections (named `core_names`).  Brackets and anchors:

        [lin_al, lin_be]   = side bracket + twist (linear in u),
        [lin_be, core_g]   = core-derivation image,
        [core, core]       = 0,
        anchor(lin_be)     = side anchor - anchor-derivation action on u,
        anchor(core_g)     = vertical lift of the core anchor of c_g.
    """
    chart = v.chart.extend(fibre_names)
    n, ra, rb, rc = v.chart.dim, v.bundle_rank, v.side.rank, v.core_rank
    zero = Polynomial.zero(chart)
    u = [Polynomial.coordinate(chart, name) for name in fibre_names]

    anchor_rows: List[Tuple[Polynomial, ...]] = []
    for side_row, d in zip(v.side.anchor, v.anchor_derivations):
        fibre = [zero] * ra
        for (b, a), m in d:
            fibre[a] = fibre[a] - m.lift(chart) * u[b]
        anchor_rows.append(tuple([c.lift(chart) for c in side_row] + fibre))
    core_rows = [[zero] * (n + ra) for _ in range(rc)]
    for (gamma, a), m in v.core_anchor:
        core_rows[gamma][n + a] = m.lift(chart)
    anchor_rows += map(tuple, core_rows)

    # the components g -> c^g of the pairs with a nonzero one; [core, core] = 0
    pairs: Dict[Tuple[int, int], Dict[int, Polynomial]] = {}
    for al, row in enumerate(v.side.nonzero_structure):
        for be in range(al + 1, rb):
            if row[be]:
                pairs[al, be] = {g: coeff.lift(chart) for g, coeff in row[be]}
    for pair, mat in v.twist:
        comps = pairs.setdefault(pair, {})
        for (a, g), t in mat:
            comps[rb + g] = comps.get(rb + g, zero) + t.lift(chart) * u[a]
    for beta, q in enumerate(v.core_derivations):
        for (gamma, delta), m in q:
            pairs.setdefault((beta, rb + gamma), {})[rb + delta] = m.lift(chart)

    frames = v.side.frames + tuple(core_names)
    return LieAlgebroid._from_store(chart, frames, tuple(anchor_rows), pair_store(rb + rc, pairs))


def dual_lavb(v: LAVBundle) -> LAVBundle:
    """The reciprocal structure: generator data of the induced dual algebroid
    viewed as an LA-vector bundle over the same side, with bundle C* and
    core A*."""
    new_twist = tuple((pair, tuple(sorted(((g, a), t) for (a, g), t in mat))) for pair, mat in v.twist)
    new_bundle = unique_names([dual_frame_name(f) for f in v.core_frames], v.side.frames + v.chart.names)
    new_core = unique_names(
        [dual_frame_name(f) for f in v.bundle_frames],
        v.side.frames + v.chart.names + new_bundle,
    )
    return LAVBundle._from_stored(
        v.side,
        new_bundle,
        new_core,
        tuple(map(contragredient, v.core_derivations)),
        tuple(map(contragredient, v.anchor_derivations)),
        contragredient(v.core_anchor),  # the dual core map, minus the transpose
        new_twist,
    )


def check_lavb(v: LAVBundle) -> CheckReport:
    """Validity of the decomposed structure.

    Side algebroid axioms; generator-level Jacobi and Leibniz via the
    total-space algebroid; and validity of the induced dual algebroid.
    By duality either of the last two items decides the other, so both are
    decided on the induced dual, which a double's dual pair reads anyway.
    The witness of a failing `generators` item is the first failure of the
    total algebroid, which is built only when that witness is read.
    """
    items: List[CheckItem] = []
    side_rep = check_algebroid(v.side)
    items.append(side_rep.as_item("side"))

    # each derivation acts over the anchor of its side frame by construction
    items.append(passed("base_fields"))

    if side_rep.ok:
        induced_rep = check_algebroid(v.induced_dual)
        if induced_rep.ok:
            items.append(passed("generators"))
        else:
            items.append(failed("generators", partial(_generators_witness, v)))
        items.append(induced_rep.as_item("induced_dual"))
    return CheckReport(tuple(items))


def _generators_witness(v: LAVBundle) -> str:
    """The witness of the first failure of the total algebroid of `v`."""
    return check_algebroid(v.total).first_failure.witness

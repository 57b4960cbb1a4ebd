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
LA-vector bundle, so the induced dual is valid whenever the generators are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebroid import (
    LieAlgebroid,
    Matrix,
    MatrixInput,
    check_algebroid,
    contragredient,
    fibre_coordinate,
    sparse_matrix,
    unique_names,
)
from .exact import Chart, Polynomial
from .verdicts import CheckItem, CheckReport, passed


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
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "bundle_frames", bundle_frames)
        object.__setattr__(self, "core_frames", core_frames)
        object.__setattr__(self, "anchor_derivations", anchor_derivations)
        object.__setattr__(self, "core_derivations", core_derivations)
        object.__setattr__(self, "core_anchor", core_anchor)
        object.__setattr__(self, "twist", tuple(stored))

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
    followed by the core sections.  A fibre coordinate u_a already on the
    chart or named like a frame gets apostrophes (`unique_names`).
    """
    fibre = unique_names(
        [bundle_fibre_coordinate(f) for f in v.bundle_frames],
        v.chart.names + v.side.frames + v.core_frames,
    )
    return _generator_algebroid(v, fibre, v.core_frames)


def induced_dual_algebroid(v: LAVBundle) -> LieAlgebroid:
    """The algebroid over the dual of the core induced by the structure on
    D -> A: the total algebroid of `dual_lavb(v)`.

    Base chart (x, xi_core), with apostrophes on a xi_core already on the
    chart; frames: transposed linear sections (one per B-frame) followed by
    the core sections coming from the frames of A*.
    """
    fibre = unique_names([fibre_coordinate(f) for f in v.core_frames], v.chart.names)
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

    anchor_rows: List[List[Polynomial]] = []
    for side_row, d in zip(v.side.anchor, v.anchor_derivations):
        fibre = [zero] * ra
        for (b, a), m in d:
            fibre[a] = fibre[a] - m.lift(chart) * u[b]
        anchor_rows.append([c.lift(chart) for c in side_row] + fibre)
    core_rows = [[zero] * (n + ra) for _ in range(rc)]
    for (gamma, a), m in v.core_anchor:
        core_rows[gamma][n + a] = m.lift(chart)
    anchor_rows += core_rows

    # only pairs with a nonzero entry get a vector; core/core brackets vanish
    brackets: Dict[Tuple[int, int], List[Polynomial]] = {}

    def vector(pair: Tuple[int, int]) -> List[Polynomial]:
        return brackets.setdefault(pair, [zero] * (rb + rc))

    for al, row in enumerate(v.side.nonzero_structure):
        for be in range(al + 1, rb):
            for g, coeff in row[be]:
                vector((al, be))[g] = coeff.lift(chart)
    for pair, mat in v.twist:
        vec = vector(pair)
        for (a, g), t in mat:
            vec[rb + g] = vec[rb + g] + t.lift(chart) * u[a]
    for beta, q in enumerate(v.core_derivations):
        for (gamma, delta), m in q:
            vector((beta, rb + gamma))[rb + delta] = m.lift(chart)

    return LieAlgebroid(chart, v.side.frames + tuple(core_names), anchor_rows, brackets)


def dual_lavb(v: LAVBundle) -> LAVBundle:
    """The reciprocal structure: generator data of the induced dual algebroid
    viewed as an LA-vector bundle over the same side, with bundle C* and
    core A*."""
    new_twist = {pair: {(g, a): t for (a, g), t in mat} for pair, mat in v.twist}
    new_bundle = unique_names([dual_frame_name(f) for f in v.core_frames], v.side.frames + v.chart.names)
    new_core = unique_names(
        [dual_frame_name(f) for f in v.bundle_frames],
        v.side.frames + v.chart.names + new_bundle,
    )
    return LAVBundle(
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
    The induced dual is the total algebroid of `dual_lavb(v)`, and by
    duality its item follows from `generators`: it is checked only when
    `generators` fails, so that its witness is still reported.
    """
    items: List[CheckItem] = []
    side_rep = check_algebroid(v.side)
    items.append(side_rep.as_item("side"))

    # each derivation acts over the anchor of its side frame by construction
    items.append(passed("base_fields"))

    if side_rep.ok:
        total_rep = check_algebroid(v.total)
        items.append(total_rep.as_item("generators"))
        # The induced dual is the total algebroid of `dual_lavb(v)`, and the
        # dual of an LA-vector bundle is an LA-vector bundle: a passing
        # `generators` item decides this one.
        induced_rep = total_rep if total_rep.ok else check_algebroid(v.induced_dual)
        items.append(induced_rep.as_item("induced_dual"))
    return CheckReport(tuple(items))

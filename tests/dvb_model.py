"""The element calculus of a split double vector bundle: the test model of
the duality that the paper uses to define a double Lie algebroid.

An element of (D; A, B; M) with core C is a base point plus exact rational
component vectors (a, b, c) over a `DecomposedDVB` shape.  The two duals
are represented the same way (side vector, covector part, core-dual part),
and the pairing between them over C* is evaluated literally as
<Phi, d> - <d, Psi> for any d with the required outline.  The package
ships only the shape; `tests/test_dvb.py` and the acceptance criteria 1-2
check the paper's statements against this model, and the Gram matrix of
`gram_matrix` is the fact that `dualize dvb` states without computing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import linalg
from doublealg.dvb import DecomposedDVB
from doublealg.exact import Chart, rat

Vec = Tuple[Fraction, ...]


class OutlineMismatch(ValueError):
    """Operands do not share the required base point / side components."""


def _vec(values: Sequence) -> Vec:
    return tuple(rat(v) for v in values)


def _vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _zero(n: int) -> Vec:
    return tuple(Fraction(0) for _ in range(n))


def ranks(dvb: DecomposedDVB) -> Tuple[int, int, int]:
    return (len(dvb.frames_a), len(dvb.frames_b), len(dvb.frames_c))


@dataclass(frozen=True)
class DVBElement:
    """Outline (d; a, b; m) in split coordinates."""

    dvb: DecomposedDVB
    point: Vec
    a: Vec
    b: Vec
    c: Vec

    def __post_init__(self):
        if (len(self.point), len(self.a), len(self.b), len(self.c)) != (
            self.dvb.chart.dim,
            *ranks(self.dvb),
        ):
            raise ValueError("component dimensions do not match the bundle")


@dataclass(frozen=True)
class DualDVBElement:
    """Element of a dual of D with respect to one leg.

    leg 'A': outline (Phi; a, kappa; m) with covector part psi in B*;
    evaluation against (a, b, c) is <psi, b> + <kappa, c>.
    leg 'B': outline (Psi; b, kappa; m) with covector part phi in A*;
    evaluation is <phi, a> + <kappa, c>.
    """

    dvb: DecomposedDVB
    leg: str
    point: Vec
    side: Vec
    covector: Vec
    kappa: Vec

    def __post_init__(self):
        ra, rb, rc = ranks(self.dvb)
        side_len, cov_len = (ra, rb) if self.leg == "A" else (rb, ra)
        if self.leg not in ("A", "B"):
            raise ValueError("leg must be 'A' or 'B'")
        if (len(self.point), len(self.side), len(self.covector), len(self.kappa)) != (
            self.dvb.chart.dim,
            side_len,
            cov_len,
            rc,
        ):
            raise ValueError("component dimensions do not match the bundle")


# --- elements of D and of its two duals


def element(dvb: DecomposedDVB, point: Sequence, a: Sequence, b: Sequence, c: Sequence) -> DVBElement:
    return DVBElement(dvb, _vec(point), _vec(a), _vec(b), _vec(c))


def zero_over_a(dvb: DecomposedDVB, point: Sequence, a: Sequence) -> DVBElement:
    ra, rb, rc = ranks(dvb)
    return element(dvb, point, a, _zero(rb), _zero(rc))


def zero_over_b(dvb: DecomposedDVB, point: Sequence, b: Sequence) -> DVBElement:
    ra, rb, rc = ranks(dvb)
    return element(dvb, point, _zero(ra), b, _zero(rc))


def core_element(dvb: DecomposedDVB, point: Sequence, c: Sequence) -> DVBElement:
    ra, rb, rc = ranks(dvb)
    return element(dvb, point, _zero(ra), _zero(rb), c)


def double_zero(dvb: DecomposedDVB, point: Sequence) -> DVBElement:
    ra, rb, rc = ranks(dvb)
    return element(dvb, point, _zero(ra), _zero(rb), _zero(rc))


def dual_a(dvb: DecomposedDVB, point: Sequence, a: Sequence, psi: Sequence, kappa: Sequence) -> DualDVBElement:
    return DualDVBElement(dvb, "A", _vec(point), _vec(a), _vec(psi), _vec(kappa))


def dual_b(dvb: DecomposedDVB, point: Sequence, b: Sequence, phi: Sequence, kappa: Sequence) -> DualDVBElement:
    return DualDVBElement(dvb, "B", _vec(point), _vec(b), _vec(phi), _vec(kappa))


# --- the two additions, evaluation and the pairing over C*


def add(d1: DVBElement, d2: DVBElement, leg: str) -> DVBElement:
    """Addition in D -> A (leg 'A') or D -> B (leg 'B').

    Operands must share the base point and the projection to the chosen leg;
    the interchange law holds whenever both sides are defined.
    """
    if d1.dvb != d2.dvb:
        raise OutlineMismatch("elements of different bundles")
    if d1.point != d2.point:
        raise OutlineMismatch("base points differ")
    if leg == "A":
        if d1.a != d2.a:
            raise OutlineMismatch("+_A needs equal A-projections")
        return DVBElement(
            d1.dvb, d1.point, d1.a, _vec_add(d1.b, d2.b), _vec_add(d1.c, d2.c)
        )
    if leg == "B":
        if d1.b != d2.b:
            raise OutlineMismatch("+_B needs equal B-projections")
        return DVBElement(
            d1.dvb, d1.point, _vec_add(d1.a, d2.a), d1.b, _vec_add(d1.c, d2.c)
        )
    raise ValueError("leg must be 'A' or 'B'")


def evaluate(phi: DualDVBElement, d: DVBElement) -> Fraction:
    """Canonical pairing of a leg-dual with an element of matching outline."""
    if phi.dvb != d.dvb or phi.point != d.point:
        raise OutlineMismatch("base mismatch")
    if phi.leg == "A":
        if phi.side != d.a:
            raise OutlineMismatch("A-projections differ")
        return _dot(phi.covector, d.b) + _dot(phi.kappa, d.c)
    if phi.side != d.b:
        raise OutlineMismatch("B-projections differ")
    return _dot(phi.covector, d.a) + _dot(phi.kappa, d.c)


def dual_add(p1: DualDVBElement, p2: DualDVBElement, over: str) -> DualDVBElement:
    """Addition of dual elements over the side bundle ('side') or over C* ('cstar')."""
    if p1.dvb != p2.dvb or p1.leg != p2.leg or p1.point != p2.point:
        raise OutlineMismatch("duals not compatible")
    if over == "side":
        if p1.side != p2.side:
            raise OutlineMismatch("side projections differ")
        return DualDVBElement(
            p1.dvb, p1.leg, p1.point, p1.side, _vec_add(p1.covector, p2.covector), _vec_add(p1.kappa, p2.kappa)
        )
    if over == "cstar":
        if p1.kappa != p2.kappa:
            raise OutlineMismatch("+_{C*} needs equal C*-projections")
        return DualDVBElement(
            p1.dvb, p1.leg, p1.point, _vec_add(p1.side, p2.side), _vec_add(p1.covector, p2.covector), p1.kappa
        )
    raise ValueError("over must be 'side' or 'cstar'")


def pair(phi: DualDVBElement, psi: DualDVBElement, core_choice: Sequence | None = None) -> Fraction:
    """The duality pairing of the two duals over C*: <Phi, d> - <d, Psi>.

    Requires matching base point and C*-projection; d is chosen with
    A-projection from Phi, B-projection from Psi and an arbitrary core part
    (`core_choice`, default 0) - the result does not depend on that choice.
    """
    if phi.leg != "A" or psi.leg != "B":
        raise OutlineMismatch("pair needs a leg-A and a leg-B dual")
    if phi.dvb != psi.dvb or phi.point != psi.point:
        raise OutlineMismatch("base mismatch")
    if phi.kappa != psi.kappa:
        raise OutlineMismatch("C*-projections differ")
    ra, rb, rc = ranks(phi.dvb)
    core = _vec(core_choice) if core_choice is not None else _zero(rc)
    d = DVBElement(phi.dvb, phi.point, phi.side, psi.side, core)
    return evaluate(phi, d) - evaluate(psi, d)


def gram_matrix(dvb: DecomposedDVB) -> List[List[Fraction]]:
    """The pairing over C* of the unit bases of the two duals on one fibre.

    Both duals are spanned at the origin with kappa = 0 by the unit vectors
    of their (side, covector) parts.
    """
    ra, rb, rc = ranks(dvb)
    point, kappa = _zero(dvb.chart.dim), _zero(rc)
    units = [tuple(Fraction(int(j == i)) for j in range(ra + rb)) for i in range(ra + rb)]
    duals_a = [dual_a(dvb, point, v[:ra], v[ra:], kappa) for v in units]
    duals_b = [dual_b(dvb, point, v[:rb], v[rb:], kappa) for v in units]
    return [[pair(phi, psi) for psi in duals_b] for phi in duals_a]


def pairing_rank(dvb: DecomposedDVB) -> int:
    """Exact rank of the pairing over C*; nondegenerate means ra + rb."""
    return linalg.rank(gram_matrix(dvb))


# --- the duality isomorphisms


def z_iso(element: DualDVBElement, which: str) -> DualDVBElement:
    """The duality isomorphisms onto the C*-duals, in split form.

    Z_A (on leg-A duals) fixes the C* and core-B* components and negates the
    A side; Z_B (on leg-B duals) fixes C* and B and negates the core A*.
    The returned value is the split presentation of the image in the C*-dual
    of the opposite leg; evaluate it with `cstar_pair`.
    """
    if which == "Z_A":
        if element.leg != "A":
            raise OutlineMismatch("Z_A acts on leg-A duals")
        return DualDVBElement(
            element.dvb,
            "A",
            element.point,
            tuple(-v for v in element.side),
            element.covector,
            element.kappa,
        )
    if which == "Z_B":
        if element.leg != "B":
            raise OutlineMismatch("Z_B acts on leg-B duals")
        return DualDVBElement(
            element.dvb,
            "B",
            element.point,
            element.side,
            tuple(-v for v in element.covector),
            element.kappa,
        )
    raise ValueError("which must be 'Z_A' or 'Z_B'")


def cstar_pair(image: DualDVBElement, other: DualDVBElement) -> Fraction:
    """Canonical evaluation over C* of a Z-image against the opposite dual.

    For a Z_A image (leg-A data (a', psi', kappa)) against Psi = (b, phi,
    kappa): psi'.b + phi.a'.  For a Z_B image against Phi symmetrically.
    """
    if image.dvb != other.dvb or image.point != other.point:
        raise OutlineMismatch("base mismatch")
    if image.kappa != other.kappa:
        raise OutlineMismatch("C*-projections differ")
    if image.leg == other.leg:
        raise OutlineMismatch("need opposite legs")
    return _dot(image.covector, other.side) + _dot(other.covector, image.side)


# --- tangent and cotangent doubles of a trivialized bundle


def tangent_dvb(chart: Chart, frames: Sequence[str]) -> DecomposedDVB:
    """(TA; A, TM; M) with core A, in split form."""
    return DecomposedDVB(
        chart,
        tuple(frames),
        tuple(f"del_{n}" for n in chart.names),
        tuple(f"{f}_c" for f in frames),
    )


def cotangent_dvb(chart: Chart, frames: Sequence[str]) -> DecomposedDVB:
    """(T*A; A, A*; M) with core T*M, in split form."""
    return DecomposedDVB(
        chart,
        tuple(frames),
        tuple(f"{f}_d" for f in frames),
        tuple(f"d{n}" for n in chart.names),
    )


def r_map(f: DVBElement, target: DecomposedDVB) -> DVBElement:
    """The canonical map T*A* -> T*A in split form.

    Input: an element (m; phi, a, p) of the cotangent double of the dual
    bundle; output: (m; a, phi, -p).  Side components are preserved, the
    T*M core is negated.
    """
    source = f.dvb
    if (
        (source.frames_a, source.frames_b, source.frames_c)
        != (target.frames_b, target.frames_a, target.frames_c)
        or source.chart != target.chart
    ):
        raise OutlineMismatch("target is not the opposite cotangent double")
    return DVBElement(target, f.point, f.b, f.a, tuple(-v for v in f.c))


def cotangent_tangent_pairing(cov: DVBElement, tan: DVBElement) -> Fraction:
    """<omega, xi> for omega in the cotangent double over the same bundle point.

    cov = (m; a, phi, p) in T*E split form, tan = (m; a, v, adot) in TE
    split form: the value is <p, v> + <phi, adot>.
    """
    if cov.point != tan.point:
        raise OutlineMismatch("base points differ")
    if cov.a != tan.a:
        raise OutlineMismatch("bundle points differ")
    return _dot(cov.c, tan.b) + _dot(cov.b, tan.c)


def tangent_pairing(x: DVBElement, xi: DVBElement) -> Fraction:
    """Tangent pairing of T(E*) and T(E) over TM: d/dt <phi_t, a_t>|_0.

    x = (m; phi, v, phidot) in T(E*) split form and xi = (m; a, v, adot) in
    T(E) split form with the same base velocity; the value expands to
    <phidot, a> + <phi, adot> in the constant trivialization.
    """
    if x.point != xi.point:
        raise OutlineMismatch("base points differ")
    if x.b != xi.b:
        raise OutlineMismatch("base velocities differ")
    return _dot(x.c, xi.a) + _dot(x.a, xi.c)

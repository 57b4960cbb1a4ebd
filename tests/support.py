"""Shared test helpers: coordinate renaming, the corpus of doubles and
LA-vector bundles, with failing instances, and the matched-pair oracles,
used by the oracle tests."""

import pathlib
import random
from typing import List

from doublealg import catalog
from doublealg.algebroid import Derivation, check_algebroid, check_bialgebroid, random_polynomial
from doublealg.doublela import assemble_vacant_double, build_cotangent_double, check_double
from doublealg.exact import Polynomial
from doublealg.lavb import LAVBundle
from doublealg.matched import (
    MatchedPair,
    assemble_bowtie,
    build_semidirects,
    check_matched,
    check_representation,
)
from doublealg.model import parse_model
from doublealg.verdicts import CheckItem, CheckReport

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def rename(p, target, mapping):
    """Transport `p` to the chart `target`, renaming coordinates via
    `mapping`; coordinates not mentioned keep their name.  Terms that land
    on one monomial add up."""
    index = [target.index(mapping.get(name, name)) for name in p.chart.names]
    acc = {}
    for exp, coeff in p.terms:
        new = [0] * target.dim
        for i, power in zip(index, exp):
            new[i] += power
        key = tuple(new)
        acc[key] = acc.get(key, 0) + coeff
    return Polynomial(target, acc)


def assert_matched_decides_bowtie_and_double(mp):
    """`check_matched` decides the two checks that `build_bowtie` and
    `vacant_from_matched` no longer run: the bowtie's axioms and the vacant
    double.  Holds for pairs whose derivations sit over the anchors, as
    every parsed or catalog pair does.  Returns the shared verdict."""
    verdict = check_matched(mp).ok
    assert check_algebroid(assemble_bowtie(mp)).ok is verdict
    assert check_double(assemble_vacant_double(mp)).ok is verdict
    return verdict


def check_cor_sdp(mp: MatchedPair) -> CheckReport:
    """The semidirect pair is a dual pair; run the bialgebroid check on it.

    By the semidirect correspondence this verdict must coincide with
    `check_matched` on every input (both truth values).
    """
    items: List[CheckItem] = []
    items.extend(check_representation(mp.algebroid_a, mp.rho, "rho").items)
    items.extend(check_representation(mp.algebroid_b, mp.sigma, "sigma").items)
    if not all(i.ok for i in items):
        return CheckReport(tuple(items))
    semidirect, opposite = build_semidirects(mp)
    rep = check_bialgebroid(semidirect, opposite)
    return CheckReport(tuple(items) + rep.prefixed("sdp").items)


def double_corpus():
    """Bundled doubles, vacant doubles of bundled matched pairs (matched or
    not), and cotangent doubles of valid and broken dual pairs."""
    out = []
    for path in sorted(MODELS.glob("*")):
        model = parse_model(path.read_text())
        out.extend((f"{path.name}:{n}", d) for n, d in model.doubles.items())
        out.extend(
            (f"{path.name}:{n}:vacant", assemble_vacant_double(mp))
            for n, mp in model.matched_pairs.items()
        )
    for name in (
        "tangent_cotangent_pair",
        "broken_dual_pair_point",
        "broken_dual_pair_chart",
        "broken_dual_pair_so3",
    ):
        out.append((name, build_cotangent_double(*getattr(catalog, name)())))
    return out


def bump(rng, v):
    """A seeded nonzero polynomial of degree <= 1 on the base chart of `v`."""
    return random_polynomial(rng, v.chart, 1) or Polynomial.constant(v.chart, 1)


def rebuilt(v, **changes):
    """`v` with some of its generator data replaced."""
    data = dict(
        anchor_derivations=v.anchor_derivations,
        core_derivations=v.core_derivations,
        core_anchor=v.core_anchor,
        twist={
            (a, b): v.twist[a][b]
            for a in range(v.side.rank)
            for b in range(a + 1, v.side.rank)
        },
    )
    data.update(changes)
    return LAVBundle(v.side, v.bundle_frames, v.core_frames, **data)


def bumped(rows, i, j, p):
    """`rows` with `p` added to entry (i, j)."""
    return [
        [e + p if (r, c) == (i, j) else e for c, e in enumerate(row)]
        for r, row in enumerate(rows)
    ]


def bumped_derivation(rng, v, ders):
    """`ders` with one matrix entry of one derivation moved by a bump."""
    beta = rng.randrange(len(ders))
    d = ders[beta]
    i, j = rng.randrange(d.bundle_rank), rng.randrange(d.bundle_rank)
    moved = Derivation(d.base_field, bumped(d.matrix, i, j, bump(rng, v)))
    return tuple(moved if k == beta else e for k, e in enumerate(ders))


def perturbations(name, v, seed):
    """Seeded perturbations of the twist, the core anchor and both kinds of
    derivation of `v`, each as (name, bundle).  Derivations keep their base
    fields, so each perturbation reaches the `generators` item."""
    rng = random.Random(seed)
    ra, rb, rc = v.bundle_rank, v.side.rank, v.core_rank
    out = []
    if rb >= 2 and ra and rc:
        twist = bumped(v.twist[0][1], rng.randrange(ra), rng.randrange(rc), bump(rng, v))
        out.append((f"{name}:twist", rebuilt(v, twist={(0, 1): twist})))
    if ra and rc:
        anchor = bumped(v.core_anchor, rng.randrange(rc), rng.randrange(ra), bump(rng, v))
        out.append((f"{name}:core_anchor", rebuilt(v, core_anchor=anchor)))
    if ra:
        ders = bumped_derivation(rng, v, v.anchor_derivations)
        out.append((f"{name}:anchor_derivation", rebuilt(v, anchor_derivations=ders)))
    if rc:
        ders = bumped_derivation(rng, v, v.core_derivations)
        out.append((f"{name}:core_derivation", rebuilt(v, core_derivations=ders)))
    return out


def lavb_corpus():
    """Both LA-vector bundles of every corpus double, and seeded
    perturbations of those of `t2m_double.pass` and of the cotangent double
    of `tangent_cotangent_pair`."""
    out = []
    for name, dla in double_corpus():
        out += [(f"{name}:vertical", dla.vertical), (f"{name}:horizontal", dla.horizontal)]
    for seed, (name, v) in enumerate(list(out)):
        if name.startswith(("t2m_double.pass", "tangent_cotangent_pair")):
            out += perturbations(name, v, seed)
    return out

"""`check_matched` reads flatness and the three identities off the bowtie's
structure equations; the section-level check it replaced
(`support.section_check_matched`, with derivation commutators and brackets
of sections) is the oracle.  The two must give equal reports, witnesses
included, on a corpus where every item fails often.  On the same corpus
the bowtie's store, written once per pair, equals the store filled from
the dense bracket vectors it replaced (`support.dense_bowtie_store`).
"""

import contextlib
import io
from collections import Counter

import pytest

import catalog
from doublealg import algebroid, cli, matched
from doublealg.algebroid import LieAlgebroid
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import LAVBundle
from doublealg.matched import (
    MatchedPair,
    MatchedPairError,
    assemble_bowtie,
    check_matched,
    vacant_lavbundles,
)
import support
from support import (
    MODELS,
    count_calls,
    dense_bowtie_brackets,
    dense_bowtie_store,
    matched_gate_pairs,
    section_check_matched,
)

ITEMS = (
    "algebroid_A",
    "algebroid_B",
    "rho.flat",
    "sigma.flat",
    "identity_1",
    "identity_2",
    "identity_3",
)


def test_reports_equal_the_section_level_oracle():
    pairs = matched_gate_pairs()
    assert len(pairs) >= 1000
    failures = Counter()
    for k, mp in enumerate(pairs):
        report = check_matched(mp)
        assert report == section_check_matched(mp), k
        failures.update(item.check_id for item in report.items if not item.ok)
        failures["pass" if report.ok else "fail"] += 1
    # seed 17 and the gate corpus give 410 passing pairs and 814 failing
    # ones; the rarest item, identity_3, fails 26 times
    assert failures["pass"] >= 300 and failures["fail"] >= 700
    assert all(failures[item] >= 10 for item in ITEMS), failures


def test_a_passing_check_brackets_no_section(monkeypatch):
    """Flatness and the identities are read off the structure functions:
    a passing check brackets no section."""
    passing = [mp for mp in matched_gate_pairs() if check_matched(mp).ok]
    assert len(passing) >= 300
    counts = count_calls(monkeypatch, ((algebroid, "bracket_sections"), (support, "anchor_of")))
    assert all(check_matched(mp).ok for mp in passing)
    assert counts == Counter()
    # the counter sees the oracle's identity 3, which takes anchors of sections
    assert section_check_matched(passing[0]).ok
    assert counts["anchor_of"]


def same_frame_pair():
    """A on TM and B trivial over (x), both with the one frame f1."""
    chart = Chart(("x",))
    x = Polynomial.coordinate(chart, "x")
    tm = LieAlgebroid(chart, ("f1",), [[Polynomial.constant(chart, 1)]], {})
    trivial = LieAlgebroid(chart, ("f1",), [[Polynomial.zero(chart)]], {})
    return MatchedPair(tm, trivial, [(((0, 0), x),)], [(((0, 0), x),)])


def test_the_bowtie_store_equals_the_dense_writer():
    """`MatchedPair.bowtie_structure` is the store the dense bracket vectors
    filled, also where A and B share a frame name; where they name their
    frames apart, `assemble_bowtie` equals the validating constructor on
    those vectors and `vacant_lavbundles` the validating bundles, and
    `assemble_bowtie` refuses the shared name."""
    shared = []
    for k, mp in enumerate(matched_gate_pairs() + (same_frame_pair(),)):
        assert mp.bowtie_structure == dense_bowtie_store(mp), k
        a_alg, b_alg = mp.algebroid_a, mp.algebroid_b
        if not set(a_alg.frames).isdisjoint(b_alg.frames):
            shared.append(mp)
            continue
        frames, anchor = a_alg.frames + b_alg.frames, a_alg.anchor + b_alg.anchor
        assert assemble_bowtie(mp) == LieAlgebroid(mp.chart, frames, anchor, dense_bowtie_brackets(mp)), k
        assert vacant_lavbundles(mp) == (
            LAVBundle(b_alg, a_alg.frames, (), mp.sigma, [()] * b_alg.rank, [], {}),
            LAVBundle(a_alg, b_alg.frames, (), mp.rho, [()] * a_alg.rank, [], {}),
        ), k
    # every gate pair names its frames apart
    (mp,) = shared
    assert check_matched(mp).first_failure.check_id == "identity_3"
    with pytest.raises(MatchedPairError, match="A and B share frame names: f1"):
        assemble_bowtie(mp)


def test_the_bowtie_store_stays_out_of_equality_hash_and_repr():
    mp = catalog.coadjoint_pair(catalog.solvable2_bialgebra())
    fresh = MatchedPair(mp.algebroid_a, mp.algebroid_b, mp.rho, mp.sigma)
    assert mp.bowtie_structure is mp.bowtie_structure
    assert mp == fresh and hash(mp) == hash(fresh) and repr(mp) == repr(fresh)


@pytest.mark.parametrize(
    "kind,model",
    [("bowtie", "line_action_matched.pass"), ("double", "coadjoint_solvable2.pass"), ("vacant", "coadjoint_solvable2.pass")],
)
def test_each_build_writes_the_bowtie_store_once(kind, model, monkeypatch):
    """`check_matched` and `assemble_bowtie` read the one store of the pair;
    the dense writer it replaced ran for each of them, twice per call."""
    writes = Counter()
    write = matched.pair_store

    def counted(*args):
        writes["bowtie"] += 1
        return write(*args)

    monkeypatch.setattr(matched, "pair_store", counted)
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert cli.main(["build", kind, str(MODELS / model)]) == 0
    assert writes == {"bowtie": 1}

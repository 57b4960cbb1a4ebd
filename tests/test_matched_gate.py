"""`check_matched` reads flatness and the three identities off the bowtie's
structure equations; the section-level check it replaced
(`support.section_check_matched`, with derivation commutators and brackets
of sections) is the oracle.  The two must give equal reports, witnesses
included, on a corpus where every item fails often.
"""

import functools
import random
from collections import Counter

import catalog
from doublealg import algebroid
from doublealg.algebroid import LieAlgebroid, random_polynomial
from doublealg.exact import Chart, Polynomial
from doublealg.matched import MatchedPair, check_matched
import support
from support import XY, cotangent, entries, gate_corpus, section_check_matched
from test_double_derived import count_calls
from test_matched import SEMIDIRECT_CORPUS

ITEMS = (
    "algebroid_A",
    "algebroid_B",
    "rho.flat",
    "sigma.flat",
    "identity_1",
    "identity_2",
    "identity_3",
)


def sparse_polynomial(rng, chart, zero_share):
    """Zero with probability `zero_share`, else a random polynomial of
    degree <= 1."""
    if rng.random() < zero_share:
        return Polynomial.zero(chart)
    return random_polynomial(rng, chart, 1)


def random_side(rng, chart, rank, prefix):
    """A rank-`rank` algebroid on `chart`: a constant bracket over the zero
    anchor, coordinate fields with zero bracket, a cotangent algebroid on
    (x, y), or a random anchor and bracket that mostly fails the axioms."""
    frames = tuple(f"{prefix}{i + 1}" for i in range(rank))
    zero = Polynomial.zero(chart)
    kind = rng.choice(("constant", "constant", "coordinate", "cotangent", "random"))
    if kind == "cotangent" and chart == XY and rank == 2:
        return cotangent(random_polynomial(rng, XY, 2), frames)
    if kind == "coordinate" and rank <= chart.dim:
        anchor = [
            [Polynomial.constant(chart, int(i == j)) for j in range(chart.dim)] for i in range(rank)
        ]
        return LieAlgebroid(chart, frames, anchor, {})
    if kind == "random":
        anchor = [[sparse_polynomial(rng, chart, 0.5) for _ in range(chart.dim)] for _ in range(rank)]
        brackets = {
            (a, b): [sparse_polynomial(rng, chart, 0.5) for _ in range(rank)]
            for a in range(rank)
            for b in range(a + 1, rank)
        }
        return LieAlgebroid(chart, frames, anchor, brackets)
    # a constant bracket: any one on rank <= 2 is a Lie algebra, and on
    # rank 3 the bracket [e1, e2] = c e3 alone is one
    brackets = {}
    if rank == 2:
        brackets[(0, 1)] = [Polynomial.constant(chart, rng.randint(-1, 1)) for _ in range(2)]
    elif rank == 3:
        brackets[(0, 1)] = [zero, zero, Polynomial.constant(chart, rng.randint(-1, 1))]
    return LieAlgebroid(chart, frames, [[zero] * chart.dim for _ in range(rank)], brackets)


def random_representation(rng, acting, target_rank):
    """One sparse random derivation matrix per frame of `acting`."""
    chart = acting.chart
    zero_share = rng.choice((1.0, 0.8, 0.5))
    def row():
        return [sparse_polynomial(rng, chart, zero_share) for _ in range(target_rank)]

    return [entries([row() for _ in range(target_rank)]) for _ in range(acting.rank)]


def random_pairs(count, seed):
    """Seeded pairs on (x) and on (x, y) with ranks 1-3."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        chart = Chart(("x",)) if k % 2 else XY
        a = random_side(rng, chart, rng.randint(1, 3), "a")
        b = random_side(rng, chart, rng.randint(1, 3), "b")
        rho = random_representation(rng, a, b.rank)
        sigma = random_representation(rng, b, a.rank)
        out.append(MatchedPair(a, b, rho, sigma))
    return out


def mirror(mp):
    return MatchedPair(mp.algebroid_b, mp.algebroid_a, mp.sigma, mp.rho)


@functools.cache
def gate_pairs():
    """The bundled and catalog pairs, the coadjoint pairs of the 400 seeded
    bialgebras, 200 seeded random pairs, and the mirror of each."""
    pairs = list(SEMIDIRECT_CORPUS)
    pairs += [catalog.coadjoint_pair(b) for b in gate_corpus()]
    pairs += random_pairs(200, seed=17)
    return tuple(pairs + [mirror(mp) for mp in pairs])


def test_reports_equal_the_section_level_oracle():
    pairs = gate_pairs()
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
    passing = [mp for mp in gate_pairs() if check_matched(mp).ok]
    assert len(passing) >= 300
    counts = count_calls(monkeypatch, ((algebroid, "bracket_sections"), (support, "anchor_of")))
    assert all(check_matched(mp).ok for mp in passing)
    assert counts == Counter()
    # the counter sees the oracle's identity 3, which takes anchors of sections
    assert section_check_matched(passing[0]).ok
    assert counts["anchor_of"]

"""`check_compatibility` scatters the frame defects, the function defects
and the symmetric part from the structure functions and the anchor rows;
the section calculus it replaced (`support.section_check_compatibility`,
three `schouten` and three `differential` calls per defect) is the
oracle.  The two must give equal reports, witnesses included, on a corpus
where every family fails often.  A passing check then makes no call of
the section calculus at all.
"""

import functools
import random
from collections import Counter

import catalog
from doublealg import algebroid
from doublealg.algebroid import check_bialgebroid, check_compatibility, first_jacobiator
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import BialgebraError, drinfeld_double
from doublealg.model import parse_model
from support import (
    POISSON_PAIR_MODEL,
    SO3,
    corpus_dual_pairs,
    count_calls,
    double_corpus,
    gate_corpus,
    gl,
    ladder_pair,
    random_bracket,
    section_check_compatibility,
    sweep_doubles,
    sweep_pairs,
    tt_pair,
)

FAMILIES = ("frames", "scaled", "function_pairs", "symmetric_part")
SECTION_CALCULUS = (
    (algebroid, "schouten"),
    (algebroid, "differential"),
    (algebroid, "bracket_sections"),
    (algebroid, "compatibility_defect"),
)


def both_ways(named_pairs):
    return [
        entry for name, (L, Lstar) in named_pairs
        for entry in ((name, (L, Lstar)), (f"{name}:reversed", (Lstar, L)))
    ]


def jacobi_failing_pairs(count, seed):
    """Seeded rank-3 pairs of `random_bracket` algebroids on (x, y) where
    at least one side fails Jacobi."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pair = random_bracket(rng, ("e1", "e2", "e3")), random_bracket(rng, ("f1", "f2", "f3"))
        if any(first_jacobiator(side) for side in pair):
            out.append((f"random_bracket{len(out)}", pair))
    return out


@functools.cache
def dual_gate_pairs():
    """The corpus dual pairs, the sweep pairs at seeds 1-8 and the dual
    pairs of their cotangent doubles, the 400 seeded bialgebras as point
    pairs, the so(3)*, gl(2)* and gl(3)* rungs, `tt<n>` for n <= 4 and the
    dual pairs of their cotangent doubles, and 40 pairs failing Jacobi, all
    but the corpus pairs (already both ways) taken both ways round."""
    pairs = corpus_dual_pairs(double_corpus())
    more = sweep_pairs(range(1, 9))
    more += [(f"{name}:double", dla.dual_pair) for name, dla in sweep_doubles(range(1, 9))]
    more += [(f"gate{k}", (b.algebra, b.dual)) for k, b in enumerate(gate_corpus())]
    for name, g in (("so3", SO3), ("gl2", gl(2)), ("gl3", gl(3))):
        more.append((name, build_cotangent_double(*ladder_pair(g)).dual_pair))
    for n in range(1, 5):
        more += [(f"tt{n}", tt_pair(n)), (f"tt{n}:double", build_cotangent_double(*tt_pair(n)).dual_pair)]
    more += jacobi_failing_pairs(40, seed=3)
    return tuple(pairs + both_ways(more))


def test_reports_equal_the_section_calculus_oracle():
    pairs = dual_gate_pairs()
    assert len(pairs) >= 1000
    failures = Counter()
    for name, (L, Lstar) in pairs:
        report = check_compatibility(L, Lstar)
        assert report == section_check_compatibility(L, Lstar), name
        failures.update(item.check_id for item in report.items if not item.ok)
        failures["pass" if report.ok else "fail"] += 1
    # 1178 pairs: 522 pass and 656 fail; frames fails 570 times, scaled
    # and function_pairs 204 each (scaled has no case over a point) and
    # symmetric_part 138
    assert failures["pass"] >= 450 and failures["fail"] >= 550
    assert failures["frames"] >= 500
    assert failures["scaled"] >= 150 and failures["function_pairs"] >= 150
    assert failures["symmetric_part"] >= 100


def on_line(g):
    """The Lie algebra `g` as an algebroid with zero anchor on a line."""
    line = Chart(("x",))
    zero = Polynomial.zero(line)
    brackets = {}
    for a, row in enumerate(g.nonzero_structure):
        for b in range(a + 1, g.rank):
            if row[b]:
                vec = brackets[a, b] = [zero] * g.rank
                for k, c in row[b]:
                    vec[k] = c.lift(line)
    return algebroid.LieAlgebroid(line, g.frames, [[zero]] * g.rank, brackets)


def test_scaled_read_off_the_frame_defects_alone_equals_the_oracle():
    """Seeded bialgebras on a line with zero anchors: `function_pairs` and
    `symmetric_part` pass, so a failing `scaled` item is x times a frame
    defect, whose sign its witness shows."""
    read_off = 0
    for b in gate_corpus()[:60]:
        L, Lstar = on_line(b.algebra), on_line(b.dual)
        report = check_compatibility(L, Lstar)
        assert report == section_check_compatibility(L, Lstar)
        items = {item.check_id: item.ok for item in report.items}
        read_off += not items["frames"] and items["function_pairs"] and not items["scaled"]
    assert read_off >= 10


def test_other_seeds_and_degrees_equal_the_oracle():
    """The `random` family draws its trials from `seed` and `max_degree`."""
    for name, (L, Lstar) in dual_gate_pairs()[::25]:
        for seed, max_degree in ((0, 1), (11, 3)):
            expected = section_check_compatibility(L, Lstar, seed, max_degree)
            assert check_compatibility(L, Lstar, seed, max_degree) == expected, name


def passing_doubles():
    doubles = [build_cotangent_double(*ladder_pair(g)) for g in (SO3, gl(2))]
    doubles += [build_cotangent_double(*tt_pair(n)) for n in (2, 3)]
    doubles += [dla for _, dla in sweep_doubles(range(1, 3))]
    return [dla for dla in doubles if check_double(dla).ok]


def test_a_passing_check_makes_no_section_calculus_call(monkeypatch):
    pairs = [pair for _, pair in dual_gate_pairs() if check_bialgebroid(*pair).ok]
    doubles = passing_doubles()
    assert len(pairs) >= 300 and len(doubles) >= 6
    for dla in doubles:
        dla.dual_pair
    counts = count_calls(monkeypatch, SECTION_CALCULUS)
    assert all(check_bialgebroid(*pair).ok for pair in pairs)
    assert all(check_double(dla).ok for dla in doubles)
    assert counts == Counter()
    # the counters see the oracle's calls
    assert section_check_compatibility(*catalog.tangent_cotangent_pair()).ok
    assert counts["schouten"] and counts["differential"] and counts["bracket_sections"]


def test_trials_that_all_vanish_pass_random_after_drawing(monkeypatch):
    """Constant sections (`max_degree=0`) see only the frame defects: a pair
    failing other families runs every trial and passes `random` after them."""
    counts = count_calls(monkeypatch, ((algebroid, "compatibility_defect"),))
    vanishing = 0
    for name, (L, Lstar) in sweep_pairs(range(1, 9)):
        before = counts["compatibility_defect"]
        report = check_compatibility(L, Lstar, max_degree=0)
        if report.ok or not report.items[-1].ok:
            continue
        assert counts["compatibility_defect"] - before == algebroid.RANDOM_PAIRS, name
        assert report.items == section_check_compatibility(L, Lstar, max_degree=0).items, name
        vanishing += 1
    # seeds 1-8 give 30 failing pairs, 20 of them passing `random`
    assert vanishing >= 15


def test_drinfeld_double_makes_no_compatibility_defect_call(monkeypatch):
    counts = count_calls(monkeypatch, SECTION_CALCULUS)
    outcomes = Counter()
    for b in gate_corpus():
        try:
            drinfeld_double(b)
            outcomes["double"] += 1
        except BialgebraError as exc:
            outcomes[str(exc).split(":")[0]] += 1
    assert outcomes["double"] >= 100 and outcomes["cocycle condition fails"] >= 10
    assert counts == Counter()


def test_a_failing_trial_runs_the_recursive_schouten_bracket(monkeypatch):
    """The `random` trial of a failing double runs `schouten`'s recursion
    through `bracket_sections` and `differential`: the benchmark's traced
    sweep needs more `schouten` calls than `check_algebroid` calls, so a
    faster kernel must keep these counts."""
    model = parse_model(POISSON_PAIR_MODEL)
    dla = build_cotangent_double(model.algebroids["P"], model.algebroids["Q"])
    counts = count_calls(monkeypatch, SECTION_CALCULUS)
    report = check_double(dla)
    assert [item.check_id for item in report.items if not item.ok][-1] == "bialgebroid.random"
    assert counts == {
        "compatibility_defect": 1,
        "schouten": 22,
        "bracket_sections": 19,
        "differential": 3,
    }

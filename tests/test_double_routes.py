"""`build cotangent-double`, `build double` and `build vacant` state the
report of a passing `check_double` when a smaller check decides it: the
closed-form compatibility families of the dual pair (Mackenzie & Xu
1994) and `check_matched` of the pair of actions (Mokri 1997).  On a
failure they run `check_double` itself.  The gate: on every corpus below,
the routed report equals `check_double`'s full report, and an exception
of `check_double` is raised the same way, type and message.
"""

from collections import Counter

from doublealg import algebroid, cli, doublela, lavb
from doublealg.doublela import (
    DoubleMismatch,
    assemble_vacant_double,
    build_cotangent_double,
    check_double,
    passing_double_report,
)
from doublealg.matched import check_matched
from support import (
    SO3,
    corpus_dual_pairs,
    double_corpus,
    gate_corpus,
    gl,
    ladder_pair,
    sweep_pairs,
    tt_pair,
)
from test_double_derived import count_calls
from test_matched_gate import gate_pairs as matched_gate_pairs

SEED, MAX_DEGREE = 7, 2


def outcome(fn, *args):
    """("report", value) of `fn(*args)`, or ("raises", type, message)."""
    try:
        return ("report", fn(*args))
    except (ValueError, KeyError) as exc:
        return ("raises", type(exc), str(exc))


def dual_pairs():
    """The buildable-or-refused dual pairs: the corpus pairs, the sweep
    pairs at seeds 1-8 and the 400 seeded bialgebras as point pairs, then
    `tt<n>` for n <= 8 and the so(3)*, gl(2)* and gl(3)* rungs."""
    pairs = corpus_dual_pairs(double_corpus()) + sweep_pairs(range(1, 9))
    pairs += [(f"gate{k}", (b.algebra, b.dual)) for k, b in enumerate(gate_corpus())]
    pairs += [(f"tt{n}", tt_pair(n)) for n in range(1, 9)]
    pairs += [(name, ladder_pair(g)) for name, g in (("so3", SO3), ("gl2", gl(2)), ("gl3", gl(3)))]
    return pairs


def test_cotangent_route_equals_check_double():
    tally = Counter()
    for name, (L, Lstar) in dual_pairs():
        try:
            dla = build_cotangent_double(L, Lstar)
        except (algebroid.InvalidAlgebroid, DoubleMismatch):
            tally["refused"] += 1
            continue
        expected = outcome(check_double, dla, SEED, MAX_DEGREE)
        assert outcome(cli._cotangent_report, L, Lstar, dla, SEED, MAX_DEGREE) == expected, name
        stated = all(item.ok for item in algebroid.compatibility_families(L, Lstar))
        # the theorem both ways: a double the route sends to `check_double`
        # fails it
        assert stated == (expected[0] == "report" and expected[1].ok), name
        tally["pass" if stated else "fail"] += 1
    # 232 buildable pairs of the corpus, sweep and gate bialgebras (178
    # pass, 54 fail; 252 more refused), then tt1..tt8 and the three rungs,
    # all passing
    assert tally["pass"] >= 185 and tally["fail"] >= 50 and tally["refused"] >= 250, tally


def test_vacant_route_equals_check_double():
    tally = Counter()
    for k, mp in enumerate(matched_gate_pairs()):
        dla = assemble_vacant_double(mp)
        expected = outcome(check_double, dla, SEED, MAX_DEGREE)
        assert outcome(cli._vacant_report, mp, dla, SEED, MAX_DEGREE) == expected, k
        assert expected[0] == "report" and expected[1].ok == check_matched(mp).ok, k
        tally["pass" if expected[1].ok else "fail"] += 1
    # the 1144 matched-gate pairs: 338 matched, 806 not
    assert tally["pass"] >= 330 and tally["fail"] >= 800, tally


def test_passing_report_has_the_fifteen_items():
    report = passing_double_report()
    assert report.ok and len(report.items) == 15
    assert report == check_double(build_cotangent_double(*tt_pair(2)))


def test_a_stated_pass_runs_no_double_check(monkeypatch):
    """On a passing pair the routes check neither LA-vector bundle nor the
    pair over the core dual."""
    L, Lstar = tt_pair(3)
    cotangent = build_cotangent_double(L, Lstar)
    mp = next(mp for mp in matched_gate_pairs() if check_matched(mp).ok)
    vacant = assemble_vacant_double(mp)
    counts = count_calls(
        monkeypatch,
        ((doublela, "check_double"), (lavb, "check_lavb"), (algebroid, "check_compatibility")),
    )
    assert cli._cotangent_report(L, Lstar, cotangent, SEED, MAX_DEGREE).ok
    assert cli._vacant_report(mp, vacant, SEED, MAX_DEGREE).ok
    assert counts == Counter()

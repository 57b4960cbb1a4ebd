"""The checkers decide only the frame tuples that the sparsity pattern does
not prove zero.

`check_algebroid` skips the frame pairs and triples, and
`compatibility_families` the frame pairs and (frame, coordinate) pairs,
whose defects the structure equations prove exactly zero from
`LieAlgebroid.sparsity`.  The tuples they decide are visited in the order
of the full loops, so every item and witness is unchanged; the full loops
are the oracles `support.full_decide_axioms` and
`support.full_compatibility_families`.  The gate compares the two on the
dual pairs of the diagnostics and vacant gate doubles, on tt1..tt16 and on
the ladder rungs with gl(3)* and gl(4)*, and on perturbations of tt16
whose first failing tuple comes late in frame order, where a skip that
drops a nonzero tuple moves the witness.  A count guard pins how many
tuples `check_double` decides, and another that it builds one pattern
per algebroid.  Each skip rule made too aggressive, one at a time, moves
a report of those perturbations away from the full loops.

Inside a decided tuple, `anchor_defect`, `jacobiator` and `frame_defect`
compute only the terms that the coordinate masks of the anchors leave.
Their dense forms, `support.full_anchor_defect`, `support.full_jacobiator`
and `support.full_frame_defect`, are the oracles of a second gate:
`check_algebroid`, `check_bialgebroid`, `check_double` and
`check_matched` give the same reports through either,
on the gl(3)*-gl(5)* rungs and their perturbations, the diagnostics
doubles, the matched-pair gate and the late perturbations of tt16.  A
count guard pins how many anchors `check_double` applies, and each entry
rule made too aggressive is caught as the tuple rules are.
"""

import functools
import operator
from types import FunctionType, SimpleNamespace

import pytest

from doublealg import algebroid, doublela, sparsity
from doublealg.algebroid import (
    LieAlgebroid,
    VectorField,
    check_algebroid,
    check_bialgebroid,
    compatibility_families,
    tangent_algebroid,
)
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.liealg import LieAlgebra
from doublealg.matched import check_matched
from doublealg.verdicts import CheckItem
from support import (
    SO3,
    corpus_dual_pairs,
    count_calls,
    count_entries,
    dense_defects,
    diagnostics_doubles,
    full_compatibility_families,
    full_decide_axioms,
    gl,
    ladder_pair,
    large_dual_pair,
    matched_gate_pairs,
    tt_pair,
    vacant_gate_doubles,
)

DEFECTS = (
    (algebroid, "anchor_defect"),
    (algebroid, "jacobiator"),
    (algebroid, "frame_defect"),
    (algebroid, "function_defect"),
)


def assert_pair_equals_the_full_loops(name, L, Lstar):
    """Both axiom reports and the compatibility families of (L, Lstar), both
    ways round, equal the full loops."""
    for side in (L, Lstar):
        assert check_algebroid(side) == full_decide_axioms(side), name
    for pair in ((L, Lstar), (Lstar, L)):
        assert tuple(compatibility_families(*pair)) == full_compatibility_families(*pair), name


def test_gate_doubles_dual_pairs_equal_the_full_loops():
    """The dual pairs of the 125 diagnostics doubles and the 1224 vacant
    gate doubles whose LA-vector bundles pass, both ways round."""
    pairs = corpus_dual_pairs(diagnostics_doubles() + vacant_gate_doubles())
    failing = 0
    for name, (L, Lstar) in pairs:
        assert_pair_equals_the_full_loops(name, L, Lstar)
        failing += not all(item.ok for item in compatibility_families(L, Lstar))
    assert (len(pairs), failing) == (1214, 290)


def named_pair(name):
    """tt<n> or the Lie-Poisson rung of so(3)* or gl(n)*."""
    if name.startswith("tt"):
        return tt_pair(int(name[2:]))
    return ladder_pair(SO3 if name == "so3" else gl(int(name[2:])))


@pytest.mark.parametrize("name", [f"tt{n}" for n in range(1, 17)] + ["so3", "gl2", "gl3", "gl4"])
def test_cotangent_doubles_equal_the_full_loops(name):
    """The input pair, every algebroid that `check_double` decides and the
    dual pair over the core dual."""
    L, Lstar = named_pair(name)
    dla = build_cotangent_double(L, Lstar)
    assert check_double(dla).ok
    assert_pair_equals_the_full_loops(name, L, Lstar)
    for bundle in (dla.vertical, dla.horizontal):
        for side in (bundle.side, bundle.induced_dual, bundle.total):
            assert check_algebroid(side) == full_decide_axioms(side), name
    assert_pair_equals_the_full_loops(name, *dla.dual_pair)


# --- perturbations of tt16 whose first failing tuple comes late


def late_perturbation(kind):
    """TM on x1..x16 against a perturbation of the zero dual on w1..w16.

    `anchor_pair`: a(w15) = d/dx16 and a(w16) = x16 d/dx16, so the anchor
    morphism fails first on the last pair, (w15, w16), whose bracket is
    empty; `mirrored_anchor_pair` swaps the two anchors, so that the
    nonzero term of the defect is a_b(a_a^16) instead of a_a(a_b^16).
    `jacobi_triple`: [w14, w16] = w1 and [w1, w15] = w2 with the
    zero anchor, so Jacobi fails first on the last triple, (w14, w15, w16),
    whose only nonzero bracket is that of (w14, w16).
    `anchored_bracket`: a(w14) = d/dx16 and [w15, w16] = x16 w1, so Jacobi
    fails on (w14, w15, w16) alone, by the one term a_14(c^1_{15,16}) = 1.
    The other three keep the dual a Lie algebroid: `frames_pair`, [w15, w16] = x16 w15,
    fails `frames` first on (del_x15, del_x16); `function_pair`, a(w16) =
    x15 d/dx14, fails `function_pairs` first on (del_x15, x14) through the
    column of x14, which no row of the same index holds; `last_bracket`,
    [w15, w16] = w1, fails `function_pairs` first on (del_x1, x15)."""
    L, Lstar = tt_pair(16)
    chart, n = L.chart, L.rank
    zero, one = Polynomial.zero(chart), Polynomial.constant(chart, 1)

    def x(k):
        return Polynomial.coordinate(chart, f"x{k}")

    def frame(g, coeff=one):
        return [coeff if k == g - 1 else zero for k in range(n)]

    anchor = [[zero] * n for _ in range(n)]
    brackets = {}
    if kind == "anchor_pair":
        anchor[14][15], anchor[15][15] = one, x(16)
    elif kind == "mirrored_anchor_pair":
        anchor[14][15], anchor[15][15] = x(16), one
    elif kind == "jacobi_triple":
        brackets[13, 15], brackets[0, 14] = frame(1), frame(2)
    elif kind == "anchored_bracket":
        anchor[13][15], brackets[14, 15] = one, frame(1, x(16))
    elif kind == "frames_pair":
        brackets[14, 15] = frame(15, x(16))
    elif kind == "function_pair":
        anchor[15][13] = x(15)
    elif kind == "last_bracket":
        brackets[14, 15] = frame(1)
    return L, LieAlgebroid(chart, Lstar.frames, anchor, brackets)


def reports(kind):
    """`check_algebroid` of the perturbed dual, `check_bialgebroid` of the
    pair and, when the dual is a Lie algebroid, `check_double` of its
    cotangent double, all on fresh objects."""
    L, Lstar = late_perturbation(kind)
    out = [check_algebroid(Lstar), check_bialgebroid(L, Lstar)]
    if out[0].ok:
        out.append(check_double(build_cotangent_double(L, Lstar)))
    return out


LATE = {
    "anchor_pair": ("dual_side", "pair (w15, w16): "),
    "mirrored_anchor_pair": ("dual_side", "pair (w15, w16): "),
    "jacobi_triple": ("dual_side", "triple (w14, w15, w16): "),
    "anchored_bracket": ("dual_side", "triple (w14, w15, w16): "),
    "frames_pair": ("frames", "pair (del_x15, del_x16): "),
    "function_pair": ("function_pairs", "pair (del_x15, x14): "),
    "last_bracket": ("function_pairs", "pair (del_x1, x15): "),
}


@pytest.mark.parametrize("kind", list(LATE))
def test_late_failures_equal_the_full_loops(monkeypatch, kind):
    """Every report, witnesses included, equals the one that the full loops
    give; the failing item of `check_bialgebroid` names the late tuple."""
    found = reports(kind)
    with monkeypatch.context() as patched:
        patched.setattr(algebroid, "_decide_axioms", full_decide_axioms)
        patched.setattr(
            algebroid, "compatibility_families", lambda L, Lstar: iter(full_compatibility_families(L, Lstar))
        )
        expected = reports(kind)
    assert found == expected
    check_id, where = LATE[kind]
    item = next(item for item in found[1].items if item.check_id == check_id)
    assert not item.ok and item.witness.startswith(where), item
    assert len(found) == (2 if check_id == "dual_side" else 3)
    assert all(not report.ok for report in found[1:])


# --- the entry-level skips against the dense defects


def rung_reports(name):
    """`check_algebroid` of both sides and `check_bialgebroid` of the pair
    `support.large_dual_pair(name)`, and `check_double` of its cotangent
    double, built past the validity check for the `poisson` perturbation,
    whose dual is no Lie algebroid."""
    L, Lstar = large_dual_pair(name)
    out = [check_algebroid(L), check_algebroid(Lstar), check_bialgebroid(L, Lstar)]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(doublela, "require_valid", lambda L, label: None)
        dla = build_cotangent_double(L, Lstar)
    return out + [check_double(dla)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gl_rungs_equal_the_dense_defects(monkeypatch, n):
    """gl(n)*, its zero anchor and its doubled Poisson coefficient: every
    report equals the one the dense defects give, witnesses included."""
    names = [f"gl{n}", f"gl{n}:zero_anchor", f"gl{n}:poisson"]
    found = [rung_reports(name) for name in names]
    with monkeypatch.context() as patched:
        dense_defects(patched)
        expected = [rung_reports(name) for name in names]
    assert found == expected
    assert [[report.ok for report in reports] for reports in found] == [
        [True] * 4,
        [True, True, False, False],
        [True, False, False, False],
    ]


def test_gate_corpora_equal_the_dense_defects(monkeypatch):
    """`check_double` of the 125 diagnostics doubles, `check_bialgebroid`
    of their dual pairs both ways round, `check_matched` of the 1224
    matched-pair gate pairs, and the reports of the late perturbations of
    tt16, each equal to the one the dense defects give."""
    doubles = [dla for _, dla in diagnostics_doubles()]
    pairs = [pair for _, pair in corpus_dual_pairs(diagnostics_doubles())]
    matched = matched_gate_pairs()

    def decide():
        return (
            [check_double(dla) for dla in doubles],
            [check_bialgebroid(*pair) for pair in pairs],
            [check_matched(mp) for mp in matched],
            [reports(kind) for kind in LATE],
        )

    found = decide()
    with monkeypatch.context() as patched:
        dense_defects(patched)
        expected = decide()
    for got, want in zip(found, expected):
        assert got == want
    # the gate is not vacuous: each corpus fails often
    assert [sum(not report.ok for report in reports) for reports in found[:3]] == [73, 94, 814]


# --- how many tuples `check_double` decides


@pytest.mark.parametrize(
    "name, expected",
    [
        # the full loops decide 30 anchor pairs, 40 triples, 15 frame pairs
        # and 36 (frame, coordinate) pairs
        ("so3", {"anchor_defect": 12, "jacobiator": 19, "frame_defect": 9, "function_defect": 18}),
        # the full loops: 992, 9920, 496 and 1024
        ("tt16", {}),
    ],
)
def test_check_double_decides_only_the_tuples_the_pattern_leaves(monkeypatch, name, expected):
    dla = build_cotangent_double(*named_pair(name))
    counts = count_calls(monkeypatch, DEFECTS)
    assert check_double(dla).ok
    assert counts == expected


def test_check_double_applies_only_the_anchors_the_masks_leave(monkeypatch):
    """`check_double` on the so(3)* cotangent double applies an anchor 54
    times: 36 in `anchor_defect` and 18 in `function_defect`, none in
    `frame_defect` or `jacobiator`: every structure function that
    `jacobiator` meets there is constant.  Without the entry-level skips
    it applied one 243 times (144 in `anchor_defect`, 36 in `jacobiator` and 45 in
    `frame_defect`)."""
    dla = build_cotangent_double(*named_pair("so3"))
    counts = count_calls(monkeypatch, [(VectorField, "apply")])
    assert check_double(dla).ok
    assert counts["apply"] == 54


def test_check_double_builds_one_pattern_per_algebroid(monkeypatch):
    """Building and checking the cotangent double of so(3)* builds the
    sparsity pattern of each algebroid it decides once: the two sides, the
    two induced duals and the frame-changed dual of the dual pair."""
    counts = count_calls(monkeypatch, [(sparsity, "build_sparsity")])
    dla = build_cotangent_double(*named_pair("so3"))
    assert check_double(dla).ok
    built = {id(side): side for b in (dla.vertical, dla.horizontal) for side in (b.side, b.induced_dual, b.total)}
    built.update((id(side), side) for side in dla.dual_pair)
    patterned = [side for side in built.values() if "sparsity" in vars(side)]
    assert counts["build_sparsity"] == len(patterned) == 5


# --- work-count pins: each skip rule made less aggressive decides more


DECIDED = ("anchor_defect", "jacobiator", "frame_defect", "function_defect", "scaled_at")


@pytest.mark.parametrize(
    "name, expected",
    [
        # with their rank tests at four frames, `anchor_pairs` leaves 18
        # anchor pairs and `bracket_triples` 19 triples
        ("so3", {"anchor_defect": 15, "jacobiator": 20, "frame_defect": 9, "function_defect": 18}),
        # `bracket_triples` reading `above >> b | 1` gives 814 triples
        ("gl3", {"anchor_defect": 153, "jacobiator": 715, "frame_defect": 63, "function_defect": 126}),
        ("tt16", {}),
    ],
)
def test_building_and_checking_a_double_decides_a_pinned_number_of_tuples(name, expected):
    """The tuples that `build_cotangent_double` and `check_double` decide
    together on fresh objects, so that the axioms of both sides, which
    the build decides, are counted too."""
    assert count_entries(DECIDED, lambda: check_double(build_cotangent_double(*named_pair(name)))) == expected


def test_a_rank_three_algebroid_decides_a_pinned_number_of_tuples():
    """Below three frames `anchor_pairs` leaves the one pair and
    `bracket_triples` none, without a pattern; at three frames both read
    it.  TM on (x, y, z) has no pair to decide (three with the rank test
    at four), and so(3) its one triple (none with the rank test at four,
    which would pass the algebra [e1, e2] = e1, [e1, e3] = e2, whose
    Jacobiator is e2)."""
    tm = tangent_algebroid(Chart(("x", "y", "z")))
    assert count_entries(DECIDED, lambda: algebroid._decide_axioms(tm)) == {}
    assert count_entries(DECIDED, lambda: algebroid._decide_axioms(SO3)) == {"jacobiator": 1}
    broken = LieAlgebra(3, {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
    assert algebroid._decide_axioms(broken).items[1] == CheckItem(
        "jacobi", False, "triple (e1, e2, e3): jacobiator = (1) e2"
    )


# the less aggressive mutants each case kills: `function_coordinates` with
# `depends | star.spread` (function_pair: 15 function defects and 225 scaled
# cases), `frames_at` with `partners[a] >> b | 1` (function_pair: a frame
# defect), `functions_at` with `reached[a] >> i | 1` (frames_pair: 239
# function defects), and the `scaled` loop with `partners[a] >> b | 1` or
# `a != b or ...` (frames_pair: 3375 scaled cases; last_bracket: 15 with `or`)
LATE_DECIDED = {
    "anchor_pair": {"anchor_defect": 1},
    "mirrored_anchor_pair": {"anchor_defect": 1},
    "jacobi_triple": {"anchor_defect": 2, "jacobiator": 28},
    "anchored_bracket": {"anchor_defect": 1, "jacobiator": 14},
    "frames_pair": {"anchor_defect": 1, "jacobiator": 14, "frame_defect": 15, "function_defect": 1, "scaled_at": 239},
    "function_pair": {"function_defect": 1, "scaled_at": 1},
    "last_bracket": {"anchor_defect": 1, "jacobiator": 14, "frame_defect": 15, "function_defect": 1, "scaled_at": 1},
}


@pytest.mark.parametrize("kind", list(LATE))
def test_a_late_failure_decides_a_pinned_number_of_cases(kind):
    """`check_bialgebroid` of each late perturbation of tt16; `scaled_at`
    is the case of the `scaled` family, run only when `frames` or
    `function_pairs` fails."""
    L, Lstar = late_perturbation(kind)
    assert count_entries(DECIDED, lambda: check_bialgebroid(L, Lstar)) == LATE_DECIDED[kind]


# --- each skip rule made too aggressive is caught by the full loops


def blind(L):
    """`L` as the skip rules read it, with no bracket indexed by value."""
    return SimpleNamespace(sparsity=L.sparsity._replace(brackets_by_gamma=((),) * L.rank))


def partners_without_targets(L, Lstar):
    """The `frames` rule without the pairs left for a bracket of Lstar."""
    return sparsity.frame_partners(L, blind(Lstar))


def triples_without_outer_brackets(L):
    """`bracket_triples` without the triples bracketed only on (a, c)."""
    bracketed = L.sparsity.bracketed
    return (
        (a, b, c)
        for a, b, c in sparsity.bracket_triples(L)
        if bracketed[a] >> b & 1 or bracketed[b] >> c & 1
    )


def coordinates_without_gamma(L, Lstar, a):
    """`function_coordinates` without its gamma^{pq}_a term."""
    return sparsity.function_coordinates(L, blind(Lstar), a)


def anchor_defect_by_one_half(kept):
    """`anchor_defect` with one half of its symmetric mask test: at each
    coordinate i, both a_b(a_a^i) and a_a(a_b^i) are computed only when
    the entry of frame a (`kept` 0) or of frame b (`kept` 1) depends on a
    coordinate that the other anchor points along."""

    def anchor_defect(nonzero, fields, a, b):
        fa, fb = fields[a], fields[b]
        own, other = (fa, fb)[kept], (fb, fa)[kept]
        defect = []
        for i, (pa, pb) in enumerate(zip(fa.components, fb.components)):
            entry = fb.apply(pa) - fa.apply(pb) if own._variables[i] & other._directions else fa.chart._zero
            for g, coeff in nonzero[a][b]:
                entry = entry + coeff * fields[g].components[i]
            defect.append(entry)
        return tuple(defect)

    return anchor_defect


def jacobiator_by_dependence(jacobiator):
    """`jacobiator` testing c^g_xy against the coordinates that the entries
    of a_z depend on, instead of those that a_z points along."""

    def mutant(nonzero, fields, a, b, c):
        swapped = [
            SimpleNamespace(_directions=functools.reduce(operator.or_, f._variables, 0), apply=f.apply)
            for f in fields
        ]
        return jacobiator(nonzero, swapped, a, b, c)

    return mutant


def movers_but_the_lowest(pattern, coordinates):
    """`movers` without its lowest frame."""
    frames = sparsity.movers(pattern, coordinates)
    return frames & frames - 1


def dropping_a_mover(defect):
    """The defect function `defect` of `algebroid`, reading
    `movers_but_the_lowest` for `movers`, so that only its own call of
    the rule is too aggressive."""
    return FunctionType(defect.__code__, {**vars(algebroid), "movers": movers_but_the_lowest})


MUTANTS = {
    "frame_partners": partners_without_targets,
    "bracket_triples": triples_without_outer_brackets,
    "function_coordinates": coordinates_without_gamma,
    "anchor_defect:a": anchor_defect_by_one_half(0),
    "anchor_defect:b": anchor_defect_by_one_half(1),
    "jacobiator": jacobiator_by_dependence(algebroid.jacobiator),
    "frame_defect": dropping_a_mover(algebroid.frame_defect),
    "function_defect": dropping_a_mover(algebroid.function_defect),
}


def equals_the_full_loops(L, Lstar):
    """Whether both axiom reports, decided afresh, and the compatibility
    families of (L, Lstar), both ways round, equal the full loops."""
    return all(algebroid._decide_axioms(side) == full_decide_axioms(side) for side in (L, Lstar)) and all(
        tuple(compatibility_families(*pair)) == full_compatibility_families(*pair) for pair in ((L, Lstar), (Lstar, L))
    )


@pytest.mark.parametrize("rule", list(MUTANTS))
def test_a_too_aggressive_skip_rule_moves_a_report(monkeypatch, rule):
    pairs = [late_perturbation(kind) for kind in LATE]
    assert all(equals_the_full_loops(*pair) for pair in pairs)
    monkeypatch.setattr(algebroid, rule.partition(":")[0], MUTANTS[rule])
    assert not all(equals_the_full_loops(*pair) for pair in pairs)

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
"""

from types import SimpleNamespace

import pytest

from doublealg import algebroid, sparsity
from doublealg.algebroid import LieAlgebroid, check_algebroid, check_bialgebroid, compatibility_families
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Polynomial
from support import (
    SO3,
    corpus_dual_pairs,
    count_calls,
    diagnostics_doubles,
    full_compatibility_families,
    full_decide_axioms,
    gl,
    ladder_pair,
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
    empty.  `jacobi_triple`: [w14, w16] = w1 and [w1, w15] = w2 with the
    zero anchor, so Jacobi fails first on the last triple, (w14, w15, w16),
    whose only nonzero bracket is that of (w14, w16).  The other three
    keep the dual a Lie algebroid: `frames_pair`, [w15, w16] = x16 w15,
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
    elif kind == "jacobi_triple":
        brackets[13, 15], brackets[0, 14] = frame(1), frame(2)
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
    "jacobi_triple": ("dual_side", "triple (w14, w15, w16): "),
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


MUTANTS = {
    "frame_partners": partners_without_targets,
    "bracket_triples": triples_without_outer_brackets,
    "function_coordinates": coordinates_without_gamma,
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
    monkeypatch.setattr(algebroid, rule, MUTANTS[rule])
    assert not all(equals_the_full_loops(*pair) for pair in pairs)

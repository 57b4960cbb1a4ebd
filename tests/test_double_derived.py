"""Derived structures of a double are computed once, and `check_double`
decides the bialgebroid condition exactly as `check_bialgebroid` does.

`check_double` skips the two algebroid axiom checks of the induced dual
pair, since `check_lavb` has already decided them; the full
`check_bialgebroid` on the same pair stays here as the oracle.  Likewise
`build_cotangent_double` writes both LA-vector bundles down in closed form;
the cotangent algebroids of the two linear Poisson structures, which prove
[pi, pi] = 0 with the Schouten bracket, stay here as their oracle.  The
`scaled` family of `check_compatibility` is read off the frame and function
defects by the Leibniz rule; the loop that computes every scaled defect in
full stays here as its oracle.  The `random` family draws its seeded trials
only when one of the other four families fails; the trial loop, run on
every pair, stays here as its oracle.
"""

import contextlib
import gc
import io
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import catalog
from doublealg import algebroid, cli, doublela, lavb, matched
from doublealg.algebroid import (
    LieAlgebroid,
    bracket_sections,
    check_bialgebroid,
    check_compatibility,
    cotangent_algebroid,
    differential,
    dual_poisson,
    random_polynomial,
    random_section,
    schouten,
    tangent_algebroid,
)
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Polynomial
from doublealg.verdicts import failed, passed
from doublealg.lavb import check_lavb
import support
from support import (
    MODELS,
    SO3,
    XY,
    constant_bundle,
    corpus_dual_pairs,
    count_calls,
    dense_structure,
    cotangent,
    double_corpus,
    frame_loop_check_algebroid,
    frame_section,
    gl,
    ladder_doubles,
    ladder_pair,
    random_bracket,
    rename,
    scale_section,
    tt_pair,
)


def bialgebroid_items(report):
    return tuple(i for i in report.items if i.check_id.startswith("bialgebroid."))


def assert_matches_oracle(dla):
    """Compare the bialgebroid items of `check_double` with the oracle and
    return the oracle's verdict; None when an LA-vector bundle check fails,
    since `check_double` then stops before the pair."""
    report = check_double(dla)
    if not (check_lavb(dla.vertical).ok and check_lavb(dla.horizontal).ok):
        assert not bialgebroid_items(report)
        return None
    oracle = check_bialgebroid(*dla.dual_pair).prefixed("bialgebroid")
    assert bialgebroid_items(report) == oracle.items
    return oracle.ok


CORPUS = double_corpus()


@pytest.mark.parametrize("dla", [d for _, d in CORPUS], ids=[n for n, _ in CORPUS])
def test_check_double_matches_check_bialgebroid(dla):
    assert_matches_oracle(dla)


def test_corpus_has_passing_and_failing_bialgebroids():
    verdicts = Counter(assert_matches_oracle(d) for _, d in CORPUS)
    assert verdicts[True] >= 3 and verdicts[False] >= 3


# --- seeded random dual pairs on (x, y), the families of the benchmark sweep

polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.integers(-2, 2),
    max_size=3,
).map(lambda d: Polynomial(XY, d))


TM = tangent_algebroid(XY)
dual_pairs = st.one_of(
    polys.map(lambda f: (TM, cotangent(f))),
    polys.map(lambda f: (cotangent(f), TM)),
    st.tuples(polys, polys).map(lambda fg: (cotangent(fg[0]), cotangent(fg[1], ("ex", "ey")))),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda c: (TM, constant_bundle(c))),
)


@given(dual_pairs)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_check_double_matches_check_bialgebroid_on_random_pairs(pair):
    assert assert_matches_oracle(build_cotangent_double(*pair)) is not None


# --- each derived structure is computed once


def test_derived_structures_are_shared():
    dla = build_cotangent_double(*catalog.tangent_cotangent_pair())
    v = dla.vertical
    assert v.total is v.total and v.total == lavb.total_algebroid(v)
    assert v.induced_dual is v.induced_dual and v.induced_dual == lavb.induced_dual_algebroid(v)
    assert dla.dual_pair is dla.dual_pair
    assert dla.dual_pair[0] is dla.vertical.induced_dual
    assert dla.core is dla.core
    assert dla.dual_pair == doublela.dual_pair_over_core_dual(dla)
    assert dla.core == doublela.core_algebroid(dla)


COUNTED = (
    (doublela, "dual_pair_over_core_dual"),
    (lavb, "induced_dual_algebroid"),
    (lavb, "total_algebroid"),
    (doublela, "core_algebroid"),
    (algebroid, "check_algebroid"),
)


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, COUNTED)


def test_check_double_cli_computes_each_derivation_once(calls):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert cli.main(["check", "double", str(MODELS / "t2m_double.pass")]) == 0
    assert calls == Counter({
        "dual_pair_over_core_dual": 1,
        "induced_dual_algebroid": 2,
        "total_algebroid": 0,
        "core_algebroid": 1,
        "check_algebroid": 4,
    })


def test_ladder_rung_decides_each_algebroid_once(monkeypatch):
    """`require_valid`, `check_lavb` and `check_bialgebroid` all ask for the
    axioms of the sides of a rung; the report is stored on each algebroid,
    so the Jacobi loop runs once on each of the four distinct algebroids:
    the two sides and the two induced duals."""
    TM, TstarM = ladder_pair(SO3)
    counts = count_calls(monkeypatch, ((algebroid, "first_jacobiator"),))
    dla = build_cotangent_double(TM, TstarM)
    assert check_double(dla).ok and check_bialgebroid(TM, TstarM).ok
    assert counts == {"first_jacobiator": 4}


@pytest.mark.parametrize(
    "pair", [catalog.tangent_cotangent_pair, lambda: ladder_pair(SO3)], ids=["tangent_cotangent", "so3"]
)
def test_passing_check_double_leaves_no_cycle(pair):
    """Reference counting frees the dual pair, its anchor fields and the
    defect tables of a passing `check_double`: with the cyclic collector
    off, nothing but charts and their zero polynomials, a deliberate
    cycle, is left for it to find."""

    def decide():
        assert check_double(build_cotangent_double(*pair())).ok

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        decide()
        gc.collect()
        left = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left["Chart"] and not {"function", "_lru_cache_wrapper", "LieAlgebroid"} & set(left), left


def test_dual_pair_dies_with_its_double():
    """Nothing keeps the algebroids of a decided double alive, the sparsity
    patterns stored on them included: with the cyclic collector off,
    dropping the double of `tt8` frees its dual pair over the core dual."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        dla = build_cotangent_double(*tt_pair(8))
        assert check_double(dla).ok
        refs = [weakref.ref(side) for side in dla.dual_pair]
        assert all(ref() is not None for ref in refs)
        del dla
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_structural_diagnostics_computes_nothing(monkeypatch):
    """On a passing cored double the diagnostics are stated: no bracket,
    vector field, algebroid check or core structure is computed for them."""
    dla = build_cotangent_double(*catalog.tangent_cotangent_pair())
    assert dla.core_frames and check_double(dla).ok
    counts = count_calls(
        monkeypatch,
        (
            (algebroid, "bracket_sections"),
            (algebroid.VectorField, "apply"),
            (algebroid, "check_algebroid"),
            (doublela, "core_algebroid"),
            (algebroid, "dual_poisson"),
        ),
    )
    assert doublela.structural_diagnostics(dla).ok
    assert counts == {}


# `check_matched` is the one check of a matched pair: the vacant double and
# the bowtie it implies are not re-checked (the oracle is in
# `support.assert_matched_decides_bowtie_and_double`).  `build double` of a
# matched pair states `check_double`'s report, so it checks only the two
# algebroids of the pair, inside `check_matched`.
@pytest.mark.parametrize(
    "kind,expected",
    [
        ("double", {"check_matched": 1, "check_algebroid": 2}),
        ("bowtie", {"check_matched": 1, "check_algebroid": 2}),
    ],
)
def test_build_cli_checks_the_matched_pair_once(monkeypatch, kind, expected):
    counts = count_calls(
        monkeypatch, ((matched, "check_matched"), (algebroid, "check_algebroid"))
    )
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert cli.main(["build", kind, str(MODELS / "coadjoint_solvable2.pass")]) == 0
    assert counts == Counter(expected)


def test_extract_cli_checks_the_matched_pair_once(monkeypatch):
    counts = count_calls(monkeypatch, ((matched, "check_matched"),))
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert cli.main(["extract", "matched", str(MODELS / "vacant_line_action.pass")]) == 0
    assert counts == {"check_matched": 1}


# `check_algebroid` reads both axioms off the structure functions and the
# anchor fields; the frame loop it replaced (the oracle in
# `support.frame_loop_check_algebroid`) made three brackets per triple and
# took the anchor of each frame bracket.
FRAME_CALCULUS = (
    (algebroid, "bracket_sections"),
    (support, "anchor_of"),
)


def ladder_algebroids():
    """The sides and the totals of the so(3)*, gl(2)* and gl(3)* rungs."""
    rungs = ladder_doubles() + [("gl3", build_cotangent_double(*ladder_pair(gl(3))))]
    return [
        L
        for _, dla in rungs
        for v in (dla.vertical, dla.horizontal)
        for L in (v.side, v.total)
    ]


def test_passing_algebroid_check_builds_no_bracket(monkeypatch):
    algebroids = ladder_algebroids()
    counts = count_calls(monkeypatch, FRAME_CALCULUS)
    assert all(algebroid.check_algebroid(L).ok for L in algebroids)
    assert counts == Counter()
    # the counters see the frame loop's calls
    assert frame_loop_check_algebroid(algebroids[0]).ok
    assert counts["anchor_of"]


# --- the closed-form cotangent double against the cotangent algebroids


def assert_is_cotangent_algebroid(v, sign):
    """`v.total` is the cotangent algebroid of the linear Poisson structure
    `v.side` induces on its dual: rename xi_<side frame> to u_<bundle frame>,
    move the linear frames d(xi) in front of the core frames d(x), and scale
    each core frame by `sign`."""
    expected = cotangent_algebroid(dual_poisson(v.side))
    total = v.total
    n, r = v.chart.dim, v.side.rank
    mapping = dict(zip(expected.chart.names[n:], total.chart.names[n:]))
    order = list(range(n, n + r)) + list(range(n))
    scale = [1] * r + [sign] * n

    def moved(p, s):
        return rename(p, total.chart, mapping).scale(s)

    assert total.chart.names[:n] == expected.chart.names[:n]
    assert total.anchor == tuple(
        tuple(moved(p, scale[i]) for p in expected.anchor[order[i]]) for i in range(n + r)
    )
    assert dense_structure(total) == tuple(
        tuple(
            tuple(
                moved(dense_structure(expected)[order[i]][order[j]][order[k]], scale[i] * scale[j] * scale[k])
                for k in range(n + r)
            )
            for j in range(n + r)
        )
        for i in range(n + r)
    )
    # `total` does not carry the base fields of the core derivations
    assert check_lavb(v).ok


SO3_POISSON = dual_poisson(catalog.broken_dual_pair_so3()[0])  # Lie-Poisson on so(3)*

ORACLE_PAIRS = [
    ("tangent_cotangent_pair", catalog.tangent_cotangent_pair()),
    ("broken_dual_pair_point", catalog.broken_dual_pair_point()),
    ("broken_dual_pair_chart", catalog.broken_dual_pair_chart()),
    ("broken_dual_pair_so3", catalog.broken_dual_pair_so3()),
    ("solvable2", catalog.point_pair(catalog.solvable2_bialgebra())),
    ("so3_lie_poisson", (tangent_algebroid(SO3_POISSON.chart), cotangent_algebroid(SO3_POISSON))),
]


def assert_cotangent_double_oracle(L, Lstar):
    dla = build_cotangent_double(L, Lstar)
    assert_is_cotangent_algebroid(dla.vertical, 1)
    # the canonical map negates the cotangent-of-base core
    assert_is_cotangent_algebroid(dla.horizontal, -1)


@pytest.mark.parametrize("pair", [p for _, p in ORACLE_PAIRS], ids=[n for n, _ in ORACLE_PAIRS])
def test_cotangent_double_matches_cotangent_algebroids(pair):
    assert_cotangent_double_oracle(*pair)


@given(dual_pairs)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_cotangent_double_matches_cotangent_algebroids_on_random_pairs(pair):
    assert_cotangent_double_oracle(*pair)


def test_cotangent_double_build_proves_no_poisson_identity(monkeypatch):
    pair = catalog.tangent_cotangent_pair()
    counts = count_calls(
        monkeypatch,
        ((algebroid, "schouten"), (algebroid, "dual_poisson"), (algebroid, "cotangent_algebroid")),
    )
    build_cotangent_double(*pair)
    assert counts == Counter()


# --- the scaled family against the full defect on every scaled frame pair


def brute_scaled(L, Lstar):
    """The `scaled` item computed in full: the defect
    d_*[X, Y] - [d_*X, Y] - [X, d_*Y] on X = e_a, Y = x_i e_b for every a, b
    and coordinate x_i, first failure reported."""

    def defect(x, y):
        d_star = lambda ms: differential(Lstar, ms)
        return (
            d_star(bracket_sections(L, x, y))
            - schouten(L, d_star(x), y)
            - schouten(L, x, d_star(y))
        )

    for a in range(L.rank):
        for b in range(L.rank):
            for name in L.chart.names:
                y = scale_section(frame_section(L, b), Polynomial.coordinate(L.chart, name))
                d = defect(frame_section(L, a), y)
                if not d.is_zero:
                    return failed(
                        "scaled",
                        f"pair ({L.frames[a]}, {name} * {L.frames[b]}): "
                        f"defect = {d.format(L.frames)}",
                    )
    return passed("scaled")


def assert_scaled_matches_oracle(L, Lstar):
    """Compare the `scaled` item with the oracle and return its verdict."""
    (item,) = (i for i in check_compatibility(L, Lstar).items if i.check_id == "scaled")
    assert item == brute_scaled(L, Lstar)
    return item.ok


CORPUS_PAIRS = corpus_dual_pairs(CORPUS) + [ORACLE_PAIRS[-1]]


@pytest.mark.parametrize("pair", [p for _, p in CORPUS_PAIRS], ids=[n for n, _ in CORPUS_PAIRS])
def test_scaled_matches_full_defects(pair):
    assert_scaled_matches_oracle(*pair)


def test_scaled_corpus_has_passing_and_failing_items():
    verdicts = Counter(assert_scaled_matches_oracle(*p) for _, p in CORPUS_PAIRS)
    assert verdicts[True] >= 3 and verdicts[False] >= 3


@given(dual_pairs)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_scaled_matches_full_defects_on_random_pairs(pair):
    assert_scaled_matches_oracle(*pair)
    assert_scaled_matches_oracle(*reversed(pair))


@pytest.mark.parametrize("seed", range(4))
def test_scaled_matches_full_defects_without_jacobi(seed):
    rng = random.Random(seed)
    L, Lstar = random_bracket(rng, ("e1", "e2", "e3")), random_bracket(rng, ("f1", "f2", "f3"))
    assert not algebroid.check_algebroid(L).ok
    assert_scaled_matches_oracle(L, Lstar)


def test_scaled_computes_no_defect_of_its_own(monkeypatch):
    counts = count_calls(monkeypatch, ((algebroid, "differential"),))
    assert check_bialgebroid(*catalog.tangent_cotangent_pair()).ok
    # the frame and function defects and the symmetric part are read off
    # the structure functions, and a passing pair draws no random trial;
    # computing the 8 scaled defects in full would take 24
    assert counts["differential"] == 0


# --- the random family against its seeded trial loop


def brute_random(L, Lstar, seed=7, max_degree=2):
    """The `random` item computed on every pair: the defect
    d_*[X, Y] - [d_*X, Y] - [X, d_*Y] on RANDOM_PAIRS seeded section pairs,
    first failure reported."""
    d_star = lambda ms: differential(Lstar, ms)
    rng = random.Random(seed if seed >= 0 else str(seed))
    for trial in range(algebroid.RANDOM_PAIRS):
        x = random_section(rng, L, max_degree)
        y = random_section(rng, L, max_degree)
        d = d_star(schouten(L, x, y)) - schouten(L, d_star(x), y) - schouten(L, x, d_star(y))
        if not d.is_zero:
            return failed(
                "random",
                f"random trial {trial}: X = {x.format(L.frames)}, Y = {y.format(L.frames)}, "
                f"defect = {d.format(L.frames)}",
            )
    return passed("random")


def assert_random_matches_oracle(L, Lstar, seed=7, max_degree=2):
    """Compare the `random` item with the oracle; return the report."""
    report = check_compatibility(L, Lstar, seed=seed, max_degree=max_degree)
    (item,) = (i for i in report.items if i.check_id == "random")
    assert item == brute_random(L, Lstar, seed, max_degree)
    return report


def sparse_polynomial(rng, degree):
    return random_polynomial(rng, XY, degree) if rng.random() < 0.5 else Polynomial.zero(XY)


def valid_rank2_pair(seed):
    """The first pair of sparse random rank-2 brackets on (x, y) that are
    both Lie algebroids."""
    rng = random.Random(seed)

    def draw(frames):
        anchor = [[sparse_polynomial(rng, 1) for _ in range(2)] for _ in range(2)]
        bracket = tuple(sparse_polynomial(rng, 1) for _ in range(2))
        return LieAlgebroid(XY, frames, anchor, {(0, 1): bracket})

    while True:
        L, Lstar = draw(("e1", "e2")), draw(("f1", "f2"))
        if algebroid.check_algebroid(L).ok and algebroid.check_algebroid(Lstar).ok:
            return L, Lstar


def abelian_extension(rng, frames):
    """A rank-3 Lie algebroid on (x, y): the third frame has a random anchor
    and acts on the abelian span of the first two by a random polynomial
    matrix, which satisfies Jacobi for any entries."""
    zero = Polynomial.zero(XY)
    m = [[sparse_polynomial(rng, 1) for _ in range(2)] for _ in range(2)]
    anchor = [[zero, zero], [zero, zero], [sparse_polynomial(rng, 1), sparse_polynomial(rng, 1)]]
    brackets = {(0, 2): (-m[0][0], -m[1][0], zero), (1, 2): (-m[0][1], -m[1][1], zero)}
    return LieAlgebroid(XY, frames, anchor, brackets)


def bracket_pairs():
    """Random rank-2 and rank-3 pairs on (x, y), with and without Jacobi."""
    out = []
    for seed in range(24):
        out.append((f"rank2_jacobi_{seed}", valid_rank2_pair(seed)))
    for seed in range(12):
        rng = random.Random(seed)
        pair = abelian_extension(rng, ("e1", "e2", "e3")), abelian_extension(rng, ("f1", "f2", "f3"))
        out.append((f"rank3_jacobi_{seed}", pair))
    for rank in (2, 3):
        for seed in range(4):
            rng = random.Random(seed)
            pair = tuple(random_bracket(rng, tuple(f"{c}{i + 1}" for i in range(rank))) for c in "ef")
            out.append((f"rank{rank}_no_jacobi_{seed}", pair))
    return out


BRACKET_PAIRS = bracket_pairs()
RANDOM_ORACLE_PAIRS = CORPUS_PAIRS + BRACKET_PAIRS


@pytest.mark.parametrize(
    "pair", [p for _, p in RANDOM_ORACLE_PAIRS], ids=[n for n, _ in RANDOM_ORACLE_PAIRS]
)
def test_random_matches_trial_loop(pair):
    assert_random_matches_oracle(*pair)


def test_random_corpus_has_passing_and_failing_items():
    """The oracle corpus reaches every case of the decision: all four
    families pass, and `symmetric_part` fails with and without another
    family.  With `random` failing on some pairs, a `random` that always
    passes is caught by the oracle."""
    verdicts = Counter()
    for _, pair in RANDOM_ORACLE_PAIRS:
        failing = {i.check_id for i in assert_random_matches_oracle(*pair).items if not i.ok}
        verdicts[frozenset(failing)] += 1
    assert verdicts[frozenset()] >= 3
    assert sum(n for f, n in verdicts.items() if "random" in f) >= 3
    assert verdicts[frozenset({"symmetric_part", "random"})] >= 1
    assert sum(n for f, n in verdicts.items() if "symmetric_part" in f and len(f) > 2) >= 1


PASSING_PAIRS = [
    (name, pair) for name, pair in RANDOM_ORACLE_PAIRS if check_compatibility(*pair).ok
]


@pytest.mark.parametrize("pair", [p for _, p in PASSING_PAIRS], ids=[n for n, _ in PASSING_PAIRS])
@pytest.mark.parametrize("seed,max_degree", [(0, 2), (11, 3), (12345, 3)])
def test_random_matches_trial_loop_at_other_seeds(pair, seed, max_degree):
    assert assert_random_matches_oracle(*pair, seed=seed, max_degree=max_degree).ok


@given(dual_pairs)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_random_matches_trial_loop_on_random_pairs(pair):
    assert_random_matches_oracle(*pair)
    assert_random_matches_oracle(*reversed(pair))


def test_passing_pair_draws_no_random_trial(monkeypatch):
    counts = count_calls(
        monkeypatch, ((algebroid, "random_section"), (algebroid, "differential"))
    )
    assert check_bialgebroid(*catalog.tangent_cotangent_pair()).ok
    assert counts["random_section"] == 0
    assert counts["differential"] == 0

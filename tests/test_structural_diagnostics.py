"""`structural_diagnostics` states every item as passed, since it runs
only on doubles that passed `check_double`, where each item is a theorem.

The gate: on every double of a corpus that also holds failing doubles,
`check_double` is run and the items are computed by hand
(`diagnostics_oracle.oracle_diagnostics`).  On each passing double the
stated items equal the computed ones and the core algebroid builds; on each
failing double the oracle fails too, so on this corpus the two verdicts
agree double by double.  The corpus: the bundled and catalog doubles with
their seeded perturbations, the doubles with scaled core anchors, the
cotangent doubles of the benchmark sweep's families at eight seeds, and the
so(3)*, gl(2)* and gl(3)* Lie-Poisson rungs.

On the same doubles, and on the cotangent doubles of `tt_pair(n)` for
n <= 8, `core_algebroid`, which reads only the nonzero core Poisson
entries, equals the dense reading `support.dense_core_algebroid`, raised
exceptions compared by type and message.  On all of them, those whose core
Poisson matrix is not antisymmetric included, and on further seeded
perturbations, that matrix is fibrewise linear: the theorem that makes the
one-pass read of `core_algebroid` exact.
"""

import functools
import types
from collections import Counter

import pytest

from diagnostics_oracle import oracle_diagnostics
from doublealg.doublela import (
    DoubleLieAlgebroid,
    DoubleMismatch,
    build_cotangent_double,
    check_double,
    core_algebroid,
    structural_diagnostics,
)
from doublealg.algebroid import PoissonChart, anchor_products, fibre_coordinate
from doublealg.exact import Chart, Polynomial
from support import (
    dense_core_algebroid,
    double_corpus,
    gl,
    ladder_doubles,
    ladder_pair,
    perturbations,
    rebuilt,
    parse_polynomial,
    sweep_doubles,
    tt_pair,
)


# --- the corpus: bundled and catalog doubles, their perturbations, the ladder


def diagnostics_corpus():
    """Every corpus double, the doubles in which one of its LA-vector
    bundles is replaced by a seeded perturbation, and the ladder rungs."""
    out = []
    for seed, (name, dla) in enumerate(double_corpus()):
        out.append((name, dla))
        for label, v in perturbations(f"{name}:vertical", dla.vertical, seed):
            out.append((label, DoubleLieAlgebroid(v, dla.horizontal)))
        for label, h in perturbations(f"{name}:horizontal", dla.horizontal, seed):
            out.append((label, DoubleLieAlgebroid(dla.vertical, h)))
    return out + ladder_doubles()


def scaled_core_anchors(dla, factor):
    """`dla` with both core anchors multiplied by `factor`."""

    def scaled(v):
        rows = [[entry.scale(factor) for entry in row] for row in v.core_anchor]
        return rebuilt(v, core_anchor=rows)

    return DoubleLieAlgebroid(scaled(dla.vertical), scaled(dla.horizontal))


CORPUS = diagnostics_corpus()
SCALED = [
    (f"{name}:core_anchors*{factor}", scaled_core_anchors(dla, factor))
    for name, dla in double_corpus()
    if dla.core_frames
    for factor in (2, -1)
]
SWEEP = sweep_doubles(range(501, 509)) + [("gl3", build_cotangent_double(*ladder_pair(gl(3))))]
DOUBLES = dict(CORPUS + SCALED + SWEEP)


@functools.cache
def verdict(name):
    """(whether `check_double` passes, the oracle's report) of one double."""
    dla = DOUBLES[name]
    return check_double(dla).ok, oracle_diagnostics(dla)


def assert_gate(name):
    ok, oracle = verdict(name)
    dla = DOUBLES[name]
    if ok:
        assert structural_diagnostics(dla).items == oracle.items
        assert dla.core.frames == dla.core_frames
    else:
        assert not oracle.ok


@pytest.mark.parametrize("name", [n for n, _ in CORPUS])
def test_diagnostics_match_hand_built_anchors(name):
    assert_gate(name)


@pytest.mark.parametrize("name", [n for n, _ in SCALED])
def test_diagnostics_match_on_scaled_core_anchors(name):
    assert_gate(name)


@pytest.mark.parametrize("name", [n for n, _ in SWEEP])
def test_diagnostics_match_on_sweep_doubles(name):
    assert_gate(name)


def test_corpus_has_failing_anchor_items():
    """The gate cannot go vacuous: the corpus names every double once, at
    least 50 of its doubles pass `check_double` and at least 60 fail it,
    and each item that `structural_diagnostics` used to compute from the
    anchors fails somewhere under the oracle and passes somewhere."""
    assert len(DOUBLES) == len(CORPUS) + len(SCALED) + len(SWEEP)
    doubles = Counter(verdict(name)[0] for name in DOUBLES)
    assert doubles[True] >= 50 and doubles[False] >= 60, doubles
    items = Counter(
        (item.check_id, item.ok) for name in DOUBLES for item in verdict(name)[1].items
    )
    for check_id in ("core_anchor_match", "anchor_compat", "anchor_brackets_A", "anchor_brackets_B"):
        assert items[check_id, False] and items[check_id, True], check_id


def test_induced_core_anchor_is_the_composite_by_construction():
    """On every double whose core algebroid is built, the induced anchor of
    c_gamma is sum_a d_A[gamma][a] times the base field of the horizontal
    core derivation of e_a, whatever those base fields are; they are the
    side anchors whenever `check_lavb` passes."""
    built = 0
    for _, dla in CORPUS + SCALED:
        if not dla.core_frames:
            continue
        try:
            core = dla.core
        except (DoubleMismatch, ValueError):
            continue
        base = dla.chart
        fields = [f.components for f in dla.horizontal.side.anchor_fields]
        for gamma, row in enumerate(dla.vertical.core_anchor):
            expected = [Polynomial.zero(base) for _ in range(base.dim)]
            for a, coeff in enumerate(row):
                for i in range(base.dim):
                    expected[i] = expected[i] + coeff * fields[a][i]
            assert list(core.anchor[gamma]) == expected
        built += 1
    assert built == 23


# --- the core algebroid reads only the nonzero core Poisson entries

TT = {f"tt{n}": build_cotangent_double(*tt_pair(n)) for n in range(1, 9)}
CORE_GATE = {**DOUBLES, **TT}


def core_outcome(build, dla):
    """The core algebroid `build` makes of `dla`, or the type and message
    of what it raises."""
    try:
        return build(dla)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@functools.cache
def core_outcomes(name):
    dla = CORE_GATE[name]
    return core_outcome(core_algebroid, dla), core_outcome(dense_core_algebroid, dla)


@pytest.mark.parametrize("name", list(CORE_GATE))
def test_core_algebroid_matches_the_dense_oracle(name):
    sparse, dense = core_outcomes(name)
    assert sparse == dense


def test_core_gate_has_built_raising_and_bracketed_cores():
    """The gate cannot go vacuous: it covers the ladder rungs and `tt<n>`
    for n <= 8, some cores raise, and some built cores have a nonzero
    bracket."""
    assert {"so3", "gl2", "gl3", "tt8"} <= set(CORE_GATE)
    outcomes = [core_outcomes(name)[1] for name in CORE_GATE]
    raised = [o for o in outcomes if isinstance(o, tuple)]
    built = [o for o in outcomes if not isinstance(o, tuple)]
    bracketed = [o for o in built if any(any(row) for row in o.nonzero_structure)]
    assert len(raised) >= 10 and len(bracketed) >= 1, (len(raised), len(bracketed))


# --- the core Poisson matrix is fibrewise linear on every candidate double

FURTHER_PERTURBED = {
    label: DoubleLieAlgebroid(v, dla.horizontal)
    for seed, (name, dla) in enumerate(double_corpus(), start=100)
    for label, v in perturbations(f"{name}:vertical@{seed}", dla.vertical, seed)
} | {
    label: DoubleLieAlgebroid(dla.vertical, h)
    for seed, (name, dla) in enumerate(double_corpus(), start=200)
    for label, h in perturbations(f"{name}:horizontal@{seed}", dla.horizontal, seed)
}
LINEARITY_GATE = {**CORE_GATE, **FURTHER_PERTURBED}


def linearity_defects(dla):
    """The entries of the core-dual matrix `anchor_products(*dla.dual_pair)`,
    unchecked for antisymmetry, that break fibrewise linearity: a core-anchor
    entry {xi_gamma, x^i} with a fibre coordinate in some term, or a core
    entry {xi_g1, xi_g2} with a term of fibre degree other than 1."""
    matrix = anchor_products(*dla.dual_pair)
    n, rc = dla.chart.dim, len(dla.core_frames)
    defects = []
    for gamma in range(rc):
        for i in range(n):
            if any(any(exp[n:]) for exp, _ in matrix[n + gamma][i].terms):
                defects.append((n + gamma, i))
        for g2 in range(rc):
            if any(sum(exp[n:]) != 1 for exp, _ in matrix[n + gamma][n + g2].terms):
                defects.append((n + gamma, n + g2))
    return defects


@pytest.mark.parametrize("name", list(LINEARITY_GATE))
def test_core_poisson_matrix_is_fibrewise_linear(name):
    dla = LINEARITY_GATE[name]
    chart = dla.dual_pair[0].chart
    assert chart.names == dla.chart.names + tuple(fibre_coordinate(f) for f in dla.core_frames)
    assert linearity_defects(dla) == []


def test_linearity_gate_holds_non_antisymmetric_doubles():
    """The gate cannot go vacuous: it covers the doubles whose core Poisson
    matrix is not antisymmetric, and further perturbations of both kinds of
    LA-vector bundle."""
    skewless = [
        name
        for name in CORE_GATE
        if core_outcomes(name)[1] == (ValueError, "bivector matrix must be antisymmetric")
    ]
    assert len(skewless) >= 30, len(skewless)
    assert len(FURTHER_PERTURBED) >= 40, len(FURTHER_PERTURBED)


def core_stub(anchor, bracket):
    """A stand-in double with base (x), core frames a, b and the core
    Poisson matrix on (x, xi_a, xi_b) with {xi_a, x} = `anchor` and
    {xi_a, xi_b} = `bracket`: the only attributes `core_algebroid` reads."""
    chart = Chart(["x", "xi_a", "xi_b"])
    p = [[Polynomial.zero(chart)] * 3 for _ in range(3)]
    p[1][0], p[1][2] = (parse_polynomial(t, chart) for t in (anchor, bracket))
    p[0][1], p[2][1] = -p[1][0], -p[1][2]
    return types.SimpleNamespace(
        core_poisson=PoissonChart(chart, p), chart=Chart(["x"]), core_frames=("a", "b")
    )


@pytest.mark.parametrize(
    "anchor, bracket",
    [
        ("x", "x * xi_a - 2 * xi_b"),
        ("x", "0"),
        ("x^2 - 1", "3/2 * xi_a + x * xi_b - x^2 * xi_b"),
    ],
)
def test_core_algebroid_matches_the_dense_oracle_on_stubs(anchor, bracket):
    """Linear core brackets with base-dependent coefficients, split over
    both core frames, read as the dense reading reads them."""
    dla = core_stub(anchor, bracket)
    assert core_algebroid(dla) == dense_core_algebroid(dla)

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
n <= 8, `core_algebroid`, which reads the core off the generator data of
the two LA-vector bundles, equals `support.dense_core_algebroid`, which
reads it off the Poisson structure that the induced dual pair puts on the
core dual, wherever that structure is antisymmetric; where it is not, the
double fails `check_double`.  On every passing cored double, that
structure is `dual_poisson` of the core, which the summary prints.  On all
of them, and on further seeded perturbations, it is fibrewise linear: the
theorem that makes the core a Lie algebroid.
"""

import functools
from collections import Counter

import pytest

from diagnostics_oracle import oracle_diagnostics
from doublealg.doublela import (
    DoubleLieAlgebroid,
    DoubleMismatch,
    check_double,
    core_algebroid,
    structural_diagnostics,
)
from doublealg.algebroid import LieAlgebroid, anchor_products, dual_poisson, fibre_coordinate
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import LAVBundle
from support import (
    applied_core_poisson,
    dense,
    dense_core_algebroid,
    diagnostics_doubles,
    diagnostics_parts,
    double_corpus,
    entries,
    perturbations,
    parse_polynomial,
    tt_doubles,
)

# the corpus: bundled and catalog doubles, their perturbations, the ladder,
# scaled core anchors and the sweep (`support.diagnostics_parts`)
CORPUS, SCALED, SWEEP = diagnostics_parts()
DOUBLES = dict(diagnostics_doubles())


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
    """On every cored double, passing or failing, the core algebroid builds
    and the anchor of c_gamma is sum_a d_A[gamma][a] rho_A(e_a)."""
    built = 0
    for _, dla in CORPUS + SCALED:
        if not dla.core_frames:
            continue
        base = dla.chart
        fields = [f.components for f in dla.side_a.anchor_fields]
        rows = dense(dla.vertical.core_anchor, len(dla.core_frames), dla.side_a.rank, base)
        for gamma, row in enumerate(rows):
            expected = [Polynomial.zero(base) for _ in range(base.dim)]
            for a, coeff in enumerate(row):
                for i in range(base.dim):
                    expected[i] = expected[i] + coeff * fields[a][i]
            assert list(dla.core.anchor[gamma]) == expected
        built += 1
    assert built == 42


# --- the core algebroid read off the generator data and off the core dual

CORE_GATE = DOUBLES | dict(tt_doubles())


@functools.cache
def dense_outcome(name):
    """The core algebroid that the Poisson reading makes of a `CORE_GATE`
    double, or the `DoubleMismatch` it raises on a core-dual bracket that
    is not antisymmetric or not fibrewise linear."""
    try:
        return dense_core_algebroid(CORE_GATE[name])
    except DoubleMismatch as exc:
        return exc


@pytest.mark.parametrize("name", list(CORE_GATE))
def test_core_algebroid_matches_the_dense_oracle(name):
    dla = CORE_GATE[name]
    dense = dense_outcome(name)
    if isinstance(dense, DoubleMismatch):
        assert not check_double(dla).ok
    else:
        assert core_algebroid(dla) == dense


def test_core_gate_has_built_raising_and_bracketed_cores():
    """The gate cannot go vacuous: it covers the ladder rungs and `tt<n>`
    for n <= 8, the oracle builds at least 100 cores and raises on at least
    10 doubles, and some built cores have a nonzero bracket."""
    assert {"so3", "gl2", "gl3", "tt8"} <= set(CORE_GATE)
    outcomes = [dense_outcome(name) for name in CORE_GATE]
    raised = [o for o in outcomes if isinstance(o, DoubleMismatch)]
    built = [o for o in outcomes if not isinstance(o, DoubleMismatch)]
    bracketed = [o for o in built if any(any(row) for row in o.nonzero_structure)]
    assert len(built) >= 100 and len(raised) >= 10 and bracketed, (len(built), len(raised))


def test_core_dual_poisson_is_the_dual_of_the_core():
    """On every passing cored double, the Poisson structure that the
    induced dual pair puts on the core dual is `dual_poisson` of the core,
    the matrix whose entries the summary prints."""
    passing = 0
    for name, dla in CORE_GATE.items():
        if dla.core_frames and check_double(dla).ok:
            assert dual_poisson(core_algebroid(dla)).matrix == applied_core_poisson(dla).matrix, name
            passing += 1
    assert passing >= 50, passing


def test_core_algebroid_matches_the_dense_oracle_on_lavb_data():
    """A core bracket [c_a, c_b] = x c_a + (x^2 - 1) c_b, with base-dependent
    coefficients split over both core frames, written as LA-vector bundle
    data on (x): core maps c_a -> e and c_a -> f, both sides anchored by
    x d/dx, and one core derivation sending c_b to that bracket on each
    side.  The double fails `check_double`, but its core-dual Poisson
    structure is antisymmetric, so the dense reading builds."""
    x = Chart(["x"])
    zero, one = Polynomial.zero(x), Polynomial.constant(x, 1)
    image = (parse_polynomial("x", x), parse_polynomial("x^2 - 1", x))
    core_derivation = [entries([(zero, zero), image])]

    def lavb(side_frame, bundle_frame):
        side = LieAlgebroid(x, (side_frame,), [[parse_polynomial("x", x)]])
        return LAVBundle(
            side, (bundle_frame,), ("a", "b"), [{(0, 0): zero}], core_derivation, entries([[one], [zero]])
        )

    dla = DoubleLieAlgebroid(lavb("f", "e"), lavb("e", "f"))
    core = core_algebroid(dla)
    assert core == dense_core_algebroid(dla)
    assert core.nonzero_structure[0][1] == ((0, image[0]), (1, image[1]))
    assert not check_double(dla).ok


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
        if str(dense_outcome(name)).startswith("induced bracket not antisymmetric")
    ]
    assert len(skewless) >= 30, len(skewless)
    assert len(FURTHER_PERTURBED) >= 40, len(FURTHER_PERTURBED)

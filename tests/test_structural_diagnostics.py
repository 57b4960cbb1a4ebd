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
"""

import functools
from collections import Counter

import pytest

from diagnostics_oracle import oracle_diagnostics
from doublealg.doublela import (
    DoubleLieAlgebroid,
    DoubleMismatch,
    build_cotangent_double,
    check_double,
    structural_diagnostics,
)
from doublealg.exact import Polynomial
from support import (
    double_corpus,
    gl,
    ladder_doubles,
    ladder_pair,
    perturbations,
    rebuilt,
    sweep_doubles,
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
        fields = [d.base_field.components for d in dla.horizontal.core_derivations]
        for gamma, row in enumerate(dla.vertical.core_anchor):
            expected = [Polynomial.zero(base) for _ in range(base.dim)]
            for a, coeff in enumerate(row):
                for i in range(base.dim):
                    expected[i] = expected[i] + coeff * fields[a][i]
            assert list(core.anchor[gamma]) == expected
        built += 1
    assert built == 23

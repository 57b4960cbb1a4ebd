"""Only nonzero entries are stored and walked.

Every matrix of LA-vector bundle data (anchor and core derivations, core
anchor, twists) and of a matched pair (rho and sigma) holds its nonzero
entries as ((row, col), entry) items in increasing (row, col) order; the
dense builders they replaced are the oracles of the algebroids built from
them (`tests/test_lavb.py`).  `VectorField.apply` walks the nonzero
components of its field, built once per field; the scan over every
component that it replaced is `support.dense_apply`, compared value for
value and error for error.  `dual_poisson` builds its matrix antisymmetric
and so skips the check of the validating `PoissonChart` constructor; the
two must give equal charts.
"""

import random
from collections import Counter
from dataclasses import fields

from doublealg.algebroid import PoissonChart, VectorField, check_algebroid, dual_poisson, random_polynomial
from doublealg.doublela import build_cotangent_double, check_double
from doublealg.exact import Chart, ChartMismatch, DegreeOverflow, Polynomial
from doublealg.lavb import dual_lavb
from doublealg.model import parse_model
from support import (
    MODELS,
    SO3,
    dense_apply,
    diagnostics_doubles,
    gate_doubles,
    gl,
    ladder_doubles,
    ladder_pair,
    matched_gate_pairs,
    random_bracket,
    sweep_pairs,
    tt_doubles,
    tt_pair,
)


# --- the stored matrices


def stored_matrices(v):
    """Every matrix that the LA-vector bundle `v` stores."""
    return [*v.anchor_derivations, *v.core_derivations, v.core_anchor, *(m for _, m in v.twist)]


def assert_stored_form(matrix, label):
    """Nonzero entries at strictly increasing (row, col)."""
    keys = [key for key, _ in matrix]
    assert all(entry for _, entry in matrix), label
    assert all(type(key) is tuple and len(key) == 2 for key in keys), label
    assert keys == sorted(set(keys)), label


def store_corpus():
    """The LA-vector bundles of the 125 diagnostics doubles, of the vacant
    doubles of the matched-pair gate and of the cotangent doubles of
    tt1..tt8, with their duals."""
    sides = ("vertical", "horizontal")
    bundles = [(f"{name}:{side}", getattr(dla, side)) for name, dla in gate_doubles() for side in sides]
    return bundles + [(f"{name}:dual", dual_lavb(v)) for name, v in bundles]


def test_every_stored_entry_is_nonzero_and_in_order():
    bundles = store_corpus()
    assert len(bundles) == 4 * (125 + 8 + len(matched_gate_pairs()))
    entries = Counter()
    for name, v in bundles:
        for matrix in stored_matrices(v):
            assert_stored_form(matrix, name)
            entries["stored"] += len(matrix)
        entries["bundles with a derivation"] += any(v.anchor_derivations + v.core_derivations)
    for k, mp in enumerate(matched_gate_pairs()):
        for matrix in mp.rho + mp.sigma:
            assert_stored_form(matrix, k)
    # the gate is not vacuous: most bundles store some derivation entry
    assert entries["stored"] >= 5000 and entries["bundles with a derivation"] >= 2000, entries


def test_tt64_cotangent_double_stores_and_differentiates_nothing(monkeypatch):
    """Both LA-vector bundles of the cotangent double of tt64 have constant
    anchors and no bracket, so they store no derivation entry, and neither
    building the double nor its dual pair differentiates a polynomial."""
    L, Lstar = tt_pair(64)
    calls = Counter()
    partial = Polynomial.partial

    def counted(self, name):
        calls["partial"] += 1
        return partial(self, name)

    monkeypatch.setattr(Polynomial, "partial", counted)
    dla = build_cotangent_double(L, Lstar)
    e_v, dual = dla.dual_pair
    assert calls["partial"] == 0
    for v in (dla.vertical, dla.horizontal):
        assert sum(map(len, v.anchor_derivations + v.core_derivations)) == 0
        assert v.twist == ()
    assert (e_v.rank, dual.rank) == (128, 128)
    # the counter sees a partial derivative
    Polynomial.coordinate(L.chart, "x1").partial("x1")
    assert calls["partial"] == 1


# --- VectorField.apply against the dense scan


def outcome(apply, field, f):
    try:
        return "value", apply(field, f)
    except (ChartMismatch, DegreeOverflow) as exc:
        return type(exc), str(exc)


def assert_apply_matches_dense(field, polys):
    for f in polys:
        assert outcome(VectorField.apply, field, f) == outcome(dense_apply, field, f), (field, f)


def test_apply_matches_the_dense_scan_on_seeded_fields_with_zero_components():
    rng = random.Random(36)
    kinds = Counter()
    for k in range(300):
        chart = Chart(tuple(f"x{i}" for i in range(1 + k % 5)))
        comps = [
            random_polynomial(rng, chart, 3) if rng.random() < 0.5 else Polynomial.zero(chart)
            for _ in range(chart.dim)
        ]
        field = VectorField(chart, comps)
        polys = [
            Polynomial.zero(chart),
            Polynomial.constant(chart, rng.randint(-3, 3) or 1),
            random_polynomial(rng, chart, 3),
            random_polynomial(rng, chart, 1) * random_polynomial(rng, chart, 2),
        ]
        assert_apply_matches_dense(field, polys)
        kinds["zero components"] += sum(1 for c in comps if not c)
        kinds["nonzero results"] += sum(1 for f in polys if field.apply(f))
    assert kinds["zero components"] >= 300 and kinds["nonzero results"] >= 300, kinds


def test_apply_raises_as_the_dense_scan():
    line = Chart(("x",))
    plane, other = Chart(("x", "y")), Chart(("x", "z"))
    high = VectorField(line, [Polynomial(line, {(40000,): 1})])
    assert_apply_matches_dense(high, [Polynomial(line, {(30000,): 1})])
    assert outcome(VectorField.apply, high, Polynomial(line, {(30000,): 1}))[0] is DegreeOverflow
    field = VectorField(plane, [Polynomial.zero(plane), Polynomial.coordinate(plane, "y")])
    foreign = Polynomial.coordinate(other, "z")
    assert outcome(VectorField.apply, field, foreign)[0] is ChartMismatch
    assert_apply_matches_dense(field, [foreign, Polynomial.zero(other)])
    # a zero field returns zero without reading f's terms
    assert_apply_matches_dense(VectorField(plane, [Polynomial.zero(plane)] * 2), [foreign])


def corpus_algebroids():
    """The algebroids whose anchor fields the product applies: the ladder
    rungs and their cotangent doubles, the sweep pairs and their cotangent
    doubles, and every algebroid the bundled models hold or build."""
    out = []
    for g in (SO3, gl(2)):
        out += ladder_pair(g)
    for _, dla in ladder_doubles():
        out += [dla.vertical.total, dla.horizontal.total, *dla.dual_pair, dla.core]
    for _, (L, Lstar) in sweep_pairs(range(1, 5)):
        dla = build_cotangent_double(L, Lstar)
        out += [L, Lstar, dla.vertical.total, dla.horizontal.total, *dla.dual_pair]
    for path in sorted(MODELS.glob("*")):
        model = parse_model(path.read_text())
        out += list(model.algebroids.values()) + list(model.lie_algebras.values())
        out += [side for b in model.bialgebras.values() for side in (b.algebra, b.dual)]
        out += [alg for v in model.lavbs.values() for alg in (v.side, v.total, v.induced_dual)]
        out += [alg for dla in model.doubles.values() for alg in (*dla.dual_pair, dla.core)]
    return out


def test_apply_matches_the_dense_scan_on_the_anchor_fields_of_the_corpus():
    fields = 0
    for L in corpus_algebroids():
        chart = L.chart
        polys = [Polynomial.zero(chart), Polynomial.constant(chart, 1)]
        polys += [Polynomial.coordinate(chart, name) for name in chart.names]
        polys += [p for row in L.anchor for p in row if p]
        polys += [p for row in L.nonzero_structure for entry in row for _, p in entry]
        for field in L.anchor_fields:
            assert_apply_matches_dense(field, polys)
            fields += 1
    assert fields >= 400


def test_the_walked_components_are_not_part_of_the_value():
    chart, twin = Chart(("x", "y")), Chart(("x", "y"))
    comps = [Polynomial.zero(chart), Polynomial.coordinate(chart, "x")]
    built = VectorField(chart, comps)
    from_tuple = VectorField(chart, tuple(comps))
    on_twin = VectorField(twin, [Polynomial.zero(twin), Polynomial.coordinate(twin, "x")])
    assert [f.name for f in fields(VectorField)] == ["chart", "components"]
    for field in built, from_tuple, on_twin:
        assert set(vars(field)) == {"chart", "components", "_nonzero"}
        assert [(dict(terms), shift, unit) for terms, shift, unit in field._nonzero] == [
            ({chart._units[0]: 1}, chart._shifts[1], chart._units[1])
        ]
        assert field == built and hash(field) == hash(built) and repr(field) == repr(built)
    assert built._nonzero is not from_tuple._nonzero
    assert {built: 1}[on_twin] == 1


# --- dual_poisson without the antisymmetry check


def assert_dual_poisson_is_validated(L):
    P = dual_poisson(L)
    assert P == PoissonChart(P.chart, P.matrix)
    assert type(P.matrix) is tuple and all(type(row) is tuple for row in P.matrix)


def test_dual_poisson_equals_the_validating_constructor():
    cores = 0
    for g in (SO3, gl(2)):
        assert_dual_poisson_is_validated(g)
        for L in ladder_pair(g):
            assert_dual_poisson_is_validated(L)
    for name, dla in diagnostics_doubles():
        if dla.core_frames and check_double(dla).ok:
            assert_dual_poisson_is_validated(dla.core)
            cores += 1
    for name, dla in tt_doubles():
        for L in (*tt_pair(int(name[2:])), dla.core):
            assert_dual_poisson_is_validated(L)
    assert cores >= 20


def test_dual_poisson_of_a_failing_algebroid_is_antisymmetric_too():
    """Antisymmetry holds by construction, valid algebroid or not."""
    rng = random.Random(36)
    failing = 0
    for k in range(40):
        L = random_bracket(rng, tuple(f"e{i + 1}" for i in range(1 + k % 4)))
        assert_dual_poisson_is_validated(L)
        failing += not check_algebroid(L).ok
    assert failing >= 20

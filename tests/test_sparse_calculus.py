"""The sparse calculus against the dense code it replaced.

`differential` scatters from the nonzero components of a form and the
nonzero structure constants; the gathering differential, which visits
every (k+1)-subset of frames, is kept in `support.gather_differential` as
its oracle, on algebroids that fail Jacobi as well as valid ones.
`PoissonChart.is_poisson` decides [pi, pi] = 0 by the closed-form cyclic
sums, and `PoissonChart.jacobiator`, which writes the `NotPoisson`
witness, is twice them; the Schouten square of the bivector is kept in
`support.schouten_jacobiator` as the oracle of both.  `schouten` takes
multisections of degree >= 1 and wedges both families of the
biderivation rule into one component map; the recursion that adds one
wedge at a time to a running sum, extended to functions, is kept in
`support.summed_schouten` as its oracle, and through it in
`support.summed_compatibility_defect`.  `bracket_sections`
builds each component in one pass over the structure functions and the
anchor rows; the Leibniz expansion through `support.anchor_of` and
`VectorField.apply` is kept in `support.leibniz_bracket_sections` as its
oracle, error types included.  `check_algebroid` reads the anchor defect and
the frame Jacobiator off the nonzero structure functions; the frame loop
through `bracket_sections` is kept in `support.frame_loop_check_algebroid`
as its oracle, compared report for report, witnesses included; a second
call on the same algebroid returns the report decided by the first.  The
gl(3)* rung, whose 18-coordinate, rank-18 total algebroids no benchmark
workload reaches, is pinned by the sha256 of its report lines.
`permute_frames` relabels and re-signs frames by a signed permutation,
given as columns (p, s), and `change_frames` reads one off an outside
matrix; the frame change by any invertible matrix, through its inverse, is
kept in `support.general_change_frames` as its oracle, and the frame change
that rescaled every entry through `Polynomial.scale` in
`support.scaled_change_frames`.  The product's frame changes are compared
with the dense matrices they replaced
(`support.matrix_dual_pair_over_core_dual`,
`support.matrix_build_semidirects`).
"""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import catalog
import linalg
from doublealg import algebroid, doublela, matched
from doublealg.algebroid import (
    LieAlgebroid,
    Multisection,
    NotPoisson,
    PoissonChart,
    bracket_sections,
    change_frames,
    check_algebroid,
    cotangent_algebroid,
    differential,
    permute_frames,
    random_polynomial,
    random_section,
    schouten,
    tangent_algebroid,
)
from doublealg.doublela import (
    build_cotangent_double,
    check_double,
    core_algebroid,
    dual_pair_over_core_dual,
    structural_diagnostics,
)
from doublealg.exact import Chart, ChartMismatch, Polynomial
from doublealg.formatting import format_algebroid_lines
from support import (
    SO3,
    XY,
    count_calls,
    diagnostics_doubles,
    double_corpus,
    frame_loop_check_algebroid,
    function,
    gather_differential,
    general_change_frames,
    gl,
    ladder_doubles,
    ladder_pair,
    leibniz_bracket_sections,
    matched_gate_pairs,
    matrix_build_semidirects,
    matrix_dual_pair_over_core_dual,
    perturbations,
    random_bracket,
    scaled_change_frames,
    schouten_jacobiator,
    signed_permutation_matrix,
    summed_compatibility_defect,
    summed_schouten,
    sweep_doubles,
    tt_doubles,
)

# --- the scattering differential against the gathering one


def differential_corpus():
    """TM and Poisson cotangents, random brackets without Jacobi, the sides
    of the broken dual pairs, the totals of the perturbed LA-vector bundles,
    and the ladder rungs with the totals of their doubles."""
    zero = Polynomial.zero(XY)
    f = Polynomial(XY, {(1, 1): 1, (0, 2): -2, (0, 0): 3})
    out = [
        ("TM", tangent_algebroid(XY)),
        ("cotangent_xy", cotangent_algebroid(PoissonChart(XY, [[zero, f], [-f, zero]]))),
    ]
    for seed in range(4):
        rng = random.Random(seed)
        out.append((f"random_bracket_2:{seed}", random_bracket(rng, ("e1", "e2"))))
        out.append((f"random_bracket_3:{seed}", random_bracket(rng, ("e1", "e2", "e3"))))
    for name in ("broken_dual_pair_point", "broken_dual_pair_chart", "broken_dual_pair_so3"):
        side, dual = getattr(catalog, name)()
        out += [(f"{name}:side", side), (f"{name}:dual_side", dual)]
    for seed, (name, dla) in enumerate(double_corpus()):
        for side, v in (("vertical", dla.vertical), ("horizontal", dla.horizontal)):
            out += [(f"{label}:total", w.total) for label, w in perturbations(f"{name}:{side}", v, seed)]
    for name, g in (("so3", SO3), ("gl2", gl(2))):
        tangent, cotangent = ladder_pair(g)
        out += [(f"{name}:tangent", tangent), (f"{name}:cotangent", cotangent)]
    for name, dla in ladder_doubles():
        out += [(f"{name}:vertical.total", dla.vertical.total), (f"{name}:horizontal.total", dla.horizontal.total)]
    return out


CORPUS = differential_corpus()


def random_form(rng, L, degree):
    """A seeded form with up to four nonzero components; the zero form
    when degree exceeds the rank."""
    indices = list(itertools.combinations(range(L.rank), degree))
    picked = rng.sample(indices, min(len(indices), rng.randint(1, 4)))
    return Multisection(L.rank, degree, {idx: random_polynomial(rng, L.chart, 2) for idx in picked})


@pytest.mark.parametrize("L", [L for _, L in CORPUS], ids=[n for n, _ in CORPUS])
def test_differential_matches_gather(L):
    rng = random.Random(L.rank)
    for degree in range(L.rank + 2):
        for _ in range(3):
            omega = random_form(rng, L, degree)
            assert differential(L, omega) == gather_differential(L, omega)


def random_signed_permutation(rng, r):
    perm = rng.sample(range(r), r)
    return [[Fraction(rng.choice((1, -1)) if i == perm[j] else 0) for j in range(r)] for i in range(r)]


@pytest.mark.parametrize("L", [L for _, L in CORPUS], ids=[n for n, _ in CORPUS])
def test_change_frames_matches_the_general_frame_change(L):
    rng = random.Random(L.rank)
    for _ in range(3):
        matrix = random_signed_permutation(rng, L.rank)
        names = rng.sample(L.frames, L.rank)
        assert change_frames(L, matrix, names) == general_change_frames(L, matrix, names)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, -1], [1, 0, 1]],
        [[0, Fraction(1, 2), 0], [2, 0, 0], [0, 0, 1]],
    ],
)
def test_change_frames_rejects_an_invertible_matrix_that_is_no_signed_permutation(matrix):
    L = random_bracket(random.Random(0), ("e1", "e2", "e3"))
    assert linalg.is_invertible(matrix)
    with pytest.raises(ValueError, match="signed permutation"):
        change_frames(L, matrix, L.frames)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1]],
        [[1, 0], [0]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [0, 0]],
    ],
)
def test_change_frames_rejects_a_matrix_that_is_not_rank_by_rank(matrix):
    """On rank 2 a matrix of another shape, ragged rows among them, is no
    signed permutation of the frames, even where its first 2 x 2 block is."""
    L = random_bracket(random.Random(0), ("e1", "e2"))
    with pytest.raises(ValueError, match="signed permutation"):
        change_frames(L, matrix, L.frames)


@pytest.mark.parametrize("names", [("e1", "e2"), ("e1", "e1", "e2"), ("e1", "x", "e2")])
def test_change_frames_rejects_new_names_that_repeat_miss_a_frame_or_name_a_coordinate(names):
    L = random_bracket(random.Random(0), ("e1", "e2", "e3"))
    with pytest.raises(ValueError, match="one distinct new name per frame, off the chart"):
        change_frames(L, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], names)


def test_permute_frames_equals_the_scaling_frame_change_where_the_product_calls_it(monkeypatch):
    """Every frame change of the dual pairs over the core dual and of the
    semidirects equals `support.scaled_change_frames` on the matrix its
    columns describe, and each dual pair and pair of semidirects equals the
    one built from dense matrices through `change_frames`."""
    calls = Counter()

    def checked(module):
        def permute(L, columns, names):
            got = permute_frames(L, columns, names)
            assert got == scaled_change_frames(L, signed_permutation_matrix(columns), names)
            calls[module] += 1
            return got

        return permute

    monkeypatch.setattr(doublela, "permute_frames", checked("doublela"))
    monkeypatch.setattr(matched, "permute_frames", checked("matched"))
    doubles = [dla for _, dla in diagnostics_doubles() + tt_doubles()]
    for dla in doubles:
        assert dual_pair_over_core_dual(dla) == matrix_dual_pair_over_core_dual(dla)
    pairs = matched_gate_pairs()
    for mp in pairs:
        assert matched.build_semidirects(mp) == matrix_build_semidirects(mp)
    assert calls == {"doublela": len(doubles), "matched": 2 * len(pairs)}
    assert len(doubles) >= 125 and len(pairs) >= 1000


def failing_items(report):
    return tuple(item.check_id for item in report.items if not item.ok)


def test_differential_corpus_has_valid_and_broken_algebroids():
    reports = [check_algebroid(L) for _, L in CORPUS]
    verdicts = Counter(report.ok for report in reports)
    assert verdicts[True] >= 10 and verdicts[False] >= 10
    failures = Counter(failing_items(report) for report in reports)
    assert len(CORPUS) == 64 and verdicts[False] == 34
    assert failures[("anchor_morphism",)] and failures[("jacobi",)]


def test_differential_matches_gather_on_dense_forms():
    """Every component nonzero, so that scattered terms meet on each target."""
    rng = random.Random(5)
    L = random_bracket(rng, ("e1", "e2", "e3", "e4"))
    for degree in range(L.rank + 1):
        omega = Multisection(
            L.rank,
            degree,
            {
                idx: random_polynomial(rng, L.chart, 2) or Polynomial.constant(L.chart, 1)
                for idx in itertools.combinations(range(L.rank), degree)
            },
        )
        assert differential(L, omega) == gather_differential(L, omega)


# --- the one-pass section bracket against the Leibniz expansion


def random_sections(rng, L):
    """The zero section, sections with one and with two nonzero
    components, and dense ones."""
    sections = [Multisection.zero(L.rank, 1)]
    for count in (1, 2, L.rank, L.rank):
        picked = rng.sample(range(L.rank), min(count, L.rank))
        comps = {(i,): random_polynomial(rng, L.chart, 2) for i in picked}
        sections.append(Multisection(L.rank, 1, comps))
    return sections


@pytest.mark.parametrize("L", [L for _, L in CORPUS], ids=[n for n, _ in CORPUS])
def test_bracket_sections_matches_the_leibniz_expansion(L):
    sections = random_sections(random.Random(L.rank), L)
    for x, y in itertools.product(sections, repeat=2):
        assert bracket_sections(L, x, y) == leibniz_bracket_sections(L, x, y)


def error_of(bracket, L, x, y):
    with pytest.raises(ValueError) as caught:
        bracket(L, x, y)
    return type(caught.value), str(caught.value)


def test_bracket_sections_raises_as_the_leibniz_expansion():
    """Wrong degree or rank, and a component off the algebroid's chart: at a
    structure product, at a section of X and at a section of Y.  The
    oracle raises the same error types; the one-pass bracket names the
    first foreign component of X, then of Y."""
    L = random_bracket(random.Random(0), ("e1", "e2", "e3"))
    abelian = LieAlgebroid(XY, ("e1", "e2"), [[Polynomial.constant(XY, 1), Polynomial.zero(XY)]] * 2, {})
    xyz, yx = Chart(("x", "y", "z")), Chart(("y", "x"))

    def section(rank, *comps):
        return Multisection(rank, 1, {(i,): p for i, p in enumerate(comps) if p is not None})

    home = Polynomial.coordinate(XY, "x")
    far, swapped = Polynomial.coordinate(xyz, "z"), Polynomial.coordinate(yx, "y")
    cases = [
        (L, Multisection(3, 2, {(0, 1): home}), section(3, home)),
        (L, section(3, home), function(3, home)),
        (L, section(2, home), section(3, home)),
        (L, section(3, home), section(4, home)),
        (L, section(3, far), section(3, None, home)),
        (L, section(3, home), section(3, None, far)),
        (L, section(3, far), section(3, None, far)),
        (L, section(3, swapped), section(3, None, far)),
        (L, section(3, far), Multisection.zero(3, 1)),
        (L, Multisection.zero(3, 1), section(3, None, swapped)),
        (abelian, section(2, home, far), section(2, swapped)),
        (abelian, section(2, home), section(2, None, far)),
    ]
    degree, rank = "bracket_sections needs degree-1 sections", "section rank does not match algebroid"
    z, s = (f"charts differ: Chart(x, y) vs {c!r}" for c in (xyz, yx))
    errors = [error_of(bracket_sections, *case) for case in cases]
    assert [text for _, text in errors] == [degree, degree, rank, rank, z, z, z, s, z, s, z, z]
    assert [kind for kind, _ in errors] == [error_of(leibniz_bracket_sections, *case)[0] for case in cases]
    assert Counter(kind for kind, _ in errors) == {ChartMismatch: 8, ValueError: 4}


def test_bracket_sections_builds_no_anchor_field_or_product(monkeypatch):
    L = random_bracket(random.Random(1), ("e1", "e2", "e3"))
    x, y = random_sections(random.Random(2), L)[-2:]
    counts = count_calls(
        monkeypatch,
        ((algebroid.VectorField, "apply"), (Polynomial, "__mul__")),
    )
    assert bracket_sections(L, x, y)
    assert counts == Counter()


# --- the one-map Schouten recursion against the running sum


def schouten_operands(rng, L):
    """Seeded multisections of degrees 0 to 3, the zero one of each
    degree among them."""
    out = []
    for degree in range(4):
        out.append(Multisection.zero(L.rank, degree))
        out += [random_form(rng, L, degree) for _ in range(2)]
    return out


@pytest.mark.parametrize("L", [L for _, L in CORPUS], ids=[n for n, _ in CORPUS])
def test_schouten_matches_the_summed_recursion(L):
    operands = schouten_operands(random.Random(L.rank), L)
    for p, q in itertools.product(operands, repeat=2):
        if p.degree and q.degree:
            assert schouten(L, p, q) == summed_schouten(L, p, q), (p.degree, q.degree)
        else:
            with pytest.raises(ValueError, match=r"^schouten needs multisections of degree >= 1$"):
                schouten(L, p, q)


def test_compatibility_defect_matches_the_summed_recursion():
    """On the trials of the failing cotangent doubles of the sweep pairs;
    a function as Y raises."""
    failing = [dla for _, dla in sweep_doubles(range(1, 9)) if not check_double(dla).ok]
    assert len(failing) >= 25
    nonzero = 0
    for dla in failing:
        L, Lstar = dla.dual_pair
        rng = random.Random(7)
        for _ in range(2):
            x, y = random_section(rng, L), random_section(rng, L)
            defect = algebroid.compatibility_defect(L, Lstar, x, y)
            assert defect == summed_compatibility_defect(L, Lstar, x, y)
            nonzero += not defect.is_zero
            with pytest.raises(ValueError, match="degree >= 1"):
                algebroid.compatibility_defect(L, Lstar, x, function(L.rank, random_polynomial(rng, L.chart)))
    assert nonzero >= 50


# --- the closed-form algebroid check against the frame loop


def sparse_polynomial(rng, chart, density):
    return random_polynomial(rng, chart, 1) if rng.random() < density else Polynomial.zero(chart)


def random_algebroid(seed):
    """Rank 2 to 4 on 0 to 2 coordinates, with random polynomial anchors
    and brackets at one of three densities; Jacobi and the anchor
    morphism hold for some and fail for others, each alone and both."""
    rng = random.Random(seed)
    chart = Chart(("x", "y")[: rng.randint(0, 2)])
    frames = tuple(f"e{i}" for i in range(rng.randint(2, 4)))
    density = rng.choice((0.2, 0.4, 0.7))
    anchor = [[sparse_polynomial(rng, chart, density / 2) for _ in chart.names] for _ in frames]
    brackets = {
        (a, b): tuple(sparse_polynomial(rng, chart, density) for _ in frames)
        for a, b in itertools.combinations(range(len(frames)), 2)
    }
    return LieAlgebroid(chart, frames, anchor, brackets)


@pytest.mark.parametrize("L", [L for _, L in CORPUS], ids=[n for n, _ in CORPUS])
def test_check_algebroid_matches_frame_loop(L):
    assert check_algebroid(L) == frame_loop_check_algebroid(L)


def test_check_algebroid_matches_frame_loop_on_random_algebroids():
    failures = Counter()
    for seed in range(300):
        L = random_algebroid(seed)
        report = check_algebroid(L)
        # decided once per object: a second call returns the stored report
        assert check_algebroid(L) is report, seed
        assert report == frame_loop_check_algebroid(L), seed
        failures[failing_items(report)] += 1
    # the Jacobi witness path needs many failures, many of them alone
    assert failures[()] >= 100
    assert failures[("jacobi",)] >= 60 and failures[("anchor_morphism", "jacobi")] >= 40
    assert failures[("anchor_morphism",)] >= 10


def test_stored_axiom_report_is_not_part_of_the_value():
    checked, unchecked = random_algebroid(3), random_algebroid(3)
    assert not check_algebroid(checked).ok
    assert checked == unchecked and checked is not unchecked
    assert hash(checked) == hash(unchecked) and repr(checked) == repr(unchecked)
    assert check_algebroid(unchecked) == check_algebroid(checked)


# --- the closed-form Poisson test against the Schouten jacobiator


def schouten_cotangent_algebroid(P):
    """`cotangent_algebroid` deciding [pi, pi] = 0 and writing its witness
    through the Schouten bracket."""
    jac = schouten_jacobiator(P)
    if not jac.is_zero:
        frames = tuple(f"del_{n}" for n in P.chart.names)
        raise NotPoisson(f"[pi, pi] = {jac.format(frames)}")
    return cotangent_algebroid(P)


def outcome(build, P):
    try:
        return "algebroid", build(P)
    except NotPoisson as exc:
        return "NotPoisson", str(exc)


def random_bivector(rng, chart, max_degree=2):
    n = chart.dim
    zero = Polynomial.zero(chart)
    matrix = [[zero] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.7:
            matrix[i][j] = random_polynomial(rng, chart, max_degree)
            matrix[j][i] = -matrix[i][j]
    return PoissonChart(chart, matrix)


def surface_bivector(rng, chart):
    """f d/dx ^ d/dy on a chart with more coordinates: always Poisson."""
    n = chart.dim
    zero = Polynomial.zero(chart)
    f = random_polynomial(rng, chart, 2)
    matrix = [[zero] * n for _ in range(n)]
    matrix[0][1], matrix[1][0] = f, -f
    return PoissonChart(chart, matrix)


CHARTS = (Chart(("x", "y", "z")), Chart(("x", "y", "z", "w")))


def bivector_corpus():
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        chart = CHARTS[seed % 2]
        out.append(random_bivector(rng, chart, 1 + seed % 2))
        out.append(surface_bivector(rng, chart))
    out.append(algebroid.dual_poisson(SO3))
    return out


BIVECTORS = bivector_corpus()


def test_closed_form_poisson_test_matches_jacobiator():
    verdicts = Counter()
    assert len(BIVECTORS) == 81
    for P in BIVECTORS:
        jac = schouten_jacobiator(P)
        assert P.jacobiator() == jac
        assert P.is_poisson() is jac.is_zero
        new, old = outcome(cotangent_algebroid, P), outcome(schouten_cotangent_algebroid, P)
        assert new == old
        verdicts[new[0]] += 1
    assert verdicts["NotPoisson"] >= 20 and verdicts["algebroid"] >= 20


def test_jacobiator_is_the_schouten_square_on_random_bivectors():
    nonzero = 0
    for seed in range(300):
        rng = random.Random(1000 + seed)
        P = random_bivector(rng, CHARTS[seed % 2], 1 + seed % 3)
        jac = P.jacobiator()
        assert jac == schouten_jacobiator(P), seed
        nonzero += not jac.is_zero
    assert nonzero >= 150


def test_rejecting_a_bivector_computes_the_jacobiator_once(monkeypatch):
    calls = Counter()
    inner = PoissonChart.jacobiator

    def counted(self):
        calls["jacobiator"] += 1
        return inner(self)

    monkeypatch.setattr(PoissonChart, "jacobiator", counted)
    rejected = [P for P in BIVECTORS if not P.is_poisson()]
    accepted = [P for P in BIVECTORS if P.is_poisson()]
    for P in accepted:
        cotangent_algebroid(P)
    assert calls["jacobiator"] == 0
    with pytest.raises(NotPoisson):
        cotangent_algebroid(rejected[0])
    assert calls["jacobiator"] == 1


# --- the gl(3)* rung, pinned


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_gl3_cotangent_double_reports_are_pinned():
    """The report lines of the gl(3)* rung, as the ladder golden pins those
    of so(3)* and gl(2)*: every `check_double` item passes (so its digest
    equals gl(2)*'s), and the diagnostics and the core algebroid are
    pinned byte for byte."""
    dla = build_cotangent_double(*ladder_pair(gl(3)))
    assert dla.vertical.total.rank == 18 and dla.vertical.total.chart.dim == 18
    report = check_double(dla)
    assert report.ok and len(report.items) == 15
    assert digest(report.lines()) == "10997bd4f074b8ef17b114d3d1b8450cc07900aee918721aef87fd142ff3572c"
    diagnostics = structural_diagnostics(dla)
    assert diagnostics.ok
    assert digest(diagnostics.lines()) == "fb2b52dfef7dd0490849ada7e825d00bca4e170d10d1cabc7962a05cf8e186ee"
    core = format_algebroid_lines("core", core_algebroid(dla))
    assert digest(core) == "05a494105fea0c8cbf6226e1e9d33ea474c5a1fa087740240be3897cd0cec0c3"

"""Derived structures of a double are computed once, and `check_double`
decides the bialgebroid condition exactly as `check_bialgebroid` does.

`check_double` skips the two algebroid axiom checks of the induced dual
pair, since `check_lavb` has already decided them; the full
`check_bialgebroid` on the same pair stays here as the oracle.  Likewise
`build_cotangent_double` writes both LA-vector bundles down in closed form;
the cotangent algebroids of the two linear Poisson structures, which prove
[pi, pi] = 0 with the Schouten bracket, stay here as their oracle.
"""

import contextlib
import io
import pathlib
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doublealg import algebroid, catalog, cli, doublela, lavb
from doublealg.algebroid import (
    LieAlgebroid,
    PoissonChart,
    bialgebra_to_dual_pair,
    change_frames,
    check_bialgebroid,
    cotangent_algebroid,
    dual_poisson,
    tangent_algebroid,
)
from doublealg.doublela import assemble_vacant_double, build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import check_lavb
from doublealg.model import parse_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
XY = Chart(("x", "y"))


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


def corpus():
    """Bundled doubles, vacant doubles of bundled matched pairs (matched or
    not), and cotangent doubles of valid and broken dual pairs."""
    out = []
    for path in sorted(MODELS.glob("*")):
        model = parse_model(path.read_text())
        out.extend((f"{path.name}:{n}", d) for n, d in model.doubles.items())
        out.extend(
            (f"{path.name}:{n}:vacant", assemble_vacant_double(mp))
            for n, mp in model.matched_pairs.items()
        )
    for name in (
        "tangent_cotangent_pair",
        "broken_dual_pair_point",
        "broken_dual_pair_chart",
        "broken_dual_pair_so3",
    ):
        out.append((name, build_cotangent_double(*getattr(catalog, name)())))
    return out


CORPUS = corpus()


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


def cotangent(f, frames=None):
    zero = Polynomial.zero(XY)
    L = cotangent_algebroid(PoissonChart(XY, [[zero, f], [-f, zero]]))
    return change_frames(L, [[1, 0], [0, 1]], frames) if frames else L


def constant_bundle(c):
    zero = Polynomial.zero(XY)
    bracket = tuple(Polynomial.constant(XY, v) for v in c)
    return LieAlgebroid(XY, ("ph1", "ph2"), [[zero, zero], [zero, zero]], {(0, 1): bracket})


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
    assert dla.core_poisson is dla.core_poisson
    assert dla.core is dla.core
    assert dla.dual_pair == doublela.dual_pair_over_core_dual(dla)
    assert dla.core == doublela.core_algebroid(dla)


COUNTED = (
    (doublela, "dual_pair_over_core_dual"),
    (lavb, "induced_dual_algebroid"),
    (lavb, "total_algebroid"),
    (doublela, "core_poisson"),
    (algebroid, "check_algebroid"),
)


def count_calls(monkeypatch, targets):
    """Count calls of the functions `targets` wherever a package module binds them."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("doublealg.")]
    for owner, name in targets:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, COUNTED)


def test_check_double_cli_computes_each_derivation_once(calls):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        assert cli.main(["check", "double", str(MODELS / "t2m_double.pass")]) == 0
    assert calls == {
        "dual_pair_over_core_dual": 1,
        "induced_dual_algebroid": 2,
        "total_algebroid": 2,
        "core_poisson": 1,
        "check_algebroid": 7,
    }


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
        return p.rename(total.chart, mapping).scale(s)

    assert total.chart.names[:n] == expected.chart.names[:n]
    assert total.anchor == tuple(
        tuple(moved(p, scale[i]) for p in expected.anchor[order[i]]) for i in range(n + r)
    )
    assert total.structure == tuple(
        tuple(
            tuple(
                moved(expected.structure[order[i]][order[j]][order[k]], scale[i] * scale[j] * scale[k])
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
    ("solvable2", bialgebra_to_dual_pair(catalog.solvable2_bialgebra())),
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

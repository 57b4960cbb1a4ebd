"""Verdicts are decided eagerly and witnesses rendered lazily.

Every `ok` of a report is decided when the checker returns, but the text of
a failing item's witness is written only when `CheckItem.witness` is first
read: a caller that reads only the verdicts calls none of the printers
(`Polynomial.__str__`, `Multisection.format` and `VectorField.__str__`)
and builds no total algebroid of an LA-vector bundle.  `prefixed` and
`as_item` carry a witness on unrendered, a witness is rendered once, the
objects it names are freed once it is, and a lazy item is equal to, hashes
like and prints like the item built from its text at once.
"""

import gc
import weakref
from dataclasses import FrozenInstanceError

import pytest

import catalog
from doublealg import lavb
from doublealg.algebroid import (
    LieAlgebroid,
    Multisection,
    VectorField,
    _decide_axioms,
    check_bialgebroid,
)
from doublealg.doublela import DoubleLieAlgebroid, build_cotangent_double, check_double
from doublealg.exact import Chart, Polynomial
from doublealg.lavb import check_lavb
from doublealg.model import parse_model
from doublealg.matched import check_matched
from doublealg.verdicts import CheckItem, CheckReport, failed, passed
from support import MODELS, count_calls, perturbations

PRINTERS = ((Polynomial, "__str__"), (Multisection, "format"), (VectorField, "__str__"))
BROKEN_PAIRS = ("broken_dual_pair_point", "broken_dual_pair_chart", "broken_dual_pair_so3")


def broken_algebroid():
    """a(e1) = d/dx and [e2, e3] = x e1 on (x, y): the anchor morphism
    fails on (e2, e3) and Jacobi on (e1, e2, e3)."""
    chart = Chart(("x", "y"))
    zero, one, x = Polynomial.zero(chart), Polynomial.constant(chart, 1), Polynomial.coordinate(chart, "x")
    anchor = [[one, zero], [zero, zero], [zero, zero]]
    return LieAlgebroid(chart, ("e1", "e2", "e3"), anchor, {(1, 2): (x, zero, zero)})


def failing_reports():
    """Fresh failing reports of every checker that writes a multisection,
    vector field or polynomial witness."""
    out = [_decide_axioms(broken_algebroid())]
    for name in BROKEN_PAIRS:
        pair = getattr(catalog, name)()
        out.append(check_bialgebroid(*pair))
        out.append(check_double(build_cotangent_double(*pair)))
    model = parse_model((MODELS / "line_action_broken.fail").read_text())
    out += [check_matched(mp) for mp in model.matched_pairs.values()]
    return out


def perturbed_doubles():
    """Fresh (bundle, double) pairs: the cotangent double of
    `tangent_cotangent_pair` with one LA-vector bundle replaced by a seeded
    perturbation, and that perturbation."""
    dla = build_cotangent_double(*catalog.tangent_cotangent_pair())
    out = [(v, DoubleLieAlgebroid(v, dla.horizontal)) for _, v in perturbations("tc:vertical", dla.vertical, 0)]
    out += [(h, DoubleLieAlgebroid(dla.vertical, h)) for _, h in perturbations("tc:horizontal", dla.horizontal, 1)]
    return out


def test_reading_only_the_verdicts_calls_no_printer(monkeypatch):
    counts = count_calls(monkeypatch, PRINTERS)
    reports = failing_reports()
    assert all(not report.ok for report in reports)
    assert not counts
    # the witnesses are there to read: every failing item has one, and
    # reading them calls each printer
    assert all(item.witness for report in reports for item in report.items if not item.ok)
    assert set(counts) == {"__str__", "format"}


def test_reading_only_the_verdicts_builds_no_total_algebroid(monkeypatch):
    pairs = perturbed_doubles()
    counts = count_calls(monkeypatch, [(lavb, "total_algebroid")])
    reports = [check_lavb(v) for v, _ in pairs]
    failing = [(report, dla) for report, (_, dla) in zip(reports, pairs) if not report.ok]
    generators = [item for report, _ in failing for item in report.items if item.check_id == "generators"]
    assert (len(pairs), len(failing), [item.ok for item in generators]) == (8, 7, [False] * 7)
    assert not any(check_double(dla).ok for _, dla in failing)
    assert not counts
    # the `generators` witness builds the total algebroid of its bundle
    assert all(item.witness for item in generators)
    assert counts["total_algebroid"] == len(failing)


def test_prefixed_and_as_item_render_nothing():
    calls = []

    def render():
        calls.append(1)
        return "text"

    report = CheckReport((passed("a"), failed("b", render)))
    outer = report.prefixed("p").prefixed("q")
    one = report.as_item("one")
    assert calls == [] and not outer.ok and not one.ok
    assert outer.items[1].check_id == "q.p.b"
    assert outer.items[1].witness == "text" and calls == [1]
    # every item that carries the witness reads the one text
    assert one.witness == report.items[1].witness == "text" and calls == [1]


def test_a_second_read_calls_no_printer(monkeypatch):
    reports = failing_reports()
    counts = count_calls(monkeypatch, PRINTERS)
    first = [item.witness for report in reports for item in report.items]
    assert counts
    counts.clear()
    assert [item.witness for report in reports for item in report.items] == first
    assert not counts


class Defect:
    """A stand-in for a witness's defect that a weak reference can reach."""

    def __str__(self):
        return "defect"


def test_a_read_witness_frees_what_it_captured():
    defect = Defect()
    ref = weakref.ref(defect)
    report = CheckReport((failed("x", lambda d=defect: f"at x: {d}"),))
    item = report.prefixed("p").items[0]
    del defect
    gc.collect()
    assert ref() is not None
    assert item.witness == "at x: defect"
    gc.collect()
    # the report that made the item is still alive, and freed it too
    assert ref() is None and report.items[0].witness == "at x: defect"


def test_read_witnesses_free_the_sections_they_wrote(monkeypatch):
    """Every multisection a failing report writes is freed once its
    witness is read, while the report lives on."""
    reports = failing_reports()
    written = []
    original = Multisection.format

    def recording(ms, frame_names):
        written.append(weakref.ref(ms))
        return original(ms, frame_names)

    monkeypatch.setattr(Multisection, "format", recording)
    texts = [item.witness for report in reports for item in report.items]
    gc.collect()
    assert written and all(ref() is None for ref in written)
    assert [item.witness for report in reports for item in report.items] == texts


@pytest.mark.parametrize("detail", [(), ("a line",)])
def test_a_lazy_item_equals_the_eager_one(detail):
    def lazy():
        return CheckItem("x.y", False, lambda: "pair (e1, e2): defect = (1) e1 ^ e2", detail)

    eager = CheckItem("x.y", False, "pair (e1, e2): defect = (1) e1 ^ e2", detail)
    assert lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager)
    assert repr(lazy()) == repr(eager) == (
        f"CheckItem(check_id='x.y', ok=False, witness='pair (e1, e2): defect = (1) e1 ^ e2', detail={detail!r})"
    )
    assert lazy().line() == eager.line() == "x.y: FAIL  [pair (e1, e2): defect = (1) e1 ^ e2]"
    assert CheckReport((lazy(),)) == CheckReport((eager,))
    assert lazy() != CheckItem("x.y", False, "other", detail)


def test_an_item_is_immutable():
    item = failed("x", lambda: "text")
    for name in ("check_id", "ok", "witness", "detail"):
        with pytest.raises((FrozenInstanceError, AttributeError)):
            setattr(item, name, None)
    assert (item.check_id, item.ok, item.witness, item.detail) == ("x", False, "text", ())

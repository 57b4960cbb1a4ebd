"""Outside-in tracer for doublealg: spans around public functions, counts
and time for the exact kernel, and the per-layer metrics derived from them.

Nothing in the package is edited.  `Tracer.install` rebinds every public
function of the traced modules, both in its own module (so recursive calls,
such as `schouten` calling itself, are caught) and in every doublealg module
that imported it by name.  The hot `Polynomial` methods are wrapped on the
class; they are counted and timed in aggregate instead of as spans, since a
single rung constructs millions of polynomials.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

# Modules whose public functions get spans.  `exact` is traced through the
# `Polynomial` methods below; `linalg` and `catalog` are not layers.
SPAN_MODULES = (
    "algebroid",
    "lavb",
    "doublela",
    "liealg",
    "matched",
    "dvb",
    "model",
    "parsing",
    "report",
    "formatting",
    "cli",
)

# Polynomial method -> counter it feeds.  `__sub__` is `self + (-other)`, so
# one subtraction counts three add-family calls.
EXACT_METHODS = {
    "__init__": "exact.poly_new.calls",
    "__add__": "exact.poly_add.calls",
    "__sub__": "exact.poly_add.calls",
    "__neg__": "exact.poly_add.calls",
    "__mul__": "exact.poly_mul.calls",
    "partial": "exact.poly_partial.calls",
}

COUNTED = {"passed": "verdicts.items", "failed": "verdicts.items"}

# A span: [name, start, end, parent index or -1, operation id, exact seconds
# spent directly under it].
NAME, START, END, PARENT, OP, EXACT = range(6)


class Tracer:
    """Spans kept in memory for one process; single-threaded by design."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.exact_s = 0.0
        self.terms_max = 0
        self._in_exact = False
        self._undo: List[Tuple[object, str, object]] = []

    def next_op(self) -> None:
        self.op += 1

    # --- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _exact(self, key: str, fn, is_init: bool):
        counts, spans, stack, clock = self.counts, self.spans, self.stack, time.perf_counter

        def traced(poly, *args, **kwargs):
            counts[key] += 1
            if self._in_exact:
                out = fn(poly, *args, **kwargs)
            else:
                self._in_exact = True
                t0 = clock()
                try:
                    out = fn(poly, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    self._in_exact = False
                    self.exact_s += dt
                    if stack:
                        spans[stack[-1]][EXACT] += dt
            if is_init and len(poly.terms) > self.terms_max:
                self.terms_max = len(poly.terms)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, failed: bool, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            if failed:
                counts["verdicts.failed_items"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a doublealg module binds it."""
        from doublealg import exact, verdicts

        package = [
            m for name, m in sorted(sys.modules.items()) if name.startswith("doublealg.")
        ]
        replace: Dict[int, object] = {}
        for short in SPAN_MODULES:
            module = sys.modules[f"doublealg.{short}"]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    replace[id(value)] = self._span(f"{short}.{attr}", value)
        for attr, key in COUNTED.items():
            fn = getattr(verdicts, attr)
            replace[id(fn)] = self._count(key, attr == "failed", fn)
        for module in package:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for attr, key in EXACT_METHODS.items():
            fn = vars(exact.Polynomial)[attr]
            self._undo.append((exact.Polynomial, attr, fn))
            setattr(exact.Polynomial, attr, self._exact(key, fn, attr == "__init__"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "exact_s": s[EXACT],
                        }
                    )
                    + "\n"
                )


# --- span arithmetic ------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its child spans and the exact
    kernel calls directly under it cover.  Spans are strictly nested (one
    thread), so the children's intervals are disjoint."""
    out = [s[END] - s[START] - s[EXACT] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def outer_time(spans: Sequence[Sequence], match: Callable[[str], bool]) -> float:
    """Wall time inside spans whose name matches, not counting a matching
    span nested in another one twice."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        parent = s[PARENT]
        enclosed = parent >= 0 and inside[parent]
        matches = match(s[NAME])
        inside[i] = enclosed or matches
        if matches and not enclosed:
            total += s[END] - s[START]
    return total


def layer_metrics(tracer: Tracer, bytes_out: int, import_s: float, overhead: float) -> Dict[str, float]:
    """Every per-layer metric the benchmark declares, from one traced run."""
    spans = tracer.spans
    calls: Counter = Counter(s[NAME] for s in spans)
    own: Dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        own[s[NAME]] = own.get(s[NAME], 0.0) + t

    def incl(name: str) -> float:
        return outer_time(spans, lambda n: n == name)

    def per(num: str, den: str) -> float:
        return calls[num] / calls[den] if calls[den] else 0.0

    m: Dict[str, float] = {
        "exact.poly_new.calls": tracer.counts["exact.poly_new.calls"],
        "exact.poly_mul.calls": tracer.counts["exact.poly_mul.calls"],
        "exact.poly_add.calls": tracer.counts["exact.poly_add.calls"],
        "exact.poly_partial.calls": tracer.counts["exact.poly_partial.calls"],
        "exact.self_s": tracer.exact_s,
        "exact.terms_max": tracer.terms_max,
    }
    for fn in ("schouten", "differential", "bracket_sections"):
        m[f"algebroid.{fn}.calls"] = calls[f"algebroid.{fn}"]
        m[f"algebroid.{fn}.self_s"] = own.get(f"algebroid.{fn}", 0.0)
    m["algebroid.check_algebroid.calls"] = calls["algebroid.check_algebroid"]
    for name in (
        "algebroid.check_algebroid",
        "algebroid.check_bialgebroid",
        "algebroid.cotangent_algebroid",
        "lavb.check_lavb",
    ):
        m[f"{name}.s"] = incl(name)
    m["algebroid.dual_poisson.calls"] = calls["algebroid.dual_poisson"]
    m["algebroid.check_algebroid.per_double"] = per(
        "algebroid.check_algebroid", "doublela.check_double"
    )
    m["lavb.induced_dual_algebroid.calls"] = calls["lavb.induced_dual_algebroid"]
    m["lavb.induced_dual_algebroid.s"] = incl("lavb.induced_dual_algebroid")
    for fn in ("build_cotangent_double", "check_double", "structural_diagnostics", "core_algebroid"):
        m[f"doublela.{fn}.s"] = incl(f"doublela.{fn}")
    m["doublela.dual_pair_over_core_dual.calls"] = calls["doublela.dual_pair_over_core_dual"]
    m["doublela.dual_pair_per_double"] = per(
        "doublela.dual_pair_over_core_dual", "doublela.check_double"
    )
    for name in (
        "liealg.drinfeld_double",
        "liealg.check_manin",
        "matched.check_matched",
        "matched.build_bowtie",
        "matched.build_semidirects",
        "model.parse_model",
        "report.emit_report",
        "cli.run",
        "cli.main",
    ):
        m[f"{name}.s"] = incl(name)
    m["dvb.calls"] = sum(n for name, n in calls.items() if name.startswith("dvb."))
    m["parsing.parse_polynomial.calls"] = calls["parsing.parse_polynomial"]
    m["parsing.calls"] = sum(n for name, n in calls.items() if name.startswith("parsing."))
    m["report.bytes_out"] = bytes_out
    m["formatting.s"] = outer_time(spans, lambda n: n.startswith("formatting."))
    m["cli.import_s"] = import_s
    m["verdicts.items"] = tracer.counts["verdicts.items"]
    m["verdicts.failed_items"] = tracer.counts["verdicts.failed_items"]
    m["trace.overhead"] = overhead
    return m

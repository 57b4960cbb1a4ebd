"""The three doublealg benchmark workloads.

Each workload builds its inputs from a seed, yields operations that time
the calls into the package and return what those calls produced, and
checks that output afterwards, so checking is never inside a timed or
traced interval.

- corpus: the CLI on every bundled model, text and JSON, against golden
  report digests and exit codes.  The user's real path; the only workload
  that reaches parsing, model, report, formatting, cli, liealg and matched.
- ladder: the Lie-Poisson cotangent doubles of so(3)* and gl(2)*, decided
  end to end, plus check_bialgebroid on each dual pair.  Few, large,
  all-passing instances that spend their time in the exact kernel and the
  algebroid calculus.
- sweep: seeded random dual pairs on the chart (x, y), in batches of two
  per family, each decided by check_bialgebroid and by check_double of its
  cotangent double.  Many small, nonlinear instances, about 45% failing,
  none repeated; the two verdicts must agree (the cotangent-double
  criterion).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELS = ROOT / "models"
GOLDEN = HERE / "golden.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from doublealg import algebroid, cli, doublela  # noqa: E402
from doublealg.exact import Chart, Polynomial  # noqa: E402
from doublealg.formatting import format_algebroid_lines  # noqa: E402
from doublealg.liealg import LieAlgebra  # noqa: E402

clock = time.perf_counter


@dataclass
class Sample:
    """One timed operation: its seconds, per-stage seconds, and the raw
    results that `check` inspects later."""

    seconds: float
    results: list
    stages: Dict[str, float] = field(default_factory=dict)
    parts: List[float] = field(default_factory=list)  # seconds of each pair in a batch


@dataclass
class Verdict:
    """Outcome of checking one sample's results."""

    attempted: int
    failed: int
    problems: List[str]
    facts: List[dict] = field(default_factory=list)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _noop() -> None:
    pass


# ---------------------------------------------------------------------------
# corpus


FORMATS = ("text", "json")


@dataclass(frozen=True)
class Invocation:
    model: str
    verb: str
    kind: str
    fmt: str

    @property
    def label(self) -> str:
        return f"{self.verb} {self.kind} models/{self.model} --format {self.fmt}"


def corpus_cases() -> List[Invocation]:
    """Every bundled model in both formats, with the verb from its header."""
    cases = []
    for path in sorted(MODELS.iterdir()):
        header = path.read_text(encoding="utf-8").splitlines()[0]
        verb, kind = header[len("# verify: ") :].split()
        cases.extend(Invocation(path.name, verb, kind, fmt) for fmt in FORMATS)
    return cases


def invoke(case: Invocation) -> Tuple[int, bytes]:
    """One `doublealg` CLI call with stdout and stderr captured."""
    argv = [case.verb, case.kind, str(MODELS / case.model), "--format", case.fmt]
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    return code, buf.getvalue()


@dataclass
class CorpusInputs:
    seed: int
    cases: List[Invocation]
    golden: dict


def corpus_inputs(seed: int) -> CorpusInputs:
    return CorpusInputs(seed, corpus_cases(), load_golden()["corpus"])


def corpus_pass(order: List[Invocation], on_op: Callable[[], None]) -> Sample:
    results = []
    seconds = 0.0
    for case in order:
        on_op()
        t0 = clock()
        try:
            outcome = invoke(case)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            outcome = exc
        seconds += clock() - t0
        results.append((case, outcome))
    return Sample(seconds, results)


def corpus_operations(inputs: CorpusInputs, on_op: Callable[[], None] = _noop) -> Iterator:
    """One operation per pass; each pass runs the 22 invocations in a
    seeded order."""
    rng = random.Random(inputs.seed)
    while True:
        order = list(inputs.cases)
        rng.shuffle(order)
        yield partial(corpus_pass, order, on_op)


def corpus_check(inputs: CorpusInputs, results: list) -> Verdict:
    problems = []
    failed = 0
    nbytes = 0
    for case, outcome in results:
        want = inputs.golden[case.model][case.fmt]
        if isinstance(outcome, Exception):
            bad = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            code, data = outcome
            nbytes += len(data)
            expect = 0 if case.model.endswith(".pass") else 1
            bad = []
            if code != expect or code != want["exit"]:
                bad.append(f"exit {code}, expected {expect} (golden {want['exit']})")
            if hashlib.sha256(data).hexdigest() != want["sha256"]:
                bad.append("report bytes differ from golden")
        if bad:
            failed += 1
            problems.append(f"{case.label}: {'; '.join(bad)}")
    return Verdict(len(results), failed, problems, [{"bytes": nbytes}])


def corpus_golden() -> dict:
    out: Dict[str, dict] = {}
    for case in corpus_cases():
        code, data = invoke(case)
        out.setdefault(case.model, {})[case.fmt] = {
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    return out


# ---------------------------------------------------------------------------
# ladder


def ladder_algebras() -> List[Tuple[str, LieAlgebra]]:
    so3 = LieAlgebra(3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)})
    # gl(2) on E11, E12, E21, E22 with [Eij, Ekl] = djk Eil - dli Ekj
    gl2 = LieAlgebra(
        4,
        {
            (0, 1): (0, 1, 0, 0),
            (0, 2): (0, 0, -1, 0),
            (1, 2): (1, 0, 0, -1),
            (1, 3): (0, 1, 0, 0),
            (2, 3): (0, 0, -1, 0),
        },
    )
    return [("so3", so3), ("gl2", gl2)]


@dataclass
class Rung:
    name: str
    tangent: algebroid.LieAlgebroid
    cotangent: algebroid.LieAlgebroid


@dataclass
class LadderInputs:
    rungs: List[Rung]
    golden: dict


def ladder_rungs() -> List[Rung]:
    """(TM, T*M_pi) for pi the Lie-Poisson structure on each g*."""
    rungs = []
    for name, g in ladder_algebras():
        pi = algebroid.dual_poisson(algebroid.lie_algebra_to_algebroid(g))
        rungs.append(
            Rung(name, algebroid.tangent_algebroid(pi.chart), algebroid.cotangent_algebroid(pi))
        )
    return rungs


def ladder_inputs(seed: int) -> LadderInputs:
    # The ladder is fixed; the seed the package takes stays at its default 7.
    return LadderInputs(ladder_rungs(), load_golden()["ladder"])


def decide_rung(rung: Rung) -> Tuple[dict, Dict[str, float]]:
    t0 = clock()
    dla = doublela.build_cotangent_double(rung.tangent, rung.cotangent)
    t1 = clock()
    report = doublela.check_double(dla)
    diagnostics = doublela.structural_diagnostics(dla)
    core = doublela.core_algebroid(dla)
    t2 = clock()
    out = {"check_double": report, "structural_diagnostics": diagnostics, "core": core}
    return out, {"build_s": t1 - t0, "verdict_s": t2 - t0}


def ladder_pass(rungs: List[Rung], on_op: Callable[[], None]) -> Sample:
    results = []
    stages: Dict[str, float] = {}
    for rung in rungs:
        on_op()
        t0 = clock()
        try:
            out, times = decide_rung(rung)
        except Exception as exc:
            out, times = exc, {}
        t1 = clock()
        on_op()
        try:
            bial = algebroid.check_bialgebroid(rung.tangent, rung.cotangent)
        except Exception as exc:
            bial = exc
        t2 = clock()
        for key, value in times.items():
            stages[f"{rung.name}_{key}"] = value
        stages[f"{rung.name}_bialgebroid_s"] = t2 - t1
        stages[f"{rung.name}_total_s"] = t2 - t0
        results.append((rung.name, out, bial))
    return Sample(sum(stages[f"{r.name}_total_s"] for r in rungs), results, stages)


def ladder_operations(inputs: LadderInputs, on_op: Callable[[], None] = _noop) -> Iterator:
    """One operation per pass over both rungs."""
    while True:
        yield partial(ladder_pass, inputs.rungs, on_op)


def rung_lines(out: dict) -> dict:
    return {
        "check_double": list(out["check_double"].lines()),
        "structural_diagnostics": list(out["structural_diagnostics"].lines()),
        "core": format_algebroid_lines("core", out["core"]),
    }


def ladder_check(inputs: LadderInputs, results: list) -> Verdict:
    problems = []
    failed = 0
    for name, out, bial in results:
        if isinstance(out, Exception):
            failed += 1
            problems.append(f"rung {name}: raised {type(out).__name__}: {out}")
            double_ok = None
        else:
            double_ok = out["check_double"].ok
            got = rung_lines(out)
            bad = [key for key, lines in got.items() if lines != inputs.golden[name][key]]
            if bad:
                failed += 1
                problems.append(f"rung {name}: {', '.join(bad)} lines differ from golden")
        if isinstance(bial, Exception):
            failed += 1
            problems.append(f"rung {name} check_bialgebroid: raised {type(bial).__name__}: {bial}")
        elif not bial.ok or (double_ok is not None and double_ok != bial.ok):
            # pi is Poisson, so (TM, T*M_pi) is a Lie bialgebroid and its
            # cotangent double passes.
            failed += 1
            problems.append(
                f"rung {name} check_bialgebroid: verdict {bial.ok}, check_double {double_ok}"
            )
    return Verdict(2 * len(results), failed, problems)


def ladder_golden() -> dict:
    return {rung.name: rung_lines(decide_rung(rung)[0]) for rung in ladder_rungs()}


# ---------------------------------------------------------------------------
# sweep


CHART = Chart(("x", "y"))
FAMILIES = ("tangent_cotangent", "cotangent_tangent", "cotangent_pair", "constant_bundle")
SWEEP_DEGREE = 3
PER_FAMILY = 2  # pairs of each family in one batch


@dataclass
class Pair:
    family: str
    side: algebroid.LieAlgebroid
    dual: algebroid.LieAlgebroid
    expected: Optional[bool]  # the verdict theory predicts, where it does


def _cotangent(f: Polynomial, frames: Optional[Tuple[str, str]] = None) -> algebroid.LieAlgebroid:
    """T*M for pi = f d/dx ^ d/dy (every bivector on a surface is Poisson)."""
    zero = Polynomial.zero(CHART)
    L = algebroid.cotangent_algebroid(algebroid.PoissonChart(CHART, [[zero, f], [-f, zero]]))
    if frames:
        L = algebroid.change_frames(L, [[1, 0], [0, 1]], frames)
    return L


def sweep_pair(rng: random.Random, family: str) -> Pair:
    """One random dual pair of the given family.

    (TM, T*M_pi) and (T*M_pi, TM) are Lie bialgebroids for every Poisson pi.
    TM against a rank-2 bundle with constant bracket c and zero anchor is
    one exactly when c = 0.  (T*M_pi1, T*M_pi2) has no closed-form verdict;
    only the agreement of the two deciders is checked there.  The second
    cotangent side gets frames (ex, ey), since a double's sides must not
    share frame names.
    """
    tm = algebroid.tangent_algebroid(CHART)

    def f() -> Polynomial:
        return algebroid.random_polynomial(rng, CHART, SWEEP_DEGREE)

    if family == "tangent_cotangent":
        pair = Pair(family, tm, _cotangent(f()), True)
    elif family == "cotangent_tangent":
        pair = Pair(family, _cotangent(f()), tm, True)
    elif family == "cotangent_pair":
        pair = Pair(family, _cotangent(f()), _cotangent(f(), ("ex", "ey")), None)
    else:
        c = [rng.randint(-2, 2), rng.randint(-2, 2)]
        zero = Polynomial.zero(CHART)
        bracket = tuple(Polynomial.constant(CHART, v) for v in c)
        bundle = algebroid.LieAlgebroid(
            CHART, ("ph1", "ph2"), [[zero, zero], [zero, zero]], {(0, 1): bracket}
        )
        pair = Pair(family, tm, bundle, c == [0, 0])
    algebroid.require_valid(pair.side, "side")
    algebroid.require_valid(pair.dual, "dual side")
    return pair


def sweep_batch(rng: random.Random) -> List[Pair]:
    """PER_FAMILY pairs of every family in a seeded order.  Fixing the family
    mix per batch keeps a run's timing from depending on how many slow
    families its seed happened to draw."""
    families = [f for f in FAMILIES for _ in range(PER_FAMILY)]
    rng.shuffle(families)
    return [sweep_pair(rng, family) for family in families]


@dataclass
class SweepInputs:
    rng: random.Random
    first: List[Pair]


def sweep_inputs(seed: int) -> SweepInputs:
    rng = random.Random(seed)
    return SweepInputs(rng, sweep_batch(rng))


def decide_batch(batch: List[Pair], on_op: Callable[[], None]) -> Sample:
    results = []
    pair_s = []
    for pair in batch:
        on_op()
        t0 = clock()
        try:
            bial = algebroid.check_bialgebroid(pair.side, pair.dual).ok
            double = doublela.check_double(doublela.build_cotangent_double(pair.side, pair.dual)).ok
            outcome = (bial, double)
        except Exception as exc:
            outcome = exc
        pair_s.append(clock() - t0)
        results.append((pair, outcome))
    return Sample(sum(pair_s), results, parts=pair_s)


def sweep_operations(inputs: SweepInputs, on_op: Callable[[], None] = _noop) -> Iterator:
    """One operation per batch; later batches come from the same seeded
    stream, generated between operations."""
    batch = inputs.first
    while True:
        yield partial(decide_batch, batch, on_op)
        batch = sweep_batch(inputs.rng)


def sweep_check(inputs: SweepInputs, results: list) -> Verdict:
    problems = []
    failed = 0
    facts = []
    for pair, outcome in results:
        if isinstance(outcome, Exception):
            failed += 1
            problems.append(f"{pair.family} pair: raised {type(outcome).__name__}: {outcome}")
            continue
        bial, double = outcome
        facts.append({"family": pair.family, "passed": bial})
        if bial != double or (pair.expected is not None and bial != pair.expected):
            failed += 1
            problems.append(
                f"{pair.family} pair: check_bialgebroid {bial}, check_double {double}, "
                f"expected {pair.expected}"
            )
    return Verdict(len(results), failed, problems, facts)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    operations: Callable
    check: Callable
    trace_ops: int  # operations in one traced run


WORKLOADS = {
    "corpus": Workload(corpus_inputs, corpus_operations, corpus_check, 3),
    "ladder": Workload(ladder_inputs, ladder_operations, ladder_check, 1),
    "sweep": Workload(sweep_inputs, sweep_operations, sweep_check, 2),
}

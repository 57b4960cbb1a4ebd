"""doublealg benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload corpus|ladder|sweep --seed N \
        --seconds S --trace 0|1

With --trace 0 it runs the workload's operations for S seconds, untraced,
checks every output, and prints the end-to-end metrics, whose times are
host-normalised (see hostclock).  With --trace 1 it
runs a fixed number of operations once untraced and once under the
outside-in tracer, prints the per-layer metrics and the tracing overhead,
and writes the spans to perfbench/out/.  Human-readable lines come first;
the last line of stdout is the JSON result.  Run it from a checkout that
holds src/doublealg and models/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostclock
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
clock = time.perf_counter

SETUP_PROBES = 15
IMPORT_PROBES = 3
SHOWN_PROBLEMS = 20
TAIL_PERCENTILES = (99, 95, 90, 75)


def tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of TAIL_PERCENTILES with at least ten samples above it,
    with its value; None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100) - 1  # nearest-rank percentile, 0-based
        if n - 1 - rank >= 10:
            return p, ordered[rank]
    return None


def probe(workload: str, seed: int) -> Tuple[float, float]:
    """Wall and host-normalised seconds a fresh interpreter needs for one
    setup_probe run."""
    env = {k: v for k, v in os.environ.items() if k != "DOUBLEALG_MAX_DEGREE"}
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall, normalised = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(normalised)


def median_probe(workload: str, seed: int, runs: int) -> Tuple[float, float]:
    probe(workload, seed)  # writes bytecode caches in a fresh checkout
    walls, normalised = zip(*(probe(workload, seed) for _ in range(runs)))
    return statistics.median(walls), statistics.median(normalised)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"metric {name} = {text} {unit}{note}")


def report_problems(problems: Counter) -> None:
    for i, (text, n) in enumerate(problems.most_common()):
        if i == SHOWN_PROBLEMS:
            print(f"FAILED ... and {len(problems) - SHOWN_PROBLEMS} more distinct failures")
            break
        print(f"FAILED {text}" + (f"  (x{n})" if n > 1 else ""))


def emit_timing(name: str, values: List[float], unit: str, scale: float) -> None:
    emit(f"{name}_p50", statistics.median(values) * scale, unit, f"  (n={len(values)})")
    t = tail(values)
    if t is None:
        print(f"metric {name}_tail: fewer than 11 samples, median only")
    else:
        emit(f"{name}_tail", t[1] * scale, unit, f"  (p{t[0]}, n={len(values)})")


def timed_run(name: str, wl, seed: int, seconds: float) -> dict:
    setup_wall_s, setup_s = median_probe(name, seed, SETUP_PROBES)
    inputs = wl.inputs(seed)
    ops = wl.operations(inputs)
    samples = []
    normalised = []
    attempted = failed = 0
    problems: Counter = Counter()
    facts: List[dict] = []
    host = hostclock.HostClock()
    deadline = clock() + seconds
    while not samples or clock() < deadline:
        op = next(ops)
        host.start()
        try:
            t0 = clock()
            sample = op()
            t1 = clock()
        finally:
            host.stop()
        normalised.append(host.normalised(t0, t1))
        verdict = wl.check(inputs, sample.results)
        sample.results = None  # reports would otherwise pile up and inflate peak_rss_mb
        samples.append(sample)
        attempted += verdict.attempted
        failed += verdict.failed
        problems.update(verdict.problems)
        facts.extend(verdict.facts)
    rss = peak_rss_mb()
    times = [s.seconds for s in samples]
    pass_ms = statistics.median(normalised) * 1000.0

    report_problems(problems)
    print(f"workload {name}, seed {seed}, {len(samples)} operations in {seconds} s")
    if name == "corpus":
        emit_timing("corpus.pass_ms", times, "ms", 1000.0)
    elif name == "sweep":
        emit_timing("sweep.pair_ms", [t for s in samples for t in s.parts], "ms", 1000.0)
        emit("sweep.pass_share", sum(f["passed"] for f in facts) / len(facts), "ratio")
        for family, n in sorted(Counter(f["family"] for f in facts).items()):
            emit(f"sweep.family_share.{family}", n / len(facts), "ratio")
    else:
        for stage in sorted(samples[0].stages):
            rung, key = stage.split("_", 1)
            values = [s.stages[stage] for s in samples if stage in s.stages]
            emit(f"ladder.{rung}_{key}", statistics.median(values), "s", f"  (median, n={len(values)})")
    emit("pass_wall_ms_p50", statistics.median(times) * 1000.0, "ms", f"  (n={len(times)})")
    emit("host_probe_ms_p50", statistics.median(host.durations) * 1000.0, "ms",
         f"  (n={len(host.durations)}, reference {hostclock.REFERENCE_PROBE_S * 1000.0:g} ms)")
    emit("pass_ms_p50", pass_ms, "ms", f"  (host-normalised, n={len(normalised)})")
    emit("setup_wall_s", setup_wall_s, "s", f"  (median of {SETUP_PROBES} fresh interpreters)")
    emit("setup_s", setup_s, "s", f"  (host-normalised, median of {SETUP_PROBES} fresh interpreters)")
    emit("peak_rss_mb", rss, "MB")
    emit("failed_share", failed / attempted, "ratio", f"  ({failed}/{attempted})")

    metrics = {
        "pass_ms_p50": {"value": pass_ms, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(name: str, wl, seed: int) -> dict:
    def run_ops(on_op) -> Tuple[object, list]:
        inputs = wl.inputs(seed)
        ops = wl.operations(inputs, on_op)
        return inputs, [next(ops)() for _ in range(wl.trace_ops)]

    _, plain = run_ops(lambda: None)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        inputs, traced = run_ops(recorder.next_op)
    finally:
        recorder.uninstall()
    plain_s = sum(s.seconds for s in plain)
    traced_s = sum(s.seconds for s in traced)

    attempted = failed = nbytes = 0
    problems: Counter = Counter()
    for samples in (plain, traced):
        for sample in samples:
            verdict = wl.check(inputs, sample.results)
            attempted += verdict.attempted
            failed += verdict.failed
            problems.update(verdict.problems)
            if samples is traced:
                nbytes += sum(f.get("bytes", 0) for f in verdict.facts)
    import_s = median_probe("import-cli", 0, IMPORT_PROBES)[0]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{name}-{seed}.jsonl"
    recorder.write_jsonl(spans_path)

    values = tracer.layer_metrics(recorder, nbytes, import_s, traced_s / plain_s)
    report_problems(problems)
    print(
        f"workload {name}, seed {seed}: {wl.trace_ops} operations, untraced {plain_s:.4f} s, "
        f"traced {traced_s:.4f} s, {len(recorder.spans)} spans in {spans_path.relative_to(ROOT)}"
    )
    units = per_layer_units()
    for key in units:
        emit(key, float(values[key]), units[key])
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/doublealg/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"perfbench: not a doublealg checkout, missing {', '.join(missing)}\n")
        return 2
    os.environ.pop("DOUBLEALG_MAX_DEGREE", None)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(args.workload, wl, args.seed)
    else:
        result = timed_run(args.workload, wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

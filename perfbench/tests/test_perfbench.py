"""Tests of the benchmark itself: span arithmetic, the output gate, the
sweep generator, the reproducibility of traced counts and the host-speed
normalisation.

    python3 -m pytest -q perfbench/tests
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from doublealg import algebroid  # noqa: E402


def span(name, start, end, parent=-1, exact=0.0):
    return [name, start, end, parent, 0, exact]


def test_self_times_subtract_children_and_exact_time():
    spans = [
        span("root", 0.0, 10.0, exact=1.0),
        span("a", 1.0, 4.0, parent=0, exact=0.5),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracer.self_times(spans) == [2.0, 1.5, 1.0, 4.0]


def test_outer_time_counts_recursive_spans_once():
    spans = [
        span("f", 0.0, 10.0),
        span("f", 2.0, 5.0, parent=0),
        span("g", 3.0, 4.0, parent=1),
        span("f", 12.0, 13.0),
    ]
    assert tracer.outer_time(spans, lambda n: n == "f") == 11.0
    assert tracer.outer_time(spans, lambda n: n == "g") == 1.0


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(10)]) is None
    assert run.tail([float(i) for i in range(40)]) == (75, 29.0)
    assert run.tail([float(i) for i in range(200)]) == (95, 189.0)


def one_corpus_pass(seed=1):
    inputs = workloads.corpus_inputs(seed)
    return inputs, next(workloads.corpus_operations(inputs))()


def test_corpus_matches_golden_and_a_corrupted_byte_fails():
    inputs, sample = one_corpus_pass()
    assert workloads.corpus_check(inputs, sample.results).failed == 0

    case, (code, data) = sample.results[0]
    sample.results[0] = (case, (code, bytes([data[0] ^ 1]) + data[1:]))
    verdict = workloads.corpus_check(inputs, sample.results)
    assert verdict.failed == 1 and verdict.failed / verdict.attempted > 0
    assert case.label in verdict.problems[0]


def test_wrong_exit_code_fails():
    inputs, sample = one_corpus_pass()
    case, (code, data) = sample.results[0]
    sample.results[0] = (case, (1 - code, data))
    assert workloads.corpus_check(inputs, sample.results).failed == 1


def test_flipped_sweep_verdict_fails():
    inputs = workloads.sweep_inputs(3)
    sample = next(workloads.sweep_operations(inputs))()
    assert workloads.sweep_check(inputs, sample.results).failed == 0

    pair, (bial, double) = sample.results[0]
    for flipped in ((not bial, double), (bial, not double), (not bial, not double)):
        verdict = workloads.sweep_check(inputs, [(pair, flipped)])
        assert verdict.failed == 1, flipped


def test_sweep_generator_is_deterministic_per_seed():
    first = workloads.sweep_inputs(11)
    again = workloads.sweep_inputs(11)
    other = workloads.sweep_inputs(12)
    key = [(p.family, p.side, p.dual) for p in first.first]
    assert key == [(p.family, p.side, p.dual) for p in again.first]
    assert key != [(p.family, p.side, p.dual) for p in other.first]
    later = workloads.sweep_batch(first.rng)
    assert [(p.family, p.side, p.dual) for p in later] == [
        (p.family, p.side, p.dual) for p in workloads.sweep_batch(again.rng)
    ]
    families = [p.family for p in first.first]
    assert sorted(families) == sorted(workloads.FAMILIES * workloads.PER_FAMILY)


def traced_calls(name, ops):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(5)
    t = tracer.Tracer()
    original = algebroid.schouten
    t.install()
    try:
        operations = wl.operations(inputs, t.next_op)
        samples = [next(operations)() for _ in range(ops)]
    finally:
        t.uninstall()
    assert algebroid.schouten is original
    for sample in samples:
        assert wl.check(inputs, sample.results).failed == 0
    metrics = tracer.layer_metrics(t, 0, 0.0, 1.0)
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k.startswith("verdicts.")}


def test_two_traced_runs_give_identical_counts():
    for name, ops in (("corpus", 1), ("sweep", 1)):
        first = traced_calls(name, ops)
        assert first["exact.poly_new.calls"] > 0 and first["verdicts.items"] > 0
        assert first == traced_calls(name, ops)


def test_recursive_schouten_is_traced():
    calls = traced_calls("sweep", 1)
    assert calls["algebroid.schouten.calls"] > calls["algebroid.check_algebroid.calls"]


def synthetic_clock(starts, durations):
    host = hostclock.HostClock()
    host.starts, host.durations = list(starts), list(durations)
    return host


def test_normalised_time_divides_each_slice_by_its_local_probe():
    host = synthetic_clock([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
    # program slices 0.5, 0.9, 0.9 and 0.4 s, each worth 10 probes per second
    assert abs(host.normalised(0.5, 3.5) - 27 * hostclock.REFERENCE_PROBE_S) < 1e-12
    assert abs(host.probe_seconds(0.5, 3.5) - 0.3) < 1e-12
    assert host.probe_seconds(3.5, 4.0) == 0


def test_normalised_time_cancels_a_uniformly_slower_host():
    fast = synthetic_clock([1.0, 2.0, 3.0], [0.1, 0.2, 0.1])
    slow = synthetic_clock([1.5, 3.0, 4.5], [0.15, 0.3, 0.15])
    assert abs(fast.normalised(0.5, 3.5) - slow.normalised(0.75, 5.25)) < 1e-12


def test_host_clock_samples_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(period=0.005) as host:
        t0 = hostclock.clock()
        while hostclock.clock() - t0 < 0.1:
            sum(range(1000))
        t1 = hostclock.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.starts) > 3 and host.starts == sorted(host.starts)
    assert 0 < host.normalised(t0, t1)

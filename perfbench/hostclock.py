"""Host-speed-normalised time for a shared, drifting host.

On a VM that shares its cores and caches with other tenants, the same
Python code runs up to half again slower from one second to the next, so
raw wall times of identical runs spread too far to bound a regression.
`HostClock` measures that drift while a measurement runs and removes it.

Every PERIOD seconds a SIGALRM handler times the probe: a fixed, small
sparse-polynomial calculation over Fractions, shaped like
`doublealg.exact` but independent of it, so a change to the program never
changes the probe.  `normalised(start, end)` converts a wall interval
slice by slice: the program time between two probes is divided by the
local probe time (the median of that probe and its two neighbours) and
multiplied by REFERENCE_PROBE_S.  The result reads as seconds on a host
where the probe takes REFERENCE_PROBE_S; the probes' own time is left out.

Python runs signal handlers between bytecodes of the main thread, so a
probe never straddles an interval boundary read with `clock()` there.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Tuple

clock = time.perf_counter

PERIOD = 0.025
REFERENCE_PROBE_S = 0.0002  # the probe's time on a quiet 2.1 GHz Xeon core, rounded


def _term_key(term):
    exp = term[0]
    return sum(exp), exp


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, ...], Fraction]):
        kept = ((tuple(e), c) for e, c in terms.items() if c != 0)
        self.terms = tuple(sorted(kept, key=_term_key, reverse=True))

    def __add__(self, other: "_Poly") -> "_Poly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return _Poly(acc)

    def __mul__(self, other: "_Poly") -> "_Poly":
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return _Poly(acc)

    def partial(self, i: int) -> "_Poly":
        acc = {}
        for e, c in self.terms:
            if e[i]:
                d = list(e)
                d[i] -= 1
                acc[tuple(d)] = c * e[i]
        return _Poly(acc)


_X = _Poly({(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-2, 3)})
_Y = _Poly({(0, 0, 1): Fraction(3), (1, 1, 0): Fraction(1, 2), (0, 0, 0): Fraction(5)})


def probe() -> _Poly:
    """The fixed reference calculation; about 0.2-0.4 ms."""
    s = _X * _Y
    for i in range(3):
        s = s + s.partial(i) * _X
    return s


class HostClock:
    """Samples the probe from SIGALRM between `start()` and `stop()`.

    Use one at a time per process, from the main thread."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._saved = None

    def _tick(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not the probe's time
        try:
            t0 = clock()
            probe()
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> "HostClock":
        self._tick()  # so that an interval shorter than a period has a neighbour
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _local(self, i: int) -> float:
        """Probe time around probe i: median of it and its neighbours."""
        i = min(max(i, 0), len(self.durations) - 1)
        return statistics.median(self.durations[max(i - 1, 0) : i + 2])

    def probe_seconds(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def normalised(self, start: float, end: float) -> float:
        """Program seconds in [start, end] at the reference host speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total = 0.0
        prev = start
        for i in range(lo, hi):
            total += (self.starts[i] - prev) / self._local(i)
            prev = self.starts[i] + self.durations[i]
        total += (end - prev) / self._local(hi if hi < len(self.starts) else hi - 1)
        return total * REFERENCE_PROBE_S

"""Host-speed reference for the timed runs.

The host runs this benchmark at a speed that changes while a run is going:
a fixed request is fast or about 1.6 times slower, switching within a
second, and the fast speed itself drifts over minutes (see NOTES.md).  A
short loop of fixed interpreter work, the reference, reads the speed of
the moment.  A `Meter` reads it right before and right after each
request, and every SAMPLE_S of CPU time while the request runs (from
SIGPROF, on the main thread).  A request's latency is reported as its
time over the mean of those readings, times REFERENCE_MS: the
milliseconds it takes at the speed at which one reference takes
REFERENCE_MS.  The readings taken during a request are not counted in its
time.

The loop exercises what the package spends its time on: small objects
with slots, method calls, bit operations on ints, tuples, dicts and
frozensets.  It is fixed code of the benchmark, so a change to the
package changes the request's time and not the reference's.
"""

from __future__ import annotations

import signal
from time import perf_counter

# One reference at the fast speed of the 2-vCPU Xeon host that the figures
# in NOTES.md come from; it scales the ratios back into milliseconds.
REFERENCE_MS = 1.5
SAMPLE_S = 0.03


class _Rows:
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]) -> None:
        self.rows = rows

    def holds(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)


_ORDER = _Rows(tuple((0x5A5A >> i | 1 << i) & 0xFFFF for i in range(16)))


def _work() -> int:
    seen: dict[tuple[int, ...], int] = {}
    hits = 0
    for a in range(96):
        row = []
        for b in range(12):
            acc = 0
            for j in range(6):
                if _ORDER.holds((a + b) & 15, (b * j + a) & 15):
                    acc |= 1 << j
            row.append(acc)
        key = tuple(row)
        hits += seen.get(key, 0)
        seen[key] = len(frozenset(row))
    return hits


def reference() -> float:
    """Seconds one pass of the reference loop takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


class Meter:
    """Times calls and scales their times to the reference speed.

    Readings are chained: the one taken after a call is the one before the
    next, so back-to-back calls cost one reference each.
    """

    def __init__(self) -> None:
        self.last = reference()
        self.readings: list[float] = []
        self.spent = 0.0

    def _on_sample(self, signum, frame) -> None:
        start = perf_counter()
        self.readings.append(reference())
        self.spent += perf_counter() - start

    def time(self, call):
        """Run `call()`; returns its result, its wall time without the
        readings taken during it, and that time at the reference speed."""
        self.readings, self.spent = [self.last], 0.0
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            seconds = perf_counter() - start - self.spent
            signal.signal(signal.SIGPROF, previous)
        self.last = reference()
        self.readings.append(self.last)
        speed = sum(self.readings) / len(self.readings)
        return result, seconds, seconds * REFERENCE_MS * 1e-3 / speed

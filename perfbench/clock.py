"""Op timing that holds still on a shared host.

On the 2-vCPU Xeon VMs this benchmark was built on, the interpreter's
speed flips between two states about 1.8x apart every few seconds,
following other tenants' load, and the share of time spent in the slow
state drifts from a quarter to nearly all of it within minutes.  Summed
wall times of identical passes differed by up to half from run to run.

``Clock`` samples a fixed piece of interpreter-bound work every
``PERIOD_S`` from a SIGALRM handler, so also in the middle of a long op,
and reports each interval twice: as wall time less the samples taken
inside it, and scaled to the speed at which the sample takes
``REFERENCE_S``, using the samples inside the interval and the nearest one
on either side.  On the same host that cut the quartile spread of the
summed op times over five to ten seeds from 20-40% of the median to at
most 11%.  The same timer enforces the per-op time limit.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import sys
import time

PERIOD_S = 0.25
REFERENCE_S = 0.004


class OpTimeout(Exception):
    """Raised inside an op that runs past its deadline."""


def calibration_sample() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work (tuples,
    dicts, strings, a frozenset); about 4 ms on a 2 GHz Xeon core."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    frozenset(counts.items())
    return time.perf_counter() - start


def _deep_stack() -> bool:
    """True within 50 frames of the recursion limit, where a sample could
    raise a RecursionError the op itself would not have raised."""
    try:
        sys._getframe(sys.getrecursionlimit() - 50)
    except ValueError:
        return False
    return True


class Clock:
    """A periodic ITIMER_REAL: deadline checks, and calibration samples
    unless ``calibrate`` is off (a traced pass, whose spans must not
    include them)."""

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.deadline: float | None = None
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def sample(self) -> None:
        if not self.calibrate:
            return
        enabled = gc.isenabled()
        gc.disable()  # the sample's time must not depend on the heap the op left
        try:
            duration = calibration_sample()
        finally:
            if enabled:
                gc.enable()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def _tick(self, signum, frame) -> None:
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            self.deadline = None
            raise OpTimeout("op exceeded its time limit")
        if not _deep_stack():
            self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds less the samples inside, seconds scaled to the
        reference speed) of the interval [start, end]."""
        lo = bisect.bisect_right(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = self.durations[lo:hi]
        wall = end - start - sum(inside)
        around = self.durations[max(lo - 1, 0):hi + 1]
        if not around:
            return wall, wall
        return wall, wall * REFERENCE_S / statistics.fmean(around)

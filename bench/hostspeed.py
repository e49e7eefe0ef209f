"""Host-speed probe: a fixed reference task, timed every few milliseconds.

The benchmark runs on a few virtual CPUs of a shared host. Their speed is
close to two-valued, fast or about 1.7 times slower, switches within a
second, and the share of slow time drifts from minute to minute. So the
wall time of a run says as much about the neighbours as about qvm.

While the timed loop runs, a SIGALRM handler runs a small reference task
every ``INTERVAL_S`` and records how long it took. The task runs no qvm
code, so a change to qvm cannot change it; it mixes interpreter work with a
numpy gather and scatter, like the workloads. The handler runs the task
twice and times the second pass only: the first brings the task's data back
into the caches the workload has just swept, so the timing follows the
CPU's speed and not how much cache the workload uses. ``corrected`` turns
the wall time of a span into the time it would have taken at the probe's
nominal speed: the span's wall time without the handler's own time, times
``NOMINAL_S`` over the probe's median duration around the span.

The handler runs in the main thread between bytecodes, so a long numpy call
delays a sample but never overlaps it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
# The reference task's duration when no neighbour slows it: the fast mode of
# its timed pass (about 38 us, against about 65 us slowed) on the 2-vCPU
# Intel Xeon virtual machine, Python 3.11 and numpy 2.4, where the bounds in
# BENCHMARK.json were set.
NOMINAL_S = 40e-6
# Samples within this distance of a span's midpoint (or within the span, if
# longer) give the speed for that span.
HALF_WINDOW_S = 0.25

_SIZE = 1 << 11
_TARGET_BIT = 1 << 6


class Probe:
    """Samples the reference task while active; use as a context manager."""

    def __init__(self):
        self._amps = np.linspace(0.0, 1.0, _SIZE) + 0j
        index = np.arange(_SIZE, dtype=np.intp)
        self._base = index[(index & _TARGET_BIT) == 0]
        self._pair = self._base | _TARGET_BIT
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.handler_s: list[float] = []
        self._previous = None

    def _task(self) -> None:
        counts: dict[int, int] = {}
        for i in range(80):
            counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
        a0 = self._amps[self._base]
        a1 = self._amps[self._pair]
        self._amps[self._base] = 0.6 * a0 + 0.8 * a1
        self._amps[self._pair] = 0.8 * a0 - 0.6 * a1

    def _sample(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        self._task()
        warm = time.perf_counter()
        self._task()
        ended = time.perf_counter()
        self.starts.append(began)
        self.durations.append(ended - warm)
        self.handler_s.append(ended - began)

    def __enter__(self) -> "Probe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, began: float, ended: float) -> float:
        """The host's speed around ``[began, ended]``, relative to nominal."""
        middle, half = (began + ended) / 2, max((ended - began) / 2, HALF_WINDOW_S)
        lo = bisect.bisect_left(self.starts, middle - half)
        hi = bisect.bisect_right(self.starts, middle + half)
        return NOMINAL_S / statistics.median(self.durations[lo:hi] or self.durations)

    def corrected(self, began: float, ended: float) -> float:
        """Seconds ``[began, ended]`` would have taken at nominal speed, probe excluded."""
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_left(self.starts, ended)
        own = sum(self.handler_s[lo:hi])
        return (ended - began - own) * self.speed(began, ended)

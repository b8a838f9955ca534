"""Host speed probe: rescales wall times to a fixed reference speed.

On a shared 2-vCPU x86-64 VM the same call runs up to 1.9x slower for
stretches of seconds to a minute, and the slowdown hits a fixed micro-workload in the
same proportion: in a two-minute trial the ratio of ``gcnn ingest`` time
to probe time varied by 7% while each varied by 90%.  So while a
:class:`SpeedProbe` is active it runs :func:`probe_work` every
``interval`` seconds from a SIGALRM handler, and :meth:`SpeedProbe.scaled`
multiplies a call's wall time by the mean of ``REFERENCE_S / probe time``
over the probes taken during the call.  Probes are evenly spaced in
time, so that mean is the host's average speed over the call relative to
the reference.  The result is in seconds at the speed where the probe
takes ``REFERENCE_S``; a slower or faster program moves it in full, a
slower or faster host does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

REFERENCE_S = 0.0005  # probe time on an undisturbed 2-core x86-64 VM, rounded
INTERVAL_S = 0.05
MIN_SAMPLES = 5

_A = np.arange(480, dtype=np.float64).reshape(12, 40)


def probe_work() -> float:
    """Interpreter loop plus small numpy operations, the mix gcnn runs."""
    s = 0.0
    for i in range(4000):
        s += i * 0.5
    for _ in range(60):
        s += float((_A * 2.0 + 1.0).sum())
    return s


class SpeedProbe:
    """Times :func:`probe_work` every ``interval`` seconds while active."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.at = array("d")
        self.cost = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_work()
        self.at.append(started)
        self.cost.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / probe time over the probes in [start, end],
        widened to the MIN_SAMPLES probes nearest the interval when it
        holds fewer."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed probe samples were taken")
        return statistics.fmean(REFERENCE_S / c for c in self.cost[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        """Wall seconds of a call that began at ``start``, at reference speed."""
        return seconds * self.factor(start, start + seconds)

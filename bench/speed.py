"""Machine-speed index, sampled while a workload runs.

The machine this benchmark was tuned on runs the same code up to 1.5x
slower for seconds at a time (other tenants share its cores), which moved
per-run throughput by 20-25% between runs. A fixed calibration computation,
made of the same kinds of work as the program (``gammaln``, ``log`` and
``cumsum`` over arrays, plus interpreted Python), slows down with it. A
``SpeedProbe`` runs that computation from a SIGALRM handler every
``INTERVAL_S`` of the timed section and keeps its durations; the time the
handler takes is left out of every call's time.

``timed`` runs one call and returns its time at reference speed: the
measured time, without the handler's, multiplied by the mean of
``REFERENCE_S / duration`` over the samples taken during the call and the
``WINDOW_S`` before it (phases last seconds; a longer window averages out
the samples' own noise). That is the time the call would take on a machine
where the calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.special import gammaln

REFERENCE_S = 1e-3
INTERVAL_S = 0.05
WINDOW_S = 2.0
_X = np.arange(1.0, 30001.0)
_SMALL = np.arange(1.0, 17.0)


def calibration_chunk() -> float:
    """The fixed calibration computation; returns its duration in seconds.

    Three parts, as in the program: array work (the dense grids, the CDFs),
    numpy calls on small arrays (per-table estimates of small tables) and
    plain interpreted Python (parsing, bookkeeping).
    """
    start = time.perf_counter()
    v = gammaln(_X + 0.5) - np.log(_X) * _X
    total = float(np.cumsum(np.exp(v - v.max()))[-1])
    for _ in range(40):
        total += float(np.max(gammaln(_SMALL + 1.0) - np.log(_SMALL)))
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the calibration every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        duration = calibration_chunk()
        self.stamps.append(start)
        self.samples.append(duration)
        self.spent += time.perf_counter() - start

    def timed(self, call):
        """(call(), seconds at reference speed) for one call."""
        spent = self.spent
        start = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - start - (self.spent - spent)
        first = bisect.bisect_left(self.stamps, start - WINDOW_S)
        return value, elapsed * factor(self.samples[first:] or self.samples[-5:])

    def __enter__(self):
        for _ in range(5):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(call):
    """(call(), measured seconds): the timing used without a probe."""
    start = time.perf_counter()
    value = call()
    return value, time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Scale from measured to reference-speed time; 1.0 without samples."""
    if not samples:
        return 1.0
    return statistics.fmean(REFERENCE_S / s for s in samples)

"""Host speed: a fixed pure-Python loop rate, sampled during the work.

The 2-vCPU Xeon VM this benchmark was built on switches between a fast and a slow
state, 1.7x apart, several times a minute, so the raw wall of one
repetition says as much about the host as about the program.  While a
repetition runs, :class:`HostSpeed` times a short loop that runs no
``repro`` code every :data:`PERIOD_S` seconds, from a ``SIGALRM``
handler in the same thread, so each sample sees the speed of the vCPU
the workload is on.  :meth:`HostSpeed.scale` turns that repetition's
seconds into seconds on a host whose loop runs at :data:`REF_RATE`.
On that VM, scaling 0.2 s units of simulation work by loop rates taken
around them cut the interquartile spread of their timings from 28% to
13%.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 20_000
PERIOD_S = 0.2
REF_RATE = 1e7


def loop_rate() -> float:
    """Iterations per second of a fixed integer loop."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return LOOPS / (time.perf_counter() - start)


def calibrate() -> float:
    """The median of nine loop rates, taken back to back."""
    return statistics.median(loop_rate() for _ in range(9))


class HostSpeed:
    """Samples :func:`loop_rate` every PERIOD_S seconds while entered."""

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.spent = 0.0
        self.wall = 0.0
        self._previous = None
        self._start = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.rates.append(loop_rate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self.rates.append(loop_rate())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self._start
        self.rates.append(loop_rate())

    def scale(self) -> float:
        """Factor from this span's seconds to reference-host seconds of
        the work alone: the mean sampled rate over REF_RATE, less the
        share of the span the samples themselves took."""
        busy = 1.0 - min(self.spent, self.wall) / self.wall if self.wall > 0 else 1.0
        return statistics.fmean(self.rates) / REF_RATE * busy

"""Host speed sampling, so that times taken on a shared host can be compared.

The benchmark runs on hosts whose cores are shared with other jobs.  There,
the same pure-Python work runs up to 2.2 times slower from one second to the
next, and a 15 s pass varies by 10-20 % from run to run, which hides any
change smaller than that.  So a pass samples the host's speed while it
runs: every ``INTERVAL_S`` of its CPU time a SIGVTALRM handler times a fixed
pure-Python loop.  A time measured by the pass is then reported in
reference seconds: the net time (the sampling excluded) multiplied by the
mean of ``REFERENCE_LOOP_S / loop time`` over the samples taken in it, or
the two nearest ones.  A second of work at the reference speed reads 1 s.
The raw times are reported alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
LOOP_ITERATIONS = 300
REFERENCE_LOOP_S = 2.0e-4


def time_loop() -> float:
    """Seconds taken by a fixed loop of tuple, string and dict work."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(LOOP_ITERATIONS):
        key = (i & 63, "a%d" % (i & 31))
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


class SpeedSampler:
    """Speed samples of one process, and the time spent taking them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.speed: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.speed.append(REFERENCE_LOOP_S / time_loop())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; the process must not exit with the timer armed."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed over the samples in [t0, t1], or the two nearest."""
        lo = max(bisect.bisect_right(self.at, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        window = self.speed[lo:hi + 1]
        return sum(window) / len(window)

    def scaled(self, t0: float, t1: float, net: float) -> float:
        """``net`` seconds measured between t0 and t1, in reference seconds."""
        return net * self.factor(t0, t1)

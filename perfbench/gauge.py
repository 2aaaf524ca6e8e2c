"""Speed gauge: how fast the host runs this process right now.

The shared VM this benchmark was built on runs the same code up to twice as
slow in some minutes as in others, with no steal time reported and no
hardware counters to read. A pass therefore samples its own speed: every
PERIOD_S a SIGALRM handler times chunk(), fixed work that calls nothing of
the package. The chunk slows down with the pass around it, so a time
measured in the pass, less the handler's own time, times factor() is that
time at reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025
# A typical chunk time on the baseline host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4). It only fixes the unit of the adjusted times.
REF_CHUNK_S = 0.0012

_SMALL = [np.arange(13, dtype=np.int64) + i for i in range(8)]


def chunk() -> int:
    """An interpreter loop, then many small numpy calls: the two kinds of
    work the workloads mix. Each half alone tracked some workloads' slowdowns
    worse than the two together."""
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % 1000003
    for i in range(120):
        s += int((_SMALL[i & 7] * 7 % 13).sum())
    return s


class Gauge:
    """Times chunk() from a SIGALRM handler every PERIOD_S while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler

    def tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Reference speed over the mean speed seen while started."""
        return REF_CHUNK_S * len(self.samples) / sum(self.samples)

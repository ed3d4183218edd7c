"""Scale timings to a reference machine speed.

On a shared host the same pure-Python work runs up to twice as slow for
stretches of seconds to minutes, in wall time and CPU time alike, so raw
medians of two runs of one commit can differ by a third.  The benchmark
therefore runs a fixed calibration loop, which never touches slicedeg,
every EVERY_S seconds: from a timer signal while requests run in this
process (so a request that takes seconds is calibrated while it runs),
and between subprocesses otherwise.  Each measured interval loses the
calibration time spent inside it and is scaled by REFERENCE_CHUNK_S over
the median loop time around it.  A normalized time is how long the work
would have taken had one loop taken REFERENCE_CHUNK_S: a change in the
program moves it in full, a change in machine speed cancels.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

CHUNK_ITERS = 10_000
REFERENCE_CHUNK_S = 0.001  # about one loop on an idle 2-core x86-64 VM, Python 3.11
EVERY_S = 0.05
WINDOW_S = 0.25
NEAREST = 3


def _chunk(n: int = CHUNK_ITERS) -> int:
    table = {}
    acc = 0
    for i in range(n):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return acc


class Speed:
    """Calibration loop timings over one run, in time order."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # total time inside calibration loops
        self.last = -math.inf

    def tick(self) -> None:
        t0 = time.perf_counter()
        _chunk()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self.last = t1

    def maybe_tick(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.tick()

    @contextmanager
    def sampling(self):
        """Calibrate every EVERY_S seconds from SIGALRM while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def stop(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """The interval since `mark` as (start, end, calibration time inside it)."""
        return mark[0], time.perf_counter(), self.spent - mark[1]

    def normalized(self, t0: float, t1: float, inside: float) -> float:
        """Length of the interval without calibration, at the reference speed."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if hi - lo < NEAREST:
            at = bisect.bisect_left(self.mids, (t0 + t1) / 2)
            lo, hi = max(0, at - NEAREST), min(len(self.mids), at + NEAREST)
        local = statistics.median(self.durations[lo:hi])
        return (t1 - t0 - inside) * REFERENCE_CHUNK_S / local


def raw(t0: float, t1: float, inside: float) -> float:
    """Length of the interval without calibration, as measured."""
    return t1 - t0 - inside

"""Process CPU time scaled to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed changes by up to
1.6x for seconds or minutes at a time, as other tenants load the host, and
whose vCPU the host sometimes takes away (steal time). No statistic taken
inside one run removes a change that outlasts the run, so the end-to-end
times are corrected for both:

- They are process CPU time, not wall time, so time the vCPU was taken
  away is left out. The benchmark is single-threaded and waits on nothing
  but the CPU, so its CPU time is otherwise its wall time.
- They are scaled by the speed the CPU had while they were measured.

``SpeedClock.start`` arms a timer signal that runs a fixed probe in the
main thread every ``INTERVAL_S`` and records how long the probe took. The
probe indexes a numpy array element by element in an interpreted loop,
as the interpreted flow kernel does. The scaled time of an interval is
its CPU time, less the probe time spent inside it, times
``PROBE_NOMINAL_S`` over the trimmed mean probe time around the interval.
The probe never calls ghtree: a change to the program moves the scaled
time as much as the CPU time, while a change of machine speed moves the
probe as well and cancels out. The probe and the operations share the
main thread; probing costs about 1% of the operation's time.

``PROBE_NOMINAL_S`` is a fixed constant near the probe's trimmed mean
time on the 2-vCPU x86-64 VM the bounds were set on, where the probe took
45 to 95 us, so that scaled seconds are of the order of CPU seconds
there. A probe with a working set of megabytes tracked the machine worse:
with a busy loop or a memory copy on the other vCPU, a private build's
wall time rose 14% and 7%, its time scaled by this probe 3% and 2%, by
the larger probe 16% and 7%.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

INTERVAL_S = 0.01
PROBE_NOMINAL_S = 50e-6
# Fewest probes an interval's speed is taken over; shorter intervals
# borrow probes from just before and after them.
MIN_PROBES = 40
# Share of the slowest probes left out of an interval's mean: a probe the
# hypervisor preempts reads many times its length, while the same pause
# is a small share of the interval it lands in.
TRIM = 0.2

_DATA = np.arange(64, dtype=np.int64)


def _probe() -> int:
    total = 0
    for i in range(200):
        total += _DATA[i & 63] * 3 % 7
    return total


class Mark(NamedTuple):
    wall: float
    cpu: float
    probe_s: float
    probes: int


class SpeedClock:
    """Timer-sampled machine speed; single-threaded, one per process."""

    def __init__(self):
        self.probes: list[float] = []
        self.probe_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        _probe()
        elapsed = time.process_time() - start
        self.probes.append(elapsed)
        self.probe_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), time.process_time(), self.probe_s, len(self.probes))

    def factor(self, a: Mark, b: Mark) -> float:
        """PROBE_NOMINAL_S over the trimmed mean probe time around [a, b].

        1.0 on a clock that was never started, so that scaled time is
        then plain CPU time.
        """
        if not self.probes:
            return 1.0
        lo, hi = a.probes, b.probes
        short = MIN_PROBES - (hi - lo)
        if short > 0:
            lo = max(0, lo - (short + 1) // 2)
            hi = min(len(self.probes), lo + MIN_PROBES)
            lo = max(0, hi - MIN_PROBES)
        window = sorted(self.probes[lo:hi])
        return PROBE_NOMINAL_S / statistics.fmean(window[: max(1, round(len(window) * (1 - TRIM)))])

    def scaled(self, a: Mark, b: Mark) -> float:
        """CPU seconds from a to b without the probes, at nominal speed."""
        return (b.cpu - a.cpu - (b.probe_s - a.probe_s)) * self.factor(a, b)

"""How fast the host runs Python code right now, sampled inside an invocation.

On a shared host the same deterministic invocation takes from 1x to 1.5x its
quiet time, depending on what the other tenants run, in spells of tens of
seconds to minutes; CPU time rises with wall time, so the guest cannot tell
the difference from its own clocks.  A :class:`Sampler` runs a fixed
calibration loop every TICK_S of wall time, from a ``SIGALRM`` handler in
the invocation's own thread, so it meets the same contention as the program
at that moment.  The pace of an invocation is the mean duration of the loop
divided by CAL_REF_S, its duration on a quiet vCPU; a time divided by its
invocation's pace is the time the invocation would have taken on a quiet host.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

TICK_S = 0.1
#: the calibration loop on a quiet vCPU (Intel Xeon, 2 vCPUs, Python 3.11.7)
CAL_REF_S = 0.002


def calibration_loop() -> None:
    """Fixed work of the kinds the program does: Fraction arithmetic, small dicts and tuples."""
    s = 0
    for i in range(1, 400):
        s += Fraction(1, i % 97 + 1) * (i % 13 + 1)
        _d = {j: (j, i) for j in range(i % 9)}


class Sampler:
    """Times :func:`calibration_loop` once at start and then every TICK_S.

    The garbage collector is paused during the loop, so a collection of the
    program's heap is never charged to a sample.  ``on_sample(duration)``, if
    set, is told the duration of each sample.
    """

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.on_sample = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_loop()
        duration = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.count += 1
        self.total += duration
        if self.on_sample is not None:
            self.on_sample(duration)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.001, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def pace(self) -> float:
        """Mean loop duration over CAL_REF_S; 1.0 is a quiet host."""
        return self.total / self.count / CAL_REF_S

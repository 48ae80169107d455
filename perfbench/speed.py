"""Timing in reference seconds: wall time with the machine's speed taken out.

The machine these figures come from runs a fixed loop anywhere from 1x to
2x its fastest time, switching within seconds, with slow and fast spells
that last minutes, and the slowdown shows in the process's CPU time as
much as in its wall time.  A wall time taken alone therefore measures the
machine as much as the program.

``Meter.time`` runs a piece of work while a timer signal interrupts it
every ``TICK_S`` seconds to run a probe, a fixed loop of under a
millisecond that never calls robinwall; one more probe runs right after
the work.  The work's reference time is its wall time (the probes' own
time taken out) divided by the mean probe time over the work, multiplied
by the probe's reference time.  A change to robinwall moves the work but
not the probe, so it still shows in full.

Set-up is timed with ``probe_python``, which needs no numpy, so it can
run before robinwall and numpy are imported; the workloads' ops with
``probe_mixed``, whose Python floats and small numpy calls slow down with
the machine more like robinwall's own code does.
"""

import math
import signal
import statistics
import time

# fixed constants near each probe's time on a 2 GHz Xeon; they set the unit:
# a reference second is a second of wall time at that speed
REF_PYTHON_S = 0.001
REF_MIXED_S = 0.00062
TICK_S = 0.05


def probe_python() -> float:
    """Wall time of a fixed pure-Python float loop, in seconds (~1 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 4000):
        x = i * 1e-3
        acc += math.sqrt(x) * math.exp(-x) + x * x / (1.0 + x)
    return time.perf_counter() - t0


_X = None


def probe_mixed() -> float:
    """Wall time of a fixed loop of Python floats and small numpy calls,
    the mix robinwall's level sums are made of, in seconds (~0.7 ms)."""
    global _X
    import numpy as np
    if _X is None:
        _X = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 2000):
        x = i * 1e-3
        acc += math.sqrt(x) * math.exp(-x) + x * x / (1.0 + x)
    for _ in range(20):
        acc += float(np.sum(np.exp(-_X) * _X))
    return time.perf_counter() - t0


class Meter:
    """Times callables in reference seconds.  One at a time, main thread
    only: it owns SIGALRM while it lives."""

    def __init__(self, probe=probe_python, ref_s=REF_PYTHON_S):
        self._probe = probe
        self._ref_s = ref_s
        self._armed = False
        self._ticks: list[float] = []
        signal.signal(signal.SIGALRM, self._on_tick)
        self._last = statistics.median(probe() for _ in range(3))
        self.probes = [self._last]   # every probe time, for the summary line

    def _on_tick(self, signum, frame):
        if self._armed:
            self._ticks.append(self._probe())

    def time(self, fn):
        """(wall s, reference s, fn's return value).  The probe run after
        ``fn`` also opens the next call's window."""
        self._ticks = []
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._armed = False
        ticks = self._ticks
        after = self._probe()
        speed = statistics.fmean([self._last, *ticks, after])
        self._last = after
        self.probes += [*ticks, after]
        wall = elapsed - sum(ticks)
        return wall, wall * self._ref_s / speed, out

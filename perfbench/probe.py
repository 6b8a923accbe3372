"""Host-speed probe: rescales a measured span to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a third within
minutes as other tenants come and go, and every timing drifts with it.
While a span runs, a SIGALRM every INTERVAL_S seconds times a fixed set of
small units of work, each the best of UNIT_REPS repetitions on data that
fits the core's own caches, so the program's working set barely moves
them.  The units mix what the workloads do: integer and float interpreter
loops, object and dict work, and, once numpy is loaded, small-array calls
and a cache-sized reduction.  A tick covers the time since the previous
tick, during which the host ran at (sum of the units' reference times) /
(sum of their measured times) of the reference speed.  The span at
reference speed is the sum over ticks of covered time times that ratio;
time spent in the probe itself is left out.  A tick that falls inside a
long C call runs when the call returns, and its reading stands for the
whole gap.

Code whose speed drifts by another factor than the units' is only partly
corrected.  The interpreter units use only the standard library, so the
probe can run while the program is still being imported.
"""

import math
import signal
import time

INTERVAL_S = 0.1
UNIT_REPS = 3


class _Point:
    def __init__(self, v):
        self.v = v

    def scale(self, x):
        return self.v * x + 1.0


def _int_unit():
    s = 0
    for i in range(1500):
        s += i * i
    return s


def _float_unit():
    s = 0.0
    for i in range(300):
        s += math.sqrt(i + 0.5) * math.exp(-i * 1e-3)
    return s


def _object_unit():
    d, p, acc = {}, _Point(0.5), []
    for i in range(150):
        d[i & 31] = (i, str(i))
        acc.append(p.scale(float(i)))
    acc.sort(reverse=True)
    return len(d) + sum(acc[:10])


# (unit, its time on the reference host: a round figure near its best time
# on a lightly loaded 2-vCPU Xeon (Sapphire Rapids) VM, in seconds)
PY_UNITS = ((_int_unit, 100e-6), (_float_unit, 55e-6), (_object_unit, 45e-6))


def numpy_units():
    """PY_UNITS plus small-array numpy calls and a 2 MB reduction."""
    import numpy as np

    a, b, big = np.ones(64), np.ones(64), np.ones(1 << 18)

    def small_arrays():
        s = 0.0
        for _ in range(15):
            s += float(np.add(a, b).sum())
        return s

    def reduction():
        return float(big.sum())

    return PY_UNITS + ((small_arrays, 30e-6), (reduction, 100e-6))


def _best(unit):
    best = float("inf")
    for _ in range(UNIT_REPS):
        t0 = time.perf_counter()
        unit()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Use as ``with SpeedProbe(units) as p: ...``; then ``p.ref_s()``."""

    def __init__(self, units=PY_UNITS):
        self.units = units
        self.ref_unit_s = sum(ref for _, ref in units)
        self.covered = []  # seconds of the span each tick stands for
        self.speeds = []  # the speed that tick measured, as a share of the reference
        self.probe_s = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.covered.append(t0 - self._last)
        self.speeds.append(self.ref_unit_s / sum(_best(unit) for unit, _ in self.units))
        self._last = time.perf_counter()
        self.probe_s += self._last - t0

    def __enter__(self):
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False

    def ref_s(self):
        """Seconds the span, less the probe's own time, takes at reference speed."""
        return sum(c * s for c, s in zip(self.covered, self.speeds))

    def speed(self):
        """Mean speed over the span as a share of the reference speed."""
        return self.ref_s() / sum(self.covered)

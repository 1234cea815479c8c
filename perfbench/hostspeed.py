"""Host-speed sampling: corrects timings for the drift of a shared host.

On a shared machine the speed of pure-Python code drifts by 30-60% over
seconds to minutes, in CPU time as much as in wall time, and for every kind
of interpreter work alike (on a 2-vCPU Intel Xeon VM a fixed Fraction loop
ran anywhere between 10.7 and 17.6 ms in 10-s windows of one 150-s run). A
run's time then depends more on when it ran than on the code it ran.

While a ``Sampler`` is active, a SIGALRM handler times a short fixed loop of
interpreter work every ``INTERVAL_S``, in the benchmark's only thread. The
loop uses the standard library only (big-integer arithmetic and gcd, tuple
hashing into a dict, string formatting), so no change to the package can
change it, and it runs with the cyclic collector off, so the size of the
program's heap does not change it either. ``clock()`` is ``perf_counter()``
less the time spent probing, so probes never count in a measured span; a
span's corrected time is its ``clock()`` time divided by the median slowdown
(probe time over ``NOMINAL_S``) of the probes taken while it ran, widened
to the nearest ``MIN_SAMPLES`` for short spans:

    corrected_s = clock_s / median(probe_s / NOMINAL_S)

that is, the time the span would take on a host running the probe in
``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from math import gcd
from statistics import median
from time import perf_counter

INTERVAL_S = 0.02
PROBE_ROUNDS = 300  # two restarts of the harmonic sum below
# The probe's typical time on a 2-vCPU Intel Xeon VM with CPython 3.11.
NOMINAL_S = 0.0005
MIN_SAMPLES = 16

_spent = 0.0  # seconds spent in probes so far


def clock():
    """``perf_counter()`` less the time spent probing."""
    return perf_counter() - _spent


def _probe_work(rounds):
    table = {}
    parts = []
    num, den = 0, 1
    for k in range(rounds):
        j = k % 150 + 1  # a harmonic sum restarted every 150 terms: 1 to ~210 bits
        if j == 1:
            num, den = 0, 1
        num, den = num * j + den, den * j
        g = gcd(num, den)
        num, den = num // g, den // g
        key = (j, num & 1023, den & 255)
        table[key] = table.get(key, 0) + 1
        if k % 8 == 0:
            parts.append(f"{num % 1000003}:{len(table)}")
            if len(parts) > 64:
                del parts[:32]
    return len(table) + len(parts)


def probe(rounds=PROBE_ROUNDS):
    """Seconds the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _probe_work(rounds)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self):
        self.times = []  # probe starts, on the clock() scale
        self.slowdowns = []  # probe seconds over NOMINAL_S
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        global _spent
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.times.append(start - _spent)
        self.slowdowns.append(probe() / NOMINAL_S)
        _spent += perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start, end):
        """Median slowdown of the probes taken between clock() readings
        ``start`` and ``end``, widened to the nearest MIN_SAMPLES."""
        n = len(self.times)
        if n == 0:
            return 1.0
        i, j = bisect_left(self.times, start), bisect_right(self.times, end)
        while j - i < min(MIN_SAMPLES, n):
            before = self.times[i - 1] if i > 0 else None
            after = self.times[j] if j < n else None
            if after is None or (before is not None and start - before <= after - end):
                i -= 1
            else:
                j += 1
        return median(self.slowdowns[i:j])

    def corrected(self, start, end):
        """Seconds between clock() readings ``start`` and ``end``, at the
        nominal host speed."""
        return (end - start) / self.slowdown(start, end)

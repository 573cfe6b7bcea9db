"""Host-speed sampling, so that times taken on a shared host can be compared.

On a small virtual machine that shares its cores with other tenants, the same
code runs up to about 1.6 times slower for seconds to minutes at a time, and
CPU time slows with wall time, so neither is steady from run to run.  While
requests run, ``HostSpeed`` times a fixed pure-Python kernel, independent of
blockenc, from a SIGALRM interval timer (and a few times before and after, to
cover short requests).  A request's measured time is then scaled by
``NOMINAL_S / median kernel time during the request``: seconds at a fixed
host speed.  The time spent in the timer's handler is left out of the
requests' measured time (``overhead``).

The kernel only measures the host; a change to blockenc moves the scaled time
exactly as it moves the measured time.  Needs SIGALRM and ``setitimer``
(POSIX).
"""
from __future__ import annotations

import signal
import statistics
import time

KERNEL_LOOPS = 10_000
# The kernel's typical time on a 2-vCPU x86-64 Xeon VM with Python 3.11.
# Only a scale: it makes scaled seconds read close to wall seconds there.
NOMINAL_S = 0.0009
INTERVAL_S = 0.05
EDGE_SAMPLES = 3


def _kernel():
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the kernel's time while the ``with`` block runs."""

    def __init__(self):
        self.samples = []       # kernel seconds, in the order taken
        self.overhead = 0.0     # seconds spent in the timer's handler
        self._previous = None

    def sample(self):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.overhead += time.perf_counter() - start

    def mark(self):
        """Start a new interval: samples from here on belong to it."""
        first = len(self.samples)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        return first

    def factor(self, first):
        """Scale factor of the interval that ``mark`` returned ``first`` for."""
        for _ in range(EDGE_SAMPLES):
            self.sample()
        return NOMINAL_S / statistics.median(self.samples[first:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

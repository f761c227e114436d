"""Host speed, sampled by a fixed reference computation while work runs.

The benchmark runs on a few cores of a shared host.  Each core switches,
every few seconds, between a fast and a slow state (about 1.5x slower,
whatever runs on it), and the share of time spent slow drifts over
minutes, so one wall time says as much about the neighbours as about the
program.  A short fixed computation that uses no repository code (the
*probe*: dictionary updates in the interpreter, then bitwise numpy
passes over a small word array) runs from a timer signal every
``INTERVAL_S`` while the workload runs, on the same core: the worker
pins itself and its children to one CPU.  Each probe's time against
``PROBE_REF_S`` tells how slow the core was at that moment, so a timed
interval converts to *reference seconds*, the time it would have taken
on the reference host, quiet:

    ref = net wall time x mean(PROBE_REF_S / probe time)

over the probes inside the interval (the latest earlier probe when the
interval holds none; a signal waits for a running C call to return).
Net wall time leaves out the probes' own time.  Raw wall times are kept
beside the reference ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager

import numpy as np

#: Median probe time on the reference host: a 2-core x86-64 VM with
#: Python 3.11 and numpy 2.4, quiet.
PROBE_REF_S = 0.0008
#: Timer period of the in-work probe.
INTERVAL_S = 0.05
#: Probes run and discarded before sampling starts.
WARMUP = 50

_WORDS = np.random.default_rng(20240601).integers(0, 2**63, size=(64, 128), dtype=np.uint64)


def probe() -> float:
    """Wall time of one run of the reference computation (about 1 ms).

    The collector is paused, so the program's heap cannot change the
    probe's cost.  Keys are ints, whose hashes do not depend on
    ``PYTHONHASHSEED``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(1500):
            key = (i * 7919) % 503, i & 15
            counts[key] = counts.get(key, 0) + 1
        words = _WORDS
        for _ in range(10):
            words = (words | np.roll(words, 1, axis=1)) & _WORDS
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe samples, taken from ``SIGALRM`` while :meth:`sampling` is active."""

    def __init__(self) -> None:
        for _ in range(WARMUP):
            probe()
        #: Start time of each probe and its duration, in time order.
        self.starts: list[float] = []
        self.times: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(probe())
        self.starts.append(start)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def convert(self, start: float, end: float) -> tuple[float, float]:
        """``(net wall seconds, reference seconds)`` of ``[start, end)``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.times[lo:hi]
        net = end - start - sum(inside)
        used = inside or self.times[max(lo - 1, 0) : lo]
        if not used:
            return net, net
        return net, net * sum(PROBE_REF_S / t for t in used) / len(used)

    def factor(self, start: float, end: float) -> float:
        """Mean slowness against the reference host over ``[start, end)``."""
        net, ref = self.convert(start, end)
        return net / ref if ref else 1.0

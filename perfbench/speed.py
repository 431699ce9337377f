"""Scaling of measured times to one reference interpreter speed.

On the shared 2-vCPU host the benchmark was written on, the speed of a
single-threaded Python process drifts by up to ~50% over seconds to minutes
(identical ``tables_rows(200)`` passes took 1.2 s to 2.3 s within a quarter
of an hour, with no CPU time stolen), so medians of raw wall times from two
runs a few minutes apart disagree by more than any useful bound.  A fixed
piece of pure-Python work (``probe``) slows down with the program, so timing
it while the program runs measures the host's speed of the moment.
``Sampler.run`` interrupts a call every ``INTERVAL_S`` with ``SIGALRM`` and
times one probe in the handler.  The pass's scaled time is its wall time
without the probes, multiplied by the mean of ``REFERENCE_PROBE_S / probe
time`` over the samples taken during it.

A scaled time is the time the work would have taken on a host where one
probe takes ``REFERENCE_PROBE_S``, about the probe time of the landing host
at its fastest.  The probes run only benchmark code, so a change to the
package moves scaled times as it moves wall times.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0002


def probe() -> int:
    """A fixed mix of the interpreter's common work: loops, small-integer
    arithmetic, tuples and dictionary lookups (~0.2-0.3 ms)."""
    acc = 0
    table = {}
    for i in range(400):
        key = (i, i ^ 5)
        table[key] = i * i % 97
        acc += table.get((i - 1, (i - 1) ^ 5), 0)
    return acc


def _probe_seconds() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def _scale(samples: list[float]) -> float:
    return statistics.fmean(REFERENCE_PROBE_S / s for s in samples)


class Sampler:
    """Times calls while sampling the interpreter's speed under them."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_probe_seconds())

    def run(self, fn):
        """Call ``fn()``; return (its result, wall s without the probes,
        scaled s).  ``probe_s`` is then the time the probes took."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self.probe_s = sum(self.samples)
        wall -= self.probe_s
        if not self.samples:
            # A call shorter than one interval: sample right after it.
            self.samples.append(_probe_seconds())
        return result, wall, wall * _scale(self.samples)


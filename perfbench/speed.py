"""Host-speed calibration of wall times.

On a shared host the CPU speed can move by half again within seconds and
stay at one level for a minute, so wall times of the same work differ
between runs by more than the benchmark's bounds. ``SpeedProbe`` runs a
fixed reference loop (Python bytecode plus small numpy operations, the mix
the package spends its time on) before and after each measured operation,
and every ``interval`` seconds while it runs, from a SIGALRM handler in the
main thread. An operation's calibrated time is its wall time, less the time
spent in the probe, scaled by ``NOMINAL_REF_S`` over the mean reference time
seen while it ran: the seconds it would take on a host that runs the loop in
``NOMINAL_REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Reference-loop time that calibrated seconds are expressed against: about
# the loop's time on a 2-vCPU x86-64 host (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31) in its faster state.
NOMINAL_REF_S = 0.002

_A = np.random.default_rng(0).standard_normal((32, 64))
_W = np.random.default_rng(1).standard_normal((64, 64)) * 0.1
_I = np.arange(8)


def reference_loop() -> float:
    """A fixed amount of work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    x = _A
    for _ in range(30):
        x = np.tanh(x @ _W)
    for t in range(120):
        freqs = t / np.power(10000.0, 2.0 * _I / 16)
        emb = np.empty(16)
        emb[0::2] = np.sin(freqs)
        emb[1::2] = np.cos(freqs)
    rng = np.random.default_rng(0)
    for _ in range(200):
        rng.standard_normal(5)
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference-loop samples taken around and during measured operations."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples = array("d")
        self.busy = 0.0  # seconds spent in the probe so far
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.busy += time.perf_counter() - t0
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # an alarm inside a sample would inflate it
            self.sample()

    @contextmanager
    def running(self):
        """Sample every ``interval`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn, *args, **kwargs):
        """Run ``fn``; returns (result, wall seconds, calibrated seconds).
        The wall time excludes the probe's own samples."""
        first = len(self.samples)
        self.sample()
        busy0 = self.busy
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0 - (self.busy - busy0)
        self.sample()
        ref = statistics.fmean(self.samples[first:])
        return out, wall, wall * NOMINAL_REF_S / ref

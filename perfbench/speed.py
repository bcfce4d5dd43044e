"""Machine-speed normalisation for the benchmark's timings.

This benchmark runs on shared machines whose speed for the same Python work
drifts by about +-20% over tens of seconds (measured on a 2-core container:
a fixed pure-Python loop took 75 to 118 ms from one second to the next). A
run of a whole sweep therefore mostly measures the neighbours. To take that
common-mode drift out, a SIGALRM timer interrupts the measured code every
PERIOD_S seconds and times a fixed pure-Python probe loop in the same thread.
A measured interval is then reported as

    (raw seconds - probe seconds inside it) * REFERENCE_PROBE_S / mean probe

where the mean is over the probes in the interval widened by MARGIN_S on each
side: seconds of work at the reference probe speed. The probe depends on
nothing in the program, so a change to the program moves the normalised time
exactly as it moves the raw time, while a slower machine moves both the
interval and the probe. Raw times are printed next to the normalised ones.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
MARGIN_S = 0.5
PROBE_LOOPS = 2000
# probe seconds on an unloaded 2-core x86 container; only fixes the scale
REFERENCE_PROBE_S = 2e-4


def _probe() -> int:
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe:
    """Context manager that samples the probe's duration while active."""

    def __init__(self):
        self._start: list[float] = []
        self._length: list[float] = []
        self._saved = None
        self._times = np.zeros(0)
        self._lengths = np.zeros(0)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self._start.append(start)
        self._length.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._times = np.array(self._start)
        self._lengths = np.array(self._length)

    @property
    def samples(self) -> int:
        return len(self._times)

    def raw(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probes. Call after the block."""
        inside = (self._times >= start) & (self._times < end)
        return (end - start) - float(self._lengths[inside].sum())

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time near [start, end]."""
        near = (self._times >= start - MARGIN_S) & (self._times < end + MARGIN_S)
        if not near.any():
            raise ValueError("no speed samples near the interval; was it inside the probe's block?")
        return REFERENCE_PROBE_S / float(self._lengths[near].mean())

    def normalise(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probes, at reference speed."""
        return self.raw(start, end) * self.scale(start, end)

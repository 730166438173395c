"""A fixed numpy task, independent of actf, that gauges how fast the machine runs right now.

On a shared machine the same code runs up to ~1.7x slower for minutes at a
time, because of other tenants. The benchmark reads the probe before and
after every timed segment (a `fit`, an `evaluate`, a burst of branch calls,
a set-up) and divides the segment's time by the mean of the two readings
over the reference reading. Measured on this benchmark's own branch calls,
that cut the spread of 20-second medians from 0.107 to 0.031 (coefficient of
variation, 10 windows). Both the scaled and the timed figures are printed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's median reading on the reference machine (see README.md).
REFERENCE_S = 0.008


class SpeedProbe:
    """Mixes what the workloads spend their time on: Python-level calls on small
    arrays, a BLAS matmul, real FFTs and streaming elementwise work. One
    reading is the median of five repetitions (~40 ms in all)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(64)
        self.a, self.b = rng.standard_normal((1152, 64)), rng.standard_normal((64, 256))
        self.x = rng.standard_normal((49, 3840))
        self.y = rng.standard_normal(1 << 18)
        self.readings = []
        self._last = None

    def _once(self):
        t0 = time.perf_counter()
        v = self.small
        for _ in range(300):
            v = np.tanh(v + 0.5 * v)
        for _ in range(2):
            self.a @ self.b
            np.fft.irfft(np.fft.rfft(self.x, axis=-1), n=self.x.shape[1], axis=-1)
            (self.y * 1.5 + self.y).sum()
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Read the probe; return the slowdown since the previous mark.

        The slowdown is the mean of the two readings over REFERENCE_S: a time
        divided by it is the time at the reference speed.
        """
        reading = statistics.median(self._once() for _ in range(5))
        self.readings.append(reading)
        previous, self._last = self._last, reading
        if previous is None:
            return reading / REFERENCE_S
        return (previous + reading) / (2 * REFERENCE_S)

    def at_reference(self, seconds, since):
        """`seconds` at the reference speed, by the median reading from index `since` on."""
        return seconds * REFERENCE_S / statistics.median(self.readings[since:])

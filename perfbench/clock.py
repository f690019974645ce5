"""Timing corrected for the speed of a shared machine.

On a machine shared with other tenants the same pure-Python work can run 1.5x
slower for tens of seconds at a time, which swamps the differences a benchmark
has to resolve. SpeedClock samples the machine's speed while the work runs:
a SIGALRM timer interrupts the main thread every PERIOD_S seconds and runs a
fixed reference kernel (exact arithmetic and set work in pure Python, with no
call into the package) and records how long it took. A timed interval reports

  raw_s        its wall time minus the time spent in the sampler, and
  corrected_s  raw_s * NOMINAL_REF_S / (median reference time in the interval),

that is, the time the work would take on a machine that runs the reference
kernel in NOMINAL_REF_S. A change to the package moves corrected times the
way it moves raw ones; a change in the machine's speed moves both the work
and the kernel, and cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.03
NOMINAL_REF_S = 1.2e-3  # about the kernel's time on an unloaded 2.0 GHz Xeon vCPU; sets the scale only
MIN_SAMPLES = 20  # short intervals borrow the most recent samples before them


_TABLEAU = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 4) for j in range(8)] for i in range(6)]


def reference_kernel() -> int:
    """Fixed work like the package's exact simplex: Gauss-Jordan pivoting on a
    small rational tableau, then a set of sign-mask pairs."""
    m = [row[:] for row in _TABLEAU]
    for c in range(6):
        p = next((i for i in range(c, 6) if m[i][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for i in range(6):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    pairs = set()
    for a in range(30):
        for b in (1, 2, 4):
            pairs.add(((a * 37) & 255 | b, (a * 11) & 255 & ~b))
    return len(pairs)


class SpeedClock:
    """Use as a context manager; while it is open, start()/stop() time intervals."""

    def __init__(self):
        self.samples: list[float] = []  # reference kernel durations
        self.sampler_s = 0.0  # total time spent in the sampler
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.sampler_s += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.sampler_s, len(self.samples)

    def stop(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(raw_s, corrected_s) of the interval that start() opened."""
        t1, sampler_s, k1 = time.perf_counter(), self.sampler_s, len(self.samples)
        t0, sampler0, k0 = mark
        raw = (t1 - t0) - (sampler_s - sampler0)
        window = self.samples[min(k0, k1 - MIN_SAMPLES):k1]
        return raw, raw * NOMINAL_REF_S / statistics.median(window)

"""Reference seconds: wall time corrected for the machine's changing CPU speed.

On the shared 2-vCPU machine the benchmark was built on, the same
single-threaded Python work runs at speeds up to 2x apart, in states that
last from a second to many minutes and differ between the two vCPUs.  Raw
wall times of identical runs therefore spread by 30-50%.

``SpeedProbe`` times a fixed calibration loop every ``PERIOD_S`` seconds,
inside the measured process, from a SIGALRM handler.  ``reference_seconds``
then takes a wall-clock interval, removes the calibration runs from it, and
scales each stretch between two calibration runs by ``NOMINAL_S`` over their
mean duration: the result is the time the interval would have taken at the
speed at which the calibration loop takes ``NOMINAL_S``.  A change that
makes sturmlab slower leaves the loop's time alone, so it shows in full.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.25
# Fastest steady time of calibration_loop() on the shared 2-vCPU machine above.
NOMINAL_S = 0.0023


def calibration_loop() -> int:
    """Fixed interpreter work in sturmlab's mix: ints, Fractions, strings, dicts."""
    total = 0
    table = {}
    for i in range(1, 600):
        x = Fraction(i, i % 7 + 2) + Fraction(1, 3)
        total += x.numerator * i % 11
        table[format(i, "b")] = total
    return total + len(table)


class SpeedProbe:
    """Context manager recording (start, duration) of periodic calibration runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.monotonic()
        calibration_loop()
        self.samples.append((start, time.monotonic() - start))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False


def reference_seconds(start: float, end: float, samples) -> float:
    """Time of [start, end] outside calibration runs, at the nominal speed."""
    samples = sorted(samples)
    total = 0.0
    for i in range(len(samples) + 1):
        before = samples[i - 1] if i > 0 else None
        after = samples[i] if i < len(samples) else None
        gap_start = max(start, before[0] + before[1]) if before else start
        gap_end = min(end, after[0]) if after else end
        if gap_end <= gap_start:
            continue
        durations = [s[1] for s in (before, after) if s is not None]
        total += (gap_end - gap_start) * NOMINAL_S * len(durations) / sum(durations)
    return total

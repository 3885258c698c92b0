"""Machine-speed calibration.

On a shared machine the CPU speed a process sees drifts by tens of
percent from minute to minute, and every wall-clock metric drifts with
it.  A :class:`Speedometer` times a fixed pure-Python loop, with
``time.thread_time`` so being descheduled does not count, and the run
reports every time scaled to a reference speed: multiplied by
``REFERENCE_S / median(loop seconds)``.

Samples are taken only at quiet points outside every timed region:
between set-ups, between compiles, and between the slices of a
serve-mix window once every request has returned and every worker has
been reaped.  No code of the repository runs while the loop is timed,
so a change to the compiler cannot move the scale.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Iterations of the calibration loop (~2 ms).
LOOP = 20_000
#: Calibration loops per second of measured time (see ``sample_for``).
SAMPLES_PER_S = 5
#: Loop time that defines the reference speed: about this loop's median
#: on an idle 2-vCPU x86-64 cloud VM with CPython 3.11.
REFERENCE_S = 0.0015


def _loop_seconds() -> float:
    start = time.thread_time()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return time.thread_time() - start


class Speedometer:
    """Calibration samples taken where the caller says nothing else runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(_loop_seconds())

    def sample_for(self, seconds: float) -> None:
        """Sample once, plus ``SAMPLES_PER_S`` times per second of the
        measured stretch this quiet point follows, so the median weighs
        each stretch of the run by its length."""
        self.sample(1 + int(seconds * SAMPLES_PER_S))

    @property
    def scale(self) -> float:
        """Factor that turns a measured time into reference-speed time."""
        return REFERENCE_S / statistics.median(self.samples)

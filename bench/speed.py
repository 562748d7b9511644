"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its host with other work, and the speed of one process
drifts by 20-40 % within minutes as that load changes.  A fixed exact-rational
kernel, the kind of arithmetic that dominates the program, is timed between
operations.  Each measured time is multiplied by ``NOMINAL_S`` over the mean
kernel time just before and just after it, so it reads in seconds at the speed
at which the kernel takes ``NOMINAL_S`` (about the quiet speed of a 2-vCPU
Xeon container).  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

NOMINAL_S = 0.050
KERNEL_REPEATS = 20
EVERY_S = 0.5

_ROWS = [tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(6)) for i in range(12)]


def _kernel() -> Fraction:
    acc = Fraction(0)
    for r1 in _ROWS:
        for r2 in _ROWS:
            acc += sum(a * b for a, b in zip(r1, r2))
    return acc


class Speed:
    """Kernel timings taken during a run, by the time they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        # the collector would make the kernel pay for the program's heap
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(KERNEL_REPEATS):
                _kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(end)
        self.kernel_s.append(end - start)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured from ``start`` to ``end`` (perf_counter)."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return 2 * NOMINAL_S / (self.kernel_s[before] + self.kernel_s[after])

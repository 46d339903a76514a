"""The host's speed, sampled between the operations of a pass.

The benchmark shares a host whose speed drifts: the same pass took 6.6 s and
10.6 s within minutes on a 2-CPU Xeon VM, with no steal time reported and
CPU time equal to wall time.  A fixed kernel that uses the package's kinds of
work (Fraction arithmetic and dict updates, a Python float loop, numpy
searchsorted and masks over a scan-sized block) is timed in the measured
process about once a second of a pass.  Its times, against REF_S, scale a
pass's wall time to the speed the host had when REF_S was taken.  The kernel
uses nothing from fricke_orbits, so a change to the package cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List

import numpy as np

# Median seconds of one slice on a quiet 2-CPU Xeon VM (Python 3.11, numpy 2.4).
REF_S = 0.055
# Seconds of a pass between two slices.
EVERY_S = 1.0

_RNG = np.random.default_rng(0)
_BLOCK = _RNG.random(1 << 16)
_TABLE = np.sort(_RNG.random(20_000))


def kernel() -> float:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 700):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        seen[i % 331] = acc.numerator % 7919
    x = 0.1
    for _ in range(20_000):
        x = (x * 1.0000001 + 0.3) % 2.0
    a = _BLOCK
    for _ in range(4):
        k = np.minimum(np.searchsorted(_TABLE, a), len(_TABLE) - 1)
        near = (np.abs(a - _TABLE[k]) < 1e-3) & (a > 0.2)
        a = np.where(near, a * 0.5, a)
    return x + float(a[0]) + len(seen)


class Calibrator:
    """Slices of the kernel, taken at most every EVERY_S seconds."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -float("inf")

    def slice(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def between(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.slice()

    def scale(self) -> float:
        """Factor from this process's seconds to reference-host seconds."""

        return REF_S * len(self.samples) / sum(self.samples)

"""Calibration loop: the machine's speed at the moment a job runs.

On a shared host the same job can take 1.5x longer for tens of seconds at a
time (another tenant on the sibling hardware thread), so raw wall time swings
between runs far more than any change worth detecting.  The benchmark
therefore times a fixed calibration loop just before and just after every job
and scales the job's time by nominal / measured loop time: "calibrated
seconds" are seconds at the speed where the loop takes NOMINAL_S.  Raw times
are printed alongside.

The loop has two halves, because the two kinds of work slow down differently:
one allocates small immutable number objects and hashes them into a dict, as
the Scalar arithmetic, the MITM join and the Bareiss paths do; the other
sorts and uniques int64 arrays, as the sweep kernels do.  The loop does not
use the program, so no change to the program can move it, and the garbage
collector is off inside it, so the program's heap cannot either.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Median loop time on the reference machine (see baseline.json).
NOMINAL_S = 0.009


class _Ratio:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        g = math.gcd(a, b)
        self.a = a // g
        self.b = b // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.a * other.b + other.a * self.b, self.b * other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b


def _py_loop() -> None:
    table: dict = {}
    x = _Ratio(1, 1)
    for i in range(1, 2500):
        x = x + _Ratio(i, 3)
        table[x] = table.get(x, 0) + 1
        if i % 64 == 0:
            x = _Ratio(1, 1)


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._keys = rng.integers(-1000, 1000, size=1 << 15)
        self._pairs = np.stack([self._keys[:4096], self._keys[4096:8192]], axis=1)
        self.sample()  # the first run of the loop warms it up

    def _np_loop(self) -> None:
        np.unique(self._keys, return_counts=True)
        np.unique(self._pairs, axis=0, return_counts=True)

    def sample(self) -> float:
        """Seconds taken by one calibration loop."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _py_loop()
            self._np_loop()
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale from raw to calibrated seconds, from the loop times taken
        just before and just after the timed work."""
        return NOMINAL_S / ((before + after) / 2)

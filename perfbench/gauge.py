"""Machine-speed gauge.

On a shared machine the same code runs up to twice as slowly for spells
of seconds to minutes.  The gauge times a fixed reference kernel, which
does not use the package, every quarter second, and gives the factor
``REFERENCE_S / kernel time`` that turns a latency measured now into the
latency at the reference speed.  The kernel mixes the two kinds of work
the package does: small-matrix numpy calls with Python overhead, and
matrix-vector products on arrays of a few hundred kilobytes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on a 2-core x86 container when it is not slowed.
REFERENCE_S = 0.8e-3
EVERY_S = 0.25
SAMPLES = 5


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal((4, 4)) for _ in range(20)]
        self._Q = rng.standard_normal((230, 441))
        self._w = rng.standard_normal(441)
        self._X = rng.standard_normal((21, 21))
        self._Y = rng.standard_normal((21, 21))
        self.factor = 1.0
        self._last = -float("inf")

    def _kernel(self):
        for m in self._small:
            x = m @ m.T
            np.linalg.norm(x, 2)
            np.linalg.det(x)
            sum(float(v) for v in x.ravel())
        for _ in range(10):
            X = np.array(self._X, dtype=float)
            X @ self._Y - self._Y @ X
            float(np.linalg.norm(self._w - self._Q.T @ (self._Q @ self._w)))

    def refresh(self, force: bool = False) -> float:
        """Re-time the kernel if a quarter second has passed (or ``force``)
        and return the current factor."""
        if force or time.perf_counter() - self._last > EVERY_S:
            times = []
            for _ in range(SAMPLES):
                start = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - start)
            self.factor = REFERENCE_S / statistics.median(times)
            self._last = time.perf_counter()
        return self.factor

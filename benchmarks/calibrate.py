"""A fixed computation, timed between requests, that reads the host's speed.

The hosts this benchmark runs on share their cores with other tenants. Their
load comes in phases of seconds to minutes that slow every request alike; in
one 4-minute stretch the fastest sweep round went from 2.9 s to 5.1 s. A
20 ms kernel run every 0.25 s of request time follows those phases: its
fastest run in the few seconds around a request is the host's speed at that
moment. The kernel mixes what the program spends its time on: an
interpreted double sum like the D_q routes, small complex ``eigh`` calls and
small Cholesky factorizations through scipy's wrappers.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

#: the kernel's fastest time on an idle 2-core x86-64 VM (Python 3.11,
#: numpy 2.4, scipy 1.17); corrected times are scaled to that host
REFERENCE_S = 0.018
#: request time between two kernel runs
INTERVAL_S = 0.25
#: a request is corrected by the fastest kernel run this close to its start
WINDOW_S = 2.0


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = [float(x) for x in rng.uniform(0.01, 1.0, 240)]
        self._b = [float(x) for x in rng.uniform(0.01, 1.0, 240)]
        g = rng.standard_normal((10, 64, 64)) + 1j * rng.standard_normal((10, 64, 64))
        self._herm = [m + m.conj().T for m in g]
        p = rng.standard_normal((1000, 8, 8))
        self._pd = [m @ m.T + 8.0 * np.eye(8) for m in p]
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._since = math.inf

    def run(self) -> None:
        start = time.perf_counter()
        math.fsum([x**1.7 * y**-0.7 for x in self._a for y in self._b])
        for m in self._herm:
            np.linalg.eigh(m)
        for m in self._pd:
            scipy.linalg.cho_factor(m, lower=True, check_finite=False)
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def tick(self, request_s: float) -> None:
        """Run the kernel once every INTERVAL_S of request time."""
        self._since += request_s
        if self._since >= INTERVAL_S:
            self._since = 0.0
            self.run()

    def correct(self, seconds: float, at: float) -> float:
        """``seconds`` measured at perf_counter time ``at``, as the reference
        host would have taken."""
        near = [s for t, s in zip(self.starts, self.samples) if abs(t - at) <= WINDOW_S]
        return seconds * REFERENCE_S / min(near or self.samples)

"""The machine's current speed, measured with a fixed reference computation."""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# median time of the reference computation on a quiet run of a 2-core
# Intel Xeon VM (Python 3.11, NumPy 2.4, OpenBLAS 0.3.31 on 1 thread)
REFERENCE_PROBE_S = 0.40e-3


class Speedometer:
    """How fast the machine runs right now, from a fixed reference computation.

    The benchmark's machine is shared: the same code runs up to twice as
    slow for seconds at a time, and CPU time slows with wall time, so the
    process is not being descheduled but the core itself is slower.  The
    reference computation (an SVD, a JSON dump, an interpreter loop; no
    wmpinv code) is timed every ``GAP_S`` between calls.  ``factor(t)`` is
    ``REFERENCE_PROBE_S`` over the median of the two probes before and
    the two after ``t``; times multiplied by it are times at reference
    speed.  Scaled this way, run-to-run spreads of the median call time
    fell from 30 % to 2 % while the machine was busy.
    """

    GAP_S = 0.03

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._doc = {f"k{i}": list(range(16)) for i in range(32)}
        # bound now, so that a traced run cannot wrap it
        self._svd = np.linalg.svd
        self.at: list = []
        self.took: list = []

    def _reference(self) -> None:
        self._svd(self._m)
        json.dumps(self._doc)
        acc = 0
        for i in range(1500):
            acc += i * i

    def probe(self) -> None:
        at = time.perf_counter()
        # the first runs after a workload call are slowed by what the call
        # left in the caches, by up to 25 % after a dense call; time the third
        self._reference()
        self._reference()
        start = time.perf_counter()
        self._reference()
        self.took.append(time.perf_counter() - start)
        self.at.append(at)

    def tick(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.GAP_S:
            self.probe()

    def factor(self, t: float) -> float:
        j = bisect.bisect(self.at, t)
        return REFERENCE_PROBE_S / statistics.median(self.took[max(0, j - 2) : j + 2])

"""A fixed piece of work that measures the host's current speed.

The host's speed drifts by a quarter and more over seconds to minutes
(other tenants share the machine). The runner times this kernel next to
every batch and scales the batch's time by ``REFERENCE_S`` over the
kernel's time, which turns each measured time into the time it would
have taken on a host where the kernel takes ``REFERENCE_S``. The kernel
mixes what the workloads do: distance and sort passes over a large
array, many numpy calls on tiny arrays, and plain interpreter work. It
does not touch the package, so no change to the package can move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference host, in seconds. It is fixed, so
# scaled figures compare across runs; it is near the kernel's time on the
# 2-core host the reference figures in README.md come from.
REFERENCE_S = 0.03


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random((20000, 5))
        self.small = rng.random((50, 6))

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        for i in range(8):
            diff = self.big - self.big[i]
            np.argsort(np.sqrt(np.einsum("ij,ij->i", diff, diff)), kind="stable")
        for i in range(300):
            gram = self.small @ self.small.T
            float(np.einsum("ij,ij->", gram, gram))
            np.unique(self.small[:, i % 6])
        total = 0
        for i in range(40000):
            total += i * i
        return time.perf_counter() - t0

"""Machine-speed reference for benchmarking on a shared machine.

On a shared machine the same code runs up to 1.8x slower for tens of seconds
at a time (measured by repeating one rendering loop: 116-210 ms). A fixed
kernel owned by the benchmark, timed between measured units, runs slower in
the same phases: over two minutes, the ratio of a rendering unit's time to
the kernel's time around it varied by 4% (interquartile) while the raw unit
time varied by 24%.

A time is converted to reference seconds by ``REFERENCE_S / kernel time``:
the seconds it would have taken on a machine running the kernel in
``REFERENCE_S``. The kernel is not program code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time on a shared 2-core x86-64 machine (OpenBLAS, one thread) in a quiet phase
REFERENCE_S = 0.018


class Speed:
    def __init__(self):
        rng = np.random.default_rng(20240610)
        self._a = rng.standard_normal((96, 96))
        self._x = rng.standard_normal(60_000)
        self._idx = rng.integers(0, 4_000, 60_000)
        self._big = rng.standard_normal(1_000_000)

    def _kernel(self) -> float:
        """The program's mix: small BLAS, elementwise, scatter-add, a
        memory-bound pass and interpreted Python."""
        acc = 0.0
        for _ in range(10):
            b = self._a @ self._a
            y = np.tanh(self._x) * self._x + np.sqrt(np.abs(self._x))
            g = np.zeros(4_000)
            np.add.at(g, self._idx, y)
            big = self._big * 1.0001 + 1.0
            acc += float(b[0, 0] + g[0] + big[0]) + sum(i * 0.5 for i in range(2_000))
        return acc

    def sample(self) -> float:
        """Seconds the kernel takes now: the median of three timings, since
        single timings have spikes."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s

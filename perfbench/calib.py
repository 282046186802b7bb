"""Scaling measured times to a fixed machine speed.

On a shared virtual machine (the 2-vCPU Intel Xeon of the baseline in
README.md), other tenants slow the CPU in bursts of milliseconds, and
how dense the bursts are drifts over minutes. The median of a 30-second run moved by up to 25% between
runs a few minutes apart, more than any regression worth catching.

A reference kernel run alongside the engine is slowed alike. The kernel
is an integer convolution, the inner loop of the engine's series
product. In a 150-second check that alternated the kernel with an
engine step (a catalog product and an eigenform test at prec 256),
the kernel's median time moved between 1.2 and 2.0 ms from one
15-second window to the next and the engine's with it, while the ratio
of their mean times stayed within ±1%. Means, not medians: the engine's
time is a sum of its steps, so it pays the slow samples in full.

So every engine process samples the kernel on a timer while it works:
one sample every ``INTERVAL_S``, taken between two bytecodes of
whatever runs. A process too short for ``MIN_SAMPLES`` of them takes
the rest right after its work. The samples must be spread over the
work: a block of samples taken at one moment can meet a lull that the
work did not, and then scales the whole process by the wrong factor.
The time spent in the samples is left out of every time the process
measures, because those times are read from ``Calibration.clock``.
The benchmark then multiplies each time by ``KERNEL_REF_S`` / (the
kernel's mean in that process): it reports seconds on a machine where
the kernel's mean is ``KERNEL_REF_S``, about what it was on the machine
the benchmark was defined on. The raw times and the kernel statistics
of every process are kept in the run's record file.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

# The kernel's mean on the machine the benchmark was defined on
# (Intel Xeon, 2 vCPUs, Python 3.11). Fixed, so that runs compare.
KERNEL_REF_S = 0.002
INTERVAL_S = 0.025
MIN_SAMPLES = 40

# 100 signed integers of 112 to 390 bits, about the size of the
# coefficients of catalog products at the benchmark's precisions.
_XS = [(7**k + 3) * (-1) ** k for k in range(40, 140)]


def _kernel() -> list[int]:
    xs = _XS
    return [sum(xs[i] * xs[m - i] for i in range(m + 1)) for m in range(len(xs))]


class Calibration:
    """Kernel samples of one process, taken on a SIGALRM interval timer.

    The timer handler also ends the process (exit code 3) once it has
    run longer than ``limit_s``, so a hung engine cannot outlive the
    benchmark run that started it.
    """

    def __init__(self, limit_s: float):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._deadline = time.perf_counter() + limit_s

    def clock(self) -> float:
        """perf_counter without the time spent in kernel samples."""
        return time.perf_counter() - self.spent_s

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0

    def _tick(self, signum, frame) -> None:
        if time.perf_counter() > self._deadline:
            os._exit(3)
        self._sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def summary(self) -> dict:
        return {
            "kernel_mean_s": statistics.fmean(self.samples),
            "kernel_median_s": statistics.median(self.samples),
            "kernel_min_s": min(self.samples),
            "kernel_samples": len(self.samples),
            "calibration_s": self.spent_s,
        }

"""Normalising pass times to a reference host speed.

On a shared host the speed one process gets drifts, by up to 2x within
minutes, with the load of other tenants.  Raw medians of runs made
minutes apart then differ by more than any useful regression bound.  So
every timed pass is bracketed by a fixed calibration kernel, and the
bounded metrics wall_ref_s and cpu_ref_s report

    measured * REFERENCE_S / (mean of the calibrations before and after),

the time the pass would take on a host where one calibration takes
REFERENCE_S.  The measured times themselves are reported as wall_s and
cpu_s.

The kernel runs in a helper process of its own (this file run as a
script), which never imports hopf_flow: nothing the package allocates,
caches or leaves running can change how long a calibration takes, so a
change to the package moves a normalised time in the same proportion as
the measured one.  The kernel does the same pure-Python work once on one
thread and once split over as many threads as the program's pools use.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, process_time

import numpy as np

REFERENCE_S = 0.06
KERNEL_STEPS = 8000


class _Dual:
    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __mul__(self, other):
        return _Dual(self.val * other.val,
                     self.eps * other.val + self.val * other.eps)

    def __add__(self, other):
        return _Dual(self.val + other.val, self.eps + other.eps)


def _kernel(steps: int) -> float:
    """Work shaped like the package's: dual numbers over complex values, a
    series summed to convergence, and small numpy arrays."""
    acc = 0.0
    y = np.zeros(3)
    for i in range(steps):
        x = 0.37 + 1e-4 * (i % 5000)
        z = complex(x, 0.1)
        d = _Dual(z, 1.0) * _Dual(z, 0.5) + _Dual(cmath.log(z), 1.0 / z)
        term, total, k = 1.0, 1.0, 0
        while term > 1e-12 * total:
            k += 1
            term *= 0.25 * x * x / (k * k)
            total += term
        y = y + np.array([x, total, math.atan2(x, total)])
        acc += d.eps.real + total
    return acc + float(y[0])


def calibrate(pool: ThreadPoolExecutor, workers: int) -> tuple[float, float]:
    """Wall and process CPU time of one calibration."""
    w0, c0 = perf_counter(), process_time()
    _kernel(KERNEL_STEPS)
    list(pool.map(_kernel, [KERNEL_STEPS // workers] * workers))
    return perf_counter() - w0, process_time() - c0


class Scaler:
    """Calibrates between timed intervals and scales each interval.

    Use as a context manager: the helper process ends on exit.
    """

    def __init__(self, workers: int) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(max(1, workers))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Scaler":
        try:
            self.samples.append(self._calibrate())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def _calibrate(self) -> tuple[float, float]:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        wall, cpu = self._proc.stdout.readline().split()
        return float(wall), float(cpu)

    def factors(self) -> tuple[float, float]:
        """Calibrate now; return the wall and CPU scale factors for the
        interval since the previous calibration."""
        before, after = self.samples[-1], self._calibrate()
        self.samples.append(after)
        return (2.0 * REFERENCE_S / (before[0] + after[0]),
                2.0 * REFERENCE_S / (before[1] + after[1]))


def _serve(workers: int) -> None:
    """Helper process: one calibration per line read from stdin."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in sys.stdin:
            wall, cpu = calibrate(pool, workers)
            print(f"{wall!r} {cpu!r}", flush=True)


if __name__ == "__main__":
    _serve(int(sys.argv[1]))

"""A fixed calibration kernel that measures how fast the machine runs now.

The two-core VM this benchmark was tuned on is a share of a busy host.  Its
speed drifts by up to 1.5x over a minute, in process CPU time as much as in
wall time and mostly without steal time, so a raw wall time does not
reproduce from one run to the next.  The kernel below does a fixed amount
of the kinds of work the workloads do: small and medium FFTs, elementwise
passes over an array larger than L2, an interpreted loop and float
formatting.  It uses numpy only, so no change to semiwave changes its time.

The worker runs it between passes, and a pass may stop its clock to run it
between operations too (`Clock.split`), so that no stretch of timed work
is far from a kernel run.  A time t is reported scaled to the reference
speed, t * REFERENCE_S / k, where k is the mean of the kernel's times just
before and just after t.  A change to the program moves t and leaves k
alone, so the scaled figure moves by the same share as the raw one would on
a quiet machine.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's time on the tuning host in a quiet minute (Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4); scaled times are in seconds at that speed
REFERENCE_S = 0.2

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal(2048) + 1j * _rng.standard_normal(2048)
_PLANE = _rng.standard_normal((256, 256)) + 0j
_LARGE = _rng.standard_normal(1 << 20) + 0j  # 16 MiB
_FLOATS = _PLANE.real.ravel()[:20000].tolist()


def _work() -> None:
    for _ in range(200):
        a = np.fft.ifft(np.fft.fft(_SMALL) * 0.5)
        float(np.vdot(a, a).real)
    for _ in range(4):
        np.fft.ifft2(np.fft.fft2(_PLANE) * 0.5)
    for _ in range(3):
        (np.exp(1j * _LARGE.real) * _LARGE).sum()
    x = 0
    for i in range(100000):
        x += i * i % 7
    ",".join(f"{v:.17g}" for v in _FLOATS)


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(t: float, k: float) -> float:
    """`t` in seconds at the reference speed, given kernel time `k`."""
    return t * REFERENCE_S / k


class Clock:
    """Times one pass as a sequence of segments.

    `kernels` is the run's list of kernel times, whose last entry was
    measured just before the pass; `split()` ends a segment and appends a
    kernel time measured while the clock is stopped.  The caller appends the
    kernel time after the pass before asking for `scaled_s()`.
    """

    def __init__(self, kernels: list[float]):
        self.kernels = kernels
        self.first = len(kernels) - 1
        self.segments: list[float] = []
        self._t0 = time.perf_counter()

    def split(self) -> None:
        self.stop()
        self.kernels.append(kernel_s())
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.segments.append(time.perf_counter() - self._t0)

    def raw_s(self) -> float:
        return math.fsum(self.segments)

    def scaled_s(self) -> float:
        ks = self.kernels[self.first:]
        return math.fsum(scaled(t, 0.5 * (a + b)) for t, a, b in zip(self.segments, ks, ks[1:]))

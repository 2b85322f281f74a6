"""Cached antiderivatives for the separated families.

The separated constructions need antiderivatives of smooth closed-form
integrands (envelope slopes, inverse slopes, correction integrands).  Each
one is tabulated densely over the working interval, fitted with a cubic
spline whose exact antiderivative is then evaluated, and refined by
doubling the sampling until two successive tabulations agree to the
requested absolute tolerance.
"""

from __future__ import annotations

import numpy as np
import scipy  # submodules load on first attribute access (tests/test_cold_start.py)

_DEFAULT_TOL = 1e-10
_MAX_POINTS = 1 << 17


class Antiderivative:
    """F(x) = integral of f from base_point to x, spline-tabulated."""

    def __init__(self, f, lo: float, hi: float, base_point: float | None = None,
                 tol: float = _DEFAULT_TOL):
        if not hi > lo:
            raise ValueError("empty tabulation interval")
        self.lo = float(lo)
        self.hi = float(hi)
        base = 0.5 * (lo + hi) if base_point is None else float(base_point)
        if not lo <= base <= hi:
            raise ValueError("base point outside the tabulation interval")
        n = 2049
        prev = None
        while True:
            xs = np.linspace(lo, hi, n)
            ys = np.asarray(f(xs), dtype=float)
            if not np.all(np.isfinite(ys)):
                raise ValueError("integrand not finite on the tabulation interval")
            spl = scipy.interpolate.CubicSpline(xs, ys).antiderivative()
            if prev is not None:
                probe = np.linspace(lo, hi, 513)
                err = np.max(np.abs((spl(probe) - spl(base)) - (prev(probe) - prev(base))))
                if err < tol:
                    break
            prev = spl
            if n >= _MAX_POINTS:
                break
            n = 2 * (n - 1) + 1
        self._spl = spl
        self._offset = float(spl(base))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lo - 1e-12) or np.any(x > self.hi + 1e-12):
            raise ValueError("evaluation outside the tabulated interval")
        return self._spl(np.clip(x, self.lo, self.hi)) - self._offset

"""Cached antiderivatives for the separated families.

The separated constructions need antiderivatives of smooth closed-form
integrands (envelope slopes, inverse slopes, correction integrands).  Each
one is interpolated at Chebyshev points of the working interval, doubling
the degree until the trailing quarter of the coefficients falls below a
relative tolerance, and the interpolant is integrated exactly.  For an
integrand analytic on the interval the coefficients fall geometrically
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
chs. 3 and 19), so those past the accepted degree, which set the error,
are far smaller still: the shipped integrands stop at degree 64 with an
error near rounding.  A slope taken by central differences (no v1_prime)
carries rounding noise, and its coefficients level off there instead, at
about 1e-11 of the largest.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

# trailing coefficients below this fraction of the largest one count as
# resolved; it sits above the noise level of a central-difference integrand
_TOL = 1e-10
# chebinterpolate builds a (degree + 1)^2 Vandermonde matrix: 8 MiB here
_MAX_DEGREE = 1024


class Antiderivative:
    """F(x) = integral of f from base_point to x, by Chebyshev interpolation."""

    def __init__(self, f, lo: float, hi: float, base_point: float | None = None):
        if not hi > lo:
            raise ValueError("empty tabulation interval")
        self.lo = float(lo)
        self.hi = float(hi)
        base = 0.5 * (lo + hi) if base_point is None else float(base_point)
        if not lo <= base <= hi:
            raise ValueError("base point outside the tabulation interval")

        def on_interval(u):
            ys = np.asarray(f(self.lo + 0.5 * (self.hi - self.lo) * (u + 1.0)), dtype=float)
            if not np.all(np.isfinite(ys)):
                raise ValueError("integrand not finite on the tabulation interval")
            return ys

        degree = 16
        while True:
            coef = chebyshev.chebinterpolate(on_interval, degree)
            if np.max(np.abs(coef[-(degree // 4):])) <= _TOL * np.max(np.abs(coef)):
                break
            if degree >= _MAX_DEGREE:
                raise ValueError(f"integrand not resolved by a degree-{_MAX_DEGREE} "
                                 "Chebyshev interpolant")
            degree *= 2
        self._coef = chebyshev.chebint(coef, scl=0.5 * (self.hi - self.lo))
        self._offset = float(chebyshev.chebval(self._unit(base), self._coef))

    def _unit(self, x):
        """The point of [-1, 1] at x in [lo, hi]."""
        return (2.0 * x - self.lo - self.hi) / (self.hi - self.lo)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lo - 1e-12) or np.any(x > self.hi + 1e-12):
            raise ValueError("evaluation outside the tabulated interval")
        u = self._unit(np.clip(x, self.lo, self.hi))
        return chebyshev.chebval(u, self._coef) - self._offset

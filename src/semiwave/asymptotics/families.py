"""Closed solution families of the sech-envelope construction.

Four families ship with the package:

* plane-phase soliton on the line (free motion, linear phases);
* separated class 1, for potentials v0(t) + v1(x), with a time-independent
  envelope profile fixed by quadrature of the envelope slope;
* separated class 2, same potential split, with a travelling envelope whose
  slope solves an algebraic radical relation and whose corrections are
  fixed by two linear quadratures;
* a radially symmetric two-dimensional ring state.

Each family returns a WkbFields with fully analytic derivative evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from semiwave.core import ComplexField, Grid, PhysParams, SeparatedScalar, _constant, _diff
from semiwave.asymptotics.fields import WkbFields, _sech, envelope_amplitude
from semiwave.asymptotics.quadrature import Antiderivative


# ---------------------------------------------------------------------------
# plane-phase soliton


@dataclass
class SolitonParams:
    """Soliton family: half the carrier slope is xi, half the envelope
    slope is eta, x0 centres the envelope at t = 0 and phi0 is a global
    phase.  The optional analytic profile f adds a first-order dressing
    evaluated along the complex characteristic x - a t."""

    xi: float
    eta: float
    x0: float = 0.0
    phi0: float = 0.0
    f: Callable | None = None
    fprime: Callable | None = None

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("soliton needs eta > 0 (envelope slope)")


class SolitonFields(WkbFields):
    """Linear phases S = alpha1 t + alpha2 x + phi0 and
    sigma = beta1 t + beta2 (x - x0), with the frequency alpha1 and drift
    beta1 tied to the slopes by the complex eikonal equation."""

    dim = 1

    def __init__(self, sp: SolitonParams, mass: float):
        self.sp = sp
        self.mass = mass
        self.alpha2 = 2.0 * sp.xi
        self.beta2 = 2.0 * sp.eta
        self.alpha1 = (self.beta2**2 - self.alpha2**2) / (2.0 * mass)
        self.beta1 = -self.alpha2 * self.beta2 / mass
        self.a = (self.alpha2 + 1j * self.beta2) / mass

    # complex dressing w = S1 + i sigma1 evaluated at zeta = x - a t
    def _w(self, xs, t):
        if self.sp.f is None:
            return np.zeros_like(np.asarray(xs[0], dtype=float), dtype=complex)
        zeta = np.asarray(xs[0], dtype=complex) - self.a * t
        return np.asarray(self.sp.f(zeta), dtype=complex)

    def _wprime(self, xs, t):
        if self.sp.f is None:
            return np.zeros_like(np.asarray(xs[0], dtype=float), dtype=complex)
        zeta = np.asarray(xs[0], dtype=complex) - self.a * t
        if self.sp.fprime is not None:
            return np.asarray(self.sp.fprime(zeta), dtype=complex)
        return _diff(self.sp.f, zeta)

    def S(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.alpha1 * t + self.alpha2 * x + self.sp.phi0

    def sigma(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.beta1 * t + self.beta2 * (x - self.sp.x0)

    def S1(self, xs, t):
        return self._w(xs, t).real

    def sigma1(self, xs, t):
        return self._w(xs, t).imag

    def grad_S(self, xs, t):
        return (_constant(xs[0], self.alpha2),)

    def grad_sigma(self, xs, t):
        return (_constant(xs[0], self.beta2),)

    def grad_S1(self, xs, t):
        return (self._wprime(xs, t).real,)

    def grad_sigma1(self, xs, t):
        return (self._wprime(xs, t).imag,)

    def dt_S(self, xs, t):
        return _constant(xs[0], self.alpha1)

    def dt_sigma(self, xs, t):
        return _constant(xs[0], self.beta1)

    def dt_S1(self, xs, t):
        return (-self.a * self._wprime(xs, t)).real

    def dt_sigma1(self, xs, t):
        return (-self.a * self._wprime(xs, t)).imag

    def lap_S(self, xs, t):
        return _constant(xs[0])

    def lap_sigma(self, xs, t):
        return _constant(xs[0])

    def grad_sigma_sq(self, xs, t):
        return _constant(xs[0], self.beta2**2)

    def grad_of_grad_sigma_sq(self, xs, t):
        return (_constant(xs[0]),)

    def dt_grad_sigma_sq(self, xs, t):
        return _constant(xs[0])


def soliton_correction_fields(sp: SolitonParams, params: PhysParams) -> SolitonFields:
    """Phase fields of the soliton family, dressing included."""
    return SolitonFields(sp, params.mass)


def one_soliton(sp: SolitonParams, grid: Grid, t: float, params: PhysParams) -> ComplexField:
    """Closed-form solitary wave

        (2 eta / sqrt(2 m r)) sech[(2 eta/hbar)(x - x0 - (2 xi/m) t) + Im f]
            * exp{(i/hbar)(2 xi x - (2/m)(xi^2 - eta^2) t + phi0 + hbar Re f)}

    written with a positive amplitude; the family's overall sign freedom is
    absorbed into phi0.
    """
    if not params.r > 0:
        raise ValueError("soliton amplitude needs r > 0")
    m = params.mass
    hbar = params.hbar
    x = grid.axes()[0]
    w = SolitonFields(sp, m)._w((x,), t)
    amp = 2.0 * sp.eta / np.sqrt(2.0 * m * params.r)
    theta = (2.0 * sp.eta / hbar) * (x - sp.x0 - (2.0 * sp.xi / m) * t) + w.imag
    phase = (
        2.0 * sp.xi * x
        - (2.0 / m) * (sp.xi**2 - sp.eta**2) * t
        + sp.phi0
        + hbar * w.real
    ) / hbar
    return ComplexField(grid, amp * _sech(theta) * np.exp(1j * phase), time=t, hbar=hbar)


# ---------------------------------------------------------------------------
# separated class 1


@dataclass
class Class1Params:
    """Separated family with a standing envelope.

    c1 shifts the potential split (c1 + v1 must stay positive on the working
    interval), c2 feeds the linear-in-time part of the phase correction,
    c3 and c4 are additive constants.  v1_prime is optional; without it the
    potential slope is taken by central differences.
    """

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    v0: Callable | None = None
    v1: Callable | None = None
    v1_prime: Callable | None = None


class _TimeQuadrature:
    """Antiderivative of a scalar function of time, from t = 0."""

    def __init__(self, fn: Callable | None):
        self.fn = fn
        self._cache: dict[float, float] = {}

    def __call__(self, t: float) -> float:
        if self.fn is None:
            return 0.0
        key = float(t)
        if key not in self._cache:
            val, _ = quad(self.fn, 0.0, key, epsabs=1e-12, limit=200)
            self._cache[key] = val
        return self._cache[key]


class Class1Fields(WkbFields):
    """sigma is the antiderivative of sqrt(2 m (c1 + v1)); the correction
    sigma1 = (3/2) log sigma_x + m c2 * int dx/sigma_x + c4 makes both
    transport equations vanish identically."""

    dim = 1

    def __init__(self, p1: Class1Params, domain: tuple[float, float],
                 mass: float, sigma_zero: float | None = None):
        lo, hi = float(domain[0]), float(domain[1])
        self.p1 = p1
        self._pot = SeparatedScalar(p1.v0, p1.v1, p1.v1_prime)
        self.mass = mass
        self.domain = (lo, hi)
        probe = np.linspace(lo, hi, 4097)
        depth = p1.c1 + (p1.v1(probe) if p1.v1 is not None else 0.0)
        if np.any(np.asarray(depth) <= 0):
            raise ValueError("separated family needs c1 + v1 > 0 on the domain")
        self._sigma = Antiderivative(self._sigma_x, lo, hi, base_point=sigma_zero)
        self._inv_int = Antiderivative(lambda x: 1.0 / self._sigma_x(x), lo, hi,
                                       base_point=sigma_zero)
        self._v0int = _TimeQuadrature(p1.v0)

    # envelope slope and its derivative; the derivative is closed-form when
    # v1_prime is given
    def _sigma_x(self, x):
        x = np.asarray(x, dtype=float)
        v1 = np.asarray(self.p1.v1(x), dtype=float) if self.p1.v1 is not None \
            else _constant(x)
        return np.sqrt(2.0 * self.mass * (self.p1.c1 + v1))

    def _sigma_xx(self, x):
        return self.mass * self._pot.gradient((x,), 0.0)[0] / self._sigma_x(x)

    def S(self, xs, t):
        return _constant(xs[0], self.p1.c1 * t - self._v0int(t))

    def sigma(self, xs, t):
        return self._sigma(np.asarray(xs[0], dtype=float))

    def S1(self, xs, t):
        return _constant(xs[0], self.p1.c2 * t + self.p1.c3)

    def sigma1(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        out = 1.5 * np.log(self._sigma_x(x)) + self.p1.c4
        if self.p1.c2 != 0.0:
            out = out + self.mass * self.p1.c2 * self._inv_int(x)
        return out

    def grad_S(self, xs, t):
        return (_constant(xs[0]),)

    def grad_sigma(self, xs, t):
        return (self._sigma_x(np.asarray(xs[0], dtype=float)),)

    def grad_S1(self, xs, t):
        return (_constant(xs[0]),)

    def grad_sigma1(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        sx = self._sigma_x(x)
        return (1.5 * self._sigma_xx(x) / sx + self.mass * self.p1.c2 / sx,)

    def dt_S(self, xs, t):
        v0 = self.p1.v0(t) if self.p1.v0 is not None else 0.0
        return _constant(xs[0], self.p1.c1 - v0)

    def dt_sigma(self, xs, t):
        return _constant(xs[0])

    def dt_S1(self, xs, t):
        return _constant(xs[0], self.p1.c2)

    def dt_sigma1(self, xs, t):
        return _constant(xs[0])

    def lap_S(self, xs, t):
        return _constant(xs[0])

    def lap_sigma(self, xs, t):
        return self._sigma_xx(np.asarray(xs[0], dtype=float))

    def grad_sigma_sq(self, xs, t):
        return self._sigma_x(np.asarray(xs[0], dtype=float)) ** 2

    def grad_of_grad_sigma_sq(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return (2.0 * self._sigma_x(x) * self._sigma_xx(x),)

    def dt_grad_sigma_sq(self, xs, t):
        return _constant(xs[0])


def separated_class1(p1: Class1Params, domain: tuple[float, float],
                     params: PhysParams, sigma_zero: float | None = None) -> Class1Fields:
    """Build the standing separated family on the working interval.

    sigma vanishes at sigma_zero (interval midpoint by default), which is
    where the envelope peaks; the additive freedom in the antiderivative
    just relocates the peak within the family.
    """
    return Class1Fields(p1, domain, params.mass, sigma_zero=sigma_zero)


# ---------------------------------------------------------------------------
# separated class 2


@dataclass
class Class2Params:
    """Separated family with a travelling envelope.

    The envelope slope comes from the radical relation
    (1/m) p'(x)^2 = -(v1 + c3) + sqrt((v1 + c3)^2 + c1^2), which keeps
    p'(x)^2 positive for any c1 != 0; a1..a4 feed the linear-in-time parts
    of the corrections, whose spatial profiles follow by quadrature.
    """

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    v0: Callable | None = None
    v1: Callable | None = None
    v1_prime: Callable | None = None

    def __post_init__(self):
        if self.c1 == 0.0:
            raise ValueError("travelling separated family needs c1 != 0")


class Class2Fields(WkbFields):
    """The rapid action gains the quadrature p(x) of the envelope-slope
    relation; without it the imaginary part of the complex eikonal equation
    cannot balance sigma_t = c1."""

    dim = 1

    def __init__(self, p2: Class2Params, domain: tuple[float, float], mass: float):
        lo, hi = float(domain[0]), float(domain[1])
        self.p2 = p2
        self._pot = SeparatedScalar(p2.v0, p2.v1, p2.v1_prime)
        self.mass = mass
        self.domain = (lo, hi)
        self._p = Antiderivative(self._p_x, lo, hi)
        self._inv_int = Antiderivative(lambda x: 1.0 / self._p_x(x), lo, hi)
        self._f = Antiderivative(self._f_x, lo, hi)
        self._g = Antiderivative(self._g_x, lo, hi)
        self._v0int = _TimeQuadrature(p2.v0)

    def _v1(self, x):
        return np.asarray(self.p2.v1(x), dtype=float) if self.p2.v1 is not None \
            else _constant(x)

    def _p_x(self, x):
        w = self._v1(x) + self.p2.c3
        q = -w + np.sqrt(w * w + self.p2.c1**2)
        return np.sqrt(self.mass * q)

    def _p_xx(self, x):
        w = self._v1(x) + self.p2.c3
        qprime = self._pot.gradient((x,), 0.0)[0] * (w / np.sqrt(w * w + self.p2.c1**2) - 1.0)
        return self.mass * qprime / (2.0 * self._p_x(x))

    def _f_x(self, x):
        px = self._p_x(x)
        c1, m = self.p2.c1, self.mass
        num = c1 * m * m * self.p2.a2 * px - m * self.p2.a1 * px**3 \
            - c1 * m * px * self._p_xx(x)
        return num / (px**4 + c1 * c1 * m * m)

    def _g_x(self, x):
        px = self._p_x(x)
        c1, m = self.p2.c1, self.mass
        return (m / px) * ((c1 / px) * self._f_x(x)
                           - self._p_xx(x) / (2.0 * m) - self.p2.a2)

    def S(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.p2.c3 * t - self._v0int(t) + self.p2.c4 + self._p(x)

    def sigma(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.p2.c1 * (t - self.mass * self._inv_int(x)) + self.p2.c2

    def S1(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.p2.a1 * t + self.p2.a3 + self._f(x)

    def sigma1(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.p2.a2 * t + self.p2.a4 + self._g(x)

    def grad_S(self, xs, t):
        return (self._p_x(np.asarray(xs[0], dtype=float)),)

    def grad_sigma(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return (-self.p2.c1 * self.mass / self._p_x(x),)

    def grad_S1(self, xs, t):
        return (self._f_x(np.asarray(xs[0], dtype=float)),)

    def grad_sigma1(self, xs, t):
        return (self._g_x(np.asarray(xs[0], dtype=float)),)

    def dt_S(self, xs, t):
        v0 = self.p2.v0(t) if self.p2.v0 is not None else 0.0
        return _constant(xs[0], self.p2.c3 - v0)

    def dt_sigma(self, xs, t):
        return _constant(xs[0], self.p2.c1)

    def dt_S1(self, xs, t):
        return _constant(xs[0], self.p2.a1)

    def dt_sigma1(self, xs, t):
        return _constant(xs[0], self.p2.a2)

    def lap_S(self, xs, t):
        return self._p_xx(np.asarray(xs[0], dtype=float))

    def lap_sigma(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return self.p2.c1 * self.mass * self._p_xx(x) / self._p_x(x) ** 2

    def grad_sigma_sq(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return (self.p2.c1 * self.mass / self._p_x(x)) ** 2

    def grad_of_grad_sigma_sq(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        c = (self.p2.c1 * self.mass) ** 2
        return (-2.0 * c * self._p_xx(x) / self._p_x(x) ** 3,)

    def dt_grad_sigma_sq(self, xs, t):
        return _constant(xs[0])


def separated_class2(p2: Class2Params, domain: tuple[float, float],
                     params: PhysParams) -> Class2Fields:
    """Build the travelling separated family on the working interval."""
    return Class2Fields(p2, domain, params.mass)


# ---------------------------------------------------------------------------
# radially symmetric ring state (two dimensions, free potential)


@dataclass
class CylindricalParams:
    """Two-dimensional radially symmetric family.

    c1 is the radial envelope slope (nonzero), b1 tilts the envelope in
    time and adds a radial carrier component, a2 shifts the ring, and the
    remaining constants are additive offsets of phase and envelope.
    """

    c1: float
    b1: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if self.c1 == 0.0:
            raise ValueError("radial family needs c1 != 0")


class CylindricalFields(WkbFields):
    """S and sigma are radial; the half-log term in sigma1 balances the
    cylindrical spreading of the envelope slope in the transport equation."""

    dim = 2

    def __init__(self, cp: CylindricalParams, mass: float):
        self.cp = cp
        self.mass = mass

    @staticmethod
    def _r(xs):
        x = np.asarray(xs[0], dtype=float)
        y = np.asarray(xs[1], dtype=float)
        r = np.sqrt(x * x + y * y)
        if np.any(r == 0.0):
            raise ValueError(
                "radial fields sampled on the symmetry axis; use an "
                "axis-offset grid"
            )
        return r

    def _rhat(self, xs):
        r = self._r(xs)
        return (np.asarray(xs[0], dtype=float) / r,
                np.asarray(xs[1], dtype=float) / r), r

    def S(self, xs, t):
        return _constant(self._r(xs), self.cp.c1**2 / (2.0 * self.mass) * t + self.cp.c2)

    def sigma(self, xs, t):
        return self.cp.c1 * self._r(xs) + self.cp.a1

    def S1(self, xs, t):
        r = self._r(xs)
        return (self.cp.a2 * self.cp.c1 / self.mass) * t - self.mass * self.cp.b1 * r \
            + self.cp.c3

    def sigma1(self, xs, t):
        r = self._r(xs)
        return self.cp.a2 * r + self.cp.c1 * self.cp.b1 * t + 0.5 * np.log(r) + self.cp.a3

    def grad_S(self, xs, t):
        r = self._r(xs)
        return (_constant(r), _constant(r))

    def grad_sigma(self, xs, t):
        (ex, ey), _ = self._rhat(xs)
        return (self.cp.c1 * ex, self.cp.c1 * ey)

    def grad_S1(self, xs, t):
        (ex, ey), _ = self._rhat(xs)
        c = -self.mass * self.cp.b1
        return (c * ex, c * ey)

    def grad_sigma1(self, xs, t):
        (ex, ey), r = self._rhat(xs)
        c = self.cp.a2 + 0.5 / r
        return (c * ex, c * ey)

    def dt_S(self, xs, t):
        return _constant(self._r(xs), self.cp.c1**2 / (2.0 * self.mass))

    def dt_sigma(self, xs, t):
        return _constant(self._r(xs))

    def dt_S1(self, xs, t):
        return _constant(self._r(xs), self.cp.a2 * self.cp.c1 / self.mass)

    def dt_sigma1(self, xs, t):
        return _constant(self._r(xs), self.cp.c1 * self.cp.b1)

    def lap_S(self, xs, t):
        return _constant(self._r(xs))

    def lap_sigma(self, xs, t):
        return self.cp.c1 / self._r(xs)

    def grad_sigma_sq(self, xs, t):
        return _constant(self._r(xs), self.cp.c1**2)

    def grad_of_grad_sigma_sq(self, xs, t):
        r = self._r(xs)
        return (_constant(r), _constant(r))

    def dt_grad_sigma_sq(self, xs, t):
        return _constant(self._r(xs))


def cylindrical_fields(cp: CylindricalParams, params: PhysParams) -> CylindricalFields:
    return CylindricalFields(cp, params.mass)


def cylindrical_special(cp: CylindricalParams, grid: Grid, t: float,
                        params: PhysParams) -> ComplexField:
    """Closed-form ring state

        (c1/sqrt(2 m r)) sech[(c1/hbar + a2) rad + c1 b1 t + log(rad)/2
                              + a1/hbar + a3]
        * exp{i [(c1^2/(2 m hbar) + a2 c1/m) t - m b1 rad + c2/hbar + c3]}

    on an axis-offset grid (rad denotes the distance from the axis).
    """
    if not params.r > 0:
        raise ValueError("ring amplitude needs r > 0")
    if grid.dim != 2:
        raise ValueError("the radial family lives on a two-dimensional grid")
    m, hbar = params.mass, params.hbar
    X, Y = grid.mesh()
    rad = np.sqrt(X * X + Y * Y)
    if np.any(rad == 0.0):
        raise ValueError("grid samples the symmetry axis; use an axis-offset grid")
    amp = cp.c1 / np.sqrt(2.0 * m * params.r)
    theta = (cp.c1 / hbar + cp.a2) * rad + cp.c1 * cp.b1 * t + 0.5 * np.log(rad) \
        + cp.a1 / hbar + cp.a3
    phase = (cp.c1**2 / (2.0 * m * hbar) + cp.a2 * cp.c1 / m) * t \
        - m * cp.b1 * rad + cp.c2 / hbar + cp.c3
    return ComplexField(grid, amp * _sech(theta) * np.exp(1j * phase),
                        time=t, hbar=hbar)

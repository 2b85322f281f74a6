"""Closed solution families of the sech-envelope construction.

Four families ship with the package:

* plane-phase soliton on the line (free motion, linear phases);
* separated class 1, for potentials v1(x), with a time-independent
  envelope profile fixed by quadrature of the envelope slope;
* separated class 2, for the same potentials, with a travelling envelope
  whose slope solves an algebraic radical relation and whose corrections
  are fixed by two linear quadratures;
* a radially symmetric two-dimensional ring state.

Each family is a WkbFields whose `potential` is the one external field it
solves: for the two separated classes, the static ScalarPotential v1 they
are built with (free by default), the only place their V = v1(x) and its
slope are read; the free field for the soliton and the ring.  Its
jet(xs, t) writes every entry in closed form, computing the shared
intermediates (the radius, the envelope slope, the dressing and its
derivative) once per jet.  The spatial derivatives go in the jet's
derivative block, a closure over those intermediates that runs only when
a derivative is read: the ring state's block (unit radial vector,
1/radius) is never evaluated when only the leading state and its time
derivative are built.

The paper's separated potentials add a term u(t) of time alone to v1(x).
Such a term only multiplies psi by the global phase
exp(-(i/hbar) int u dt), so the separated families take v1(x) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from semiwave.core import (ComplexField, Grid, PhysParams, PotentialSpec, ScalarPotential,
                           ZeroScalar, _expi)
from semiwave.asymptotics.fields import FieldJet, WkbFields, _sech
from semiwave.asymptotics.quadrature import Antiderivative


# ---------------------------------------------------------------------------
# plane-phase soliton


@dataclass
class SolitonParams:
    """Soliton family: half the carrier slope is xi, half the envelope
    slope is eta, x0 centres the envelope at t = 0 and phi0 is a global
    phase.  The optional analytic profile f adds a first-order dressing
    evaluated along the complex characteristic x - a t; it comes with its
    derivative fprime, which the jet's slopes and time derivatives read."""

    xi: float
    eta: float
    x0: float = 0.0
    phi0: float = 0.0
    f: Callable | None = None
    fprime: Callable | None = None

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("soliton needs eta > 0 (envelope slope)")
        if self.f is not None and self.fprime is None:
            raise ValueError("soliton dressing f needs its derivative fprime")


class SolitonFields(WkbFields):
    """Phase fields of the soliton family, dressing included: linear phases
    S = alpha1 t + alpha2 x + phi0 and sigma = beta1 t + beta2 (x - x0),
    with the frequency alpha1 and drift beta1 tied to the slopes by the
    complex eikonal equation."""

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
            return 0j
        zeta = np.asarray(xs[0], dtype=complex) - self.a * t
        return np.asarray(self.sp.f(zeta), dtype=complex)

    def _wprime(self, xs, t):
        if self.sp.f is None:
            return 0j
        zeta = np.asarray(xs[0], dtype=complex) - self.a * t
        return np.asarray(self.sp.fprime(zeta), dtype=complex)

    def jet(self, xs, t) -> FieldJet:
        x = np.asarray(xs[0], dtype=float)
        w = self._w(xs, t)
        wp = self._wprime(xs, t)
        w_t = -self.a * wp
        return FieldJet(
            xs=xs, t=t, S=self.alpha1 * t + self.alpha2 * x + self.sp.phi0,
            sigma=self.beta1 * t + self.beta2 * (x - self.sp.x0),
            S1=w.real, sigma1=w.imag,
            S_t=self.alpha1, sigma_t=self.beta1, S1_t=w_t.real, sigma1_t=w_t.imag,
            g=self.beta2**2, g_t=0.0,
            derivatives=lambda: dict(
                dS=(self.alpha2,), dsigma=(self.beta2,), dS1=(wp.real,),
                dsigma1=(wp.imag,), lap_S=0.0, lap_sigma=0.0, dg=(0.0,)))


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
    psi = _expi(phase)
    return ComplexField(grid, np.multiply(amp * _sech(theta), psi, out=psi), time=t,
                        hbar=hbar)


# ---------------------------------------------------------------------------
# separated class 1


@dataclass
class Class1Params:
    """Separated family with a standing envelope.

    Numbers only: the potential V = v1(x) is handed to Class1Fields.
    c1 shifts the potential split (c1 + v1 must stay positive on the working
    interval), c2 feeds the linear-in-time part of the phase correction,
    c3 and c4 are additive constants.
    """

    c1: float
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0


def _separated_potential(v1: ScalarPotential) -> PotentialSpec:
    """V = v1(x) as a separated family's potential; the construction holds
    for a static v1 alone."""
    if not v1.static:
        raise ValueError("separated family needs a static v1(x)")
    return PotentialSpec(v1)


def _check_class1(c1: float, v1: ScalarPotential, domain: tuple[float, float],
                  sigma_zero: float | None = None) -> None:
    """Refuse c1 + v1 <= 0 on the domain, or a peak sigma_zero outside it;
    cheap enough for the configuration schema to run at parse time."""
    lo, hi = domain
    if not np.all(c1 + v1.value((np.linspace(lo, hi, 4097),), 0.0) > 0):
        raise ValueError("separated family needs c1 + v1 > 0 on the domain")
    if sigma_zero is not None and not lo <= sigma_zero <= hi:
        raise ValueError(f"sigma_zero = {sigma_zero:g} lies outside the domain "
                         f"[{lo:g}, {hi:g}]")


class Class1Fields(WkbFields):
    """The standing separated family for V = v1(x) on its interval.

    sigma is the antiderivative of sqrt(2 m (c1 + v1)); the correction
    sigma1 = (3/2) log sigma_x + m c2 * int dx/sigma_x + c4 makes both
    transport equations vanish identically.  sigma vanishes at sigma_zero
    (interval midpoint by default), which is where the envelope peaks; the
    additive freedom in the antiderivative just relocates the peak within
    the family.
    """

    dim = 1

    def __init__(self, p1: Class1Params, domain: tuple[float, float],
                 mass: float, sigma_zero: float | None = None,
                 v1: ScalarPotential = ZeroScalar()):
        lo, hi = float(domain[0]), float(domain[1])
        self.potential = _separated_potential(v1)
        _check_class1(p1.c1, v1, (lo, hi), sigma_zero)
        self.p1 = p1
        self.mass = mass
        self._sigma = Antiderivative(self._sigma_x, lo, hi, base_point=sigma_zero)
        self._inv_int = Antiderivative(lambda x: 1.0 / self._sigma_x(x), lo, hi,
                                       base_point=sigma_zero)

    # the envelope slope; its derivative in the jet is closed-form when
    # v1's gradient is
    def _sigma_x(self, x):
        return np.sqrt(2.0 * self.mass
                       * (self.p1.c1 + self.potential.scalar.value((x,), 0.0)))

    def jet(self, xs, t) -> FieldJet:
        p1, m = self.p1, self.mass
        x = np.asarray(xs[0], dtype=float)
        sx = self._sigma_x(x)
        sigma1 = 1.5 * np.log(sx) + p1.c4
        if p1.c2 != 0.0:
            sigma1 = sigma1 + m * p1.c2 * self._inv_int(x)

        def derivatives():
            sxx = m * self.potential.scalar.gradient((x,), 0.0)[0] / sx
            return dict(dS=(0.0,), dsigma=(sx,), dS1=(0.0,),
                        dsigma1=(1.5 * sxx / sx + m * p1.c2 / sx,),
                        lap_S=0.0, lap_sigma=sxx, dg=(2.0 * sx * sxx,))

        return FieldJet(
            xs=xs, t=t, S=p1.c1 * t, sigma=self._sigma(x),
            S1=p1.c2 * t + p1.c3, sigma1=sigma1,
            S_t=p1.c1, sigma_t=0.0, S1_t=p1.c2, sigma1_t=0.0,
            g=sx**2, g_t=0.0, derivatives=derivatives)


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

    def __post_init__(self):
        if self.c1 == 0.0:
            raise ValueError("travelling separated family needs c1 != 0")


class Class2Fields(WkbFields):
    """The travelling separated family for V = v1(x) on its interval.

    The rapid action gains the quadrature p(x) of the envelope-slope
    relation; without it the imaginary part of the complex eikonal equation
    cannot balance sigma_t = c1.
    """

    dim = 1

    def __init__(self, p2: Class2Params, domain: tuple[float, float], mass: float,
                 v1: ScalarPotential = ZeroScalar()):
        lo, hi = float(domain[0]), float(domain[1])
        self.potential = _separated_potential(v1)
        self.p2 = p2
        self.mass = mass
        self._p = Antiderivative(self._p_x, lo, hi)
        self._inv_int = Antiderivative(lambda x: 1.0 / self._p_x(x), lo, hi)
        self._f = Antiderivative(lambda x: self._slopes(x)[2], lo, hi)
        self._g = Antiderivative(lambda x: self._slopes(x)[3], lo, hi)

    def _p_x(self, x):
        w = self.potential.scalar.value((x,), 0.0) + self.p2.c3
        q = -w + np.sqrt(w * w + self.p2.c1**2)
        return np.sqrt(self.mass * q)

    def _slopes(self, x):
        """p', p'' and the slopes f', g' of the spatial parts of S1, sigma1."""
        c1, m = self.p2.c1, self.mass
        px = self._p_x(x)
        v = self.potential.scalar
        w = v.value((x,), 0.0) + self.p2.c3
        qprime = v.gradient((x,), 0.0)[0] * (w / np.sqrt(w * w + c1**2) - 1.0)
        pxx = m * qprime / (2.0 * px)
        num = c1 * m * m * self.p2.a2 * px - m * self.p2.a1 * px**3 - c1 * m * px * pxx
        fx = num / (px**4 + c1 * c1 * m * m)
        gx = (m / px) * ((c1 / px) * fx - pxx / (2.0 * m) - self.p2.a2)
        return px, pxx, fx, gx

    def jet(self, xs, t) -> FieldJet:
        p2, m = self.p2, self.mass
        x = np.asarray(xs[0], dtype=float)

        def derivatives():
            px, pxx, fx, gx = self._slopes(x)
            return dict(dS=(px,), dsigma=(-p2.c1 * m / px,), dS1=(fx,), dsigma1=(gx,),
                        lap_S=pxx, lap_sigma=p2.c1 * m * pxx / px**2,
                        dg=(-2.0 * (p2.c1 * m) ** 2 * pxx / px**3,))

        return FieldJet(
            xs=xs, t=t, S=p2.c3 * t + p2.c4 + self._p(x),
            sigma=p2.c1 * (t - m * self._inv_int(x)) + p2.c2,
            S1=p2.a1 * t + p2.a3 + self._f(x), sigma1=p2.a2 * t + p2.a4 + self._g(x),
            S_t=p2.c3, sigma_t=p2.c1, S1_t=p2.a1, sigma1_t=p2.a2,
            g=(p2.c1 * m / self._p_x(x)) ** 2, g_t=0.0, derivatives=derivatives)


# ---------------------------------------------------------------------------
# radially symmetric ring state (two dimensions, free potential)


@dataclass
class CylindricalParams:
    """Two-dimensional radially symmetric family.

    c1 is the radial envelope slope (nonzero), b1 tilts the envelope in
    time and adds a radial carrier component, a2 shifts the ring, and the
    remaining constants are additive offsets of phase and envelope.

    The envelope peak sits where sigma = c1 r + a1 vanishes, at r = -a1/c1.
    With a1 = 0 that is the axis: near it the half-log term of sigma1
    makes psi grow like sqrt(r), whose Laplacian is not square-integrable
    in 2D, so the operator residual of such a ring measures the axis
    singularity, not the ring's asymptotic order.  The shipped
    cylindrical-check configuration uses a1 = 0, so such a ring is
    accepted and documented here rather than refused.
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
    radial = True

    def __init__(self, cp: CylindricalParams, mass: float):
        self.cp = cp
        self.mass = mass

    def jet(self, xs, t) -> FieldJet:
        cp, m = self.cp, self.mass
        x = np.asarray(xs[0], dtype=float)
        y = np.asarray(xs[1], dtype=float)
        r = np.sqrt(x * x + y * y)
        if np.any(r == 0.0):
            raise ValueError(
                "radial fields sampled on the symmetry axis; use an "
                "axis-offset grid"
            )
        return FieldJet(
            xs=xs, t=t, S=cp.c1**2 / (2.0 * m) * t + cp.c2, sigma=cp.c1 * r + cp.a1,
            S1=(cp.a2 * cp.c1 / m) * t - m * cp.b1 * r + cp.c3,
            sigma1=cp.a2 * r + cp.c1 * cp.b1 * t + 0.5 * np.log(r) + cp.a3,
            S_t=cp.c1**2 / (2.0 * m), sigma_t=0.0, S1_t=cp.a2 * cp.c1 / m,
            sigma1_t=cp.c1 * cp.b1, g=cp.c1**2, g_t=0.0,
            derivatives=lambda: self._derivatives(x, y, r))

    def _derivatives(self, x, y, r) -> dict:
        """The spatial-derivative block of the jet at (x, y), radius r."""
        cp, m = self.cp, self.mass
        ex, ey = x / r, y / r
        c = -m * cp.b1
        c_sigma1 = cp.a2 + 0.5 / r
        return dict(dS=(0.0, 0.0), dsigma=(cp.c1 * ex, cp.c1 * ey),
                    dS1=(c * ex, c * ey), dsigma1=(c_sigma1 * ex, c_sigma1 * ey),
                    lap_S=0.0, lap_sigma=cp.c1 / r, dg=(0.0, 0.0))

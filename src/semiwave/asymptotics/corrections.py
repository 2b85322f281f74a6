"""First-order correction of the sech-envelope approximation.

The corrected field is Psi = Psi0 (1 + hbar (u + i v)), where the real
pair (u, v) is fixed by the phase fields up to one free scalar function C1
(left as an input; the next order of the hierarchy would determine it).

The published expressions carry a factor 1/rho.  Dividing it out
analytically leaves bounded hyperbolic shape factors

    u_shape = -(eps/2) (1 + exp(-2 eps theta)),
    v_shape = -(1/2) (1 + exp(-2 eps theta)),

with eps the sign of sigma, so the tails cause no overflow where the sign
of theta agrees with eps (everywhere outside an O(hbar) neighbourhood of
the sigma = 0 surface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from semiwave.core import ComplexField, Grid, PhysParams, PotentialSpec, _constant, _diff
from semiwave.asymptotics.fields import (
    WkbFields,
    assemble_leading_term,
    envelope_rho,
    leading_term_time_derivative,
)

_RHO_FLOOR = 1e-300
_EXP_CLIP = 700.0


@dataclass
class CorrectionParams:
    """Free data of the first correction: the scalar C1, either a constant
    or a field C1(xs, t).  The sign convention eps = sign(sigma) is fixed,
    with eps = +1 on the measure-zero set sigma = 0."""

    C1: float | Callable = 0.0

    def c1_values(self, xs, t):
        if callable(self.C1):
            return np.asarray(self.C1(xs, t), dtype=float)
        return _constant(xs[0], float(self.C1))


def _epsilon(sigma: np.ndarray) -> np.ndarray:
    return np.where(sigma < 0.0, -1.0, 1.0)


def _shapes(theta: np.ndarray, eps: np.ndarray):
    """Bounded closed forms of cosh(theta)(sinh(theta) -+ eps cosh(theta))
    after dividing the published expressions by rho; also their
    theta-derivatives for time differentiation."""
    expo = np.exp(np.minimum(-2.0 * eps * theta, _EXP_CLIP))
    v_shape = -0.5 * (1.0 + expo)
    u_shape = eps * v_shape
    dv_shape = eps * expo
    du_shape = expo
    return u_shape, v_shape, du_shape, dv_shape


def _coefficients(w: WkbFields, cp: CorrectionParams, xs, t: float,
                  pot: PotentialSpec, params: PhysParams):
    """Spatial coefficient fields multiplying the shape factors:

        u = P tanh(theta) + Q + R u_shape,      v = P + W v_shape,

    with P = (2m/g) C1, Q = <dsigma, dsigma1>/g,
    R = [lap sigma + <dsigma, d log g>] / (6 g) and
    W = (m/2g) [(lap S - div A)/m + D_t log g]."""
    m = params.mass
    g = w.grad_sigma_sq(xs, t)
    if np.any(g <= 0):
        raise ValueError("degenerate envelope: (grad sigma)^2 must stay positive")
    dim = len(xs)
    A = tuple(np.asarray(a, dtype=float)
              for a in pot.vector.value(xs, t))
    divA = pot.vector.divergence(xs, t)
    dS = w.grad_S(xs, t)
    dsig = w.grad_sigma(xs, t)
    dsig1 = w.grad_sigma1(xs, t)
    dg = w.grad_of_grad_sigma_sq(xs, t)
    flow = tuple(dS[j] - A[j] for j in range(dim))

    P = (2.0 * m / g) * cp.c1_values(xs, t)
    Q = sum(dsig[j] * dsig1[j] for j in range(dim)) / g
    R = (w.lap_sigma(xs, t)
         + sum(dsig[j] * dg[j] for j in range(dim)) / g) / (6.0 * g)
    dt_log_g = (w.dt_grad_sigma_sq(xs, t)
                + sum(flow[j] * dg[j] for j in range(dim)) / m) / g
    W = (m / (2.0 * g)) * ((w.lap_S(xs, t) - divA) / m + dt_log_g)
    return P, Q, R, W


def first_correction_uv(w: WkbFields, cp: CorrectionParams, grid: Grid,
                        t: float, pot: PotentialSpec,
                        params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the first correction on the grid.

    Where the envelope has underflowed (rho below 1e-300) the correction is
    set to zero; the field carries no weight there.
    """
    xs = grid.mesh()
    theta = w.theta(xs, t, params.hbar)
    eps = _epsilon(w.sigma(xs, t))
    u_shape, v_shape, _, _ = _shapes(theta, eps)
    P, Q, R, W = _coefficients(w, cp, xs, t, pot, params)
    u = P * np.tanh(theta) + Q + R * u_shape
    v = P + W * v_shape
    rho = envelope_rho(w, xs, t, params)
    tiny = rho < _RHO_FLOOR
    if np.any(tiny):
        u = np.where(tiny, 0.0, u)
        v = np.where(tiny, 0.0, v)
    return u, v


def corrected_leading_term(w: WkbFields, cp: CorrectionParams, grid: Grid,
                           t: float, pot: PotentialSpec,
                           params: PhysParams) -> ComplexField:
    """Psi = Psi0 (1 + hbar (u + i v))."""
    base = assemble_leading_term(w, grid, t, params)
    u, v = first_correction_uv(w, cp, grid, t, pot, params)
    return base.with_values(base.values * (1.0 + params.hbar * (u + 1j * v)))


def corrected_term_with_dt(w: WkbFields, cp: CorrectionParams, grid: Grid,
                           t: float, pot: PotentialSpec,
                           params: PhysParams) -> tuple[ComplexField, ComplexField]:
    """Corrected field together with its analytic-in-theta time derivative.

    d/dt (u + i v) splits into the chain-rule part through theta, whose
    theta-derivatives are available in closed form, and the explicit time
    dependence of the coefficient fields, taken by central differences in t
    (exactly zero for the shipped stationary families).
    """
    xs = grid.mesh()
    hbar = params.hbar
    base = assemble_leading_term(w, grid, t, params)
    dbase = leading_term_time_derivative(w, grid, t, params)

    theta = w.theta(xs, t, params.hbar)
    eps = _epsilon(w.sigma(xs, t))
    u_shape, v_shape, du_shape, dv_shape = _shapes(theta, eps)
    P, Q, R, W = _coefficients(w, cp, xs, t, pot, params)
    tanh = np.tanh(theta)
    u = P * tanh + Q + R * u_shape
    v = P + W * v_shape

    theta_t = w.dt_sigma(xs, t) / hbar + w.dt_sigma1(xs, t)
    sech2 = 1.0 - tanh * tanh
    du_chain = (P * sech2 + R * du_shape) * theta_t
    dv_chain = W * dv_shape * theta_t

    dP, dQ, dR, dW = _diff(lambda s: np.stack(_coefficients(w, cp, xs, s, pot, params)), t)
    du = du_chain + dP * tanh + dQ + dR * u_shape
    dv = dv_chain + dP + dW * v_shape

    rho = envelope_rho(w, xs, t, params)
    tiny = rho < _RHO_FLOOR
    if np.any(tiny):
        u = np.where(tiny, 0.0, u)
        v = np.where(tiny, 0.0, v)
        du = np.where(tiny, 0.0, du)
        dv = np.where(tiny, 0.0, dv)

    corr = 1.0 + hbar * (u + 1j * v)
    psi = base.with_values(base.values * corr)
    dpsi = base.with_values(dbase.values * corr
                            + base.values * hbar * (du + 1j * dv))
    return psi, dpsi

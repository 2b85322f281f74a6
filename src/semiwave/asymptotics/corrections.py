"""First-order correction of the sech-envelope approximation.

The corrected field is Psi = Psi0 (1 + hbar (u + i v)), where the real
pair (u, v) is fixed by the phase fields up to one free scalar C1 (left as
an input; the next order of the hierarchy would determine it).

The published expressions carry a factor 1/rho.  Dividing it out
analytically leaves bounded hyperbolic shape factors

    u_shape = -(eps/2) (1 + exp(-2 eps theta)),
    v_shape = -(1/2) (1 + exp(-2 eps theta)),

with eps the sign of sigma, so the tails cause no overflow where the sign
of theta agrees with eps (everywhere outside an O(hbar) neighbourhood of
the sigma = 0 surface).

The corrected pair is built on the caller's jet and the leading pair the
caller assembled from it, so a sweep over hbar at one (family, grid, t)
samples the phases there once; the corrected builder itself samples them
only at t +- h, for the explicit time dependence of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semiwave.core import ComplexField, Grid, PhysParams, PotentialSpec, _diff
from semiwave.asymptotics.fields import (
    FieldJet,
    WkbFields,
    _positive_slope,
    envelope_rho,
)

_RHO_FLOOR = 1e-300
_EXP_CLIP = 700.0


@dataclass
class CorrectionParams:
    """Free data of the first correction: the constant C1.  The sign
    convention eps = sign(sigma) is fixed, with eps = +1 on the measure-zero
    set sigma = 0."""

    C1: float = 0.0


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


def _coefficients(jet: FieldJet, cp: CorrectionParams, xs, t: float,
                  pot: PotentialSpec, params: PhysParams):
    """Spatial coefficient fields multiplying the shape factors:

        u = P tanh(theta) + Q + R u_shape,      v = P + W v_shape,

    with P = (2m/g) C1, Q = <dsigma, dsigma1>/g,
    R = [lap sigma + <dsigma, d log g>] / (6 g) and
    W = (m/2g) [(lap S - div A)/m + D_t log g]."""
    m = params.mass
    g = _positive_slope(jet)
    dim = len(xs)
    A = tuple(np.asarray(a, dtype=float)
              for a in pot.vector.value(xs, t))
    divA = pot.vector.divergence(xs, t)
    dsig, dg = jet.dsigma, jet.dg
    flow = tuple(jet.dS[j] - A[j] for j in range(dim))

    P = (2.0 * m / g) * cp.C1
    Q = sum(dsig[j] * jet.dsigma1[j] for j in range(dim)) / g
    R = (jet.lap_sigma + sum(dsig[j] * dg[j] for j in range(dim)) / g) / (6.0 * g)
    dt_log_g = (jet.g_t + sum(flow[j] * dg[j] for j in range(dim)) / m) / g
    W = (m / (2.0 * g)) * ((jet.lap_S - divA) / m + dt_log_g)
    return P, Q, R, W


def _correction(jet: FieldJet, cp: CorrectionParams, xs, t: float,
                pot: PotentialSpec, params: PhysParams):
    """u and v with the pieces of their time derivative: tanh(theta), the
    four shape factors, the coefficients (P, Q, R, W), and the mask of
    samples where the envelope has underflowed (rho below 1e-300)."""
    theta = jet.sigma / params.hbar + jet.sigma1
    shapes = _shapes(theta, _epsilon(jet.sigma))
    coeffs = P, Q, R, W = _coefficients(jet, cp, xs, t, pot, params)
    tanh = np.tanh(theta)
    u = P * tanh + Q + R * shapes[0]
    v = P + W * shapes[1]
    tiny = envelope_rho(jet, params) < _RHO_FLOOR
    return u, v, tanh, shapes, coeffs, tiny


def _zero_where(tiny, *arrays):
    """The correction carries no weight where the envelope has underflowed."""
    if np.any(tiny):
        return tuple(np.where(tiny, 0.0, a) for a in arrays)
    return arrays


def first_correction_uv(jet: FieldJet, cp: CorrectionParams, grid: Grid,
                        t: float, pot: PotentialSpec,
                        params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the first correction on the grid the jet
    was sampled on.

    Where the envelope has underflowed (rho below 1e-300) the correction is
    set to zero; the field carries no weight there.
    """
    u, v, _, _, _, tiny = _correction(jet, cp, grid.mesh(), t, pot, params)
    return _zero_where(tiny, u, v)


def corrected_term_with_dt(w: WkbFields, jet: FieldJet, psi: ComplexField,
                           dpsi: ComplexField, cp: CorrectionParams,
                           pot: PotentialSpec,
                           params: PhysParams) -> tuple[ComplexField, ComplexField]:
    """Corrected field together with its analytic-in-theta time derivative,
    built on the caller's jet of w and the leading pair (psi, dpsi) the
    caller assembled from it; the grid and time are psi's.

    d/dt (u + i v) splits into the chain-rule part through theta, whose
    theta-derivatives are available in closed form, and the explicit time
    dependence of the coefficient fields, taken by central differences in t
    of the coefficients of w's jets at t +- h (exactly zero for the shipped
    stationary families).  Those two jets are the only ones built here.
    """
    grid, t = psi.grid, psi.time
    xs = grid.mesh()
    hbar = params.hbar
    u, v, tanh, shapes, (P, Q, R, W), tiny = _correction(jet, cp, xs, t, pot, params)
    u_shape, v_shape, du_shape, dv_shape = shapes

    theta_t = jet.sigma_t / hbar + jet.sigma1_t
    sech2 = 1.0 - tanh * tanh
    du_chain = (P * sech2 + R * du_shape) * theta_t
    dv_chain = W * dv_shape * theta_t

    dP, dQ, dR, dW = _diff(lambda s: np.stack(np.broadcast_arrays(
        *_coefficients(w.jet(xs, s), cp, xs, s, pot, params))), t)
    du = du_chain + dP * tanh + dQ + dR * u_shape
    dv = dv_chain + dP + dW * v_shape
    u, v, du, dv = _zero_where(tiny, u, v, du, dv)

    corr = 1.0 + hbar * (u + 1j * v)
    return (psi.with_values(psi.values * corr),
            psi.with_values(dpsi.values * corr
                            + psi.values * hbar * (du + 1j * dv)))

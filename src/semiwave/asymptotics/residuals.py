"""Residuals of the determining equations for the phase fields.

A WkbFields object is a valid input to the sech-envelope construction
exactly when three residuals vanish on the working domain.  Each is read
off one FieldJet of the fields:

* the complex eikonal residual, a single Hamilton-Jacobi equation for
  S + i sigma with the complex square of the momentum covector;
* the pair of transport residuals fixing the corrections S1 and sigma1;
* the envelope first integral, which the sech profile solves identically.

All three are evaluated pointwise on a grid so tests can assert decay or
detect corrupted field data.
"""

from __future__ import annotations

import numpy as np

from semiwave.core import Grid, PhysParams, PotentialSpec, eval_potential
from semiwave.asymptotics.fields import FieldJet, _positive_slope, _sech, envelope_amplitude


def _dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


def hj_residual(jet: FieldJet, grid: Grid, t: float, pot: PotentialSpec,
                params: PhysParams) -> np.ndarray:
    """Complex eikonal residual

        (S + i sigma)_t + V + (1/2m) sum_j (d_j S + i d_j sigma - A_j)^2

    on the grid the jet was sampled on.  The square is the complex square,
    not a squared modulus; its imaginary part couples the two real phases.
    """
    V, A = eval_potential(pot, grid, t)
    return _eikonal(jet, V, A, params)


def _eikonal(jet: FieldJet, V, A, params: PhysParams) -> np.ndarray:
    """The eikonal residual of `hj_residual` from V and A sampled at the
    jet's points."""
    dS, dsig = jet.dS, jet.dsigma
    kin = sum((dS[j] + 1j * dsig[j] - A[j]) ** 2 for j in range(len(A)))
    return (jet.S_t + 1j * jet.sigma_t) + V + kin / (2.0 * params.mass)


def transport_residuals(jet: FieldJet, grid: Grid, t: float, pot: PotentialSpec,
                        params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the two real transport equations for S1, sigma1.

    The first reads

        S1_t + (1/m) <dS - A, dS1> - (1/m) <dsigma, dsigma1>
             + (1/2m) lap sigma + (1/2m) <dsigma, d log g>

    and the second

        sigma1_t + (1/m) <dS - A, dsigma1> + (1/m) <dsigma, dS1>
             - (1/2) [ (lap S - div A)/m + (g_t + (1/m) <dS - A, dg>)/g ]

    with g = (dsigma)^2.  Both vanish identically on the shipped families.
    """
    m = params.mass
    _, A = eval_potential(pot, grid, t)
    divA = pot.vector.divergence(grid.mesh(), t)
    g = _positive_slope(jet)
    dsig, dS1, dsig1, dg = jet.dsigma, jet.dS1, jet.dsigma1, jet.dg
    flow = tuple(jet.dS[j] - A[j] for j in range(grid.dim))

    eq_a = jet.S1_t + _dot(flow, dS1) / m - _dot(dsig, dsig1) / m \
        + jet.lap_sigma / (2.0 * m) + _dot(dsig, dg) / (2.0 * m * g)

    eq_b = jet.sigma1_t + _dot(flow, dsig1) / m + _dot(dsig, dS1) / m \
        - 0.5 * ((jet.lap_S - divA) / m + (jet.g_t + _dot(flow, dg) / m) / g)

    return eq_a, eq_b


def first_integral_residual(jet: FieldJet, params: PhysParams,
                            rho_factor: float = 1.0) -> np.ndarray:
    """Residual of the envelope first integral

        |d rho / d theta| - sqrt(2 m r / g) * sqrt(b^2 - rho^2) * rho

    with b^2 = g/(2 m kappa^2).  The derivative is taken analytically from
    the sech profile; the absolute value selects the branch valid on both
    flanks of the peak.  rho_factor scales the profile to exercise the
    corruption detector: factors below one give a nonzero residual, factors
    above one push rho past the bound b and raise.
    """
    b = envelope_amplitude(jet, params)
    theta = jet.sigma / params.hbar + jet.sigma1
    sech = _sech(theta)
    rho = rho_factor * b * sech
    if np.any(np.abs(rho) > b):
        raise ValueError(
            "profile exceeds the envelope bound; fields are inconsistent"
        )
    drho_dtheta = -rho_factor * b * sech * np.tanh(theta)
    return np.abs(drho_dtheta) \
        - np.sqrt(2.0 * params.mass * params.r / jet.g) * np.sqrt(b * b - rho * rho) * rho

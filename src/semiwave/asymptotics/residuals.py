"""Residuals of the determining equations for the phase fields.

A WkbFields object is a valid input to the sech-envelope construction
exactly when two residuals vanish on the working domain.  Each is read
off one FieldJet of the fields:

* the complex eikonal residual, a single Hamilton-Jacobi equation for
  S + i sigma with the complex square of the momentum covector;
* the pair of transport residuals fixing the corrections S1 and sigma1.

Both are evaluated pointwise at the jet's own sample points and time,
which also fix where V and A are sampled, so tests can assert decay or
detect corrupted field data.

The envelope first integral is kept beside them for the benchmark's
traced spans only.  The sech profile solves it for any jet with g > 0 and
r > 0, so it checks no family and no scenario reports it.
"""

from __future__ import annotations

import numpy as np

from semiwave.core import PhysParams, PotentialSpec
from semiwave.asymptotics.fields import FieldJet, _positive_slope, _sech, envelope_amplitude


def _dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


def hj_residual(jet: FieldJet, pot: PotentialSpec, params: PhysParams) -> np.ndarray:
    """Complex eikonal residual

        (S + i sigma)_t + V + (1/2m) sum_j (d_j S + i d_j sigma - A_j)^2

    at the jet's sample points and time.  The square is the complex square,
    not a squared modulus; its imaginary part couples the two real phases.
    """
    V, A = pot.scalar.value(jet.xs, jet.t), pot.vector.components(jet.t, len(jet.xs))
    dS, dsig = jet.dS, jet.dsigma
    kin = sum((dS[j] + 1j * dsig[j] - A[j]) ** 2 for j in range(len(A)))
    return (jet.S_t + 1j * jet.sigma_t) + V + kin / (2.0 * params.mass)


def transport_residuals(jet: FieldJet, pot: PotentialSpec,
                        params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Left-hand sides of the two real transport equations for S1, sigma1,
    at the jet's sample points and time.

    The first reads

        S1_t + (1/m) <dS - A, dS1> - (1/m) <dsigma, dsigma1>
             + (1/2m) lap sigma + (1/2m) <dsigma, d log g>

    and the second

        sigma1_t + (1/m) <dS - A, dsigma1> + (1/m) <dsigma, dS1>
             - (1/2) [ lap S/m + (g_t + (1/m) <dS - A, dg>)/g ]

    with g = (dsigma)^2.  The second carries no div A term: A is uniform
    in space.  Both vanish identically on the shipped families.
    """
    m = params.mass
    A = pot.vector.components(jet.t, len(jet.xs))
    g = _positive_slope(jet)
    dsig, dS1, dsig1, dg = jet.dsigma, jet.dS1, jet.dsigma1, jet.dg
    flow = tuple(jet.dS[j] - A[j] for j in range(len(A)))

    eq_a = jet.S1_t + _dot(flow, dS1) / m - _dot(dsig, dsig1) / m \
        + jet.lap_sigma / (2.0 * m) + _dot(dsig, dg) / (2.0 * m * g)

    eq_b = jet.sigma1_t + _dot(flow, dsig1) / m + _dot(dsig, dS1) / m \
        - 0.5 * (jet.lap_S / m + (jet.g_t + _dot(flow, dg) / m) / g)

    return eq_a, eq_b


def first_integral_residual(jet: FieldJet, params: PhysParams) -> np.ndarray:
    """Residual of the envelope first integral

        |d rho / d theta| - sqrt(2 m r / g) * sqrt(b^2 - rho^2) * rho

    with b^2 = g/(2 m r).  The derivative is taken analytically from
    the sech profile; the absolute value selects the branch valid on both
    flanks of the peak.  It holds for any jet with g > 0 and r > 0, so it
    checks the sech form, not a family.
    """
    b = envelope_amplitude(jet, params)
    theta = jet.sigma / params.hbar + jet.sigma1
    sech = _sech(theta)
    rho = b * sech
    drho_dtheta = -b * sech * np.tanh(theta)
    return np.abs(drho_dtheta) \
        - np.sqrt(2.0 * params.mass * params.r / jet.g) * np.sqrt(b * b - rho * rho) * rho

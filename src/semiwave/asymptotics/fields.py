"""Phase fields of the sech-envelope construction.

A solitary-wave asymptotic state is assembled from four real scalar fields:
the rapid action S and its envelope partner sigma (entering at order 1/hbar)
together with their first corrections S1 and sigma1 (entering at order one).
The envelope is

    rho = sqrt((grad sigma)^2 / (2 m kappa^2)) / cosh(sigma/hbar + sigma1)

and the assembled state is rho * exp(i S/hbar + i S1).  A WkbFields object
evaluates one FieldJet at a time: the four phases and every derivative the
construction reads, sampled at (xs, t).  The shipped families compute their
jets in closed form from shared intermediates; CallableWkbFields takes the
derivatives by central differences through the package's one difference
pair, `core._diff` (first derivatives in x and t) and `core._diff2` (second
derivatives in x).

The consumers below read a jet, not the fields, so a caller that needs the
state, its time derivative and the residuals at one (grid, t) evaluates the
phases once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semiwave.core import ComplexField, Grid, PhysParams, _along, _diff, _diff2

_THETA_GUARD = 300.0


@dataclass(frozen=True)
class FieldJet:
    """The phases and their derivatives at one set of sample points and time.

    Every entry is an array of the sample shape, or a plain float where it
    does not vary in space; the gradients hold one such entry per axis.
    g = (grad sigma)^2 is the square of the envelope slope.
    """

    S: np.ndarray | float
    sigma: np.ndarray | float
    S1: np.ndarray | float
    sigma1: np.ndarray | float
    dS: tuple
    dsigma: tuple
    dS1: tuple
    dsigma1: tuple
    S_t: np.ndarray | float
    sigma_t: np.ndarray | float
    S1_t: np.ndarray | float
    sigma1_t: np.ndarray | float
    lap_S: np.ndarray | float
    lap_sigma: np.ndarray | float
    g: np.ndarray | float
    dg: tuple
    g_t: np.ndarray | float


class WkbFields:
    """Scalar fields (S, sigma, S1, sigma1) on `dim` axes.

    Subclasses implement jet(xs, t).  Shipped families write every entry in
    closed form, and in particular never differentiate numerically in time.
    """

    dim: int = 1

    def jet(self, xs, t) -> FieldJet:
        raise NotImplementedError


def _grad(f, xs, t, dim):
    return tuple(_diff(*_along(f, xs, t, ax)) for ax in range(dim))


class CallableWkbFields(WkbFields):
    """Fields built from plain callables f(xs, t); the jet takes every
    derivative by central differences.  Meant for tests and experiments."""

    def __init__(self, S, sigma, S1=None, sigma1=None, dim=1):
        self.dim = dim
        self._phases = tuple(
            (lambda xs, t: 0.0) if f is None
            else (lambda xs, t, f=f: np.asarray(f(xs, t), dtype=float))
            for f in (S, sigma, S1, sigma1))

    def jet(self, xs, t) -> FieldJet:
        dim = self.dim
        S, sigma, S1, sigma1 = self._phases

        def g(ys, s):
            return sum(c * c for c in _grad(sigma, ys, s, dim))

        def lap(f):
            return sum(_diff2(*_along(f, xs, t, ax)) for ax in range(dim))

        def dt(f):
            return _diff(lambda s: f(xs, s), t)

        dsigma = _grad(sigma, xs, t, dim)
        return FieldJet(
            S=S(xs, t), sigma=sigma(xs, t), S1=S1(xs, t), sigma1=sigma1(xs, t),
            dS=_grad(S, xs, t, dim), dsigma=dsigma,
            dS1=_grad(S1, xs, t, dim), dsigma1=_grad(sigma1, xs, t, dim),
            S_t=dt(S), sigma_t=dt(sigma), S1_t=dt(S1), sigma1_t=dt(sigma1),
            lap_S=lap(S), lap_sigma=lap(sigma),
            g=sum(c * c for c in dsigma), dg=_grad(g, xs, t, dim), g_t=dt(g))


def _sech(z):
    # 2 e^{-|z|} / (1 + e^{-2|z|}) never overflows
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def _positive_slope(jet: FieldJet):
    """(grad sigma)^2 of the jet; a vanishing slope collapses the envelope
    and is rejected."""
    if np.any(jet.g <= 0):
        raise ValueError("degenerate envelope: (grad sigma)^2 must stay positive")
    return jet.g


def envelope_amplitude(jet: FieldJet, params: PhysParams) -> np.ndarray:
    """Peak amplitude sqrt((grad sigma)^2 / (2 m r)) of the envelope.

    The self-attraction must be focusing (r > 0) and the envelope slope
    nonzero.
    """
    if not params.r > 0:
        raise ValueError("envelope construction needs a focusing nonlinearity r > 0")
    g = np.asarray(_positive_slope(jet), dtype=float)
    return np.sqrt(g / (2.0 * params.mass * params.r))


def envelope_rho(jet: FieldJet, params: PhysParams) -> np.ndarray:
    """Envelope rho = amplitude / cosh(sigma/hbar + sigma1)."""
    amp = envelope_amplitude(jet, params)
    return amp * _sech(jet.sigma / params.hbar + jet.sigma1)


def assemble_leading_term(
    jet: FieldJet, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Leading-order state rho * exp(i (S/hbar + S1)) on the grid the jet
    was sampled on."""
    rho = envelope_rho(jet, params)
    ph = jet.S / params.hbar + jet.S1
    return ComplexField(grid, rho * np.exp(1j * ph), time=t, hbar=params.hbar)


def psi_via_representation(
    jet: FieldJet, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Same state through the rational form 2 a Psi0 / (1 + |Psi0|^2) with
    Psi0 = exp{(i/hbar)[S + i sigma + hbar (S1 + i sigma1)]}.

    Where the envelope argument exceeds the exp range the equivalent sech
    form is substituted, so deep tails stay finite.
    """
    amp = envelope_amplitude(jet, params)
    theta = jet.sigma / params.hbar + jet.sigma1
    ph = jet.S / params.hbar + jet.S1
    safe = np.abs(theta) <= _THETA_GUARD
    th = np.where(safe, theta, 0.0)
    e = np.exp(-th)
    rational = 2.0 * e / (1.0 + e * e)
    env = np.where(safe, rational, _sech(theta))
    return ComplexField(grid, amp * env * np.exp(1j * ph), time=t, hbar=params.hbar)


def leading_term_time_derivative(
    jet: FieldJet, psi: ComplexField, params: PhysParams
) -> ComplexField:
    """Analytic d/dt of the leading-order state psi assembled from the jet.

    With rho = a(x,t) sech(theta), the logarithmic derivative is
    a_t/a - tanh(theta) theta_t + i (S_t/hbar + S1_t), and
    a_t/a = (d/dt (grad sigma)^2) / (2 (grad sigma)^2).
    """
    g = np.asarray(jet.g, dtype=float)
    adot_over_a = np.asarray(jet.g_t, dtype=float) / (2.0 * g)
    theta_t = jet.sigma_t / params.hbar + jet.sigma1_t
    phase_t = jet.S_t / params.hbar + jet.S1_t
    logderiv = (
        adot_over_a
        - np.tanh(jet.sigma / params.hbar + jet.sigma1) * theta_t
        + 1j * phase_t
    )
    return psi.with_values(logderiv * psi.values)


def exponential_inner_field(
    jet: FieldJet, grid: Grid, t: float, params: PhysParams, with_dt: bool = False
):
    """The pure exponential Psi0 = exp{(i/hbar)[S + i sigma] + i(S1 + i sigma1)}
    that generates the rational representation; optionally with its analytic
    time derivative.  Used to probe the linear-equation property of the
    construction."""
    theta = jet.sigma / params.hbar + jet.sigma1
    ph = jet.S / params.hbar + jet.S1
    if np.any(np.abs(theta) > 700.0):
        raise ValueError("exponential representation overflows; evaluate on a "
                         "smaller window or use the assembled state")
    vals = np.exp(-theta + 1j * ph)
    psi0 = ComplexField(grid, vals, time=t, hbar=params.hbar)
    if not with_dt:
        return psi0
    theta_t = jet.sigma_t / params.hbar + jet.sigma1_t
    phase_t = jet.S_t / params.hbar + jet.S1_t
    dpsi = psi0.with_values((-theta_t + 1j * phase_t) * vals)
    return psi0, dpsi

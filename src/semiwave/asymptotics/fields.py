"""Phase fields of the sech-envelope construction.

A solitary-wave asymptotic state is assembled from four real scalar fields:
the rapid action S and its envelope partner sigma (entering at order 1/hbar)
together with their first corrections S1 and sigma1 (entering at order one).
The envelope is

    rho = sqrt((grad sigma)^2 / (2 m kappa^2)) / cosh(sigma/hbar + sigma1)

and the assembled state is rho * exp(i S/hbar + i S1).  A WkbFields object
bundles the four scalars with their derivative evaluators; families override
the finite-difference defaults with closed forms.  The defaults take central
differences through the package's one difference pair, `core._diff` (first
derivatives in x and t) and `core._diff2` (second derivatives in x).
"""

from __future__ import annotations

import numpy as np

from semiwave.core import ComplexField, Grid, PhysParams, _along, _constant, _diff, _diff2

_THETA_GUARD = 300.0


class WkbFields:
    """Scalar fields (S, sigma, S1, sigma1) with derivative evaluators.

    Subclasses implement the four value methods; every derivative method
    below has a central-difference default so synthetic fields built from
    bare callables still work.  Shipped families override the derivatives
    with analytic expressions, and in particular never differentiate
    numerically in time.
    """

    dim: int = 1

    # --- values -----------------------------------------------------------
    def S(self, xs, t):
        raise NotImplementedError

    def sigma(self, xs, t):
        raise NotImplementedError

    def S1(self, xs, t):
        return _constant(xs[0])

    def sigma1(self, xs, t):
        return _constant(xs[0])

    # --- finite-difference defaults ---------------------------------------
    def _grad(self, f, xs, t):
        return tuple(_diff(*_along(f, xs, t, ax)) for ax in range(self.dim))

    def _lap(self, f, xs, t):
        out = 0.0
        for ax in range(self.dim):
            out = out + _diff2(*_along(f, xs, t, ax))
        return out

    # --- first derivatives ------------------------------------------------
    def grad_S(self, xs, t):
        return self._grad(self.S, xs, t)

    def grad_sigma(self, xs, t):
        return self._grad(self.sigma, xs, t)

    def grad_S1(self, xs, t):
        return self._grad(self.S1, xs, t)

    def grad_sigma1(self, xs, t):
        return self._grad(self.sigma1, xs, t)

    def dt_S(self, xs, t):
        return _diff(lambda s: self.S(xs, s), t)

    def dt_sigma(self, xs, t):
        return _diff(lambda s: self.sigma(xs, s), t)

    def dt_S1(self, xs, t):
        return _diff(lambda s: self.S1(xs, s), t)

    def dt_sigma1(self, xs, t):
        return _diff(lambda s: self.sigma1(xs, s), t)

    # --- second-order quantities -----------------------------------------
    def lap_S(self, xs, t):
        return self._lap(self.S, xs, t)

    def lap_sigma(self, xs, t):
        return self._lap(self.sigma, xs, t)

    def grad_sigma_sq(self, xs, t):
        """(grad sigma)^2, the square of the envelope slope."""
        out = 0.0
        for g in self.grad_sigma(xs, t):
            out = out + g * g
        return out

    def grad_of_grad_sigma_sq(self, xs, t):
        """Gradient of (grad sigma)^2."""
        return self._grad(self.grad_sigma_sq, xs, t)

    def dt_grad_sigma_sq(self, xs, t):
        return _diff(lambda s: self.grad_sigma_sq(xs, s), t)

    # --- convenience ------------------------------------------------------
    def theta(self, xs, t, hbar: float):
        """Envelope argument sigma/hbar + sigma1."""
        return self.sigma(xs, t) / hbar + self.sigma1(xs, t)

    def phase(self, xs, t, hbar: float):
        """Carrier phase S/hbar + S1."""
        return self.S(xs, t) / hbar + self.S1(xs, t)


class CallableWkbFields(WkbFields):
    """Fields built from plain callables f(xs, t); derivatives fall back on
    the base-class finite differences.  Meant for tests and experiments."""

    def __init__(self, S, sigma, S1=None, sigma1=None, dim=1):
        self.dim = dim
        self._S = S
        self._sigma = sigma
        self._S1 = S1
        self._sigma1 = sigma1

    def S(self, xs, t):
        return np.asarray(self._S(xs, t), dtype=float)

    def sigma(self, xs, t):
        return np.asarray(self._sigma(xs, t), dtype=float)

    def S1(self, xs, t):
        if self._S1 is None:
            return super().S1(xs, t)
        return np.asarray(self._S1(xs, t), dtype=float)

    def sigma1(self, xs, t):
        if self._sigma1 is None:
            return super().sigma1(xs, t)
        return np.asarray(self._sigma1(xs, t), dtype=float)


def _sech(z):
    # 2 e^{-|z|} / (1 + e^{-2|z|}) never overflows
    a = np.abs(z)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def envelope_amplitude(w: WkbFields, xs, t: float, params: PhysParams) -> np.ndarray:
    """Peak amplitude sqrt((grad sigma)^2 / (2 m r)) of the envelope.

    The self-attraction must be focusing (r > 0) and the envelope slope
    nonzero; a vanishing slope collapses the envelope and is rejected.
    """
    if not params.r > 0:
        raise ValueError("envelope construction needs a focusing nonlinearity r > 0")
    g = np.asarray(w.grad_sigma_sq(xs, t), dtype=float)
    if np.any(g <= 0):
        raise ValueError("degenerate envelope: (grad sigma)^2 vanishes on the grid")
    return np.sqrt(g / (2.0 * params.mass * params.r))


def envelope_rho(w: WkbFields, xs, t: float, params: PhysParams) -> np.ndarray:
    """Envelope rho = amplitude / cosh(sigma/hbar + sigma1)."""
    amp = envelope_amplitude(w, xs, t, params)
    return amp * _sech(w.theta(xs, t, params.hbar))


def assemble_leading_term(
    w: WkbFields, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Leading-order state rho * exp(i (S/hbar + S1)) sampled on the grid."""
    xs = grid.mesh()
    rho = envelope_rho(w, xs, t, params)
    ph = w.phase(xs, t, params.hbar)
    return ComplexField(grid, rho * np.exp(1j * ph), time=t, hbar=params.hbar)


def psi_via_representation(
    w: WkbFields, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Same state through the rational form 2 a Psi0 / (1 + |Psi0|^2) with
    Psi0 = exp{(i/hbar)[S + i sigma + hbar (S1 + i sigma1)]}.

    Where the envelope argument exceeds the exp range the equivalent sech
    form is substituted, so deep tails stay finite.
    """
    xs = grid.mesh()
    amp = envelope_amplitude(w, xs, t, params)
    theta = w.theta(xs, t, params.hbar)
    ph = w.phase(xs, t, params.hbar)
    safe = np.abs(theta) <= _THETA_GUARD
    th = np.where(safe, theta, 0.0)
    e = np.exp(-th)
    rational = 2.0 * e / (1.0 + e * e)
    env = np.where(safe, rational, _sech(theta))
    return ComplexField(grid, amp * env * np.exp(1j * ph), time=t, hbar=params.hbar)


def leading_term_time_derivative(
    w: WkbFields, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Analytic d/dt of the leading-order state.

    With rho = a(x,t) sech(theta), the logarithmic derivative is
    a_t/a - tanh(theta) theta_t + i (S_t/hbar + S1_t), and
    a_t/a = (d/dt (grad sigma)^2) / (2 (grad sigma)^2).
    """
    xs = grid.mesh()
    psi = assemble_leading_term(w, grid, t, params)
    g = np.asarray(w.grad_sigma_sq(xs, t), dtype=float)
    adot_over_a = np.asarray(w.dt_grad_sigma_sq(xs, t), dtype=float) / (2.0 * g)
    theta_t = w.dt_sigma(xs, t) / params.hbar + w.dt_sigma1(xs, t)
    phase_t = w.dt_S(xs, t) / params.hbar + w.dt_S1(xs, t)
    logderiv = (
        adot_over_a
        - np.tanh(w.theta(xs, t, params.hbar)) * theta_t
        + 1j * phase_t
    )
    return psi.with_values(logderiv * psi.values)


def exponential_inner_field(
    w: WkbFields, grid: Grid, t: float, params: PhysParams, with_dt: bool = False
):
    """The pure exponential Psi0 = exp{(i/hbar)[S + i sigma] + i(S1 + i sigma1)}
    that generates the rational representation; optionally with its analytic
    time derivative.  Used to probe the linear-equation property of the
    construction."""
    xs = grid.mesh()
    theta = w.theta(xs, t, params.hbar)
    ph = w.phase(xs, t, params.hbar)
    if np.any(np.abs(theta) > 700.0):
        raise ValueError("exponential representation overflows; evaluate on a "
                         "smaller window or use the assembled state")
    vals = np.exp(-theta + 1j * ph)
    psi0 = ComplexField(grid, vals, time=t, hbar=params.hbar)
    if not with_dt:
        return psi0
    theta_t = w.dt_sigma(xs, t) / params.hbar + w.dt_sigma1(xs, t)
    phase_t = w.dt_S(xs, t) / params.hbar + w.dt_S1(xs, t)
    dpsi = psi0.with_values((-theta_t + 1j * phase_t) * vals)
    return psi0, dpsi

"""Phase fields of the sech-envelope construction.

A solitary-wave asymptotic state is assembled from four real scalar fields:
the rapid action S and its envelope partner sigma (entering at order 1/hbar)
together with their first corrections S1 and sigma1 (entering at order one).
The envelope is

    rho = sqrt((grad sigma)^2 / (2 m kappa^2)) / cosh(sigma/hbar + sigma1)

and the assembled state is rho * exp(i S/hbar + i S1).  A WkbFields object
evaluates one FieldJet at a time: the four phases and every derivative the
construction reads, sampled at (xs, t).  The phases, their time derivatives
and g = (grad sigma)^2 with its time derivative are computed with the jet;
the seven spatial-derivative entries come from one derivative block that
the family supplies and the jet evaluates on first read, at most once.  The
shipped families compute their jets in closed form from shared
intermediates; CallableWkbFields takes the derivatives by central
differences through the package's one difference pair, `core._diff` (first
derivatives in x and t) and `core._diff2` (second derivatives in x).

The consumers below read a jet, not the fields, so a caller that needs the
state, its time derivative and the residuals at one (grid, t) evaluates the
phases once, and the derivative block only if a residual reads it.  The
leading state is built in the array of its phase factor exp(i(S/hbar + S1))
(`core._expi`) and its time derivative in that of its logarithmic
derivative, with the operations and operand order of the plain formulas, so
the values have the same bits.  Their array bodies take any sample points,
so the public builders and a caller that samples a radial jet once per
reflection class of the grid run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from semiwave.core import ComplexField, Grid, PhysParams, _along, _diff, _diff2, _expi

_THETA_GUARD = 300.0


@dataclass(frozen=True)
class FieldJet:
    """The phases and their derivatives at one set of sample points and time.

    Every entry is an array of the sample shape, or a plain float where it
    does not vary in space (sigma, whose slope builds the envelope, always
    varies); the gradients hold one such entry per axis.  g = (grad sigma)^2
    is the square of the envelope slope.

    The ten value and time entries are computed when the jet is built.  The
    seven spatial-derivative entries (dS, dsigma, dS1, dsigma1, lap_S,
    lap_sigma, dg) come from one block: `derivatives()` returns them as a
    dict keyed by name, and the jet calls it on the first read of any of
    them and at most once.  The leading state and its time derivative read
    none of them, so building those never pays for the block.
    """

    S: np.ndarray | float
    sigma: np.ndarray | float
    S1: np.ndarray | float
    sigma1: np.ndarray | float
    S_t: np.ndarray | float
    sigma_t: np.ndarray | float
    S1_t: np.ndarray | float
    sigma1_t: np.ndarray | float
    g: np.ndarray | float
    g_t: np.ndarray | float
    derivatives: Callable[[], dict] = field(repr=False)

    @cached_property
    def _block(self) -> dict:
        return self.derivatives()

    dS = property(lambda self: self._block["dS"])
    dsigma = property(lambda self: self._block["dsigma"])
    dS1 = property(lambda self: self._block["dS1"])
    dsigma1 = property(lambda self: self._block["dsigma1"])
    lap_S = property(lambda self: self._block["lap_S"])
    lap_sigma = property(lambda self: self._block["lap_sigma"])
    dg = property(lambda self: self._block["dg"])


class WkbFields:
    """Scalar fields (S, sigma, S1, sigma1) on `dim` axes.

    Subclasses implement jet(xs, t).  Shipped families write every entry in
    closed form, and in particular never differentiate numerically in time.

    `radial` is True when every value and time entry of the jet depends on
    position only through x*x + y*y.  Such a jet may then be sampled once
    per reflection class of a grid (`core._reflection_classes`), so a
    subclass may set it only when that holds bit for bit.
    """

    dim: int = 1
    radial: bool = False

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
            S_t=dt(S), sigma_t=dt(sigma), S1_t=dt(S1), sigma1_t=dt(sigma1),
            g=sum(c * c for c in dsigma), g_t=dt(g),
            derivatives=lambda: dict(
                dS=_grad(S, xs, t, dim), dsigma=dsigma,
                dS1=_grad(S1, xs, t, dim), dsigma1=_grad(sigma1, xs, t, dim),
                lap_S=lap(S), lap_sigma=lap(sigma), dg=_grad(g, xs, t, dim)))


def _sech(z, out=None):
    """sech z as 2 e^{-|z|} / (1 + e^{-2|z|}), which never overflows, built
    in `out` (z itself may be passed) or in one new array."""
    e = np.abs(z, out=np.empty(np.shape(z)) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e * e
    den += 1.0
    e *= 2.0
    e /= den
    return e


def _envelope_argument(jet: FieldJet, hbar: float) -> np.ndarray:
    """theta = sigma/hbar + sigma1, in one new array."""
    theta = jet.sigma / hbar
    theta += jet.sigma1
    return theta


def _carrier(jet: FieldJet, shape, hbar: float) -> np.ndarray:
    """exp(i (S/hbar + S1)) over the sample shape, in one new complex array."""
    return _expi(np.broadcast_to(jet.S / hbar + jet.S1, shape))


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
    rho = _envelope_argument(jet, params.hbar)
    _sech(rho, out=rho)
    return np.multiply(amp, rho, out=rho)


def _leading_values(jet: FieldJet, shape, params: PhysParams) -> np.ndarray:
    """rho * exp(i (S/hbar + S1)) at the jet's sample points, built in the
    array of its phase factor."""
    rho = envelope_rho(jet, params)
    psi = _carrier(jet, shape, params.hbar)
    return np.multiply(rho, psi, out=psi)


def _representation_values(jet: FieldJet, shape, params: PhysParams) -> np.ndarray:
    """The rational form of `psi_via_representation` at the jet's sample
    points."""
    amp = envelope_amplitude(jet, params)
    theta = _envelope_argument(jet, params.hbar)
    safe = np.abs(theta) <= _THETA_GUARD
    th = np.where(safe, theta, 0.0)
    e = np.exp(-th)
    rational = 2.0 * e / (1.0 + e * e)
    env = np.where(safe, rational, _sech(theta))
    psi = _carrier(jet, shape, params.hbar)
    return np.multiply(amp * env, psi, out=psi)


def _time_derivative_values(jet: FieldJet, psi: np.ndarray,
                            params: PhysParams) -> np.ndarray:
    """d/dt of the leading state, given its values psi at the jet's sample
    points, built in the array of its logarithmic derivative."""
    g = np.asarray(jet.g, dtype=float)
    adot_over_a = np.asarray(jet.g_t, dtype=float) / (2.0 * g)
    theta_t = jet.sigma_t / params.hbar + jet.sigma1_t
    phase_t = jet.S_t / params.hbar + jet.S1_t
    real = _envelope_argument(jet, params.hbar)
    np.tanh(real, out=real)
    np.multiply(real, theta_t, out=real)
    np.subtract(adot_over_a, real, out=real)
    logderiv = np.add(real, 1j * phase_t)
    return np.multiply(logderiv, psi, out=logderiv)


def assemble_leading_term(
    jet: FieldJet, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Leading-order state rho * exp(i (S/hbar + S1)) on the grid the jet
    was sampled on, built in the array of its phase factor."""
    return ComplexField(grid, _leading_values(jet, grid.shape, params), time=t,
                        hbar=params.hbar)


def psi_via_representation(
    jet: FieldJet, grid: Grid, t: float, params: PhysParams
) -> ComplexField:
    """Same state through the rational form 2 a Psi0 / (1 + |Psi0|^2) with
    Psi0 = exp{(i/hbar)[S + i sigma + hbar (S1 + i sigma1)]}.

    Where the envelope argument exceeds the exp range the equivalent sech
    form is substituted, so deep tails stay finite.
    """
    return ComplexField(grid, _representation_values(jet, grid.shape, params), time=t,
                        hbar=params.hbar)


def leading_term_time_derivative(
    jet: FieldJet, psi: ComplexField, params: PhysParams
) -> ComplexField:
    """Analytic d/dt of the leading-order state psi assembled from the jet.

    With rho = a(x,t) sech(theta), the logarithmic derivative is
    a_t/a - tanh(theta) theta_t + i (S_t/hbar + S1_t), and
    a_t/a = (d/dt (grad sigma)^2) / (2 (grad sigma)^2).  The result is
    built in the array of the logarithmic derivative.
    """
    return psi.with_values(_time_derivative_values(jet, psi.values, params))


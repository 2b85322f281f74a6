"""Reference implementations that the tests compare the library against.

Each reference is written apart from the code it checks: this module
imports only public semiwave names (tests/test_public_api.py parses it to
hold that), takes its derivatives with its own central differences, and
writes its own sech and phase factor.

* `CallableWkbFields`: a phase-field jet from plain callables f(xs, t),
  every derivative by central differences; the family tests compare each
  closed-form jet against the one built from its values.
* `cylindrical_special`: the closed-form ring state, against which the
  radial family's assembled leading term is checked.
* `classical_hamiltonian`: H = (p - A)^2/(2m) + V at a phase point, the
  conserved quantity of a static orbit.
"""

from __future__ import annotations

import numpy as np

from semiwave import ComplexField, CylindricalParams, FieldJet, Grid, PhysParams, WkbFields
from semiwave.classical import PhasePoint
from semiwave.core import PotentialSpec

_FD_STEP = 1e-6
_FD_STEP2 = 1e-4  # second differences lose digits at the first-order step


def _diff(f, x):
    """Central first difference of f at x, relative step _FD_STEP*(1 + |x|)."""
    h = _FD_STEP * (1.0 + np.abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _diff2(f, x):
    """Central second difference of f at x, relative step _FD_STEP2*(1 + |x|)."""
    h = _FD_STEP2 * (1.0 + np.abs(x))
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _along(f, xs, t, axis):
    """f(xs, t) as a function of coordinate `axis` alone, and that coordinate:
    `_diff(*_along(f, xs, t, axis))` is the partial derivative along it."""
    xs = tuple(np.asarray(c, dtype=float) for c in xs)
    return (lambda s: f(xs[:axis] + (s,) + xs[axis + 1:], t)), xs[axis]


def _grad(f, xs, t, dim):
    return tuple(_diff(*_along(f, xs, t, ax)) for ax in range(dim))


class CallableWkbFields(WkbFields):
    """Fields built from plain callables f(xs, t); the jet takes every
    derivative by central differences."""

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
            xs=xs, t=t, S=S(xs, t), sigma=sigma(xs, t), S1=S1(xs, t), sigma1=sigma1(xs, t),
            S_t=dt(S), sigma_t=dt(sigma), S1_t=dt(S1), sigma1_t=dt(sigma1),
            g=sum(c * c for c in dsigma), g_t=dt(g),
            derivatives=lambda: dict(
                dS=_grad(S, xs, t, dim), dsigma=dsigma,
                dS1=_grad(S1, xs, t, dim), dsigma1=_grad(sigma1, xs, t, dim),
                lap_S=lap(S), lap_sigma=lap(sigma), dg=_grad(g, xs, t, dim)))


def cylindrical_special(cp: CylindricalParams, grid: Grid, t: float,
                        params: PhysParams) -> ComplexField:
    """Closed-form ring state

        (c1/sqrt(2 m r)) sech[(c1/hbar + a2) rad + c1 b1 t + log(rad)/2
                              + a1/hbar + a3]
        * exp{i [(c1^2/(2 m hbar) + a2 c1/m) t - m b1 rad + c2/hbar + c3]}

    on an axis-offset grid (rad denotes the distance from the axis), with
    sech written as 1/cosh: past |theta| ~ 710 cosh overflows to inf and
    the envelope reads 0, its value to double precision.
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
    with np.errstate(over="ignore"):
        envelope = 1.0 / np.cosh(theta)
    return ComplexField(grid, amp * envelope * np.exp(1j * phase), time=t, hbar=hbar)


def classical_hamiltonian(point: PhasePoint, pot: PotentialSpec, mass: float) -> float:
    """H(x, p, t) = (p - A)^2/(2m) + V."""
    v = float(pot.scalar.value(point.x, point.t))
    a = pot.vector.components(point.t, point.dim)
    kin = sum((pj - aj) ** 2 for pj, aj in zip(point.p, a)) / (2.0 * mass)
    return kin + v

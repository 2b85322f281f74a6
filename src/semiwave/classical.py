"""Classical centroid dynamics.

A concentrated wave packet's centre moves along the characteristics of the
classical Hamiltonian H = (p - A(x,t))^2 / (2m) + V(x,t).  The
self-attraction strength never enters these equations, which is why the
functions below take the mass alone and not the full parameter bundle:
there is no way to pass the nonlinearity in.

Orbits run on tuples of Python floats: the spec methods (value, gradient,
jacobian) receive the position as one float per coordinate, return 0-d
values, and are read with float().  A spatially constant A
(ZeroVector, UniformVector) has a zero jacobian, so its Lorentz sum is
skipped rather than evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semiwave.core import PotentialSpec, _SpatiallyConstant


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, p) of phase space at a time t; 1d or 2d."""

    x: tuple[float, ...]
    p: tuple[float, ...]
    t: float = 0.0

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise ValueError("position and momentum must have equal dimension")
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))

    @property
    def dim(self) -> int:
        return len(self.x)


@dataclass
class Trajectory:
    """Uniform-step solution of the characteristic system: the times t, and
    the positions x and momenta p as (steps, dim) arrays."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    dt: float

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def points(self) -> list[PhasePoint]:
        """The samples as phase points, built on each read."""
        return [PhasePoint(x, p, t)
                for t, x, p in zip(self.t.tolist(), self.x.tolist(), self.p.tolist())]

    def times(self) -> np.ndarray:
        return self.t

    def positions(self) -> np.ndarray:
        return self.x

    def momenta(self) -> np.ndarray:
        return self.p


def classical_hamiltonian(point: PhasePoint, pot: PotentialSpec, mass: float) -> float:
    """H(x, p, t) = (p - A)^2/(2m) + V."""
    v = float(pot.scalar.value(point.x, point.t))
    a = [float(c) for c in pot.vector.value(point.x, point.t)]
    kin = sum((pj - aj) ** 2 for pj, aj in zip(point.p, a)) / (2.0 * mass)
    return kin + v


def _rhs(x: tuple[float, ...], p: tuple[float, ...], t: float, pot: PotentialSpec,
         mass: float):
    """Right-hand side (dx/dt, dp/dt) of the characteristic system at the
    position x and momentum p, both tuples of dim floats.

    dx_i/dt = (p_i - A_i)/m
    dp_i/dt = -dV/dx_i + sum_j (dA_j/dx_i) (p_j - A_j)/m
    """
    u = [pj - float(aj) for pj, aj in zip(p, pot.vector.value(x, t))]
    grad = pot.scalar.gradient(x, t)
    if isinstance(pot.vector, _SpatiallyConstant):
        # zero jacobian; 0.0 - g gives +0.0 for a zero gradient, as the
        # Lorentz sum -g + 0.0*u/m does whenever u >= 0
        dp = [0.0 - float(gi) for gi in grad]
    else:
        dp = []
        for gi, row in zip(grad, pot.vector.jacobian(x, t)):
            force = -float(gi)
            for jij, uj in zip(row, u):
                force += float(jij) * uj / mass
            dp.append(force)
    return tuple(uj / mass for uj in u), tuple(dp)


def _shift(x: tuple[float, ...], h: float, k: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(xi + h * ki for xi, ki in zip(x, k))


def integrate_bicharacteristic(
    z0: PhasePoint, t1: float, dt: float, pot: PotentialSpec, mass: float
) -> Trajectory:
    """Integrate the characteristic system from z0.t to (approximately) t1
    with the classical fourth-order Runge-Kutta scheme at a fixed step.

    The number of steps is round((t1 - z0.t)/dt), so the final time lands
    within one step of t1 and the step stays exactly uniform.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    span = t1 - z0.t
    if span < 0:
        raise ValueError("t1 must not precede the initial time")
    nsteps = int(round(span / dt))
    half, sixth = 0.5 * dt, dt / 6.0
    t, x, p = z0.t, z0.x, z0.p
    t_all = np.empty(nsteps + 1)
    x_all = np.empty((nsteps + 1, z0.dim))
    p_all = np.empty((nsteps + 1, z0.dim))
    t_all[0], x_all[0], p_all[0] = t, x, p
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            try:
                k1x, k1p = _rhs(x, p, t, pot, mass)
                k2x, k2p = _rhs(_shift(x, half, k1x), _shift(p, half, k1p), t + half, pot, mass)
                k3x, k3p = _rhs(_shift(x, half, k2x), _shift(p, half, k2p), t + half, pot, mass)
                k4x, k4p = _rhs(_shift(x, dt, k3x), _shift(p, dt, k3p), t + dt, pot, mass)
            except OverflowError as exc:  # float ** in a spec overflows, where numpy gives inf
                raise RuntimeError(f"trajectory blew up at step {step}") from exc
            x = tuple(xi + sixth * (a + 2 * b + 2 * c + d)
                      for xi, a, b, c, d in zip(x, k1x, k2x, k3x, k4x))
            p = tuple(pi + sixth * (a + 2 * b + 2 * c + d)
                      for pi, a, b, c, d in zip(p, k1p, k2p, k3p, k4p))
            t = t + dt
            if not all(map(math.isfinite, x + p)):
                raise RuntimeError(f"trajectory blew up at step {step}")
            t_all[step], x_all[step], p_all[step] = t, x, p
    return Trajectory(t=t_all, x=x_all, p=p_all, dt=dt)

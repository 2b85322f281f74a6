"""Classical centroid dynamics.

A concentrated wave packet's centre moves along the characteristics of the
classical Hamiltonian H = (p - A(x,t))^2 / (2m) + V(x,t).  The
self-attraction strength never enters these equations, which is why the
functions below take the mass alone and not the full parameter bundle:
there is no way to pass the nonlinearity in.

Orbits run on tuples of Python floats: the scalar spec's value and
gradient receive the position as one float per coordinate, return floats
or 0-d values, and are read with float().  A is uniform in space
(UniformVector), read through its components(t, dim): it shifts the
velocity to (p - A)/m and, having no jacobian, exerts no force, so p
changes under -grad V alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semiwave.core import PotentialSpec, _Schedule


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
    """Solution of the characteristic system at the nodes of its step
    schedule: the times t, and the positions x and momenta p as
    (steps + 1, dim) arrays."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray

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


def _rhs(x: tuple[float, ...], p: tuple[float, ...], t: float, pot: PotentialSpec,
         mass: float):
    """Right-hand side (dx/dt, dp/dt) of the characteristic system at the
    position x and momentum p, both tuples of dim floats.

    dx_i/dt = (p_i - A_i)/m
    dp_i/dt = -dV/dx_i
    """
    a = pot.vector.components(t, len(x))
    # 0.0 - g gives +0.0 for a zero gradient
    dp = tuple(0.0 - float(gi) for gi in pot.scalar.gradient(x, t))
    return tuple((pj - aj) / mass for pj, aj in zip(p, a)), dp


def _shift(x: tuple[float, ...], h: float, k: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(xi + h * ki for xi, ki in zip(x, k))


def integrate_bicharacteristic(
    z0: PhasePoint, t1: float, dt: float, pot: PotentialSpec, mass: float
) -> Trajectory:
    """Integrate the characteristic system from z0.t to t1 with the
    classical fourth-order Runge-Kutta scheme, one RK4 step of length h per
    step (h, end time) of core._Schedule(z0.t, t1, dt), the propagator's
    step rule: the recorded times are the floats evolve() records for the
    same start, end and dt, t0 + k dt and then t1.
    """
    steps = _Schedule(z0.t, t1, dt)
    nodes = len(steps) + 1
    t, x, p = z0.t, z0.x, z0.p
    t_all = np.empty(nodes)
    x_all = np.empty((nodes, z0.dim))
    p_all = np.empty((nodes, z0.dim))
    t_all[0], x_all[0], p_all[0] = t, x, p
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (h, t_next) in enumerate(steps, 1):
            half, sixth = 0.5 * h, h / 6.0
            try:
                k1x, k1p = _rhs(x, p, t, pot, mass)
                k2x, k2p = _rhs(_shift(x, half, k1x), _shift(p, half, k1p), t + half, pot, mass)
                k3x, k3p = _rhs(_shift(x, half, k2x), _shift(p, half, k2p), t + half, pot, mass)
                k4x, k4p = _rhs(_shift(x, h, k3x), _shift(p, h, k3p), t_next, pot, mass)
            except OverflowError as exc:  # float ** in a spec overflows, where numpy gives inf
                raise RuntimeError(f"trajectory blew up at step {step}") from exc
            x = tuple(xi + sixth * (a + 2 * b + 2 * c + d)
                      for xi, a, b, c, d in zip(x, k1x, k2x, k3x, k4x))
            p = tuple(pi + sixth * (a + 2 * b + 2 * c + d)
                      for pi, a, b, c, d in zip(p, k1p, k2p, k3p, k4p))
            t = t_next
            if not all(map(math.isfinite, x + p)):
                raise RuntimeError(f"trajectory blew up at step {step}")
            t_all[step], x_all[step], p_all[step] = t, x, p
    return Trajectory(t=t_all, x=x_all, p=p_all)

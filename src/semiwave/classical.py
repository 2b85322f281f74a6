"""Classical centroid dynamics.

A concentrated wave packet's centre moves along the characteristics of the
classical Hamiltonian H = (p - A(x,t))^2 / (2m) + V(x,t).  The
self-attraction strength never enters these equations, which is why the
functions below take the mass alone and not the full parameter bundle:
there is no way to pass the nonlinearity in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semiwave.core import PotentialSpec


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


def _sample(comps) -> np.ndarray:
    """The single value of each one-sample component array."""
    return np.array([np.asarray(c).ravel()[0] for c in comps], dtype=float)


def classical_hamiltonian(point: PhasePoint, pot: PotentialSpec, mass: float) -> float:
    """H(x, p, t) = (p - A)^2/(2m) + V."""
    xs = tuple(np.array(point.x)[:, None])
    v = float(np.ravel(pot.scalar.value(xs, point.t))[0])
    a = _sample(pot.vector.value(xs, point.t)).tolist()
    kin = sum((pj - aj) ** 2 for pj, aj in zip(point.p, a)) / (2.0 * mass)
    return kin + v


def _rhs(x: np.ndarray, p: np.ndarray, t: float, pot: PotentialSpec, mass: float):
    """Right-hand side (dx/dt, dp/dt) of the characteristic system at the
    position x and momentum p, both float arrays of length dim.

    dx_i/dt = (p_i - A_i)/m
    dp_i/dt = -dV/dx_i + sum_j (dA_j/dx_i) (p_j - A_j)/m
    """
    xs = tuple(x[:, None])
    u = p - _sample(pot.vector.value(xs, t))
    dp = []
    for gi, row in zip(_sample(pot.scalar.gradient(xs, t)).tolist(), pot.vector.jacobian(xs, t)):
        # summed in index order on floats; a matrix product may round differently
        force = -gi
        for jij, uj in zip(_sample(row).tolist(), u.tolist()):
            force += jij * uj / mass
        dp.append(force)
    return u / mass, np.array(dp)


def hamilton_rhs(point: PhasePoint, pot: PotentialSpec, mass: float):
    """Right-hand side (dx/dt, dp/dt) of the characteristic system at a
    phase point, as tuples; see `_rhs`."""
    vel, dp = _rhs(np.array(point.x), np.array(point.p), point.t, pot, mass)
    return tuple(vel.tolist()), tuple(dp.tolist())


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
    t, x, p = z0.t, np.array(z0.x), np.array(z0.p)
    t_all = np.empty(nsteps + 1)
    x_all = np.empty((nsteps + 1, z0.dim))
    p_all = np.empty((nsteps + 1, z0.dim))
    t_all[0], x_all[0], p_all[0] = t, x, p
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            k1x, k1p = _rhs(x, p, t, pot, mass)
            k2x, k2p = _rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p, t + 0.5 * dt, pot, mass)
            k3x, k3p = _rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p, t + 0.5 * dt, pot, mass)
            k4x, k4p = _rhs(x + dt * k3x, p + dt * k3p, t + dt, pot, mass)
            x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            t = t + dt
            if not (np.isfinite(x).all() and np.isfinite(p).all()):
                raise RuntimeError(f"trajectory blew up at step {step}")
            t_all[step], x_all[step], p_all[step] = t, x, p
    return Trajectory(t=t_all, x=x_all, p=p_all, dt=dt)

"""Centroid dynamics checks against closed-form orbits.

Oracles:
  * free particle: x(t) = x0 + p0 t / m, p constant
  * harmonic trap (omega = m = 1): x(t) = x0 cos t + p0 sin t,
    p(t) = p0 cos t - x0 sin t; with a constant uniform A the same with
    p0 - A in place of p0, and p = A + (p0 - A) cos t - x0 sin t
  * uniform vector potential A: velocity is (p - A)/m while p stays fixed
"""

import inspect

import numpy as np
import pytest

from semiwave.classical import PhasePoint, integrate_bicharacteristic
from semiwave.core import (
    ExpressionScalar,
    HarmonicScalar,
    PotentialSpec,
    SeparatedScalar,
    UniformVector,
)

from oracles import classical_hamiltonian


def harmonic(omega=1.0, mass=1.0):
    return PotentialSpec(scalar=HarmonicScalar(omega=(omega,), center=(0.0,), mass=mass))


def test_hamiltonian_value():
    # H = p^2/2m + m omega^2 x^2/2 = 0.125 + 2.0 at (x, p) = (2, 0.5)
    z = PhasePoint(x=(2.0,), p=(0.5,))
    assert classical_hamiltonian(z, harmonic(), 1.0) == pytest.approx(2.125)


def test_rhs_signature_has_no_nonlinearity():
    # the centroid flow cannot depend on the self-attraction: the API takes
    # only the mass, so there is nothing to smuggle the coefficient through
    names = set(inspect.signature(integrate_bicharacteristic).parameters)
    assert "r" not in names and "params" not in names


def test_free_motion():
    z0 = PhasePoint(x=(-5.0,), p=(0.5,))
    traj = integrate_bicharacteristic(z0, 10.0, 1e-2, PotentialSpec(), mass=1.0)
    end = traj.points[-1]
    assert end.t == pytest.approx(10.0)
    assert end.x[0] == pytest.approx(0.0, abs=1e-12)
    assert end.p[0] == pytest.approx(0.5, abs=1e-14)


def test_harmonic_orbit_closed_form():
    x0, p0 = 2.0, 0.5
    traj = integrate_bicharacteristic(
        PhasePoint(x=(x0,), p=(p0,)), 2.0 * np.pi, 1e-3, harmonic(), mass=1.0
    )
    ts = traj.times()
    xs = traj.positions()[:, 0]
    ps = traj.momenta()[:, 0]
    assert np.max(np.abs(xs - (x0 * np.cos(ts) + p0 * np.sin(ts)))) < 1e-10
    assert np.max(np.abs(ps - (p0 * np.cos(ts) - x0 * np.sin(ts)))) < 1e-10


def test_harmonic_energy_drift():
    traj = integrate_bicharacteristic(
        PhasePoint(x=(2.0,), p=(0.5,)), 2.0 * np.pi, 1e-3, harmonic(), mass=1.0
    )
    Es = [classical_hamiltonian(pt, harmonic(), 1.0) for pt in traj.points]
    assert max(abs(e - Es[0]) for e in Es) / Es[0] < 1e-10


def test_rk4_order_four():
    # halving dt should shrink the terminal error by about 2^4
    pot = harmonic()
    z0 = PhasePoint(x=(1.0,), p=(0.0,))
    errs = []
    for dt in (0.2, 0.1, 0.05):
        end = integrate_bicharacteristic(z0, 4.0, dt, pot, 1.0).points[-1]
        errs.append(abs(end.x[0] - np.cos(4.0)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 12.0 < r1 < 20.0
    assert 12.0 < r2 < 20.0


def test_time_reversal_symmetry():
    # flipping the momentum and integrating the same span again returns to
    # the starting position with the momentum flipped (V time-independent)
    pot = harmonic()
    z0 = PhasePoint(x=(1.3,), p=(-0.4,))
    fwd = integrate_bicharacteristic(z0, 3.0, 1e-3, pot, 1.0).points[-1]
    mirrored = PhasePoint(x=fwd.x, p=(-fwd.p[0],), t=0.0)
    back = integrate_bicharacteristic(mirrored, 3.0, 1e-3, pot, 1.0).points[-1]
    assert back.x[0] == pytest.approx(z0.x[0], abs=1e-10)
    assert back.p[0] == pytest.approx(-z0.p[0], abs=1e-10)


def test_uniform_vector_potential_velocity():
    # with A constant the canonical momentum is conserved and the velocity
    # picks up the shift (p - A)/m = 0.375
    pot = PotentialSpec(vector=UniformVector(a_of_t=lambda t: (0.25,)))
    z0 = PhasePoint(x=(0.0,), p=(1.0,))
    end = integrate_bicharacteristic(z0, 4.0, 1e-2, pot, 2.0).points[-1]
    assert end.p[0] == pytest.approx(1.0, abs=1e-13)
    assert end.x[0] == pytest.approx(4.0 * 0.375, abs=1e-10)


def test_last_step_is_shortened_to_land_on_t1():
    """The orbit walks the propagator's schedule: three steps of 0.3, then
    one of 0.1 that ends on t1 = 1 exactly.  Each RK4 step moves the unit
    circle off the rotation by at most h^5/120 (2.0e-5 at h = 0.3), 6.1e-5
    summed over the steps; measured 4.1e-5 (x) and 4.8e-5 (p)."""
    traj = integrate_bicharacteristic(PhasePoint(x=(1.0,), p=(0.0,)), 1.0, 0.3, harmonic(), 1.0)
    t = traj.times()
    assert t.tolist() == [0.0, 0.3, 2 * 0.3, 3 * 0.3, 1.0]
    assert np.max(np.abs(traj.positions()[:, 0] - np.cos(t))) < 6.1e-5
    assert np.max(np.abs(traj.momenta()[:, 0] + np.sin(t))) < 6.1e-5


def test_2d_point_and_motion():
    z0 = PhasePoint(x=(1.0, 0.0), p=(0.0, 0.5))
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0, 1.0), center=(0.0, 0.0), mass=1.0))
    T = 1.6  # an exact multiple of dt, so the end time is hit exactly
    end = integrate_bicharacteristic(z0, T, 1e-3, pot, 1.0).points[-1]
    assert end.t == pytest.approx(T, abs=1e-12)
    assert end.x[0] == pytest.approx(np.cos(T), abs=1e-10)
    assert end.x[1] == pytest.approx(0.5 * np.sin(T), abs=1e-10)
    assert end.p[0] == pytest.approx(-np.sin(T), abs=1e-10)


def test_blowup_detected():
    # an inverted quadratic potential with a huge rate overflows quickly
    pot = PotentialSpec(scalar=ExpressionScalar(fn=lambda xs, t: -1e8 * xs[0] ** 2,
                                                grad=lambda xs, t: (-2e8 * xs[0],)))
    z0 = PhasePoint(x=(1.0,), p=(0.0,))
    with pytest.raises(RuntimeError, match="step"):
        integrate_bicharacteristic(z0, 100.0, 0.5, pot, 1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        PhasePoint(x=(1.0, 2.0), p=(0.0,))


# measured max |error| over one period at dt = 1e-3 (positions and
# momenta) and the bound set at about 5x the larger of the two
FLOAT_PATH_ORBITS = {
    # both measured 8.6e-14 / 1.0e-13: the same arithmetic on the float path
    "separated_prime": (PotentialSpec(scalar=SeparatedScalar(
        v1=lambda x: 0.5 * x ** 2, v1_prime=lambda x: x)), 5e-13),
    "expression_grad": (PotentialSpec(scalar=ExpressionScalar(
        fn=lambda xs, t: 0.5 * xs[0] ** 2, grad=lambda xs, t: (xs[0],))), 5e-13),
}


@pytest.mark.parametrize("name", sorted(FLOAT_PATH_ORBITS))
def test_float_path_orbit_closed_form(name):
    """Each scalar form receives the position as one float per coordinate
    and still traces the closed-form harmonic orbit."""
    pot, tol = FLOAT_PATH_ORBITS[name]
    x0, p0 = 2.0, 0.5
    traj = integrate_bicharacteristic(PhasePoint(x=(x0,), p=(p0,)), 2.0 * np.pi, 1e-3, pot, 1.0)
    t = traj.times()
    assert np.max(np.abs(traj.positions()[:, 0] - (x0 * np.cos(t) + p0 * np.sin(t)))) < tol
    assert np.max(np.abs(traj.momenta()[:, 0] - (p0 * np.cos(t) - x0 * np.sin(t)))) < tol


def test_2d_harmonic_with_uniform_vector_closed_form():
    a = np.array([0.3, -0.2])
    x0, p0 = np.array([1.0, -0.5]), np.array([0.2, 0.7])
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0, 1.0), center=(0.0, 0.0)),
                        vector=UniformVector(a_of_t=lambda t: tuple(a)))
    traj = integrate_bicharacteristic(PhasePoint(x=tuple(x0), p=tuple(p0)), 2.0 * np.pi, 1e-3,
                                      pot, 1.0)
    t = traj.times()[:, None]
    x = x0 * np.cos(t) + (p0 - a) * np.sin(t)
    p = a + (p0 - a) * np.cos(t) - x0 * np.sin(t)
    # measured 4.3e-13 (positions) and 4.9e-13 (momenta): 5x margin
    assert np.max(np.abs(traj.positions() - x)) < 2.5e-12
    assert np.max(np.abs(traj.momenta() - p)) < 2.5e-12


def test_overflow_in_a_float_spec_is_a_blowup():
    # Python float ** raises OverflowError where numpy returns inf
    pot = PotentialSpec(scalar=ExpressionScalar(fn=lambda xs, t: 0.0,
                                                grad=lambda xs, t: (-1e8 * xs[0] ** 3,)))
    with pytest.raises(RuntimeError, match="blew up at step"):
        integrate_bicharacteristic(PhasePoint(x=(1.0,), p=(0.0,)), 100.0, 0.5, pot, 1.0)

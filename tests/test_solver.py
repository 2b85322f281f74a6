"""Propagator and residual-evaluator checks.

Oracle values used here:
  * plane wave exp(i p x / hbar) under the kinetic term alone: global
    phase -p^2 T / (2 m hbar), no other change
  * free Gaussian spreading: Var(t) = s0^2 + (hbar t / (2 m s0))^2
  * coherent state in a unit harmonic well: <x>(t) = a cos(t)
  * uniform vector potential a0: evolution equals the a0 = 0 evolution of
    the state premultiplied by exp(-i a0 x / hbar), read back with the
    conjugate factor
  * uniform A(t) = a0 sin t with V = 0: the A = 0 soliton moved by
    (1/m) int a and rephased by exp(-(i/2m hbar) int a^2)
  * plane wave with an imposed wrong frequency: residual magnitude equals
    the dispersion mismatch |(p - A)^2/(2m) - hbar w| exactly, for A = 0
    and for a uniform A
  * exact symmetries of a run with V = 0 and a uniform A(t): translation
    by whole cells and a global phase factor commute with it
  * time reversal of a run with a static V and A = 0: conjugating, running
    again for the same time and conjugating back returns psi0
  * Galilean boost of a free run: exp(i k0 x) psi0 evolves into
    exp(i (k0 x - hbar k0^2 t / 2m)) psi(x - hbar k0 t / m, t)
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwave.core import (
    ComplexField,
    ExpressionScalar,
    HarmonicScalar,
    PhysParams,
    PotentialSpec,
    ScalarPotential,
    UniformVector,
    _Schedule,
    make_uniform_grid,
    norm_squared,
)
from semiwave.asymptotics import (
    SolitonFields,
    SolitonParams,
    assemble_leading_term,
    leading_term_time_derivative,
    one_soliton,
)
from semiwave import solver
from semiwave.moments import mean_position
from semiwave.classical import PhasePoint, integrate_bicharacteristic
from semiwave.solver import (
    SolverConfig,
    apply_nlse_operator,
    evolve,
    relative_residual,
)

def gaussian_state(grid, center=0.0, width=1.0, momentum=0.0, hbar=1.0):
    x = grid.axes()[0]
    psi = np.exp(-((x - center) ** 2) / (4.0 * width ** 2)
                 + 1j * momentum * x / hbar)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing[0])
    return ComplexField(grid, psi, time=0.0, hbar=hbar)


def mean_x(fld):
    x = fld.grid.axes()[0]
    dens = fld.density()
    return float(np.sum(x * dens) / np.sum(dens))


def var_x(fld):
    x = fld.grid.axes()[0]
    dens = fld.density()
    mu = np.sum(x * dens) / np.sum(dens)
    return float(np.sum((x - mu) ** 2 * dens) / np.sum(dens))


# ---------------------------------------------------------------------------
# propagation


def test_plane_wave_kinetic_phase():
    """A grid-resolved plane wave is a kinetic eigenstate: after time T
    the only change is the phase -p^2 T / (2 m hbar)."""
    grid = make_uniform_grid(1, -20.0, 20.0, 256)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    dk = 2.0 * np.pi / grid.lengths[0]
    p0 = 4.0 * dk * params.hbar
    x = grid.axes()[0]
    psi0 = ComplexField(grid, np.exp(1j * p0 * x / params.hbar), hbar=params.hbar)
    config = SolverConfig(dt=1e-2, t_end=1.0, snapshot_every=100,
                          params=params, pot=PotentialSpec())
    rec = evolve(psi0, config)
    expected = psi0.values * np.exp(-1j * p0 ** 2 * 1.0 / (2.0 * params.hbar))
    assert np.max(np.abs(rec.final.values - expected)) < 1e-10


def test_norm_preserved_per_step_and_over_run():
    """Every factor of the splitting is a pure phase, so the norm is
    conserved to rounding over a long nonlinear run."""
    grid = make_uniform_grid(1, -20.0, 20.0, 512)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.7)
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0,), center=(0.0,), mass=1.0))
    psi0 = gaussian_state(grid, center=1.0)
    config = SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=1000,
                          params=params, pot=pot)
    n0 = norm_squared(psi0)
    one = evolve(psi0, replace(config, t_end=psi0.time + config.dt)).final
    assert abs(norm_squared(one) - n0) / n0 < 1e-12
    rec = evolve(psi0, config)
    assert rec.mass_drift < 1e-10


def test_free_gaussian_spreading():
    """Linear free evolution widens a Gaussian by the closed-form law
    Var(t) = s0^2 + (hbar t / (2 m s0))^2."""
    grid = make_uniform_grid(1, -40.0, 40.0, 2048)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    s0 = 1.0
    psi0 = gaussian_state(grid, width=s0)
    config = SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=1000,
                          params=params, pot=PotentialSpec())
    rec = evolve(psi0, config)
    expected = s0 ** 2 + (params.hbar * 1.0 / (2.0 * params.mass * s0)) ** 2
    assert abs(var_x(rec.final) - expected) < 1e-6


def test_coherent_state_center_oscillates():
    """In a unit harmonic well the displaced ground state swings with
    <x>(t) = a cos(t)."""
    grid = make_uniform_grid(1, -10.0, 10.0, 512)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0,), center=(0.0,), mass=1.0))
    a = 1.0
    # harmonic ground state width: Var = hbar / (2 m w) -> s0 = sqrt(hbar/2)
    psi0 = gaussian_state(grid, center=a, width=np.sqrt(0.5))
    config = SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=1000,
                          params=params, pot=pot)
    rec = evolve(psi0, config)
    assert abs(mean_x(rec.final) - a * np.cos(1.0)) < 1e-6


def test_order_two_convergence():
    """Halving dt shrinks the terminal error fourfold against a dt/8
    reference on a smooth nonlinear run."""
    grid = make_uniform_grid(1, -20.0, 20.0, 256)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0,), center=(0.0,), mass=1.0))
    psi0 = gaussian_state(grid, center=0.5)

    def terminal(dt):
        config = SolverConfig(dt=dt, t_end=0.4, snapshot_every=10 ** 9,
                              params=params, pot=pot)
        return evolve(psi0, config).final.values

    ref = terminal(5e-4)
    errs = [np.max(np.abs(terminal(dt) - ref)) for dt in (8e-3, 4e-3, 2e-3)]
    slopes = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_uniform_vector_potential_gauge_identity():
    """With constant a0 and V = 0 the run equals the a0 = 0 run of the
    momentum-shifted state; commensurate a0/hbar makes it exact."""
    grid = make_uniform_grid(1, -20.0, 20.0, 256)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.3)
    dk = 2.0 * np.pi / grid.lengths[0]
    a0 = 4.0 * dk * params.hbar
    x = grid.axes()[0]
    psi0 = gaussian_state(grid)

    cfg_a = SolverConfig(dt=1e-3, t_end=0.2, snapshot_every=10 ** 9, params=params,
                         pot=PotentialSpec(vector=UniformVector(lambda t: (a0,))))
    rec_a = evolve(psi0, cfg_a)

    shifted = psi0.with_values(np.exp(-1j * a0 * x / params.hbar) * psi0.values)
    cfg_0 = SolverConfig(dt=1e-3, t_end=0.2, snapshot_every=10 ** 9, params=params,
                         pot=PotentialSpec())
    rec_0 = evolve(shifted, cfg_0)
    back = np.exp(1j * a0 * x / params.hbar) * rec_0.final.values
    assert np.max(np.abs(rec_a.final.values - back)) < 1e-10


def test_time_varying_uniform_a_matches_gauge_oracle():
    """Under V = 0 and A(t) = a0 sin t the solution is the A = 0 soliton u
    moved and rephased: psi_A(x, t) = exp(-(i/2m hbar) int_0^t a^2)
    u(x + (1/m) int_0^t a, t).  Strang samples A at each kinetic step's
    midpoint, which integrates sin t only to O(dt^2), so the L2 error
    against psi_A falls by 4 per halving of dt, and the centroid trails
    the orbit by exactly the midpoint rule's error in int a.  The orbit,
    dx/dt = (p - a)/m with p fixed, ends at x0 + 2 xi t/m - (1/m) int a.
    The soliton starts at the centre of the +-20 box, so its tails at the
    edges (below 1e-8) stay under the dt = 1e-3 error; from the shipped
    x0 = -5 the cut tail leaves a floor near 3e-7, and the ratio reads 2.2."""
    a0, t_end, m = 0.3, 2.0, 1.0
    params = PhysParams(hbar=1.0, mass=m, r=0.5)
    sp = SolitonParams(xi=0.25, eta=0.5)
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    pot = PotentialSpec(vector=UniformVector(lambda t: (a0 * np.sin(t),)))
    int_a = a0 * (1.0 - np.cos(t_end))
    int_a2 = a0 ** 2 * (t_end / 2.0 - np.sin(2.0 * t_end) / 4.0)
    moved = make_uniform_grid(1, -20.0 + int_a / m, 20.0 + int_a / m, 1024)
    exact = np.exp(-1j * int_a2 / (2.0 * m * params.hbar)) \
        * one_soliton(sp, moved, t_end, params).values

    orbit_end = 2.0 * sp.xi * t_end / m - int_a / m
    errs = []
    for dt in (2e-3, 1e-3):
        final = evolve(one_soliton(sp, grid, 0.0, params),
                       SolverConfig(dt=dt, t_end=t_end, snapshot_every=10 ** 9,
                                    params=params, pot=pot)).final
        errs.append(np.linalg.norm(final.values - exact) / np.linalg.norm(exact))
        orbit = integrate_bicharacteristic(PhasePoint(x=(sp.x0,), p=(2.0 * sp.xi,)),
                                           t_end, dt, pot, m)
        # measured 1.6e-15 and 2.2e-16
        assert orbit.x[-1, 0] == pytest.approx(orbit_end, abs=1e-14)
        assert orbit.p[-1, 0] == 2.0 * sp.xi
        mids = np.arange(0.5, round(t_end / dt)) * dt
        midpoint_lag = (dt * np.sum(a0 * np.sin(mids)) - int_a) / m
        # the lag reads 7.1e-8 and 1.8e-8, and its prediction holds to
        # 6.8e-14 and 1.4e-13
        assert mean_position(final)[0] - orbit.x[-1, 0] == pytest.approx(
            -midpoint_lag, abs=1e-12)
    # measured 7.58e-7 and 1.90e-7, a ratio of 3.9986
    assert errs[0] < 1.5e-6 and errs[1] < 4e-7
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.05)


def test_uniform_vector_of_wrong_length_refused_everywhere():
    """A 2-component uniform A on a 1D grid is refused with one message by
    the propagator, the residual and the classical orbit alike: all three
    read it through components(t, dim)."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    pot = PotentialSpec(vector=UniformVector(a_of_t=lambda t: (0.1, 0.2)))
    psi0 = gaussian_state(grid)
    config = SolverConfig(dt=1e-4, t_end=1e-3, params=params, pot=pot)
    with pytest.raises(ValueError, match="vector potential dimension mismatch"):
        evolve(psi0, config)
    with pytest.raises(ValueError, match="vector potential dimension mismatch"):
        apply_nlse_operator((psi0, psi0), pot, params)
    with pytest.raises(ValueError, match="vector potential dimension mismatch"):
        integrate_bicharacteristic(PhasePoint(x=(0.0,), p=(1.0,)), 1e-3, 1e-4, pot, 1.0)


def test_nan_aborts_with_step_index():
    """A potential that evaluates to NaN poisons the state; the loop stops
    at the first poisoned step and says which one."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)

    def spiked(xs, t):
        v = np.zeros_like(xs[0])
        if t > 1e-3:  # clean first step, poison the second
            v = v + np.where(np.abs(xs[0]) < 0.2, np.nan, 0.0)
        return v

    pot = PotentialSpec(scalar=ExpressionScalar(fn=spiked))
    psi0 = gaussian_state(grid)
    config = SolverConfig(dt=1e-3, t_end=0.01, snapshot_every=1,
                          params=params, pot=pot)
    with pytest.raises(FloatingPointError, match="step 2"):
        with np.errstate(invalid="ignore"):
            evolve(psi0, config)


def test_nan_in_fused_closing_half_aborts_on_its_step():
    """V turns NaN at t = 1.6e-3, inside the closing half of step 2 (V
    sampled at 1.75e-3).  No snapshot falls before step 100, so that half
    is fused with the opening half of step 3; the abort must still name
    step 2, the step whose factor produced the fault."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)

    def spiked(xs, t):
        v = np.zeros_like(xs[0])
        if t > 1.6e-3:
            v = v + np.where(np.abs(xs[0]) < 0.2, np.nan, 0.0)
        return v

    pot = PotentialSpec(scalar=ExpressionScalar(fn=spiked))
    config = SolverConfig(dt=1e-3, t_end=0.01, snapshot_every=100,
                          params=params, pot=pot)
    with pytest.raises(FloatingPointError, match=r"step 2 \(t=0.002\)"):
        with np.errstate(invalid="ignore"):
            evolve(gaussian_state(grid), config)


def test_t_end_before_initial_time_rejected():
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    psi0 = gaussian_state(grid).with_values(gaussian_state(grid).values, time=0.5)
    config = SolverConfig(dt=1e-3, t_end=0.2, snapshot_every=1,
                          params=params, pot=PotentialSpec())
    with pytest.raises(ValueError, match="t_end=0.2 .*initial time 0.5"):
        evolve(psi0, config)


# (t0, t_end, dt) of each non-finite schedule: dt = inf would take no step,
# and the infinite or NaN times have no step count
NON_FINITE_SCHEDULES = {
    "t0-nan": (float("nan"), 1.0, 1e-3),
    "t0-minus-inf": (float("-inf"), 1.0, 1e-3),
    "t_end-nan": (0.0, float("nan"), 1e-3),
    "t_end-inf": (0.0, float("inf"), 1e-3),
    "dt-inf": (0.0, 1.0, float("inf")),
}


@pytest.mark.parametrize("caller", ["evolve", "orbit"])
@pytest.mark.parametrize("case", list(NON_FINITE_SCHEDULES), ids=list(NON_FINITE_SCHEDULES))
def test_non_finite_schedule_refused_by_name(case, caller):
    """The propagator and the classical orbit both refuse a non-finite
    start, end or step with a ValueError that names it and its value.
    evolve starts at psi0.time, so its non-finite start is refused by the
    field that carries it, as its time."""
    t0, t_end, dt = NON_FINITE_SCHEDULES[case]
    name = case.split("-")[0]
    value = dict(t0=t0, t_end=t_end, dt=dt)[name]
    if caller == "evolve" and name == "t0":
        name = "time"
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        if caller == "evolve":
            grid = make_uniform_grid(1, -10.0, 10.0, 64)
            psi0 = replace(gaussian_state(grid), time=t0)
            evolve(psi0, SolverConfig(dt=dt, t_end=t_end, params=params))
        else:
            integrate_bicharacteristic(PhasePoint(x=(0.0,), p=(1.0,), t=t0), t_end, dt,
                                       PotentialSpec(), params.mass)


@pytest.mark.parametrize("t_end", [0.2, 0.2037])
def test_fused_half_steps_match_split_ones(t_end):
    """Fusing the closing local half step of one step with the opening
    half of the next is exact algebra, so a run with every pair split
    (snapshot_every=1) and one with none split (snapshot_every=10**9)
    agree at t_end to rounding.  Nonlinear, with a time-dependent V and a
    time-dependent uniform A; t_end=0.2037 ends on a shortened tail step."""
    grid = make_uniform_grid(1, -20.0, 20.0, 256)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    pot = PotentialSpec(
        scalar=ExpressionScalar(fn=lambda xs, t: 0.5 * (xs[0] - 0.3 * np.sin(2.0 * t)) ** 2),
        vector=UniformVector(lambda t: (0.2 * np.sin(3.0 * t),)),
    )
    psi0 = gaussian_state(grid, center=0.5, momentum=1.0)
    split, fused = (
        evolve(psi0, SolverConfig(dt=1e-3, t_end=t_end, snapshot_every=every,
                                  params=params, pot=pot)).final
        for every in (1, 10 ** 9)
    )
    assert split.time == fused.time == pytest.approx(t_end, abs=1e-15)
    peak = np.max(np.abs(split.values))
    assert np.max(np.abs(split.values - fused.values)) <= 1e-12 * peak


class CountingScalar(ScalarPotential):
    """Harmonic V that counts how often it is sampled."""

    def __init__(self, static):
        self.static = static
        self.calls = 0

    def value(self, xs, t):
        self.calls += 1
        return 0.5 * xs[0] ** 2


def test_potential_sampled_once_if_static_else_twice_per_step():
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    psi0 = gaussian_state(grid)
    calls = {}
    # 11 and 41 steps, each ending on a shortened tail step
    for static in (True, False):
        for t_end, n_steps in ((0.0105, 11), (0.0405, 41)):
            pot = CountingScalar(static)
            evolve(psi0, SolverConfig(dt=1e-3, t_end=t_end, snapshot_every=7,
                                      params=params, pot=PotentialSpec(scalar=pot)))
            calls[static, n_steps] = pot.calls
    assert calls[True, 11] == calls[True, 41] == 1
    assert calls[False, 11] == 2 * 11
    assert calls[False, 41] == 2 * 41


@pytest.mark.parametrize("t_end", [0.041, 0.0405])
@pytest.mark.parametrize("r", [0.0, 0.5])
def test_static_potential_is_only_a_cache(r, t_end):
    """Declaring a time-independent V static changes no snapshot beyond
    rounding; t_end=0.0405 ends on a shortened tail step.  At r=0 a whole
    step's fused phase is -h v - h v against -(2h) v, the same bits.  The
    tail's -h v - tail v against -(h + tail) v is not exact (it differs at
    24 of the 64 points; the final snapshot still came out equal), and at
    r=0.5 the nonlinear phase enters first, so those compare to rounding."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=r)
    psi0 = gaussian_state(grid, center=0.5, momentum=1.0)
    static, sampled = (
        evolve(psi0, SolverConfig(dt=1e-3, t_end=t_end, snapshot_every=7, params=params,
                                  pot=PotentialSpec(scalar=CountingScalar(flag)))).snapshots
        for flag in (True, False)
    )
    assert [s.time for s in static] == [s.time for s in sampled]
    after_tail = static[-1] if t_end == 0.0405 else None
    for a, b in zip(static, sampled):
        if r == 0 and a is not after_tail:
            assert np.array_equal(a.values, b.values)
        else:
            assert np.max(np.abs(a.values - b.values)) <= 1e-13 * np.max(np.abs(b.values))


def test_static_linear_run_builds_its_local_factor_once(monkeypatch):
    """With r=0 and a static V the local factor is the same every step:
    one kinetic factor and the local factors of h and 2h are built, in an
    11-step run and in a 41-step one alike."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    psi0 = gaussian_state(grid)
    thetas = []
    expi = solver._expi
    monkeypatch.setattr(solver, "_expi", lambda theta: thetas.append(theta) or expi(theta))
    calls = {}
    for t_end, n_steps in ((0.011, 11), (0.041, 41)):
        thetas.clear()
        rec = evolve(psi0, SolverConfig(dt=1e-3, t_end=t_end, snapshot_every=7, params=params,
                                        pot=PotentialSpec(scalar=CountingScalar(True))))
        assert rec.final.time == pytest.approx(t_end, abs=1e-15)
        calls[n_steps] = len(thetas)
    assert calls[11] == calls[41] == 3


def test_snapshot_bookkeeping_and_partial_final_step():
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    psi0 = gaussian_state(grid)
    config = SolverConfig(dt=1e-3, t_end=0.0105, snapshot_every=5,
                          params=params, pot=PotentialSpec())
    rec = evolve(psi0, config)
    # start, steps 5 and 10, and the shortened final step to t_end
    assert len(rec.snapshots) == 4
    assert rec.times[0] == 0.0
    assert abs(rec.times[1] - 0.005) < 1e-12
    assert abs(rec.times[-1] - 0.0105) < 1e-12


# ---------------------------------------------------------------------------
# the plan's work arrays


def _driven_case(dim):
    """psi0 and a config with a time-dependent V, a uniform A(t), r > 0 and
    a shortened tail step: 1D n=2048 or 2D 256^2.  snapshot_every=3 makes
    steps 3 and 6 and the tail step 7 snapshots, and fuses the halves
    between the others."""
    n = 2048 if dim == 1 else 256
    grid = make_uniform_grid(dim, -8.0, 8.0, n)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.005)
    xs = grid.mesh()
    vals = np.exp(sum(-(x - c) ** 2 / 0.2 + 1j * p * x / params.hbar
                      for x, c, p in zip(xs, (1.5, 0.0), (0.0, 1.0))))
    pot = PotentialSpec(
        scalar=ExpressionScalar(fn=lambda xs, t: 0.5 * sum(
            (x - 0.5 * np.sin(0.7 * t)) ** 2 for x in xs)),
        vector=UniformVector(lambda t: (0.4 * np.sin(1.3 * t), 0.2 * np.sin(2.6 * t))[:dim]),
    )
    config = SolverConfig(dt=1e-3, t_end=0.0065, snapshot_every=3, params=params, pot=pot)
    return ComplexField(grid, vals, hbar=params.hbar), config


def _reference_states(psi0, config):
    """The states of evolve's loop written out with fresh arrays: V on the
    full mesh, out-of-place transforms, every complex multiply psi times
    factor, the spectrum multiplied by each axis's kinetic factor in turn,
    and the closing half of each step that ends on no snapshot fused with
    the next opening one."""
    grid, params, pot = psi0.grid, config.params, config.pot
    xs = grid.mesh()
    hk = [params.hbar * grid.axis_wavenumber(ax) for ax in range(grid.dim)]

    def expi(theta):
        out = np.empty(theta.shape, dtype=complex)
        out.real, out.imag = np.cos(theta), np.sin(theta)
        return out

    def local(vals, halves):
        dens = vals.real ** 2 + vals.imag ** 2
        theta = (params.r * sum(h for _, h in halves) / params.hbar) * dens
        for t, h in halves:
            theta = theta - h * ((0.5 / params.hbar) * pot.scalar.value(xs, t))
        return np.multiply(vals, expi(theta))

    def kinetic(vals, t, h):
        scale = h / (2.0 * params.mass * params.hbar)
        spec = scipy.fft.fftn(vals)
        for k, a in zip(hk, pot.vector.a_of_t(t)):
            spec = np.multiply(spec, expi(-scale * (k - a) ** 2))
        return scipy.fft.ifftn(spec)

    states, vals, t, closing = [psi0.values], psi0.values, psi0.time, []
    steps = _Schedule(psi0.time, config.t_end, config.dt)
    for step, (h, t_next) in enumerate(steps, 1):
        vals = kinetic(local(vals, closing + [(t + 0.25 * h, h)]), t + 0.5 * h, h)
        closing = [(t + 0.75 * h, h)]
        t = t_next
        if step % config.snapshot_every == 0 or step == len(steps):
            vals, closing = local(vals, closing), []
            states.append(vals)
    return states


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-2048", "2d-256"])
def test_run_matches_written_out_loop_bit_for_bit(dim):
    """Work arrays, in-place transforms and the fixed operand order change
    no bit: every snapshot equals the written-out loop's state.  At 256^2
    the operand order is the one that matters: psi * (a temporary factor)
    is computed as factor * psi there, which differed in the last bit at
    about a third of the points."""
    psi0, config = _driven_case(dim)
    rec = evolve(psi0, config)
    ref = _reference_states(psi0, config)
    assert len(rec.snapshots) == len(ref) == 4
    for snap, state in zip(rec.snapshots, ref):
        assert snap.values.tobytes() == state.tobytes()


def test_plan_work_arrays_are_contiguous_and_the_kinetic_factors_per_axis():
    """The plan's two complex work arrays are C-contiguous, so numpy runs
    each elementwise pass over them as one loop; a kinetic step hands back
    the work array it was given, transformed in place; and the kinetic
    factor is kept as one factor per axis, none of the grid's size."""
    psi0, config = _driven_case(2)
    grid = psi0.grid
    plan = solver._StrangPlan(grid, config.params, config.pot, 0.0)
    for work in plan._work:
        assert work.shape == grid.shape and work.dtype == np.complex128
        assert work.flags.c_contiguous
    work = plan._work[0]
    work[...] = psi0.values
    out = plan.kinetic(work, 0.0, config.dt)
    assert out.__array_interface__ == work.__array_interface__
    assert [f.shape for f in plan._kin] == [(grid.n[0], 1), (1, grid.n[1])]
    held = [a for v in vars(plan).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray) and np.iscomplexobj(a) and a.shape == grid.shape]
    assert len(held) == 2 and all(a is w for a, w in zip(held, plan._work))


def test_snapshots_are_distinct_arrays_and_psi0_is_kept():
    """Each snapshot is an array of its own, none of them a work array the
    next step overwrites, and the run only reads psi0."""
    psi0, config = _driven_case(2)
    kept = psi0.values.copy()
    snaps = evolve(psi0, replace(config, snapshot_every=2)).snapshots
    assert len(snaps) == 5
    for i, a in enumerate(snaps):
        for b in snaps[i + 1:]:
            assert not np.shares_memory(a.values, b.values)
    assert psi0.values.tobytes() == kept.tobytes()
    assert snaps[0].values.tobytes() == kept.tobytes()


def test_steps_between_snapshots_allocate_no_grid_sized_array():
    """At 256^2 the steps between snapshots allocate only what V's sampling
    makes.  The traced peak above the memory held after the first step,
    over the next six steps, measured 0.63 MiB: the 512 KiB V array the
    potential returns and small per-axis factors.  A loop that allocates
    its factor, its transform outputs and its density every step measured
    2.0 MiB.  The bound, 1.5 real grid arrays (0.75 MiB), is 1.2x the
    measured value."""
    import tracemalloc

    psi0, config = _driven_case(2)
    real_bytes = psi0.values.nbytes // 2
    tracemalloc.start()
    try:
        plan = solver._StrangPlan(psi0.grid, config.params, config.pot, 0.0)
        run = plan.run(psi0.values, 0.0, _Schedule(0.0, 0.0085, 1e-3), 10 ** 9)
        next(run)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(6):
            next(run)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * real_bytes


def test_schedule_holds_no_list():
    """A schedule yields its steps as they are read: the shipped ehrenfest
    schedule reads as the written-out list of t0 + k dt and its tail, and a
    schedule of 10^12 steps reports its count with a traced peak under
    1 MiB (a list of its steps would take about 112 TB)."""
    import tracemalloc

    t0, t_end, dt = 0.1, 0.1 + 6.283185307179586, 1e-3
    remaining = t_end - t0
    n_full = int(np.floor(remaining / dt + 1e-12))
    written = [(dt, t0 + k * dt) for k in range(1, n_full + 1)]
    written.append((remaining - n_full * dt, t0 + remaining))
    steps = _Schedule(t0, t_end, dt)
    assert len(steps) == len(written) == 6284
    assert list(steps) == written

    tracemalloc.start()
    try:
        count = len(_Schedule(0.0, 1.0e12 + 0.5, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 10 ** 12 + 1
    assert peak < 2 ** 20


def test_config_validation():
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0, t_end=1.0, snapshot_every=1, params=params)
    with pytest.raises(ValueError, match="snapshot_every"):
        SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=0, params=params)
    with pytest.raises(ValueError, match="params"):
        SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=1, params=None)


@pytest.mark.parametrize("every", [float("inf"), float("nan"), True, 2.5, 0])
def test_config_refuses_a_bad_snapshot_stride_by_name(every):
    """A stride that is not a positive whole number is refused with the
    key's name: an infinite or NaN one does not reach int(), and a bool is
    not taken as 1."""
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    with pytest.raises(ValueError, match=f"snapshot_every must be a positive integer, "
                                         f"got {every}"):
        SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=every, params=params)


# ---------------------------------------------------------------------------
# residual evaluator


def soliton_pair(grid, t, params, xi=0.25, eta=0.5):
    sp = SolitonParams(xi=xi, eta=eta)
    w = SolitonFields(sp, params.mass)
    psi = one_soliton(sp, grid, t, params)
    jet = w.jet(grid.mesh(), t)
    dpsi = leading_term_time_derivative(jet, assemble_leading_term(jet, grid, params), params)
    return psi, dpsi


def test_exact_soliton_residual_analytic_dt():
    """The closed-form soliton satisfies the equation; what remains is
    spectral truncation of the periodised tails."""
    grid = make_uniform_grid(1, -24.0, 24.0, 1024)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    psi, dpsi = soliton_pair(grid, 0.3, params)
    res = apply_nlse_operator((psi, dpsi), PotentialSpec(), params)
    assert relative_residual(res, psi) < 1e-8


@pytest.mark.parametrize("dim, a", [(1, None), (2, (0.3, -0.7))],
                         ids=["1d-free", "2d-uniform-A"])
def test_plane_wave_wrong_dispersion_residual(dim, a):
    """Imposing frequency w on a plane wave leaves the mismatch
    (p - A)^2/(2m) - hbar w as the exact pointwise residual, for A = 0 and
    for a uniform A."""
    grid = make_uniform_grid(dim, -20.0, 20.0, 256 if dim == 1 else 64)
    params = PhysParams(hbar=1.0, mass=2.0, r=0.0)
    dk = 2.0 * np.pi / grid.lengths[0]
    p = (6.0 * dk * params.hbar, -3.0 * dk * params.hbar)[:dim]
    pot = PotentialSpec() if a is None else PotentialSpec(
        vector=UniformVector(lambda t: a))
    wrong_w = 0.8
    xs = grid.mesh()
    vals = np.exp(1j * sum(p_j * x for p_j, x in zip(p, xs)) / params.hbar)
    psi = ComplexField(grid, vals, time=0.0, hbar=params.hbar)
    dpsi = ComplexField(grid, -1j * wrong_w * vals, time=0.0, hbar=params.hbar)
    res = apply_nlse_operator((psi, dpsi), pot, params)
    kinetic = sum((p_j - a_j) ** 2 for p_j, a_j in zip(p, a or (0.0,) * dim))
    mismatch = abs(kinetic / (2.0 * params.mass) - params.hbar * wrong_w)
    assert abs(relative_residual(res, psi) - mismatch) < 1e-12


def gaussian_packet_2d(grid, hbar=1.0):
    x, y = grid.mesh()
    vals = np.exp(-((x - 0.5) ** 2 + (y + 0.3) ** 2) / 2.0
                  + 1j * (0.8 * x - 0.4 * y) / hbar)
    return ComplexField(grid, vals, time=0.0, hbar=hbar)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d-free", "2d-uniform-A"])
def test_residual_kinetic_is_one_fft_pair(dim, monkeypatch):
    """With a uniform A the kinetic operator is one multiply between one
    n-D FFT pair, and no one-axis transform is taken: one forward and one
    inverse call of pocketfft's c2c kernel, each over every axis."""
    kernel = scipy.fft._pocketfft.pypocketfft
    c2c, calls = kernel.c2c, []

    def counting(a, axes, forward, *args):
        calls.append((forward, tuple(axes)))
        return c2c(a, axes, forward, *args)

    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    if dim == 1:
        grid = make_uniform_grid(1, -10.0, 10.0, 128)
        psi, pot = gaussian_state(grid), PotentialSpec()
    else:
        grid = make_uniform_grid(2, -8.0, 8.0, 32)
        psi = gaussian_packet_2d(grid)
        pot = PotentialSpec(vector=UniformVector(lambda t: (0.3, -0.2)))
    dpsi = psi.with_values(np.zeros_like(psi.values))
    monkeypatch.setattr(kernel, "c2c", counting)
    apply_nlse_operator((psi, dpsi), pot, params)
    every = tuple(range(dim))
    assert calls == [(True, every), (False, every)]


def test_residual_pair_validation_errors():
    """The field and its time derivative must sit on one grid at one time."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    other = make_uniform_grid(1, -10.0, 10.0, 128)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    psi, dpsi = soliton_pair(grid, 0.0, params)
    _, elsewhere = soliton_pair(other, 0.0, params)
    _, later = soliton_pair(grid, 1e-3, params)
    apply_nlse_operator((psi, dpsi), PotentialSpec(), params)
    with pytest.raises(ValueError, match="different grids"):
        apply_nlse_operator((psi, elsewhere), PotentialSpec(), params)
    with pytest.raises(ValueError, match="different times"):
        apply_nlse_operator((psi, later), PotentialSpec(), params)


@pytest.mark.parametrize("dim, a", [(1, (0.4,)), (2, (0.3, -0.5))],
                         ids=["1d-uniform-A", "2d-uniform-A"])
def test_residual_with_potential_and_nonlinearity(dim, a):
    """A Gaussian packet with a non-zero V, r > 0 and a given dpsi/dt: the
    residual matches the equation written out pointwise from the packet's
    closed-form derivatives, and has the bits of the unfused sum of its
    four terms.  (Every other residual test has V = 0.)"""
    grid = make_uniform_grid(dim, -10.0, 10.0, 256 if dim == 1 else 64)
    params = PhysParams(hbar=0.7, mass=1.3, r=0.45)
    hbar, m, t = params.hbar, params.mass, 0.2
    center, p, s2 = (0.6, -0.4)[:dim], (0.9, 0.5)[:dim], 1.0
    xs = grid.mesh()
    vals = np.exp(sum(-(x - c) ** 2 / (2.0 * s2) + 1j * pj * x / hbar
                      for x, c, pj in zip(xs, center, p)))
    # d_j psi = u_j psi and d_j^2 psi = (u_j^2 - 1/s2) psi
    u = [-(x - c) / s2 + 1j * pj / hbar for x, c, pj in zip(xs, center, p)]
    dvals = (0.3 - 0.8j * xs[0]) * vals

    def v_fn(ys, s):
        return 0.5 * ys[0] ** 2 + 0.3 * np.sin(ys[-1]) + s

    pot = PotentialSpec(scalar=ExpressionScalar(v_fn), vector=UniformVector(lambda s: a))
    psi = ComplexField(grid, vals, time=t, hbar=hbar)
    res = apply_nlse_operator((psi, psi.with_values(dvals)), pot, params)

    # (-i hbar d_j - a_j)^2 psi = -hbar^2 d_j^2 psi + 2 i hbar a_j d_j psi + a_j^2 psi
    kinetic = sum(-hbar ** 2 * (uj * uj - 1.0 / s2) + 2j * hbar * aj * uj + aj * aj
                  for uj, aj in zip(u, a)) * vals
    expected = (-1j * hbar * dvals + kinetic / (2.0 * m) + v_fn(xs, t) * vals
                - 2.0 * params.r * np.abs(vals) ** 2 * vals)
    # measured 4.4e-14 (1D) and 4.3e-15 (2D) relative to max |expected|, a
    # margin of 23x; without the V term the gap is 2.2 and 1.4
    assert np.max(np.abs(res.values - expected)) < 1e-12 * np.max(np.abs(expected))

    unfused = (-1j * hbar * dvals
               + solver._kinetic_apply(vals, grid, pot, t, params) / (2.0 * m)
               + v_fn(xs, t) * vals - 2.0 * params.r * np.abs(vals) ** 2 * vals)
    assert res.values.tobytes() == unfused.tobytes()


# ---------------------------------------------------------------------------
# symmetry oracles of a run


def _symmetry_run(dim, packet, r, a0, a1):
    """A 10-step run with V = 0 and A(t) = a0 + a1 t on every axis, of a
    Gaussian packet (centre, momentum) given per axis."""
    grid = make_uniform_grid(dim, -8.0, 8.0, 128 if dim == 1 else 32)
    params = PhysParams(hbar=0.5, mass=1.0, r=r)
    xs = grid.mesh()
    vals = np.exp(sum(-(x - c) ** 2 + 1j * p * x / params.hbar
                      for x, (c, p) in zip(xs, packet)))
    pot = PotentialSpec(vector=UniformVector(lambda t: (a0 + a1 * t,) * dim))
    config = SolverConfig(dt=0.01, t_end=0.1, snapshot_every=5, params=params, pot=pot)

    def run(values):
        rec = evolve(ComplexField(grid, values, hbar=params.hbar), config)
        return np.stack([s.values for s in rec.snapshots])
    return vals, run


_RUNS = settings(max_examples=10, deadline=None, database=None)
_PACKET = st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
_COEFFS = dict(r=st.floats(0.0, 1.0), a0=st.floats(-0.5, 0.5), a1=st.floats(-1.0, 1.0))


@pytest.mark.parametrize("dim", [1, 2])
@_RUNS
@given(packet=st.lists(_PACKET, min_size=2, max_size=2),
       shift=st.tuples(st.integers(-12, 12), st.integers(-12, 12)), **_COEFFS)
def test_translation_by_whole_cells_commutes_with_a_run(dim, packet, shift, r, a0, a1):
    """With V = 0 and a uniform A(t) the run commutes with a shift of the
    samples by whole cells, at every snapshot, up to rounding."""
    vals, run = _symmetry_run(dim, packet[:dim], r, a0, a1)
    axes = tuple(range(1, dim + 1))
    moved = run(np.roll(vals, shift[:dim], axis=tuple(range(dim))))
    ref = np.roll(run(vals), shift[:dim], axis=axes)
    # measured at most 1.8e-15 relative to max |psi| over 120 random draws
    # per dimension; the bound is 11x that
    assert np.max(np.abs(moved - ref)) < 2e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
@_RUNS
@given(packet=st.lists(_PACKET, min_size=2, max_size=2),
       phase=st.floats(-np.pi, np.pi), **_COEFFS)
def test_global_phase_passes_through_a_run(dim, packet, phase, r, a0, a1):
    """A global phase factor exp(i alpha) on psi0 comes out of the run
    unchanged, at every snapshot, up to rounding."""
    vals, run = _symmetry_run(dim, packet[:dim], r, a0, a1)
    factor = np.exp(1j * phase)
    rotated = run(factor * vals)
    ref = factor * run(vals)
    # measured at most 1.4e-15 relative to max |psi| over 120 random draws
    # per dimension; the bound is 14x that
    assert np.max(np.abs(rotated - ref)) < 2e-14 * np.max(np.abs(ref))


@_RUNS
@given(packet=_PACKET, r=st.floats(0.0, 1.0), n=st.sampled_from([128, 256, 512]),
       steps=st.integers(50, 500))
def test_conjugated_run_returns_to_the_initial_state(packet, r, n, steps):
    """With a static V and A = 0 the run is reversible: the conjugate of
    the final state, run again for the same time and conjugated, is psi0
    up to rounding, because the conjugation turns each symmetric Strang
    step into its inverse."""
    grid = make_uniform_grid(1, -10.0, 10.0, n)
    params = PhysParams(hbar=0.5, mass=1.0, r=r)
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0,), center=(0.0,)))
    config = SolverConfig(dt=1e-3, t_end=steps * 1e-3, snapshot_every=steps,
                          params=params, pot=pot)
    (c, p), x = packet, grid.axes()[0]
    vals = np.exp(-(x - c) ** 2 + 1j * p * x / params.hbar)
    final = evolve(ComplexField(grid, vals, hbar=params.hbar), config).final
    back = evolve(ComplexField(grid, np.conj(final.values), hbar=params.hbar),
                  config).final
    err = np.max(np.abs(np.conj(back.values) - vals)) / np.max(np.abs(vals))
    # measured at most 2.0e-13 over 450 random draws of these ranges and 24
    # runs at the extremes of n, r and steps; the bound is 10x that
    assert err < 2e-12


@_RUNS
@given(packet=_PACKET, j=st.integers(8, 16), cells=st.integers(1, 2),
       r=st.sampled_from([0.0, 0.5]))
def test_galilean_boost_moves_a_free_run(packet, j, cells, r):
    """With V = 0 and A = 0 a boost by the grid wavenumber k0 = 2 pi j / L
    maps runs to runs: evolve(exp(i k0 x) psi0) is
    exp(i (k0 x - hbar k0^2 t / 2m)) times evolve(psi0) moved by v t,
    v = hbar k0 / m.  dt makes v dt a whole number of cells, so the move is
    a cyclic shift of the samples, exact on the periodic grid for a state
    whose spectrum stays clear of the Nyquist band.  j >= 8 keeps dt at or
    below 0.08: at dt of 0.1-0.2 the r = 0.5 run amplifies rounding to
    about 7e-12."""
    grid = make_uniform_grid(1, -8.0, 8.0, 256)
    params = PhysParams(hbar=0.5, mass=1.0, r=r)
    x, h = grid.axes()[0], grid.spacing[0]
    k0 = 2.0 * np.pi * j / (grid.shape[0] * h)
    dt = cells * h * params.mass / (params.hbar * k0)
    config = SolverConfig(dt=dt, t_end=10 * dt, snapshot_every=5, params=params,
                          pot=PotentialSpec())
    (c, p) = packet
    vals = np.exp(-(x - c) ** 2 + 1j * p * x / params.hbar)

    def run(values):
        return evolve(ComplexField(grid, values, hbar=params.hbar), config).snapshots

    for base, boosted in zip(run(vals), run(np.exp(1j * k0 * x) * vals)):
        phase = k0 * x - params.hbar * k0 ** 2 * base.time / (2.0 * params.mass)
        ref = np.exp(1j * phase) * np.roll(base.values, round(base.time / dt) * cells)
        err = np.max(np.abs(boosted.values - ref)) / np.max(np.abs(ref))
        # measured at most 3.1e-15 with r = 0 and 2.2e-13 with r = 0.5 over
        # 600 random draws of these ranges; the bounds are 10x and 9x that
        assert err < (3e-14 if r == 0.0 else 2e-12)

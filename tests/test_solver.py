"""Propagator and residual-evaluator checks.

Oracle values used here:
  * plane wave exp(i p x / hbar) under the kinetic term alone: global
    phase -p^2 T / (2 m hbar), no other change
  * free Gaussian spreading: Var(t) = s0^2 + (hbar t / (2 m s0))^2
  * coherent state in a unit harmonic well: <x>(t) = a cos(t)
  * uniform vector potential a0: evolution equals the a0 = 0 evolution of
    the state premultiplied by exp(-i a0 x / hbar), read back with the
    conjugate factor
  * plane wave with an imposed wrong frequency: residual magnitude equals
    the dispersion mismatch |(p - A)^2/(2m) - hbar w| exactly, for A = 0
    and for a uniform A
  * exact symmetries of a run with V = 0 and a uniform A(t): translation
    by whole cells and a global phase factor commute with it
  * time reversal of a run with a static V and A = 0: conjugating, running
    again for the same time and conjugating back returns psi0
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
    ExpressionVector,
    HarmonicScalar,
    PhysParams,
    PotentialSpec,
    ScalarPotential,
    UniformVector,
    free_potential,
    make_uniform_grid,
    norm_squared,
)
from semiwave.asymptotics import (
    SolitonParams,
    assemble_leading_term,
    leading_term_time_derivative,
    one_soliton,
    soliton_correction_fields,
)
from semiwave import solver
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
                          params=params, pot=free_potential())
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
                          params=params, pot=free_potential())
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
                         pot=free_potential())
    rec_0 = evolve(shifted, cfg_0)
    back = np.exp(1j * a0 * x / params.hbar) * rec_0.final.values
    assert np.max(np.abs(rec_a.final.values - back)) < 1e-10


def test_nonuniform_vector_potential_rejected():
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    pot = PotentialSpec(vector=ExpressionVector(lambda xs, t: (0.1 * xs[0],)))
    psi0 = gaussian_state(grid)
    config = SolverConfig(dt=1e-4, t_end=1e-3, snapshot_every=1,
                          params=params, pot=pot)
    with pytest.raises(ValueError, match="uniform"):
        evolve(psi0, config)


def test_constant_expression_vector_refused_before_any_step():
    """An ExpressionVector is refused when the plan is built, even where its
    components are constant in space: it is never sampled."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    calls = []

    def constant(xs, t):
        calls.append(t)
        return (0.3 + 0.0 * xs[0],)

    config = SolverConfig(dt=1e-4, t_end=1e-3, snapshot_every=1, params=params,
                          pot=PotentialSpec(vector=ExpressionVector(constant)))
    with pytest.raises(ValueError, match="uniform"):
        evolve(gaussian_state(grid), config)
    assert calls == []


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
                          params=params, pot=free_potential())
    with pytest.raises(ValueError, match="t_end=0.2 .*initial time 0.5"):
        evolve(psi0, config)


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
                          params=params, pot=free_potential())
    rec = evolve(psi0, config)
    # start, steps 5 and 10, and the shortened final step to t_end
    assert len(rec.snapshots) == 4
    assert rec.times[0] == 0.0
    assert abs(rec.times[1] - 0.005) < 1e-12
    assert abs(rec.times[-1] - 0.0105) < 1e-12
    assert len(rec.norms) == len(rec.snapshots)


def test_config_validation():
    params = PhysParams(hbar=1.0, mass=1.0)
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0, t_end=1.0, snapshot_every=1, params=params)
    with pytest.raises(ValueError, match="snapshot_every"):
        SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=0, params=params)
    with pytest.raises(ValueError, match="params"):
        SolverConfig(dt=1e-3, t_end=1.0, snapshot_every=1, params=None)


# ---------------------------------------------------------------------------
# residual evaluator


def soliton_pair(grid, t, params, xi=0.25, eta=0.5):
    sp = SolitonParams(xi=xi, eta=eta)
    w = soliton_correction_fields(sp, params)
    psi = one_soliton(sp, grid, t, params)
    jet = w.jet(grid.mesh(), t)
    dpsi = leading_term_time_derivative(jet, assemble_leading_term(jet, grid, t, params), params)
    return psi, dpsi


def test_exact_soliton_residual_analytic_dt():
    """The closed-form soliton satisfies the equation; what remains is
    spectral truncation of the periodised tails."""
    grid = make_uniform_grid(1, -24.0, 24.0, 1024)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    psi, dpsi = soliton_pair(grid, 0.3, params)
    res = apply_nlse_operator((psi, dpsi), free_potential(), params)
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
    pot = free_potential() if a is None else PotentialSpec(
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
    """With a spatially constant A the kinetic operator is one multiply
    between one n-D FFT pair, and no one-axis transform is taken."""
    calls = {}

    def counting(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    if dim == 1:
        grid = make_uniform_grid(1, -10.0, 10.0, 128)
        psi, pot = gaussian_state(grid), free_potential()
    else:
        grid = make_uniform_grid(2, -8.0, 8.0, 32)
        psi = gaussian_packet_2d(grid)
        pot = PotentialSpec(vector=UniformVector(lambda t: (0.3, -0.2)))
    dpsi = psi.with_values(np.zeros_like(psi.values))
    for name in ("fftn", "ifftn"):
        counting(scipy.fft, name)
    for name in ("fft", "ifft"):
        counting(np.fft, name)
    apply_nlse_operator((psi, dpsi), pot, params)
    assert calls == {"fftn": 1, "ifftn": 1}


def test_uniform_a_paths_agree():
    """The same constant A given as an ExpressionVector (two momentum
    passes per axis) and as a UniformVector (one diagonal multiply) gives
    the same residual up to rounding."""
    grid = make_uniform_grid(2, -8.0, 8.0, 64)
    params = PhysParams(hbar=0.5, mass=1.5, r=0.5)
    psi = gaussian_packet_2d(grid, hbar=params.hbar)
    dpsi = psi.with_values(np.zeros_like(psi.values))
    a = (0.35, -0.6)
    per_axis = PotentialSpec(vector=ExpressionVector(lambda xs, t: a))
    diagonal = PotentialSpec(vector=UniformVector(lambda t: a))
    ref = apply_nlse_operator((psi, dpsi), per_axis, params).values
    got = apply_nlse_operator((psi, dpsi), diagonal, params).values
    # measured 1.1e-15 here, and at most 1.4e-14 over n in {64, 128, 256}
    # and hbar in {0.25, 0.5, 1}; the bound is 7x the largest of those
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-13


def test_residual_pair_validation_errors():
    """The field and its time derivative must sit on one grid at one time."""
    grid = make_uniform_grid(1, -10.0, 10.0, 64)
    other = make_uniform_grid(1, -10.0, 10.0, 128)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.5)
    psi, dpsi = soliton_pair(grid, 0.0, params)
    _, elsewhere = soliton_pair(other, 0.0, params)
    _, later = soliton_pair(grid, 1e-3, params)
    apply_nlse_operator((psi, dpsi), free_potential(), params)
    with pytest.raises(ValueError, match="different grids"):
        apply_nlse_operator((psi, elsewhere), free_potential(), params)
    with pytest.raises(ValueError, match="different times"):
        apply_nlse_operator((psi, later), free_potential(), params)


def test_residual_with_spatially_varying_vector_potential():
    """The evaluator, unlike the propagator, accepts x-dependent A; on a
    plane wave the kinetic factor can be checked term by term."""
    grid = make_uniform_grid(1, -16.0, 16.0, 512)
    params = PhysParams(hbar=1.0, mass=1.0, r=0.0)
    amp = 0.05
    kA = 2.0 * np.pi / grid.lengths[0]
    pot = PotentialSpec(vector=ExpressionVector(
        lambda xs, t: (amp * np.sin(kA * xs[0]),)))
    dk = 2.0 * np.pi / grid.lengths[0]
    p0 = 5.0 * dk
    x = grid.axes()[0]
    vals = np.exp(1j * p0 * x / params.hbar)
    psi = ComplexField(grid, vals, hbar=params.hbar)
    dpsi = ComplexField(grid, np.zeros_like(vals), hbar=params.hbar)
    res = apply_nlse_operator((psi, dpsi), pot, params)
    A = amp * np.sin(kA * x)
    # (-i hbar d - A)^2 on exp(i p x / hbar):
    #   (p - A)^2 + i hbar A' acting pointwise
    expected = ((p0 - A) ** 2 + 1j * params.hbar * amp * kA * np.cos(kA * x)) \
        / (2.0 * params.mass) * vals
    assert np.max(np.abs(res.values - expected)) < 1e-9


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

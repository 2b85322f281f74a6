"""Moment and concentration diagnostics.

Oracle values used here:
  * sech density of width w = hbar / (2 eta): Var(x) = (pi^2/12) w^2, so
    pi^2/12 = 0.8224670334241132 at hbar = 1, eta = 0.5
  * sech momentum spread: Var(p) = (4/3) eta^2 independent of hbar
    (hbar^2 b^2 / 3 with envelope slope b = 2 eta / hbar)
  * uncertainty product of the sech state: pi^2 hbar^2 / 36, above the
    hbar^2/4 bound since pi^2/36 = 0.274 > 0.25
  * mass of sech^2(x/w) inside |x| <= R: tanh(R/w); at R = w * atanh(0.99)
    the fraction is 0.99 by construction
  * Gaussian of width s: Var(x) = s^2, Var(p) = hbar^2/(4 s^2), product
    exactly hbar^2/4
  * correlated 2D Gaussian of covariance Sigma and phase d.C.d/(2 hbar):
    delta2 = [[Sigma, Sigma C], [(Sigma C)^T, hbar^2/4 Sigma^-1 + C Sigma C]]
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from semiwave.classical import PhasePoint
from semiwave.core import (
    ComplexField,
    HarmonicScalar,
    PhysParams,
    PotentialSpec,
    make_uniform_grid,
)
from semiwave.asymptotics import SolitonParams, one_soliton
from semiwave.moments import (
    MomentRecord,
    centered_moment,
    compute_moment_record,
    concentration_scaling,
    fit_scaling,
    mass_within_radius,
    mean_momentum,
    mean_position,
)
from semiwave.solver import SolverConfig, evolve

PI2_12 = np.pi ** 2 / 12.0


def soliton_field(hbar, xi=0.0, eta=0.5, x0=0.0, t=0.0, span=20.0, n=2048):
    params = PhysParams(hbar=hbar, mass=1.0, r=0.5)
    grid = make_uniform_grid(1, -span, span, n)
    return one_soliton(SolitonParams(xi=xi, eta=eta, x0=x0), grid, t, params)


def gaussian_field(grid, center=0.0, width=1.0, momentum=0.0, hbar=1.0):
    x = grid.axes()[0]
    vals = np.exp(-((x - center) ** 2) / (4.0 * width ** 2)
                  + 1j * momentum * x / hbar)
    return ComplexField(grid, vals, time=0.0, hbar=hbar)


# ---------------------------------------------------------------------------
# means


def test_mean_position_even_density():
    fld = soliton_field(1.0, x0=3.0)
    assert abs(mean_position(fld)[0] - 3.0) < 1e-12


def test_mean_position_tracks_moving_soliton():
    fld = soliton_field(1.0, xi=0.25, x0=-5.0, t=4.0)
    assert abs(mean_position(fld)[0] - (-5.0 + 0.5 * 4.0)) < 1e-10


def test_mean_momentum_real_state_and_phase_shift():
    grid = make_uniform_grid(1, -20.0, 20.0, 512)
    real = gaussian_field(grid)
    assert abs(mean_momentum(real)[0]) < 1e-12
    p0 = 0.7
    boosted = gaussian_field(grid, momentum=p0)
    assert abs(mean_momentum(boosted)[0] - p0) < 1e-10


def test_mean_momentum_of_soliton_is_phase_gradient():
    fld = soliton_field(1.0, xi=0.25)
    assert abs(mean_momentum(fld)[0] - 0.5) < 1e-8


def test_global_phase_invariance():
    fld = soliton_field(1.0, xi=0.25, x0=1.0)
    rotated = fld.with_values(np.exp(1j * 0.83) * fld.values)
    assert abs(mean_position(fld)[0] - mean_position(rotated)[0]) < 1e-14
    assert abs(mean_momentum(fld)[0] - mean_momentum(rotated)[0]) < 1e-14


def test_galilean_boost_shifts_momentum_only():
    fld = soliton_field(0.5, x0=0.5)
    x = fld.grid.axes()[0]
    p0 = 1.1
    boosted = fld.with_values(np.exp(1j * p0 * x / fld.hbar) * fld.values)
    assert abs(mean_momentum(boosted)[0] - mean_momentum(fld)[0] - p0) < 1e-10
    assert abs(mean_position(boosted)[0] - mean_position(fld)[0]) < 1e-10
    v_f = centered_moment(fld, (0,), (2,))
    v_b = centered_moment(boosted, (0,), (2,))
    assert abs(v_f - v_b) < 1e-10


# ---------------------------------------------------------------------------
# centered moments


def test_zeroth_moment_is_one():
    fld = soliton_field(1.0)
    assert centered_moment(fld, (0,), (0,)) == 1.0


def test_first_centered_moments_vanish_at_own_means():
    fld = soliton_field(1.0, xi=0.3, x0=0.7)
    assert abs(centered_moment(fld, (0,), (1,))) < 1e-12
    assert abs(centered_moment(fld, (1,), (0,))) < 1e-10


def test_sech_position_variance_oracle():
    """Var(x) of the sech^2 density is (pi^2/12) (hbar/2eta)^2; the
    hbar=1, eta=0.5 value is pi^2/12."""
    fld = soliton_field(1.0)
    assert abs(centered_moment(fld, (0,), (2,)) - PI2_12) < 1e-6
    half = soliton_field(0.5)
    assert abs(centered_moment(half, (0,), (2,)) - PI2_12 * 0.25) < 1e-6


def test_sech_momentum_variance_oracle():
    """Var(p) = (4/3) eta^2 at every hbar."""
    for hbar in (1.0, 0.5):
        fld = soliton_field(hbar)
        assert abs(centered_moment(fld, (2,), (0,)) - 1.0 / 3.0) < 1e-6


def test_sech_uncertainty_product():
    fld = soliton_field(1.0)
    rec = compute_moment_record(fld)
    prod = rec.var_x() * rec.var_p()
    assert abs(prod - np.pi ** 2 / 36.0) < 1e-6
    assert prod >= (0.5 * fld.hbar) ** 2


def test_gaussian_moment_matrix():
    """Minimum-uncertainty state: Var(x) = s^2, Var(p) = hbar^2/(4 s^2),
    mixed moment zero."""
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    s, hbar = 0.8, 0.6
    fld = gaussian_field(grid, width=s, hbar=hbar)
    rec = compute_moment_record(fld)
    assert abs(rec.var_x() - s * s) < 1e-10
    assert abs(rec.var_p() - hbar * hbar / (4.0 * s * s)) < 1e-10
    assert abs(rec.cov_xp()) < 1e-10


def test_unsupported_order_rejected():
    fld = soliton_field(1.0)
    with pytest.raises(ValueError, match="order"):
        centered_moment(fld, (1,), (2,))
    with pytest.raises(ValueError, match="order"):
        centered_moment(fld, (0,), (3,))


def test_explicit_center_offsets_moments():
    """Centering away from the mean adds the square of the offset to the
    second position moment (parallel-axis rule)."""
    fld = soliton_field(1.0, x0=0.0)
    z = PhasePoint(x=(0.3,), p=(0.0,), t=0.0)
    direct = centered_moment(fld, (0,), (2,))
    shifted = centered_moment(fld, (0,), (2,), z)
    assert abs(shifted - direct - 0.09) < 1e-8


def correlated_gaussian_2d():
    """psi = exp(-d.Sigma^-1.d/4 + i d.C.d/(2 hbar) + i p0.x/hbar), d = x - m,
    on a 256^2 grid over [-10, 10)^2.  Its density is the normal law of
    mean m and covariance Sigma, and its phase gradient is p0 + C d, so

        delta2 = [[Sigma, Sigma C], [(Sigma C)^T, hbar^2/4 Sigma^-1 + C Sigma C]]

    about the means (m, p0): the hbar^2/4 Sigma^-1 term is the amplitude's
    share of the momentum spread, and the cross block is E[d (C d)^T]."""
    sigma = np.array([[0.6, 0.2], [0.2, 0.4]])
    c = np.array([[0.3, -0.1], [-0.1, 0.2]])
    m, p0, hbar = np.array([0.4, -0.3]), np.array([0.5, 0.25]), 0.5
    grid = make_uniform_grid(2, -10.0, 10.0, 256)
    xs = grid.mesh()
    d = np.stack([x - mj for x, mj in zip(xs, m)])
    inv = np.linalg.inv(sigma)

    def quad(a):
        return np.einsum("i...,ij,j...->...", d, a, d)

    vals = np.exp(-0.25 * quad(inv) + 0.5j / hbar * quad(c)
                  + 1j * (p0[0] * xs[0] + p0[1] * xs[1]) / hbar)
    sc = sigma @ c
    delta2 = np.block([[sigma, sc], [sc.T, 0.25 * hbar ** 2 * inv + c @ sigma @ c]])
    return ComplexField(grid, vals, hbar=hbar), m, p0, delta2


@pytest.mark.parametrize("z", [None, PhasePoint(x=(0.1, 0.2), p=(0.3, -0.2), t=0.0)],
                         ids=["own-means", "given-z"])
def test_two_dimensional_moment_matrix_closed_form(z):
    """The full 4x4 matrix of the correlated Gaussian.  Centred on a given
    z, each block shifts by the outer product of the offsets (m, p0) - z.
    Measured max error 5.6e-16 (own means) and 8.9e-16 (given z); bound
    1e-14, a margin of 11 or more."""
    fld, m, p0, expected = correlated_gaussian_2d()
    rec = compute_moment_record(fld, z)
    centre = np.concatenate([m, p0])
    if z is not None:
        offset = centre - np.concatenate([z.x, z.p])
        expected = expected + np.outer(offset, offset)
        centre = np.concatenate([z.x, z.p])
    assert rec.delta2.shape == (4, 4)
    assert np.array_equal(rec.delta2, rec.delta2.T)
    assert np.max(np.abs(np.concatenate([rec.mean_x, rec.mean_p]) - centre)) < 1e-14
    assert np.max(np.abs(rec.delta2 - expected)) < 1e-14


@pytest.fixture
def fft_calls(monkeypatch):
    """Forward FFTs made while a test runs, one entry per call of
    pocketfft's c2c kernel, which every FFT pair of the package calls."""
    kernel = scipy.fft._pocketfft.pypocketfft
    c2c, calls = kernel.c2c, []

    def counting(a, axes, forward, *args):
        if forward:
            calls.append(1)
        return c2c(a, axes, forward, *args)

    monkeypatch.setattr(kernel, "c2c", counting)
    return calls


def test_moment_record_fft_count(fft_calls):
    """The record applies P once per axis, whether the centre is given or
    is the field's own means: 2 forward FFTs of a 2D field either way."""
    fld, m, p0, _ = correlated_gaussian_2d()
    compute_moment_record(fld, PhasePoint(x=tuple(m), p=tuple(p0), t=0.0))
    assert len(fft_calls) == 2
    fft_calls.clear()
    compute_moment_record(fld)
    assert len(fft_calls) == 2


def test_widths_build_only_the_vectors_they_read(fft_calls):
    """The position width of a 3-field sweep applies no P at all, the
    momentum width one per field; a single moment applies P only for a
    momentum factor."""
    fields = [soliton_field(h) for h in (0.4, 0.2, 0.1)]
    concentration_scaling(fields)
    assert len(fft_calls) == 0
    concentration_scaling(fields, observable="momentum")
    assert len(fft_calls) == 3
    fft_calls.clear()
    centered_moment(fields[0], (0,), (2,))
    assert len(fft_calls) == 0
    centered_moment(fields[0], (1,), (1,))
    assert len(fft_calls) == 1


# ---------------------------------------------------------------------------
# concentration


def test_position_width_slope_is_one():
    fields = [soliton_field(h) for h in (0.4, 0.2, 0.1)]
    report = concentration_scaling(fields)
    assert abs(report.slope - 1.0) < 0.02


def test_momentum_width_slope_is_flat():
    """The sech momentum spread is set by eta alone, so the fitted
    momentum slope sits near zero; recorded, not asserted against 1."""
    fields = [soliton_field(h) for h in (0.4, 0.2, 0.1)]
    report = concentration_scaling(fields, observable="momentum")
    assert abs(report.slope) < 0.05


def test_concentration_requires_sweep():
    fields = [soliton_field(0.4) for _ in range(3)]
    with pytest.raises(ValueError, match="decreasing"):
        concentration_scaling(fields)
    with pytest.raises(ValueError, match="three"):
        concentration_scaling([soliton_field(0.4), soliton_field(0.2)])


def test_fit_scaling_recovers_power_law():
    hb = (0.4, 0.2, 0.1, 0.05)
    vals = tuple(3.0 * h ** 1.5 for h in hb)
    rep = fit_scaling(hb, vals)
    assert abs(rep.slope - 1.5) < 1e-12
    assert abs(np.exp(rep.intercept) - 3.0) < 1e-12


@pytest.mark.parametrize("hb, vals, match", [
    ((0.4, 0.2), (1.0,), "equal length"),
    ((0.4,), (1.0,), "two points"),
    ((0.4, 0.0), (1.0, 0.5), "positive"),
    ((0.4, 0.2), (1.0, -0.5), "positive"),
    ((0.2, 0.4), (1.0, 0.5), "decreasing"),
])
def test_fit_scaling_refuses_unusable_points(hb, vals, match):
    with pytest.raises(ValueError, match=match):
        fit_scaling(hb, vals)


def test_mass_within_radius_oracle():
    """tanh(R / w) of the sech^2 mass law, pinned at the 0.99 quantile."""
    hbar, eta = 0.05, 0.5
    w = hbar / (2.0 * eta)
    fld = soliton_field(hbar, n=4096)
    R = w * np.arctanh(0.99)
    frac = mass_within_radius(fld, R)
    assert abs(frac - 0.99) < 1e-3
    assert mass_within_radius(fld, np.sqrt(hbar)) > 0.99


def test_mass_within_radius_validation():
    fld = soliton_field(1.0)
    with pytest.raises(ValueError, match="radius"):
        mass_within_radius(fld, 0.0)
    with pytest.raises(ValueError, match="dimension"):
        mass_within_radius(fld, 1.0, center=(0.0, 0.0))


def test_mass_within_radius_refuses_a_zero_field_with_or_without_center():
    fld = soliton_field(1.0)
    zero = fld.with_values(np.zeros(fld.grid.shape))
    for center in (None, (0.0,)):
        with pytest.raises(ValueError, match="field is identically zero"):
            mass_within_radius(zero, 1.0, center=center)


# ---------------------------------------------------------------------------
# moment equations along an evolution


@pytest.mark.parametrize("r", [0.0, 0.7])
def test_ehrenfest_moment_equations(r):
    """Central-difference rates of the computed means satisfy the point
    dynamics d<x>/dt = <p>/m and d<p>/dt = -m w^2 <x> regardless of the
    self-attraction strength."""
    grid = make_uniform_grid(1, -15.0, 15.0, 512)
    omega, mass, hbar = 1.0, 1.0, 0.5
    params = PhysParams(hbar=hbar, mass=mass, r=r)
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(omega,), center=(0.0,), mass=mass))
    x = grid.axes()[0]
    vals = np.exp(-mass * omega * (x - 1.0) ** 2 / (2.0 * hbar))
    psi0 = ComplexField(grid, vals, hbar=hbar)
    config = SolverConfig(dt=1e-3, t_end=0.5, snapshot_every=10,
                          params=params, pot=pot)
    rec = evolve(psi0, config)
    ts = np.array(rec.times)
    xs = np.array([mean_position(s)[0] for s in rec.snapshots])
    ps = np.array([mean_momentum(s)[0] for s in rec.snapshots])
    dt_snap = ts[1] - ts[0]
    dx = (xs[2:] - xs[:-2]) / (2.0 * dt_snap)
    dp = (ps[2:] - ps[:-2]) / (2.0 * dt_snap)
    res_x = dx - ps[1:-1] / mass
    res_p = dp + mass * omega ** 2 * xs[1:-1]
    assert np.max(np.abs(res_x)) < 1e-4
    assert np.max(np.abs(res_p)) < 1e-4


def test_record_flat_row_and_validation():
    with pytest.raises(ValueError, match="2dim"):
        MomentRecord(t=0.0, hbar=1.0, mean_x=(0.0,), mean_p=(0.0,),
                     delta2=np.zeros((3, 3)))


_THREADS_SCRIPT = """
import numpy as np
from semiwave.core import ComplexField, inner_product, make_uniform_grid
from semiwave.moments import compute_moment_record

grid = make_uniform_grid(2, -8.0, 8.0, 512)
rng = np.random.default_rng(5)
a, b = (ComplexField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        for _ in range(2))
x, y = grid.mesh()
psi = ComplexField(grid, np.exp(-((x - 1.0) ** 2 + y ** 2) / 0.2 + 1j * (x + 0.5 * y) / 0.1),
                   hbar=0.1)
rec = compute_moment_record(psi)
z = inner_product(a, b)
print(" ".join(float(v).hex() for v in (z.real, z.imag, *rec.mean_p, *np.ravel(rec.delta2))))
"""


def test_inner_products_do_not_depend_on_the_blas_thread_count():
    """inner_product and the moment Gram matrix give the same bits with one
    and with two BLAS threads on a 512^2 grid.  A BLAS dot such as np.vdot
    splits a sum of this length across its threads, and the split moves
    the last bits of the result."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]

"""Envelope assembly, residual, and correction checks.

Oracle values used here:
  * sech-envelope half width: rho falls to half its peak where the scaled
    envelope phase equals hbar * arccosh(2), linear in hbar
  * spatially uniform scalar potential with zero phases: the eikonal
    residual is exactly V(t) everywhere
  * 1D reduction: the transport pair collapses to
      S1_t + S_x S1_x / m - sigma_x sigma1_x / m + 3 sigma_xx / (2m)
      sigma1_t + S_x sigma1_x / m + sigma_x S1_x / m
          - [S_xx / m + 2 sigma_xt / sigma_x + 2 S_x sigma_xx / (m sigma_x)] / 2
  * norm of the leading term at eta = 0.5: integral of
    (2 eta)^2 sech^2(2 eta x / hbar) dx = 4 eta hbar = 1 at hbar = 0.5
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from semiwave.core import (
    PhysParams,
    PotentialSpec,
    ExpressionScalar,
    SeparatedScalar,
    eval_potential,
    free_potential,
    make_axis_offset_grid,
    make_uniform_grid,
    norm_squared,
)
from semiwave.asymptotics import (
    Antiderivative,
    CallableWkbFields,
    Class1Params,
    Class2Params,
    CorrectionParams,
    CylindricalParams,
    FieldJet,
    SolitonParams,
    WkbFields,
    assemble_leading_term,
    corrected_term_with_dt,
    cylindrical_fields,
    envelope_rho,
    first_correction_uv,
    first_integral_residual,
    hj_residual,
    leading_term_time_derivative,
    one_soliton,
    psi_via_representation,
    separated_class1,
    separated_class2,
    soliton_correction_fields,
    transport_residuals,
)

HALF_FOCUSING = PhysParams(hbar=1.0, mass=1.0, r=0.5)


def max_abs(a):
    return float(np.max(np.abs(a)))


def make_family(name, params):
    """Build one representative of each shipped family with a generic
    parameter set, plus a matching grid and potential."""
    quad = lambda x: 0.1 * x * x
    quad_prime = lambda x: 0.2 * x
    if name == "soliton":
        sp = SolitonParams(xi=0.25, eta=0.5, phi0=0.3,
                           f=lambda z: 0.1 * z + 0.05 * np.sin(z))
        w = soliton_correction_fields(sp, params)
        return w, make_uniform_grid(1, -20.0, 20.0, 1024), free_potential()
    if name == "class1":
        p1 = Class1Params(c1=0.5, v1=quad, v1_prime=quad_prime)
        w = separated_class1(p1, (-4.0, 4.0), params)
        pot = PotentialSpec(scalar=SeparatedScalar(v1=quad))
        return w, make_uniform_grid(1, -4.0, 4.0, 1024), pot
    if name == "class2":
        p2 = Class2Params(c1=0.8, c3=0.2, a1=0.1, a2=0.05,
                          v1=quad, v1_prime=quad_prime)
        w = separated_class2(p2, (-4.0, 4.0), params)
        pot = PotentialSpec(scalar=SeparatedScalar(v1=quad))
        return w, make_uniform_grid(1, -4.0, 4.0, 1024), pot
    w = cylindrical_fields(CylindricalParams(c1=1.0, b1=0.1, a2=0.2), params)
    return w, make_axis_offset_grid(2, 2.0, 128), free_potential()


FAMILIES = ["soliton", "class1", "class2", "radial"]


# ---------------------------------------------------------------------------
# envelope


def test_envelope_peak_and_decay():
    """Unit slope, zero offset: peak value 1 at the origin, exponential
    decay away from it."""
    w = CallableWkbFields(S=lambda xs, t: np.zeros_like(xs[0]),
                          sigma=lambda xs, t: xs[0])
    xs = (np.array([-8.0, 0.0, 8.0]),)
    rho = envelope_rho(w.jet(xs, 0.0), HALF_FOCUSING)
    assert abs(rho[1] - 1.0) < 1e-14
    assert rho[0] < 1e-3 and rho[2] < 1e-3


def test_envelope_peak_matches_soliton_amplitude():
    """sigma = 2 eta (x - x0) gives peak 2 eta, the closed-form amplitude
    modulus at unit constants."""
    eta = 0.5
    w = CallableWkbFields(S=lambda xs, t: np.zeros_like(xs[0]),
                          sigma=lambda xs, t: 2.0 * eta * (xs[0] - 1.0))
    rho = envelope_rho(w.jet((np.array([1.0]),), 0.0), HALF_FOCUSING)
    # the slope falls back to a finite difference here, hence the 1e-10
    assert abs(rho[0] - 2.0 * eta) < 1e-10


def test_envelope_degenerate_and_defocusing_errors():
    """A vanishing envelope slope is refused by every entry point that
    divides by it, and a defocusing r by every one that builds the
    envelope."""
    grid = make_uniform_grid(1, -4.0, 4.0, 16)
    pot, cp = free_potential(), CorrectionParams()
    flat = CallableWkbFields(S=lambda xs, t: np.zeros_like(xs[0]),
                             sigma=lambda xs, t: np.ones_like(xs[0]))
    good = CallableWkbFields(S=lambda xs, t: np.zeros_like(xs[0]),
                             sigma=lambda xs, t: xs[0])
    defocusing = PhysParams(hbar=1.0, mass=1.0)
    for w, params, entry_points in (
        (flat, HALF_FOCUSING, ("rho", "transport", "integral", "uv")),
        (good, defocusing, ("rho", "integral", "uv")),
    ):
        jet = w.jet(grid.mesh(), 0.0)
        calls = {
            "rho": lambda: envelope_rho(jet, params),
            "transport": lambda: transport_residuals(jet, grid, 0.0, pot, params),
            "integral": lambda: first_integral_residual(jet, params),
            "uv": lambda: first_correction_uv(jet, cp, grid, 0.0, pot, params),
        }
        for name in entry_points:
            with pytest.raises(ValueError):
                calls[name]()


def test_envelope_half_width_scales_linearly_with_hbar():
    """The half-maximum point sits where sigma = hbar arccosh(2); halving
    hbar halves the half width exactly."""
    widths = []
    for hbar in (0.4, 0.2):
        params = PhysParams(hbar=hbar, mass=1.0, r=0.5)
        w = soliton_correction_fields(SolitonParams(xi=0.0, eta=0.5), params)
        peak = envelope_rho(w.jet((np.array([0.0]),), 0.0), params)[0]

        def half_crossing(x):
            return envelope_rho(w.jet((np.array([x]),), 0.0), params)[0] - 0.5 * peak

        widths.append(brentq(half_crossing, 0.0, 5.0, xtol=1e-14))
    # sigma = x here (beta2 = 1), so the width is hbar * arccosh(2) itself
    assert abs(widths[0] - 0.4 * np.arccosh(2.0)) < 1e-10
    assert abs(widths[0] / widths[1] - 2.0) < 1e-10


# ---------------------------------------------------------------------------
# representation identity


@pytest.mark.parametrize("family", FAMILIES)
def test_representation_identity(family):
    """Envelope-times-phase assembly and the rational representation are
    the same function, pointwise to near machine precision."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, grid, _ = make_family(family, params)
    jet = w.jet(grid.mesh(), 0.25)
    a = assemble_leading_term(jet, grid, 0.25, params)
    b = psi_via_representation(jet, grid, 0.25, params)
    assert max_abs(a.values - b.values) < 1e-12


def test_representation_deep_tail_guard():
    """Envelope phases around 400 overflow the rational form; the guard
    switches to the sech path and keeps the identity finite and exact."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    sp = SolitonParams(xi=0.0, eta=0.5, x0=-20.0)
    w = soliton_correction_fields(sp, params)
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    jet = w.jet(grid.mesh(), 0.0)
    theta = jet.sigma / params.hbar + jet.sigma1
    assert np.max(theta) > 390.0
    a = assemble_leading_term(jet, grid, 0.0, params)
    b = psi_via_representation(jet, grid, 0.0, params)
    assert np.all(np.isfinite(b.values))
    assert max_abs(a.values - b.values) < 1e-12


def test_leading_term_modulus_is_envelope():
    params = PhysParams(hbar=0.2, mass=1.0, r=0.5)
    w, grid, _ = make_family("class1", params)
    jet = w.jet(grid.mesh(), 0.0)
    fld = assemble_leading_term(jet, grid, 0.0, params)
    rho = envelope_rho(jet, params)
    assert max_abs(np.abs(fld.values) - rho) < 1e-13


def test_leading_term_norm_oracle():
    """eta = 0.5, hbar = 0.5: squared norm is 4 eta hbar = 1 exactly."""
    params = PhysParams(hbar=0.5, mass=1.0, r=0.5)
    w = soliton_correction_fields(SolitonParams(xi=0.0, eta=0.5), params)
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    fld = assemble_leading_term(w.jet(grid.mesh(), 0.0), grid, 0.0, params)
    assert abs(norm_squared(fld) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# eikonal and transport residuals


def test_hj_uniform_potential_oracle():
    """Zero phases leave only V in the residual, so R = V(t) everywhere."""
    v = lambda xs, t: 1.3 + 0.2 * t
    zero = lambda xs, t: np.zeros_like(xs[0])
    w = CallableWkbFields(S=zero, sigma=zero)
    grid = make_uniform_grid(1, -4.0, 4.0, 64)
    pot = PotentialSpec(scalar=ExpressionScalar(fn=v))
    for t in (0.0, 1.7):
        r = hj_residual(w.jet(grid.mesh(), t), grid, t, pot, HALF_FOCUSING)
        assert np.shape(r) == grid.shape
        assert max_abs(r - v(None, t)) < 1e-10


# class 1 measured at most 4.4e-16 over 20 seeded c1 in [0.45, 0.55] at
# n = 1024, 4096 and 16384, as identity-suite's hj_class1_max row
@pytest.mark.parametrize("family,tol", [("soliton", 1e-12), ("class1", 1e-12),
                                        ("class2", 1e-8), ("radial", 1e-12)])
def test_hj_residual_families(family, tol):
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, grid, pot = make_family(family, params)
    assert max_abs(hj_residual(w.jet(grid.mesh(), 0.25), grid, 0.25, pot, params)) < tol


@pytest.mark.parametrize("family", FAMILIES)
def test_transport_residual_families(family):
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, grid, pot = make_family(family, params)
    eq_a, eq_b = transport_residuals(w.jet(grid.mesh(), 0.25), grid, 0.25, pot, params)
    assert max_abs(eq_a) < 1e-10
    assert max_abs(eq_b) < 1e-10


class _Analytic1D(WkbFields):
    """Hand-differentiated generic 1D fields for the reduction identity."""

    dim = 1

    def jet(self, xs, t):
        x = xs[0]
        sigma_x = 1.0 + (0.2 + 0.02 * t) * np.cos(x)
        sigma_xx = -(0.2 + 0.02 * t) * np.sin(x)
        return FieldJet(
            S=0.3 * x * x + 0.1 * t + 0.05 * x * t,
            sigma=x + (0.2 + 0.02 * t) * np.sin(x),
            S1=0.04 * x * x - 0.1 * x * t,
            sigma1=0.1 * np.cos(2.0 * x) + 0.05 * t,
            S_t=0.1 + 0.05 * x, sigma_t=0.02 * np.sin(x), S1_t=-0.1 * x, sigma1_t=0.05,
            # d/dt sigma_x = 0.02 cos(x)
            g=sigma_x ** 2, g_t=2.0 * sigma_x * 0.02 * np.cos(x),
            derivatives=lambda: dict(
                dS=(0.6 * x + 0.05 * t,), dsigma=(sigma_x,),
                dS1=(0.08 * x - 0.1 * t,), dsigma1=(-0.2 * np.sin(2.0 * x),),
                lap_S=0.6, lap_sigma=sigma_xx, dg=(2.0 * sigma_x * sigma_xx,)))


def test_transport_one_dimensional_reduction():
    """In 1D the log-slope terms collapse: the first residual reduces to
    3 sigma_xx / (2m) and the second to the bracketed sigma_xt form; both
    transcriptions must agree on generic smooth fields."""
    w = _Analytic1D()
    grid = make_uniform_grid(1, -3.0, 3.0, 256)
    m = 1.3
    params = PhysParams(hbar=0.1, mass=m, r=0.5)
    t = 0.6
    eq_a, eq_b = transport_residuals(w.jet(grid.mesh(), t), grid, t, free_potential(),
                                     params)

    x = grid.axes()[0]
    S_x = 0.6 * x + 0.05 * t
    S_xx = 0.6
    sigma_x = 1.0 + (0.2 + 0.02 * t) * np.cos(x)
    sigma_xx = -(0.2 + 0.02 * t) * np.sin(x)
    sigma_xt = 0.02 * np.cos(x)
    S1_t = -0.1 * x
    S1_x = 0.08 * x - 0.1 * t
    sigma1_t = 0.05
    sigma1_x = -0.2 * np.sin(2.0 * x)

    red_a = S1_t + S_x * S1_x / m - sigma_x * sigma1_x / m \
        + 1.5 * sigma_xx / m
    red_b = sigma1_t + S_x * sigma1_x / m + sigma_x * S1_x / m \
        - 0.5 * (S_xx / m + 2.0 * sigma_xt / sigma_x
                 + 2.0 * S_x * sigma_xx / (m * sigma_x))

    assert max_abs(eq_a - red_a) < 1e-10
    assert max_abs(eq_b - red_b) < 1e-10


# ---------------------------------------------------------------------------
# first integral


@pytest.mark.parametrize("family", ["soliton", "class1", "radial"])
def test_first_integral_vanishes_on_families(family):
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, grid, _ = make_family(family, params)
    assert max_abs(first_integral_residual(w.jet(grid.mesh(), 0.25), params)) < 1e-10


def test_first_integral_detects_corruption():
    """Scaling the profile off its exact value breaks the integral: a
    shrunken profile leaves a visible residual, a stretched one exceeds
    the amplitude bound and raises."""
    w = soliton_correction_fields(SolitonParams(xi=0.0, eta=0.5), HALF_FOCUSING)
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    jet = w.jet(grid.mesh(), 0.0)
    res = first_integral_residual(jet, HALF_FOCUSING, rho_factor=0.99)
    assert max_abs(res) > 1e-3
    with pytest.raises(ValueError):
        first_integral_residual(jet, HALF_FOCUSING, rho_factor=1.01)


# ---------------------------------------------------------------------------
# first correction


def test_correction_vanishes_for_plain_soliton():
    """Constant envelope slope, no dressing, C1 = 0: every bracket in the
    correction is identically zero."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = soliton_correction_fields(SolitonParams(xi=0.25, eta=0.5), params)
    grid = make_uniform_grid(1, -20.0, 20.0, 512)
    u, v = first_correction_uv(w.jet(grid.mesh(), 0.3), CorrectionParams(), grid, 0.3,
                               free_potential(), params)
    assert max_abs(u) == 0.0
    assert max_abs(v) == 0.0


def test_correction_parity_with_constant_c1():
    """With only C1 = const switched on, u is odd and v is even in the
    envelope phase; for the centered resting soliton that is parity in x."""
    params = PhysParams(hbar=0.2, mass=1.0, r=0.5)
    w = soliton_correction_fields(SolitonParams(xi=0.0, eta=0.5), params)
    grid = make_uniform_grid(1, -16.0, 16.0, 512)
    u, v = first_correction_uv(w.jet(grid.mesh(), 0.0), CorrectionParams(C1=0.7), grid,
                               0.0, free_potential(), params)
    # index j=0 has no mirror sample on the right-open grid
    assert max_abs(u[1:] + u[:0:-1]) < 1e-12
    assert max_abs(v[1:] - v[:0:-1]) < 1e-12
    # v reduces to (2m/g) C1 exactly
    assert max_abs(v - 2.0 * 0.7 / 1.0) < 1e-12


def test_corrected_field_cancels_first_order_residual():
    """Dressing chosen so the first-order defect does not vanish at the
    soliton center: the leading field then misses the equation at O(hbar)
    while the corrected field gains a full extra order."""
    sp = SolitonParams(xi=0.25, eta=0.5, f=lambda z: 0.3 * np.cos(z),
                       fprime=lambda z: -0.3 * np.sin(z))
    w = soliton_correction_fields(sp, PhysParams(hbar=1.0, mass=1.0, r=0.5))
    grid = make_uniform_grid(1, -20.0, 20.0, 4096)
    k = grid.wavenumbers()[0]
    pot = free_potential()
    t = 0.4
    hbars = np.array([0.2, 0.1, 0.05, 0.025])

    def rel_residual(fld, dfld, pp):
        lap = np.fft.ifft(-(k ** 2) * np.fft.fft(fld.values))
        R = (-1j * pp.hbar * dfld.values
             - pp.hbar ** 2 / (2.0 * pp.mass) * lap
             - 2.0 * pp.r * np.abs(fld.values) ** 2 * fld.values)
        return np.sqrt(np.sum(np.abs(R) ** 2) / np.sum(np.abs(fld.values) ** 2))

    lead, corr = [], []
    for hb in hbars:
        pp = PhysParams(hbar=float(hb), mass=1.0, r=0.5)
        jet = w.jet(grid.mesh(), t)
        psi = assemble_leading_term(jet, grid, t, pp)
        dpsi = leading_term_time_derivative(jet, psi, pp)
        lead.append(rel_residual(psi, dpsi, pp))
        fld, dfld = corrected_term_with_dt(w, jet, psi, dpsi, CorrectionParams(), pot, pp)
        corr.append(rel_residual(fld, dfld, pp))
    slope_lead = np.polyfit(np.log(hbars), np.log(lead), 1)[0]
    slope_corr = np.polyfit(np.log(hbars), np.log(corr), 1)[0]
    assert 0.8 < slope_lead < 1.2
    assert slope_corr > 1.7
    assert all(c < l for c, l in zip(corr, lead))


@pytest.mark.parametrize("family", ["class1", "soliton"])
def test_corrected_time_derivative_consistency(family):
    """The analytic time derivative of the corrected field must match a
    central difference of the corrected field itself."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    if family == "class1":
        p1 = Class1Params(c1=0.5, c2=0.3, v1=lambda x: 0.1 * x * x,
                          v1_prime=lambda x: 0.2 * x)
        w = separated_class1(p1, (-4.0, 4.0), params)
        grid = make_uniform_grid(1, -4.0, 4.0, 512)
        pot = PotentialSpec(scalar=SeparatedScalar(v1=lambda x: 0.1 * x * x))
    else:
        sp = SolitonParams(xi=0.25, eta=0.5, f=lambda z: 0.2 * np.cos(z),
                           fprime=lambda z: -0.2 * np.sin(z))
        w = soliton_correction_fields(sp, params)
        grid = make_uniform_grid(1, -20.0, 20.0, 512)
        pot = free_potential()
    cp = CorrectionParams(C1=0.3)
    t, step = 0.5, 1e-5

    def corrected(s):
        jet = w.jet(grid.mesh(), s)
        psi = assemble_leading_term(jet, grid, s, params)
        dpsi = leading_term_time_derivative(jet, psi, params)
        return corrected_term_with_dt(w, jet, psi, dpsi, cp, pot, params)

    _, dfld = corrected(t)
    plus, minus = (corrected(s)[0] for s in (t + step, t - step))
    fd = (plus.values - minus.values) / (2.0 * step)
    scale = max_abs(fd)
    assert max_abs(dfld.values - fd) < 1e-5 * scale


def test_class1_correction_is_stationary_with_zero_imaginary_part():
    """For the standing separated family the correction's imaginary part
    cancels exactly and its real part carries no time dependence."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    p1 = Class1Params(c1=0.5, v1=lambda x: 0.1 * x * x,
                      v1_prime=lambda x: 0.2 * x)
    w = separated_class1(p1, (-4.0, 4.0), params)
    grid = make_uniform_grid(1, -4.0, 4.0, 512)
    pot = PotentialSpec(scalar=SeparatedScalar(v1=lambda x: 0.1 * x * x))
    (u0, v0), (u1, v1) = (first_correction_uv(w.jet(grid.mesh(), t), CorrectionParams(),
                                              grid, t, pot, params) for t in (0.0, 0.8))
    assert max_abs(v0) == 0.0
    assert max_abs(v1) == 0.0
    assert max_abs(u0 - u1) < 1e-12
    assert max_abs(u0) > 1e-3  # the correction is genuinely nonzero


# ---------------------------------------------------------------------------
# linear-equation property of the inner exponential


def _linear_symbol(w, xs, t, pot, params):
    """Apply the linear Schrodinger operator to exp{(i/hbar)[S + i sigma
    + hbar (S1 + i sigma1)]} analytically and divide the field out."""
    hbar, m = params.hbar, params.mass
    V = pot.scalar.value(xs, t)
    A = pot.vector.value(xs, t)
    divA = pot.vector.divergence(xs, t)
    dim = len(xs)
    jet = w.jet(xs, t)
    dt_full = jet.S_t + 1j * jet.sigma_t + hbar * (jet.S1_t + 1j * jet.sigma1_t)
    mom = tuple(jet.dS[j] + 1j * jet.dsigma[j]
                + hbar * (jet.dS1[j] + 1j * jet.dsigma1[j]) - A[j]
                for j in range(dim))
    lap_full = jet.lap_S + 1j * jet.lap_sigma
    kin = sum(mom[j] ** 2 for j in range(dim))
    return dt_full + V + (kin - 1j * hbar * (lap_full - divA)) / (2.0 * m)


def test_inner_exponential_solves_linear_equation_to_second_order():
    """Constant envelope slope keeps the log-slope terms out of the
    operator symbol, so the soliton inner exponential satisfies the linear
    equation with an O(hbar^2) defect for any analytic dressing."""
    sp = SolitonParams(xi=0.25, eta=0.5, f=lambda z: 0.2 * np.sin(z),
                       fprime=lambda z: 0.2 * np.cos(z))
    xs = (np.linspace(-5.0, 5.0, 201),)
    hbars = np.array([0.4, 0.2, 0.1, 0.05])
    vals = []
    for hb in hbars:
        pp = PhysParams(hbar=float(hb), mass=1.0, r=0.5)
        w = soliton_correction_fields(sp, pp)
        vals.append(max_abs(_linear_symbol(w, xs, 0.3, free_potential(), pp)))
    slope = np.polyfit(np.log(hbars), np.log(vals), 1)[0]
    assert slope > 1.9


# ---------------------------------------------------------------------------
# quadrature utility


def test_antiderivative_matches_closed_form():
    F = Antiderivative(np.cos, 0.0, 10.0, base_point=0.0)
    x = np.linspace(0.0, 10.0, 501)
    assert max_abs(F(x) - np.sin(x)) < 1e-10


def test_antiderivative_base_point_offset():
    F = Antiderivative(np.cos, 0.0, 10.0, base_point=2.0)
    assert abs(F(2.0)) < 1e-14
    assert abs(F(5.0) - (np.sin(5.0) - np.sin(2.0))) < 1e-10


# measured 2.7e-15 (degree 64); the bound leaves a margin of about 10
CLASS1_SIGMA_ERR = 3e-14


def test_antiderivative_matches_class1_sigma():
    """The shipped class-1 envelope phase, the antiderivative of
    sqrt(2 m (c1 + k x^2)) from 0, against its closed form
    sqrt(2 m k) [x sqrt(a^2 + x^2) + a^2 arcsinh(x / a)] / 2, a^2 = c1/k."""
    m, c1, k = 1.0, 0.5, 0.1
    F = Antiderivative(lambda x: np.sqrt(2.0 * m * (c1 + k * x * x)), -4.0, 4.0)
    x = np.linspace(-4.0, 4.0, 4097)
    a2 = c1 / k
    exact = np.sqrt(2.0 * m * k) * 0.5 * (x * np.sqrt(a2 + x * x)
                                          + a2 * np.arcsinh(x / np.sqrt(a2)))
    assert max_abs(F(x) - exact) < CLASS1_SIGMA_ERR


def test_antiderivative_refuses_an_unresolved_integrand():
    """|x| has a kink, so its Chebyshev coefficients fall only like 1/k^2
    and never reach the tolerance within the degree cap."""
    with pytest.raises(ValueError, match="not resolved"):
        Antiderivative(np.abs, -1.0, 1.0)


def test_antiderivative_refuses_a_nonfinite_integrand():
    with pytest.raises(ValueError, match="not finite"):
        Antiderivative(lambda x: np.where(x < 0.5, 1.0, np.inf), -1.0, 1.0)


def test_antiderivative_rejects_out_of_range():
    with pytest.raises(ValueError, match="base point"):
        Antiderivative(np.cos, 0.0, 10.0, base_point=10.5)
    F = Antiderivative(np.cos, 0.0, 10.0)
    with pytest.raises(ValueError):
        F(-0.5)
    with pytest.raises(ValueError):
        F(10.5)

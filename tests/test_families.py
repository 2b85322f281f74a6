"""Solution-family construction checks.

Oracle values used here:
  * constant envelope slope: sigma_x = sqrt(2 m c1) for the standing
    separated family with v1 = 0
  * arcsine quadrature: integral of sqrt(1 - x^2) from 0 to x equals
    (x sqrt(1 - x^2) + arcsin x) / 2
  * constant-coefficient travelling family: v1 = 0, c3 = 0 gives
    p'(x) = sqrt(m c1) so sigma = c1 (t - x sqrt(m / c1)) + c2
  * one-soliton amplitude with hbar = m = 1, kappa^2 = 1/2 and eta = 0.5
    is sech(x) with unit peak
"""

import dataclasses

import numpy as np
import pytest

from semiwave.core import (
    PhysParams,
    apply_momentum,
    free_potential,
    inner_product,
    make_axis_offset_grid,
    make_uniform_grid,
    norm_squared,
)
from semiwave.asymptotics import (
    CallableWkbFields,
    Class1Params,
    Class2Params,
    CylindricalParams,
    SolitonParams,
    assemble_leading_term,
    cylindrical_fields,
    cylindrical_special,
    envelope_rho,
    hj_residual,
    one_soliton,
    separated_class1,
    separated_class2,
    soliton_correction_fields,
    transport_residuals,
)
from semiwave.asymptotics.families import CylindricalFields
from semiwave.harness.scenarios import _leading_pair

HALF_FOCUSING = PhysParams(hbar=1.0, mass=1.0, r=0.5)


def sech(x):
    return 1.0 / np.cosh(x)


# ---------------------------------------------------------------------------
# soliton family


def test_soliton_closed_form_modulus():
    """At rest (xi = 0) with unit constants the field is exactly sech(x)."""
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    sp = SolitonParams(xi=0.0, eta=0.5)
    fld = one_soliton(sp, grid, 0.0, HALF_FOCUSING)
    x = grid.axes()[0]
    assert np.max(np.abs(np.abs(fld.values) - sech(x))) < 1e-13
    assert abs(np.abs(fld.values[512]) - 1.0) < 1e-14  # x = 0 sample


def test_soliton_peak_velocity():
    """The envelope argument contains x - x0 - (2 xi / m) t, so the peak
    travels at 2 xi / m = 0.5 for xi = 0.25."""
    grid = make_uniform_grid(1, -20.0, 20.0, 8192)
    sp = SolitonParams(xi=0.25, eta=0.5, x0=-5.0)
    x = grid.axes()[0]
    h = grid.spacing[0]
    peaks = []
    for t in (0.0, 4.0, 8.0):
        dens = np.abs(one_soliton(sp, grid, t, HALF_FOCUSING).values) ** 2
        j = int(np.argmax(dens))
        # quadratic fit through the three samples around the maximum
        y0, y1, y2 = dens[j - 1], dens[j], dens[j + 1]
        peaks.append(x[j] + 0.5 * h * (y0 - y2) / (y0 - 2 * y1 + y2))
    vel = np.polyfit([0.0, 4.0, 8.0], peaks, 1)[0]
    assert abs(vel - 0.5) < 1e-3
    assert abs(peaks[0] - (-5.0)) < 1e-6


def test_soliton_derived_constants():
    """Carrier frequency and envelope drift follow from the slopes alone:
    alpha1 = (beta2^2 - alpha2^2)/(2m) and beta1 = -alpha2 beta2 / m."""
    w = soliton_correction_fields(SolitonParams(xi=0.0, eta=0.5),
                                  PhysParams(hbar=1.0, mass=1.0))
    assert w.alpha2 == 0.0
    assert w.beta2 == 1.0
    assert w.alpha1 == 0.5
    assert w.beta1 == 0.0


def test_soliton_real_linear_dressing():
    """f(z) = 0.1 z is real on the real axis at t = 0, so the dressing
    shifts only the carrier phase (by 0.1 x) and leaves the modulus."""
    grid = make_uniform_grid(1, -20.0, 20.0, 1024)
    x = grid.axes()[0]
    plain = one_soliton(SolitonParams(xi=0.25, eta=0.5), grid, 0.0, HALF_FOCUSING)
    dressed = one_soliton(SolitonParams(xi=0.25, eta=0.5, f=lambda z: 0.1 * z),
                          grid, 0.0, HALF_FOCUSING)
    assert np.max(np.abs(np.abs(dressed.values) - np.abs(plain.values))) < 1e-13
    ratio = dressed.values / plain.values
    assert np.max(np.abs(ratio - np.exp(0.1j * x))) < 1e-12


def test_soliton_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        SolitonParams(xi=0.1, eta=0.0)
    with pytest.raises(ValueError):
        SolitonParams(xi=0.1, eta=-0.5)


def test_one_soliton_matches_assembled_field():
    """Closed form and envelope-times-phase assembly are independent code
    paths and must agree pointwise, dressing included."""
    grid = make_uniform_grid(1, -20.0, 20.0, 2048)
    sp = SolitonParams(xi=0.25, eta=0.5, phi0=0.3,
                       f=lambda z: 0.1 * z + 0.05 * np.sin(z))
    params = PhysParams(hbar=0.25, mass=1.0, r=0.5)
    w = soliton_correction_fields(sp, params)
    a = assemble_leading_term(w.jet(grid.mesh(), 0.7), grid, 0.7, params)
    b = one_soliton(sp, grid, 0.7, params)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


# ---------------------------------------------------------------------------
# separated class 1


def test_class1_constant_potential_profile():
    """v1 = 0 makes the envelope slope constant sqrt(2 m c1) = 1, so sigma
    is x itself (zeroed at the interval midpoint) and S = c1 t."""
    w = separated_class1(Class1Params(c1=0.5), (-4.0, 4.0),
                         PhysParams(hbar=1.0, mass=1.0))
    x = np.linspace(-3.5, 3.5, 101)
    jet = w.jet((x,), 0.0)
    assert np.max(np.abs(jet.sigma - x)) < 1e-10
    assert np.max(np.abs(jet.dsigma[0] - 1.0)) < 1e-14
    assert np.max(np.abs(w.jet((x,), 2.0).S - 1.0)) < 1e-14


def test_class1_arcsine_envelope_oracle():
    """For v1 = -x^2/2 and c1 = 1/2 the slope is sqrt(1 - x^2) and the
    quadrature has the closed form (x sqrt(1-x^2) + arcsin x)/2."""
    p1 = Class1Params(c1=0.5, v1=lambda x: -0.5 * x * x,
                      v1_prime=lambda x: -x)
    w = separated_class1(p1, (-0.95, 0.95), PhysParams(hbar=1.0, mass=1.0))
    x = np.linspace(-0.9, 0.9, 181)
    exact = 0.5 * (x * np.sqrt(1.0 - x * x) + np.arcsin(x))
    assert np.max(np.abs(w.jet((x,), 0.0).sigma - exact)) < 1e-9


def test_class1_rejects_nonpositive_depth():
    """c1 + v1 dips below zero on a wide interval, leaving no real slope."""
    p1 = Class1Params(c1=0.5, v1=lambda x: -0.5 * x * x)
    with pytest.raises(ValueError):
        separated_class1(p1, (-4.0, 4.0), PhysParams(hbar=1.0, mass=1.0))


def test_class1_transport_with_linear_time_correction():
    """A nonzero c2 feeds both S1 = c2 t + c3 and the quadrature term of
    sigma1; the transport pair must still vanish identically."""
    from semiwave.core import PotentialSpec, SeparatedScalar

    p1 = Class1Params(c1=0.5, c2=0.4, c3=0.1, c4=-0.2,
                      v1=lambda x: 0.1 * x * x, v1_prime=lambda x: 0.2 * x)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = separated_class1(p1, (-4.0, 4.0), params)
    grid = make_uniform_grid(1, -4.0, 4.0, 1024)
    pot = PotentialSpec(scalar=SeparatedScalar(v1=lambda x: 0.1 * x * x))
    eq_a, eq_b = transport_residuals(w.jet(grid.mesh(), 0.6), grid, 0.6, pot, params)
    assert np.max(np.abs(eq_a)) < 1e-10
    assert np.max(np.abs(eq_b)) < 1e-10


# ---------------------------------------------------------------------------
# separated class 2


def test_class2_constant_coefficient_reduction():
    """v1 = 0 and c3 = 0 collapse the radical to p' = sqrt(m c1); with
    m = c1 = 1 the envelope phase is the travelling wave t - x."""
    p2 = Class2Params(c1=1.0)
    w = separated_class2(p2, (-4.0, 4.0), PhysParams(hbar=1.0, mass=1.0))
    x = np.linspace(-3.5, 3.5, 101)
    assert np.max(np.abs(w.jet((x,), 0.0).dS[0] - 1.0)) < 1e-12
    assert np.max(np.abs(w.jet((x,), 2.0).sigma - (2.0 - x))) < 1e-10


def test_class2_defining_radical_identity():
    """After construction, p'(x)^2 / m must reproduce the radical
    -(v1 + c3) + sqrt((v1 + c3)^2 + c1^2) pointwise."""
    v1 = lambda x: 0.1 * x * x
    p2 = Class2Params(c1=0.8, c3=0.2, v1=v1,
                      v1_prime=lambda x: 0.2 * x)
    w = separated_class2(p2, (-4.0, 4.0), PhysParams(hbar=1.0, mass=1.0))
    x = np.linspace(-3.9, 3.9, 301)
    p_x = w.jet((x,), 0.0).dS[0]
    lhs = p_x ** 2 / 1.0
    top = v1(x) + 0.2
    rhs = -top + np.sqrt(top * top + 0.64)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.min(p_x) > 0.0


def test_class2_constant_correction_slopes():
    """With v1 = 0 the two linear quadrature relations have constant
    solutions; check f' and g' against direct evaluation of those
    relations."""
    m, c1, a1, a2 = 1.0, 0.9, 0.07, -0.04
    p2 = Class2Params(c1=c1, a1=a1, a2=a2)
    w = separated_class2(p2, (-4.0, 4.0), PhysParams(hbar=1.0, mass=m))
    x = np.linspace(-3.0, 3.0, 61)
    px = np.sqrt(m * c1)   # radical with v1 = c3 = 0
    fprime = (c1 * m * m * a2 * px - m * a1 * px ** 3) / (px ** 4 + c1 ** 2 * m ** 2)
    gprime = (m / px) * ((c1 / px) * fprime - a2)
    jet = w.jet((x,), 0.0)
    assert np.max(np.abs(jet.dS1[0] - fprime)) < 1e-12
    assert np.max(np.abs(jet.dsigma1[0] - gprime)) < 1e-12


def test_class2_transport_generic_potential():
    """Generic smooth v1: the quadrature-built corrections keep both
    transport residuals at quadrature tolerance."""
    from semiwave.core import PotentialSpec, SeparatedScalar

    v1 = lambda x: 0.1 * x * x
    p2 = Class2Params(c1=0.8, c3=0.2, a1=0.1, a2=0.05, a4=0.3,
                      v1=v1, v1_prime=lambda x: 0.2 * x)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = separated_class2(p2, (-4.0, 4.0), params)
    grid = make_uniform_grid(1, -4.0, 4.0, 2048)
    pot = PotentialSpec(scalar=SeparatedScalar(v1=v1))
    eq_a, eq_b = transport_residuals(w.jet(grid.mesh(), 0.3), grid, 0.3, pot, params)
    assert np.max(np.abs(eq_a)) < 1e-8
    assert np.max(np.abs(eq_b)) < 1e-8


def test_class2_rejects_zero_c1():
    with pytest.raises(ValueError):
        Class2Params(c1=0.0)


# ---------------------------------------------------------------------------
# radial family


def test_cylindrical_radial_symmetry():
    """|Psi| depends on the distance from the axis only; on an axis-offset
    grid the index reflection j -> n-1-j maps the sample set onto itself."""
    grid = make_axis_offset_grid(2, 2.0, 128)
    cp = CylindricalParams(c1=1.0, b1=0.1, a2=0.2)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    dens = np.abs(cylindrical_special(cp, grid, 0.25, params).values)
    assert np.max(np.abs(dens - dens[::-1, :])) < 1e-14
    assert np.max(np.abs(dens - dens[:, ::-1])) < 1e-14
    assert np.max(np.abs(dens - dens.T)) < 1e-14


def test_cylindrical_peak_amplitude():
    """Choosing a1 = -c1 puts the sech-argument zero at radius 1, where the
    modulus must equal c1 / sqrt(2 m r)."""
    cp = CylindricalParams(c1=1.0, a1=-1.0)
    params = PhysParams(hbar=0.2, mass=1.0, r=0.5)
    w = cylindrical_fields(cp, params)
    xs = (np.array([1.0]), np.array([0.0]))
    rho = envelope_rho(w.jet(xs, 0.0), params)
    assert abs(rho[0] - 1.0) < 1e-14


def test_cylindrical_static_phase_zero_momentum():
    """b1 = 0 and a2 = 0 leave no spatial carrier phase, so the mean
    momentum along both axes vanishes."""
    grid = make_axis_offset_grid(2, 2.0, 128)
    cp = CylindricalParams(c1=1.0, a1=-1.0)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    fld = cylindrical_special(cp, grid, 0.4, params)
    nrm = norm_squared(fld)
    for axis in (0, 1):
        mom = inner_product(fld, apply_momentum(fld, axis)) / nrm
        assert abs(mom) < 1e-8


def test_cylindrical_matches_assembled_field():
    grid = make_axis_offset_grid(2, 2.0, 128)
    cp = CylindricalParams(c1=1.0, b1=0.1, a2=0.2, a3=0.05, c2=0.1, c3=-0.2)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(cp, params)
    a = assemble_leading_term(w.jet(grid.mesh(), 0.25), grid, 0.25, params)
    b = cylindrical_special(cp, grid, 0.25, params)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_cylindrical_rejects_axis_sample():
    """A centered even grid puts a sample exactly on the axis, where the
    half-log term diverges."""
    grid = make_uniform_grid(2, -2.0, 2.0, 16)
    cp = CylindricalParams(c1=1.0)
    with pytest.raises(ValueError):
        cylindrical_special(cp, grid, 0.0, PhysParams(hbar=0.1, mass=1.0, r=0.5))
    with pytest.raises(ValueError):
        CylindricalParams(c1=0.0)


# ---------------------------------------------------------------------------
# analytic jets vs central differences


def _fd_reference(w):
    """Fields whose values are the family's jet values, so that the
    finite-difference jet of CallableWkbFields serves as the reference."""
    return CallableWkbFields(
        *(lambda xs, t, name=name: getattr(w.jet(xs, t), name)
          for name in ("S", "sigma", "S1", "sigma1")), dim=w.dim)


def _compare(analytic, reference, rtol):
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = 1.0 + np.abs(analytic)
    assert np.max(np.abs(analytic - reference) / scale) < rtol


# Bound of each entry's gap to the finite-difference jet, relative to
# 1 + |entry|, with the largest gap measured over the four families.  First
# derivatives and g keep 1e-6 (measured at most 3.7e-10).  The Laplacians
# are second differences of step 1e-4; g_t is a difference of the squared
# first difference, and dg a difference of a squared difference, so both
# lose more digits.
_RTOL = {"lap_S": 1e-6, "lap_sigma": 1e-6,  # measured 1.2e-7 and 2.0e-7
         "g_t": 5e-3,  # measured 1.3e-4
         "dg": 5e-3}  # measured 1.2e-3


# the 17 entries of a jet: ten built with it, then its derivative block
JET_ENTRIES = ("S", "sigma", "S1", "sigma1", "S_t", "sigma_t", "S1_t", "sigma1_t",
               "g", "g_t", "dS", "dsigma", "dS1", "dsigma1", "lap_S", "lap_sigma", "dg")


def _sampled_family(family, params, rng):
    """A family with 100 random interior sample points."""
    if family == "soliton":
        sp = SolitonParams(xi=0.25, eta=0.5, f=lambda z: 0.1 * np.sin(z))
        return soliton_correction_fields(sp, params), (rng.uniform(-8.0, 8.0, 100),)
    if family == "class1":
        p1 = Class1Params(c1=0.5, c2=0.3, v1=lambda x: 0.1 * x * x,
                          v1_prime=lambda x: 0.2 * x)
        return separated_class1(p1, (-4.0, 4.0), params), (rng.uniform(-3.8, 3.8, 100),)
    if family == "class2":
        p2 = Class2Params(c1=0.8, c3=0.2, a1=0.1, a2=0.05,
                          v1=lambda x: 0.1 * x * x, v1_prime=lambda x: 0.2 * x)
        return separated_class2(p2, (-4.0, 4.0), params), (rng.uniform(-3.8, 3.8, 100),)
    w = cylindrical_fields(CylindricalParams(c1=1.0, b1=0.1, a2=0.2), params)
    ang = rng.uniform(0.0, 2.0 * np.pi, 100)
    rad = rng.uniform(0.3, 1.8, 100)
    return w, (rad * np.cos(ang), rad * np.sin(ang))


@pytest.mark.parametrize("family", ["soliton", "class1", "class2", "radial"])
def test_gradients_match_finite_differences(family):
    """Every entry of each family's analytic jet agrees with the
    finite-difference jet of its values at randomly sampled interior
    points; the reference is a CallableWkbFields jet, so its 17 entries,
    derivative block included, are read as well."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, xs = _sampled_family(family, params, np.random.default_rng(7))
    t = 0.37
    jet, ref = w.jet(xs, t), _fd_reference(w).jet(xs, t)
    for name in JET_ENTRIES:
        a, b = getattr(jet, name), getattr(ref, name)
        rtol = _RTOL.get(name, 1e-6)
        if isinstance(a, tuple):
            assert len(a) == len(b) == w.dim
            for axis in range(w.dim):
                _compare(a[axis], b[axis], rtol)
        else:
            _compare(a, b, rtol)


@pytest.mark.parametrize("family", ["soliton", "class1", "class2", "radial", "callable"])
def test_derivative_block_evaluated_once_per_jet(family):
    """A jet evaluates its derivative block on the first read of a
    derivative entry and never again: reading the ten value and time
    entries calls it 0 times, then reading all seven derivative entries
    twice calls it once."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w, xs = _sampled_family("radial" if family == "callable" else family, params,
                            np.random.default_rng(3))
    if family == "callable":
        w = _fd_reference(w)
    jet = w.jet(xs, 0.37)
    calls = []
    jet = dataclasses.replace(jet, derivatives=lambda block=jet.derivatives:
                              calls.append(1) or block())
    for name in JET_ENTRIES[:10]:
        getattr(jet, name)
    assert calls == []
    for name in JET_ENTRIES[10:] * 2:
        getattr(jet, name)
    assert calls == [1]


def test_leading_pair_never_evaluates_the_radial_derivative_block(monkeypatch):
    """The leading state and its time derivative read no spatial derivative,
    so building them for the ring state never evaluates the jet's
    derivative block; the eikonal residual, which reads two derivative
    entries, evaluates it once."""
    calls = []
    block = CylindricalFields._derivatives
    monkeypatch.setattr(CylindricalFields, "_derivatives",
                        lambda self, *args: calls.append(1) or block(self, *args))
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(CylindricalParams(c1=1.0, b1=0.1, a2=0.2), params)
    grid = make_axis_offset_grid(2, 4.0, 64)
    _leading_pair(w, grid, 0.3, params)
    assert calls == []
    hj_residual(w.jet(grid.mesh(), 0.3), grid, 0.3, free_potential(), params)
    assert calls == [1]

"""Grid conventions, quadrature and spectral operator checks.

Oracle values used here:
  * integral of sech(x)^2 over the line = [tanh]_{-inf}^{inf} = 2
  * integral of A^2 sech(x/w)^2 = 2 A^2 w  (substitution y = x/w)
  * Parseval for the DFT: sum |psi|^2 h = sum |psi_hat|^2 h / n
"""

import tracemalloc

import numpy as np
import pytest

from semiwave.asymptotics.families import (
    Class1Params,
    Class2Params,
    SolitonFields,
    SolitonParams,
    separated_class1,
    separated_class2,
)
from semiwave.core import (
    ComplexField,
    ExpressionScalar,
    ExpressionVector,
    Grid,
    HarmonicScalar,
    PhysParams,
    PotentialSpec,
    SeparatedScalar,
    UniformVector,
    ZeroScalar,
    ZeroVector,
    apply_momentum,
    eval_potential,
    inner_product,
    make_axis_offset_grid,
    make_uniform_grid,
    norm_squared,
)


def sech(x):
    return 1.0 / np.cosh(x)


@pytest.fixture
def grid1d():
    return make_uniform_grid(1, -20.0, 20.0, 1024)


def test_grid_coordinate_convention(grid1d):
    x = grid1d.axes()[0]
    # index j sits at lo + j*spacing and the right endpoint is excluded
    assert x[0] == -20.0
    h = grid1d.spacing[0]
    assert h == 40.0 / 1024
    assert np.isclose(x[-1], 20.0 - h)
    assert 20.0 not in x


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_uniform_grid(1, -1.0, 1.0, 12)  # not a power of two
    with pytest.raises(ValueError):
        make_uniform_grid(1, -1.0, 1.0, 8)  # too small
    with pytest.raises(ValueError):
        make_uniform_grid(1, 1.0, -1.0, 64)  # hi < lo
    with pytest.raises(ValueError):
        make_uniform_grid(3, -1.0, 1.0, 64)  # only 1d and 2d supported


def test_grid_2d_shapes():
    g = make_uniform_grid(2, -10.0, 10.0, 256)
    assert g.shape == (256, 256)
    X, Y = g.mesh()
    assert X.shape == (256, 256)
    assert g.cell_volume == pytest.approx((20.0 / 256) ** 2)
    k = g.axis_wavenumber(1)
    assert k.shape == (1, 256)
    assert np.array_equal(k[0], g.wavenumbers()[1])


def test_axis_offset_grid_avoids_origin_and_reflects():
    g = make_axis_offset_grid(2, 2.0, 256)
    x = g.axes()[0]
    assert np.all(np.abs(x) > 1e-12)
    # reflection about the origin maps the sample set onto itself
    assert np.allclose(x[::-1], -x, atol=1e-12)


def test_sech_squared_mass(grid1d):
    # integral sech^2 = 2 exactly; spectral quadrature should hit it hard
    x = grid1d.axes()[0]
    psi = ComplexField(grid1d, sech(x).astype(complex))
    assert norm_squared(psi) == pytest.approx(2.0, abs=1e-12)


def test_scaled_sech_mass(grid1d):
    # integral A^2 sech^2(x/w) = 2 A^2 w
    x = grid1d.axes()[0]
    A, w = 1.7, 0.5
    psi = ComplexField(grid1d, (A * sech(x / w)).astype(complex))
    assert norm_squared(psi) == pytest.approx(2.0 * A * A * w, rel=1e-13)


def test_inner_product_conjugate_linearity(grid1d):
    x = grid1d.axes()[0]
    a = ComplexField(grid1d, sech(x) * np.exp(1j * x))
    b = ComplexField(grid1d, sech(x - 1.0) * np.exp(0.3j * x))
    z = 0.7 - 0.2j
    lhs = inner_product(a.with_values(z * a.values), b)
    rhs = np.conj(z) * inner_product(a, b)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), rel=1e-13)


def test_inner_products_build_no_field_sized_temporary():
    """inner_product and norm_squared on 512^2 fields allocate no array of
    the field's size (4 MiB): tracemalloc peak measured 1.6 KiB against a
    64 KiB bound; the product conj(a) * b peaked at 4 MiB."""
    grid = make_uniform_grid(2, -8.0, 8.0, 512)
    x, y = grid.mesh()
    a = ComplexField(grid, np.exp(-x ** 2 - y ** 2 + 1j * x))
    b = ComplexField(grid, np.exp(-x ** 2 - 2.0 * y ** 2 - 0.5j * y))
    del x, y
    inner_product(a, b), norm_squared(a)
    tracemalloc.start()
    try:
        inner_product(a, b)
        norm_squared(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


def test_inner_product_rejects_mismatched_grids():
    g1 = make_uniform_grid(1, -20.0, 20.0, 1024)
    g2 = make_uniform_grid(1, -10.0, 10.0, 1024)
    a = ComplexField(g1, np.exp(-g1.axes()[0] ** 2).astype(complex))
    b = ComplexField(g2, np.exp(-g2.axes()[0] ** 2).astype(complex))
    with pytest.raises(ValueError, match="grid"):
        inner_product(a, b)


def test_inner_product_rejects_mismatched_times(grid1d):
    x = grid1d.axes()[0]
    a = ComplexField(grid1d, sech(x).astype(complex), time=0.0)
    b = ComplexField(grid1d, sech(x).astype(complex), time=0.5)
    with pytest.raises(ValueError, match="time"):
        inner_product(a, b)


def test_norm_squared_rejects_zero_field(grid1d):
    psi = ComplexField(grid1d, np.zeros(1024, dtype=complex))
    with pytest.raises(ValueError, match="zero"):
        norm_squared(psi)


def test_field_rejects_nonfinite(grid1d):
    vals = np.ones(1024, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ComplexField(grid1d, vals)


def test_parseval(grid1d):
    x = grid1d.axes()[0]
    psi = ComplexField(grid1d, (sech(x) * np.exp(0.5j * x)).astype(complex))
    h = grid1d.spacing[0]
    pos = norm_squared(psi)
    spec = np.sum(np.abs(np.fft.fft(psi.values)) ** 2) * h / grid1d.n[0]
    assert abs(pos - spec) < 1e-12


def test_apply_momentum_on_sech(grid1d):
    # -i hbar d/dx sech(x) = i sech(x) tanh(x) with hbar = 1
    x = grid1d.axes()[0]
    psi = ComplexField(grid1d, sech(x).astype(complex), hbar=1.0)
    got = apply_momentum(psi).values
    want = 1j * sech(x) * np.tanh(x)
    assert np.max(np.abs(got - want)) < 1e-8


def test_apply_momentum_scales_with_hbar(grid1d):
    x = grid1d.axes()[0]
    base = sech(x).astype(complex)
    p1 = apply_momentum(ComplexField(grid1d, base, hbar=1.0)).values
    p2 = apply_momentum(ComplexField(grid1d, base, hbar=0.25)).values
    assert np.allclose(p2, 0.25 * p1, atol=1e-14)


def test_apply_momentum_anti_symmetric_real_even(grid1d):
    # momentum of a real even profile is purely imaginary and odd
    x = grid1d.axes()[0]
    psi = ComplexField(grid1d, np.exp(-(x**2) / 4).astype(complex))
    out = apply_momentum(psi).values
    assert np.max(np.abs(out.real)) < 1e-12


def test_apply_momentum_2d_axis():
    g = make_uniform_grid(2, -10.0, 10.0, 64)
    X, Y = g.mesh()
    psi = ComplexField(g, np.exp(1j * (2.0 * np.pi / 20.0) * 3 * Y), hbar=0.5)
    out = apply_momentum(psi, axis=1).values
    want = 0.5 * (2.0 * np.pi / 20.0) * 3 * psi.values
    assert np.max(np.abs(out - want)) < 1e-10


def test_phys_params_kappa_tie():
    p = PhysParams.from_kappa(hbar=1.0, mass=1.0, kappa=np.sqrt(0.5))
    assert p.r == pytest.approx(0.5)
    with pytest.raises(ValueError, match="kappa"):
        PhysParams(hbar=1.0, mass=1.0, r=0.3, kappa=1.0)
    with pytest.raises(ValueError):
        PhysParams(hbar=-1.0, mass=1.0)


def test_harmonic_potential_value():
    # V = m omega^2 x^2 / 2 -> 2.0 at x = 2 with unit mass and frequency
    pot = HarmonicScalar(omega=(1.0,), center=(0.0,), mass=1.0)
    x = np.array([2.0])
    assert pot.value((x,), 0.0)[0] == pytest.approx(2.0)
    assert pot.gradient((x,), 0.0)[0][0] == pytest.approx(2.0)


def test_harmonic_potential_needs_one_omega_per_axis():
    # one omega on a 2D mesh used to drop the y term silently
    pot = HarmonicScalar(omega=(1.0,), center=(0.0,))
    X, Y = make_uniform_grid(2, -1.0, 1.0, 16).mesh()
    with pytest.raises(ValueError):
        pot.value((X, Y), 0.0)
    with pytest.raises(ValueError):
        pot.gradient((X, Y), 0.0)


_X = np.linspace(-3.0, 3.0, 7)
_MESH = tuple(np.meshgrid(np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 9), indexing="ij"))
_XF = np.linspace(-2.5, 2.5, 101)
_PARAMS = PhysParams(hbar=0.1, mass=1.0, r=0.5)


def _separated_scalar():
    v1 = lambda x: 0.1 * x**2
    return (SeparatedScalar(v1=v1).gradient((_X,), 0.0),
            SeparatedScalar(v1=v1, v1_prime=lambda x: 0.2 * x).gradient((_X,), 0.0))


def _expression_scalar():
    X, Y = _MESH
    pot = ExpressionScalar(fn=lambda xs, t: np.sin(xs[0]) * np.cos(xs[1]) + t * xs[0] ** 2)
    return (pot.gradient(_MESH, 0.5),
            (np.cos(X) * np.cos(Y) + X, -np.sin(X) * np.sin(Y)))


_A = ExpressionVector(fn=lambda xs, t: (np.sin(xs[0]) * xs[1], xs[0] * np.cos(xs[1])))


def _vector_divergence():
    X, Y = _MESH
    return _A.divergence(_MESH, 0.0), np.cos(X) * Y - X * np.sin(Y)


def _vector_jacobian():
    X, Y = _MESH
    return (_A.jacobian(_MESH, 0.0),
            [[np.cos(X) * Y, np.cos(Y)], [np.sin(X), -X * np.sin(Y)]])


def _family(build):
    """The family built without v1_prime against the same family with it."""
    v1, v1_prime = (lambda x: 0.3 * np.cos(x)), (lambda x: -0.3 * np.sin(x))
    jets = (build(v1, None).jet((_XF,), 0.0), build(v1, v1_prime).jet((_XF,), 0.0))
    return [np.broadcast_arrays(jet.dsigma1[0], jet.lap_sigma, jet.lap_S) for jet in jets]


def _class1():
    return _family(lambda v1, v1p: separated_class1(
        Class1Params(c1=1.0, c2=0.2, v1=v1, v1_prime=v1p), (-3.0, 3.0), _PARAMS))


def _class2():
    return _family(lambda v1, v1p: separated_class2(
        Class2Params(c1=0.8, c3=0.5, a1=0.1, a2=0.2, v1=v1, v1_prime=v1p), (-3.0, 3.0), _PARAMS))


def _soliton():
    f = lambda z: 0.1 * np.sin(z)
    fd = SolitonFields(SolitonParams(xi=0.3, eta=0.5, f=f), 1.0)
    exact = SolitonFields(SolitonParams(xi=0.3, eta=0.5, f=f, fprime=lambda z: 0.1 * np.cos(z)), 1.0)
    return [[jet.dS1[0], jet.dsigma1[0], jet.S1_t, jet.sigma1_t]
            for jet in (fd.jet((_XF,), 0.3), exact.jet((_XF,), 0.3))]


# Each bound is the measured error times a margin of about 10; the error is
# max |fallback - closed form| / (1 + max |closed form|), rounding in a
# central difference of step 1e-6 relative.
FALLBACKS = [
    pytest.param(_separated_scalar, 1.1e-10, id="separated-scalar"),  # measured 1.08e-11
    pytest.param(_expression_scalar, 4.2e-10, id="expression-scalar"),  # measured 4.18e-11
    pytest.param(_vector_divergence, 2.0e-10, id="vector-divergence"),  # measured 1.97e-11
    pytest.param(_vector_jacobian, 2.0e-10, id="vector-jacobian"),  # measured 1.93e-11
    pytest.param(_class1, 1.2e-10, id="class1-family"),  # measured 1.11e-11
    pytest.param(_class2, 1.1e-10, id="class2-family"),  # measured 1.01e-11
    pytest.param(_soliton, 7.0e-11, id="soliton-dressing"),  # measured 6.83e-12
]


@pytest.mark.parametrize("case, bound", FALLBACKS)
def test_fd_fallback_matches_closed_form(case, bound):
    approx, exact = (np.asarray(v, dtype=float) for v in case())
    assert np.max(np.abs(approx - exact)) / (1.0 + np.max(np.abs(exact))) < bound


def test_vector_fallback_samples_a_once_per_axis_pair():
    """The jacobian and the divergence difference one stacked +-h pair of
    the whole vector per axis: 2 * dim calls of fn, 4 in two dimensions."""
    calls = []

    def fn(xs, t):
        calls.append(t)
        return _A.fn(xs, t)

    pot = ExpressionVector(fn=fn)
    pot.jacobian(_MESH, 0.0)
    assert len(calls) == 4
    calls.clear()
    pot.divergence(_MESH, 0.0)
    assert len(calls) == 4


def test_eval_potential_shapes_and_uniform_vector():
    g = make_uniform_grid(1, -5.0, 5.0, 64)
    spec = PotentialSpec(
        scalar=HarmonicScalar(omega=(2.0,), center=(1.0,), mass=1.0),
        vector=UniformVector(a_of_t=lambda t: (0.3 * t,)),
    )
    V, A = eval_potential(spec, g, 2.0)
    assert V.shape == (64,)
    assert A[0].shape == (64,)
    assert np.allclose(A[0], 0.6)
    x = g.axes()[0]
    assert np.allclose(V, 0.5 * 4.0 * (x - 1.0) ** 2)


def test_zero_specs():
    g = make_uniform_grid(1, -1.0, 1.0, 16)
    V, A = eval_potential(PotentialSpec(ZeroScalar(), ZeroVector()), g, 0.0)
    assert np.all(V == 0.0)
    assert np.all(A[0] == 0.0)


def test_static_flag_of_scalar_potentials():
    """Only forms whose value cannot depend on t report static; the
    propagator samples those once per run."""
    assert ZeroScalar().static
    assert HarmonicScalar(omega=(1.0,), center=(0.0,)).static
    assert SeparatedScalar(v1=lambda x: x ** 2).static
    assert not ExpressionScalar(fn=lambda xs, t: xs[0] ** 2).static

"""Grid conventions, quadrature and spectral operator checks.

Oracle values used here:
  * integral of sech(x)^2 over the line = [tanh]_{-inf}^{inf} = 2
  * integral of A^2 sech(x/w)^2 = 2 A^2 w  (substitution y = x/w)
  * Parseval for the DFT: sum |psi|^2 h = sum |psi_hat|^2 h / n
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from semiwave.asymptotics.families import SolitonParams
from semiwave.core import (
    ComplexField,
    ExpressionScalar,
    HarmonicScalar,
    PhysParams,
    PotentialSpec,
    ScalarPotential,
    SeparatedScalar,
    UniformVector,
    ZeroScalar,
    ZeroVector,
    apply_momentum,
    inner_product,
    make_axis_offset_grid,
    make_uniform_grid,
    norm_squared,
    _padded,
    _spectral_multiply,
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


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
def test_field_refuses_non_finite_time_by_name(grid1d, time):
    """A field at time NaN would pass every time check: abs(nan - t) > tol
    is false, so an inner product with a field at any time went through.
    Built directly or through with_values, it is refused by name."""
    vals = sech(grid1d.axes()[0]).astype(complex)
    with pytest.raises(ValueError, match=f"time must be finite, got {time}"):
        ComplexField(grid1d, vals, time=time)
    with pytest.raises(ValueError, match=f"time must be finite, got {time}"):
        ComplexField(grid1d, vals).with_values(vals, time=time)


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


# (shape, complex values, even, axes, per-axis factors) of each transform
# pair checked against the out-of-place scipy.fft pair; 512^2 is
# cylindrical-check's quadrant at n = 1024, and 2048 is ehrenfest's 1D
# grid, whose pair for a caller that does not own its values runs the
# kernel out of place.  A pair with per-axis factors is given a tuple of
# complex factors, one per axis, as the Strang step's kinetic factors are.
SPECTRAL_PAIRS = {
    "fft-2048": ((2048,), True, False, None, False),
    "fft-16x32": ((16, 32), True, False, None, False),
    "fft-256": ((256, 256), True, False, None, False),
    "dct-real-512": ((512, 512), False, True, None, False),
    "dct-complex-512": ((512, 512), True, True, None, False),
    "fft-axis0-256": ((256, 256), True, False, (0,), False),
    "fft-axis1-256": ((256, 256), True, False, (1,), False),
    "fft-axis0-16x32": ((16, 32), True, False, (0,), False),
    "fft-axis1-16x32": ((16, 32), True, False, (-1,), False),
    "fft-2048-factors": ((2048,), True, False, None, True),
    "fft-16x32-factors": ((16, 32), True, False, None, True),
    "fft-256-factors": ((256, 256), True, False, None, True),
    "dct-complex-512-factors": ((512, 512), True, True, None, True),
}


def _pair_case(shape, is_complex, axes, per_axis):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    if is_complex:
        values = values + 1j * rng.standard_normal(shape)
    if per_axis:
        return values, tuple(
            (rng.standard_normal(m) + 1j * rng.standard_normal(m)).reshape(
                [m if ax == i else 1 for ax in range(len(shape))])
            for i, m in enumerate(shape))
    sym_shape = shape if axes is None else tuple(
        m if ax in [a % len(shape) for a in axes] else 1 for ax, m in enumerate(shape))
    return values, rng.standard_normal(sym_shape)


@pytest.mark.parametrize("case", list(SPECTRAL_PAIRS), ids=list(SPECTRAL_PAIRS))
def test_spectral_multiply_has_the_bits_of_the_out_of_place_pair(case):
    """Whether a pair runs on a padded copy or the caller's array, its
    bits are those of the out-of-place scipy.fft pair with the same
    multiply; a tuple of factors multiplies the spectrum by each in turn,
    spectrum times factor, so in 1D a one-factor tuple has the bits of the
    factor alone."""
    shape, is_complex, even, axes, per_axis = SPECTRAL_PAIRS[case]
    values, symbol = _pair_case(shape, is_complex, axes, per_axis)
    if even:
        spec = scipy.fft.dctn(values, type=2, axes=axes)
    else:
        spec = scipy.fft.fftn(values, axes=axes)
    for factor in symbol if per_axis else (symbol,):
        spec = spec * factor
    if even:
        want = scipy.fft.idctn(spec, type=2, axes=axes)
    else:
        want = scipy.fft.ifftn(spec, axes=axes)
    got = _spectral_multiply(values, symbol, axes=axes, even=even)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(SPECTRAL_PAIRS), ids=list(SPECTRAL_PAIRS))
def test_spectral_multiply_leaves_a_callers_values_alone(case):
    """A caller that does not own its values gets a fresh C-contiguous
    array, and its own values are unchanged."""
    shape, is_complex, even, axes, per_axis = SPECTRAL_PAIRS[case]
    values, symbol = _pair_case(shape, is_complex, axes, per_axis)
    kept = values.copy()
    got = _spectral_multiply(values, symbol, axes=axes, even=even)
    assert values.tobytes() == kept.tobytes()
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, values)


def test_padded_rows_end_one_cache_line_past_the_grid():
    """A 2D array from _padded is a view whose rows are 64 bytes longer
    than its shape needs; a 1D one is a plain contiguous array."""
    for dtype in (np.complex128, np.float64):
        arr = _padded((256, 256), dtype)
        assert arr.shape == (256, 256) and arr.dtype == dtype
        assert arr.strides == (256 * arr.itemsize + 64, arr.itemsize)
    line = _padded((256,))
    assert line.shape == (256,) and line.flags.c_contiguous


def test_phys_params_need_positive_hbar_and_mass():
    with pytest.raises(ValueError, match="hbar"):
        PhysParams(hbar=-1.0, mass=1.0, r=0.5)
    with pytest.raises(ValueError, match="mass"):
        PhysParams(hbar=1.0, mass=0.0, r=0.5)


def test_harmonic_potential_value():
    # V = m omega^2 x^2 / 2 -> 2.0 at x = 2 with unit mass and frequency
    pot = HarmonicScalar(omega=(1.0,), center=(0.0,), mass=1.0)
    x = np.array([2.0])
    assert pot.value((x,), 0.0)[0] == pytest.approx(2.0)
    assert pot.gradient((x,), 0.0)[0][0] == pytest.approx(2.0)


def test_harmonic_gradient_keeps_the_bits_of_floats_and_arrays():
    """The gradient is mass w^2 (x - c) on the inputs as given: the orbit's
    Python floats stay Python floats, and floats and arrays both get the
    bits of the expression on float arrays."""
    pot = HarmonicScalar(omega=(1.3, 0.7), center=(0.2, -0.45), mass=1.7)
    rng = np.random.default_rng(3)
    for xs in ((0.31, -1.7), tuple(rng.standard_normal((2, 7)))):
        got = pot.gradient(xs, 0.0)
        for g, x, w, c in zip(got, xs, pot.omega, pot.center, strict=True):
            want = pot.mass * w * w * (np.asarray(x, dtype=float) - c)
            assert np.asarray(g).tobytes() == want.tobytes()
    assert all(type(g) is float for g in pot.gradient((0.31, -1.7), 0.0))


def test_harmonic_potential_needs_one_omega_per_axis():
    # one omega on a 2D mesh used to drop the y term silently
    pot = HarmonicScalar(omega=(1.0,), center=(0.0,))
    X, Y = make_uniform_grid(2, -1.0, 1.0, 16).mesh()
    with pytest.raises(ValueError):
        pot.value((X, Y), 0.0)
    with pytest.raises(ValueError):
        pot.gradient((X, Y), 0.0)


def test_potential_spec_shapes_and_uniform_vector():
    g = make_uniform_grid(1, -5.0, 5.0, 64)
    spec = PotentialSpec(
        scalar=HarmonicScalar(omega=(2.0,), center=(1.0,), mass=1.0),
        vector=UniformVector(a_of_t=lambda t: (0.3 * t,)),
    )
    V, A = spec.scalar.value(g.mesh(), 2.0), spec.vector.components(2.0, 1)
    assert V.shape == (64,)
    assert A == pytest.approx((0.6,))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spec.vector.components(2.0, 2)
    x = g.axes()[0]
    assert np.allclose(V, 0.5 * 4.0 * (x - 1.0) ** 2)


def test_zero_specs():
    g = make_uniform_grid(1, -1.0, 1.0, 16)
    spec = PotentialSpec(ZeroScalar(), ZeroVector())
    V = spec.scalar.value(g.mesh(), 0.0)
    assert np.all(V == 0.0)
    assert spec.vector.components(0.0, 1) == (0.0,)
    assert spec.vector.components(0.0, 2) == (0.0, 0.0)
    assert ZeroVector() == PotentialSpec().vector


def test_static_flag_of_scalar_potentials():
    """Only forms whose value cannot depend on t report static; the
    propagator samples those once per run."""
    assert ZeroScalar().static
    assert HarmonicScalar(omega=(1.0,), center=(0.0,)).static
    assert SeparatedScalar(v1=lambda x: x ** 2, v1_prime=lambda x: 2.0 * x).static
    assert not ExpressionScalar(fn=lambda xs, t: xs[0] ** 2).static


def test_every_gradient_is_analytic():
    """No derivative is taken by differences: a scalar form without an
    analytic gradient refuses, by its class name, to give one;
    SeparatedScalar needs v1_prime, and a dressed soliton needs fprime."""
    xs = (np.linspace(-1.0, 1.0, 5),)

    class Bare(ScalarPotential):
        def value(self, xs, t):
            return xs[0] ** 2

    with pytest.raises(NotImplementedError, match="Bare carries no analytic gradient"):
        Bare().gradient(xs, 0.0)
    with pytest.raises(NotImplementedError, match="ExpressionScalar carries no"):
        ExpressionScalar(fn=lambda xs, t: xs[0] ** 2).gradient(xs, 0.0)
    with pytest.raises(TypeError, match="v1_prime"):
        SeparatedScalar(v1=lambda x: x ** 2)
    with pytest.raises(ValueError, match="fprime"):
        SolitonParams(xi=0.3, eta=0.5, f=np.sin)

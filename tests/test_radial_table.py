"""The ring state sampled once per reflection class of the grid.

On a square axis-offset grid the reflections and the x <-> y swap map the
sample set onto itself up to coordinate rounding.  The class
representatives are taken from the positive half-axis, so x*x + y*y is
one number per class and a jet that depends on position through the
radius alone is sampled once per class and gathered onto the positive
quadrant: the state is the exactly even extension of that quadrant.
Where the axes are exact mirror images (half_width 2, as shipped) these
tests hold the class tables to the full mesh bit for bit; on a width
whose axes mirror only to rounding they hold them to the full mesh's
positive quadrant bit for bit, and the grid maxima within bounds set from
measured values.

The gathered quadrant is also exactly symmetric under the swap, and
cylindrical-check evaluates the ring's residual on it alone, on every
grid, from one jet per sweep: its kinetic term is a cosine-transform pair
along the last axis plus that term's transpose, summed in place one pair
of blocks at a time.  These tests hold the symmetry bit for bit, the
block sum to k + k.T bit for bit, the kinetic term to a 2D cosine pair
written out here, and the residual to apply_nlse_operator on the whole
grid, the last two within bounds set from measured values.  Grids that
are not square or not cell-centred are refused.
"""

import random

import numpy as np
import pytest
import scipy.fft

from semiwave import PhysParams, PotentialSpec, apply_nlse_operator, \
    assemble_leading_term, fit_scaling, hj_residual, leading_term_time_derivative, \
    make_axis_offset_grid, make_uniform_grid, relative_residual, transport_residuals
from semiwave.asymptotics import CylindricalFields, CylindricalParams
from semiwave.core import _reflection_classes
from semiwave.harness import ExperimentConfig, default_config_path, parse_config, \
    run_scenario, scenarios
from semiwave.harness.scenarios import _class_tables, _pointwise_maxima
from semiwave.solver import _add_transpose, _quadrant_kinetic, _quadrant_relative_residual

SHIPPED_RING = CylindricalParams(c1=1.0, b1=0.1, a2=0.2)


def _seeded_ring(seed):
    rng = random.Random(seed)
    return CylindricalParams(c1=rng.uniform(0.9, 1.1), b1=rng.uniform(0.05, 0.15),
                             a2=rng.uniform(0.1, 0.3))


def _full_mesh_pair(w, grid, t, params):
    """The leading state and its time derivative on the whole grid, from
    one jet sampled on the open mesh."""
    jet = w.jet(np.ix_(*grid.axes()), t)
    psi = assemble_leading_term(jet, grid, params)
    return psi, leading_term_time_derivative(jet, psi, params)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_leading_pair_table_is_bit_identical(n, t):
    """cylindrical-check's grid and ring at two sizes and two times: the
    class tables gathered onto the positive quadrant are that quadrant of
    the full-mesh leading pair."""
    grid = make_axis_offset_grid(2, 2.0, n)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = CylindricalFields(SHIPPED_RING, params.mass)
    xs, gather = _reflection_classes(grid)
    h = n // 2
    assert len(xs[0]) == h * (h + 1) // 2
    full = _full_mesh_pair(w, grid, t, params)
    for a, table in zip(full, _class_tables(w.jet(xs, t), params)):
        assert a.values[h:, h:].tobytes() == gather(table).tobytes()


@pytest.mark.parametrize("half_width", [2.0, 0.3, 1.1])
def test_gathered_quadrant_pair_is_symmetric(half_width):
    """gather fills [i, j] and [j, i] from one class, so the quadrant state
    and its time derivative equal their transposes bit for bit, on a width
    whose axes mirror exactly (2) and on two that mirror only to rounding;
    the quadrant kinetic term relies on it."""
    grid = make_axis_offset_grid(2, half_width, 256)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    xs, gather = _reflection_classes(grid)
    jet = CylindricalFields(SHIPPED_RING, params.mass).jet(xs, 0.3)
    for quadrant in map(gather, _class_tables(jet, params)):
        assert np.array_equal(quadrant, quadrant.T)


@pytest.mark.parametrize("grid", [
    make_uniform_grid(2, (-2.0, -2.0), (2.0, 2.0), (64, 128)),
    make_uniform_grid(2, (-2.0, -2.0), (2.0, 2.5), 64),
    make_uniform_grid(1, -2.0, 2.0, 64),
], ids=["unequal-n", "unequal-hi", "1d"])
def test_reflection_classes_refuse_a_grid_that_is_not_square(grid):
    with pytest.raises(ValueError, match="square 2D grid"):
        _reflection_classes(grid)


@pytest.mark.parametrize("lo, hi", [(-2.0, 2.0), (-1.5, 2.5)])
def test_reflection_classes_refuse_a_grid_that_is_not_cell_centred(lo, hi):
    """A grid through the origin, and one shifted off it, do not mirror
    about the origin."""
    with pytest.raises(ValueError, match="cell-centred grid"):
        _reflection_classes(make_uniform_grid(2, lo, hi, 64))


def test_add_transpose_is_bit_identical_to_k_plus_k_transpose():
    """The in-place block sum on a 512^2 complex array (eight 64^2 blocks a
    side) gives the bits of k + k.T in the array it was given."""
    rng = np.random.default_rng(7)
    k = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    expected = k + k.T
    assert _add_transpose(k) is k
    assert k.tobytes() == expected.tobytes()


# The quadrant kinetic term (one cosine pair along the last axis plus its
# transpose) against the 2D cosine pair, relative to max |kinetic|, over
# the shipped ring and 40 seeded rings at t = 0 and 0.3 and the three
# shipped hbar: at most 5.7e-15 at 256^2 and 1.0e-14 at 512^2 on width 2,
# 1.1e-14 and 3.1e-14 at widths 1.1 and 0.3 on 256^2, and 1.6e-14 at
# 1024^2 on width 2 (8 rings).  Against a long-double pair the one-axis
# term's error was at or below the 2D pair's in every case tried.  The
# bound leaves a margin of 1.9x
KINETIC_RTOL = 6e-14


@pytest.mark.parametrize("n, half_width, ring", [
    (1024, 2.0, SHIPPED_RING),
    (256, 0.3, _seeded_ring(5)),
    (256, 1.1, _seeded_ring(28)),
])
def test_quadrant_kinetic_matches_the_2d_cosine_pair(n, half_width, ring):
    """_quadrant_kinetic against the 2D type-II cosine pair with symbol
    hbar^2 (k_x^2 + k_y^2), written out with scipy.fft.dctn/idctn."""
    grid = make_axis_offset_grid(2, half_width, n)
    xs, gather = _reflection_classes(grid)
    jet = CylindricalFields(ring, 1.0).jet(xs, 0.3)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[0])[:n // 2]
    for hbar in (0.2, 0.05):
        params = PhysParams(hbar=hbar, mass=1.0, r=0.5)
        psi = gather(_class_tables(jet, params)[0])
        symbol = (hbar * k[:, None]) ** 2 + (hbar * k[None, :]) ** 2
        oracle = scipy.fft.idctn(scipy.fft.dctn(psi, type=2) * symbol, type=2)
        kinetic = _quadrant_kinetic(psi, grid, hbar)
        assert np.max(np.abs(kinetic - oracle)) <= KINETIC_RTOL * np.max(np.abs(oracle))


def _full_mesh_arrays(w, grid, t, pot, params):
    """|eikonal residual| and |transport residual| (both equations) on the
    whole grid."""
    jet = w.jet(grid.mesh(), t)
    return (np.abs(hj_residual(jet, pot, params)),
            *map(np.abs, transport_residuals(jet, pot, params)))


# Over seeds 1-20 at half_width 0.3, 0.7, 1.1 and 1.3 on 256^2, the
# full-mesh maxima exceeded the class ones by at most 1.1e-16 (the eikonal
# residual) and 2.1e-14 and 2.8e-17 (the two transport equations, the
# first at 1.1); the bound leaves a margin of 4.7x.  The rows gate these
# maxima at 1e-12
RING_MAXIMA_ATOL = 1e-13


@pytest.mark.parametrize("seed", [3, 9, 17])
def test_identity_ring_maxima_match_full_mesh(seed):
    """identity-suite's ring maxima over the reflection classes, the
    eikonal and transport ones included under the free potential, for
    seeded rings on 256^2 grids.  With exact mirror axes they equal the
    maxima over the full mesh.  With axes that mirror only to rounding
    they equal the full mesh's maxima over the positive quadrant, whose
    points are the class representatives, and lie within RING_MAXIMA_ATOL
    below the maxima over the whole grid."""
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = CylindricalFields(_seeded_ring(seed), params.mass)
    pot = PotentialSpec()
    exact = make_axis_offset_grid(2, 2.0, 256)
    table = _pointwise_maxima(w, exact, 0.25, params)
    full = tuple(float(np.max(v)) for v in _full_mesh_arrays(w, exact, 0.25, pot, params))
    assert table == full
    assert min(table) > 0.0

    inexact = make_axis_offset_grid(2, 1.1, 256)
    assert not np.array_equal(inexact.axes()[0][::-1], -inexact.axes()[0])
    table = _pointwise_maxima(w, inexact, 0.25, params)
    arrays = _full_mesh_arrays(w, inexact, 0.25, pot, params)
    assert table == tuple(float(np.max(v[128:, 128:])) for v in arrays)
    for q, v in zip(table, arrays):
        assert 0.0 < q <= np.max(v) < q + RING_MAXIMA_ATOL


def test_axis_sample_still_raises():
    """On a grid through the origin the ring refuses r = 0."""
    grid = make_uniform_grid(2, -2.0, 2.0, 64)
    assert np.any(grid.axes()[0] == 0.0)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = CylindricalFields(SHIPPED_RING, params.mass)
    with pytest.raises(ValueError, match="symmetry axis"):
        _full_mesh_pair(w, grid, 0.0, params)


def _quadrant_residual(w, grid, t, params):
    """cylindrical-check's residual of one hbar, from the class tables of
    one jet gathered onto the positive quadrant."""
    xs, gather = _reflection_classes(grid)
    return _quadrant_relative_residual(_class_tables(w.jet(xs, t), params), gather,
                                       grid, params)


# The quadrant residual agreed with the full-mesh one to at most 5.2e-15
# relative over the shipped ring and 40 seeded rings, at 256^2 and 512^2,
# t = 0 and 0.3 and the three shipped hbar (5.3e-15 with the 2D cosine
# pair); the bound leaves a margin of 1.9x.  The full-mesh norms are einsum sums (core.norm_squared) and the
# quadrant's pairwise np.sum; with pairwise sums on both sides the worst
# was 1.7e-15
QUADRANT_RTOL = 1e-14
SHIPPED_HBARS = (0.2, 0.1, 0.05)


@pytest.mark.parametrize("ring", [SHIPPED_RING] + [_seeded_ring(s) for s in (1, 5, 28)])
@pytest.mark.parametrize("n", [256, 512])
def test_quadrant_residual_matches_full_mesh(ring, n):
    """The residual from the positive quadrant against apply_nlse_operator
    on the whole grid, at t = 0 and 0.3 and the three shipped hbar."""
    grid = make_axis_offset_grid(2, 2.0, n)
    for t in (0.0, 0.3):
        for hbar in SHIPPED_HBARS:
            params = PhysParams(hbar=hbar, mass=1.0, r=0.5)
            w = CylindricalFields(ring, params.mass)
            psi, dpsi = _full_mesh_pair(w, grid, t, params)
            full = relative_residual(
                apply_nlse_operator((psi, dpsi), PotentialSpec(), params), psi)
            quadrant = _quadrant_residual(w, grid, t, params)
            assert quadrant == pytest.approx(full, rel=QUADRANT_RTOL, abs=0.0)


def _cylindrical_config(*overrides):
    cfg = ExperimentConfig.from_file(default_config_path("cylindrical-check"))
    for override in overrides:
        cfg.apply_override(override)
    return cfg


def _full_mesh_residuals(cfg):
    """cylindrical-check's residual at each hbar of the sweep, from
    apply_nlse_operator on the whole grid."""
    spec = parse_config(cfg)
    grid, base = spec.grid.build(), spec.params.phys()
    w = CylindricalFields(spec.family.cylindrical, base.mass)
    residuals = []
    for hbar in spec.params.hbars:
        params = base.with_hbar(hbar)
        psi, dpsi = _full_mesh_pair(w, grid, spec.family.eval_time, params)
        residuals.append(relative_residual(
            apply_nlse_operator((psi, dpsi), PotentialSpec(), params), psi))
    return spec.params.hbars, residuals


def _assert_rows_match_full_mesh(result, cfg, rtol):
    hbars, residuals = _full_mesh_residuals(cfg)
    assert all(r.passed for r in result.rows)
    assert result.row("residual_monotone").value == \
        float(all(a > b for a, b in zip(residuals, residuals[1:])))
    assert result.row("residual_slope").value == pytest.approx(
        fit_scaling(hbars, residuals).slope, rel=rtol, abs=0.0)
    assert [row[1] for row in result.plotdata["scaling"][1]] == \
        pytest.approx(residuals, rel=rtol, abs=0.0)


@pytest.mark.parametrize("overrides", [
    [],
    ["grid.n=512", "family.eval_time=0.3"],
    ["grid.n=512", "family.cylindrical.c1=1.05", "family.cylindrical.b1=0.12"],
])
def test_cylindrical_rows_match_full_mesh(overrides):
    """Whole cylindrical-check rows against the residuals of every hbar
    evaluated on the full mesh."""
    cfg = _cylindrical_config(*overrides)
    result = run_scenario(cfg)
    _assert_rows_match_full_mesh(result, cfg, QUADRANT_RTOL)


# On widths whose axes mirror only to rounding the quadrant residual agreed
# with the full-mesh one to at most 4.9e-14 relative over half_width 0.3,
# 0.7, 1.1 and 1.3, the shipped ring and seeded rings 1, 5 and 28, 256^2
# and 512^2, t = 0 and 0.3 and the three shipped hbar (4.8e-14 with the
# 2D cosine pair); the bound leaves a margin of 2x.  The full mesh samples
# three quadrants at coordinates up to an ulp off the mirror images of the
# positive one
INEXACT_RTOL = 1e-13


@pytest.mark.parametrize("half_width", [0.3, 1.1])
def test_inexact_widths_take_the_quadrant_path(half_width, monkeypatch):
    """A width whose axes mirror only to rounding takes the quadrant path
    at every hbar, and its residual rows match the full mesh within
    INEXACT_RTOL."""
    cfg = _cylindrical_config(f"grid.half_width={half_width}")
    grid = parse_config(cfg).grid.build()
    assert not np.array_equal(grid.axes()[0][::-1], -grid.axes()[0])
    calls = []
    quadrant = scenarios._quadrant_relative_residual
    monkeypatch.setattr(scenarios, "_quadrant_relative_residual",
                        lambda *args: calls.append(1) or quadrant(*args))
    result = run_scenario(cfg)
    assert len(calls) == len(parse_config(cfg).params.hbars)
    _assert_rows_match_full_mesh(result, cfg, INEXACT_RTOL)

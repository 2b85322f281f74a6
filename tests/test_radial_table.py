"""The ring state sampled once per reflection class of the grid.

On an axis-offset grid whose axes are exact mirror images, x*x + y*y is
bit-identical on the points that the reflections and the x <-> y swap map
onto each other, so a jet that depends on position through the radius
alone may be sampled once per class and gathered onto the positive
quadrant.  These tests hold the class tables to the full-mesh path bit for
bit, and check that every other grid keeps the full-mesh path.

Such a state is even in x and in y, so cylindrical-check evaluates its
residual on the positive quadrant alone, with a cosine-transform pair for
the kinetic term.  That residual is held to the full-mesh one within a
bound set from measured values, and a uniform A or an inexact grid is
checked to keep the full-mesh path bit for bit.
"""

import random

import numpy as np
import pytest

from semiwave import PhysParams, apply_nlse_operator, fit_scaling, free_potential, \
    make_axis_offset_grid, make_uniform_grid, relative_residual
from semiwave.asymptotics import CylindricalParams, cylindrical_fields
from semiwave.core import _reflection_classes
from semiwave.harness import ExperimentConfig, default_config_path, parse_config, \
    run_scenario, scenarios
from semiwave.harness.scenarios import _class_tables, _leading_pair, _pointwise_maxima, \
    _quadrant_residual

SHIPPED_RING = CylindricalParams(c1=1.0, b1=0.1, a2=0.2)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_leading_pair_table_is_bit_identical(n, t):
    """cylindrical-check's grid and ring at two sizes and two times: the
    class tables gathered onto the positive quadrant are that quadrant of
    the full-mesh leading pair."""
    grid = make_axis_offset_grid(2, 2.0, n)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(SHIPPED_RING, params)
    classes = _reflection_classes(grid)
    assert classes is not None
    xs, gather = classes
    h = n // 2
    assert len(xs[0]) == h * (h + 1) // 2
    full = _leading_pair(w, grid, t, params)
    for a, table in zip(full, _class_tables(w, t, params, xs)):
        assert a.values[h:, h:].tobytes() == gather(table).tobytes()


@pytest.mark.parametrize("seed", [3, 9, 17])
def test_identity_ring_maxima_match_full_mesh(seed, monkeypatch):
    """identity-suite's ring maxima over the reflection classes equal those
    over the full mesh, the eikonal one included under its free potential,
    for seeded rings on a 256^2 grid."""
    rng = random.Random(seed)
    ring = CylindricalParams(c1=rng.uniform(0.9, 1.1), b1=rng.uniform(0.05, 0.15),
                             a2=rng.uniform(0.1, 0.3))
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(ring, params)
    grid = make_axis_offset_grid(2, 2.0, 256)
    assert _reflection_classes(grid) is not None
    table = _pointwise_maxima(w, grid, 0.25, free_potential(), params)[1:]
    monkeypatch.setattr(scenarios, "_reflection_classes", lambda grid: None)
    full = _pointwise_maxima(w, grid, 0.25, free_potential(), params)[1:]
    assert table == full
    assert min(table) > 0.0


@pytest.mark.parametrize("grid", [
    make_axis_offset_grid(2, 0.3, 64),       # mirror axes only to rounding
    make_axis_offset_grid(2, 2.0, (64, 128)),  # rectangular
    make_uniform_grid(2, -2.0, 2.0, 64),     # not offset
    make_axis_offset_grid(1, 2.0, 64),       # one dimension
])
def test_inexact_grids_take_the_full_mesh_path(grid):
    assert _reflection_classes(grid) is None


def test_axis_sample_still_raises():
    """A grid through the origin keeps the full-mesh path, where the ring
    refuses r = 0."""
    grid = make_uniform_grid(2, -2.0, 2.0, 64)
    assert np.any(grid.axes()[0] == 0.0)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(SHIPPED_RING, params)
    with pytest.raises(ValueError, match="symmetry axis"):
        _leading_pair(w, grid, 0.0, params)


# The quadrant residual agreed with the full-mesh one to at most 5.3e-15
# relative over the shipped ring and 40 seeded rings, at 256^2 and 512^2,
# t = 0 and 0.3 and the three shipped hbar; the bound leaves a margin of
# 1.9x.  The full-mesh norms are einsum sums (core.norm_squared) and the
# quadrant's pairwise np.sum; with pairwise sums on both sides the worst
# was 1.7e-15
QUADRANT_RTOL = 1e-14
SHIPPED_HBARS = (0.2, 0.1, 0.05)


def _seeded_ring(seed):
    rng = random.Random(seed)
    return CylindricalParams(c1=rng.uniform(0.9, 1.1), b1=rng.uniform(0.05, 0.15),
                             a2=rng.uniform(0.1, 0.3))


@pytest.mark.parametrize("ring", [SHIPPED_RING] + [_seeded_ring(s) for s in (1, 5, 28)])
@pytest.mark.parametrize("n", [256, 512])
def test_quadrant_residual_matches_full_mesh(ring, n):
    """The residual from the positive quadrant against apply_nlse_operator
    on the whole grid, at t = 0 and 0.3 and the three shipped hbar."""
    grid = make_axis_offset_grid(2, 2.0, n)
    classes = _reflection_classes(grid)
    for t in (0.0, 0.3):
        for hbar in SHIPPED_HBARS:
            params = PhysParams(hbar=hbar, mass=1.0, r=0.5)
            w = cylindrical_fields(ring, params)
            psi, dpsi = _leading_pair(w, grid, t, params)
            full = relative_residual(
                apply_nlse_operator((psi, dpsi), free_potential(), params), psi)
            quadrant, asymmetry = _quadrant_residual(w, grid, t, params, classes)
            assert quadrant == pytest.approx(full, rel=QUADRANT_RTOL, abs=0.0)
            assert asymmetry == 0.0


def _cylindrical_config(*overrides):
    cfg = ExperimentConfig.from_file(default_config_path("cylindrical-check"))
    for override in overrides:
        cfg.apply_override(override)
    return cfg


@pytest.mark.parametrize("overrides", [
    [],
    ["grid.n=512", "family.eval_time=0.3"],
    ["grid.n=512", "family.cylindrical.c1=1.05", "family.cylindrical.b1=0.12"],
])
def test_cylindrical_rows_match_full_mesh(overrides, monkeypatch):
    """Whole cylindrical-check rows on the quadrant path against the same
    scenario with the reflection classes patched away, which evaluates
    every hbar on the full mesh."""
    quadrant = run_scenario(_cylindrical_config(*overrides))
    monkeypatch.setattr(scenarios, "_reflection_classes", lambda grid: None)
    full = run_scenario(_cylindrical_config(*overrides))
    assert [(r.metric, r.passed) for r in quadrant.rows] == \
        [(r.metric, r.passed) for r in full.rows]
    assert all(r.passed for r in quadrant.rows)
    for metric in ("residual_monotone", "radial_symmetry_max"):
        assert quadrant.row(metric).value == full.row(metric).value
    assert quadrant.row("residual_slope").value == pytest.approx(
        full.row("residual_slope").value, rel=QUADRANT_RTOL, abs=0.0)
    for q, f in zip(quadrant.plotdata["scaling"][1], full.plotdata["scaling"][1]):
        assert q == pytest.approx(f, rel=QUADRANT_RTOL, abs=0.0)


@pytest.mark.parametrize("override", [
    # mirror axes only to rounding: no reflection classes
    "grid.half_width=0.3",
])
def test_uneven_cases_keep_the_full_mesh(override, monkeypatch):
    """An inexact grid takes the full-mesh path: the rows are bit for bit
    those of apply_nlse_operator on the whole grid."""
    cfg = _cylindrical_config(override)
    spec = parse_config(cfg)
    grid, base = spec.grid.build(), spec.params.phys()
    pot = free_potential()
    hbars = spec.params.hbars
    w = cylindrical_fields(spec.family.cylindrical, base)
    residuals = []
    for hbar in hbars:
        params = base.with_hbar(hbar)
        psi, dpsi = _leading_pair(w, grid, spec.family.eval_time, params)
        residuals.append(relative_residual(apply_nlse_operator((psi, dpsi), pot, params),
                                           psi))

    def refuse(*args):
        raise AssertionError("took the quadrant path")

    monkeypatch.setattr(scenarios, "_quadrant_residual", refuse)
    result = run_scenario(cfg)
    assert [row[1] for row in result.plotdata["scaling"][1]] == residuals
    assert result.row("residual_slope").value == fit_scaling(hbars, residuals).slope
    assert all(r.passed for r in result.rows)

"""The ring state sampled once per reflection class of the grid.

On an axis-offset grid whose axes are exact mirror images, x*x + y*y is
bit-identical on the points that the reflections and the x <-> y swap map
onto each other, so a jet that depends on position through the radius
alone may be sampled once per class and expanded.  These tests hold the
table path to the full-mesh path bit for bit, and check that every other
grid keeps the full-mesh path.
"""

import random

import numpy as np
import pytest

from semiwave import PhysParams, free_potential, make_axis_offset_grid, make_uniform_grid
from semiwave.asymptotics import CylindricalParams, cylindrical_fields
from semiwave.core import _reflection_classes
from semiwave.harness import scenarios
from semiwave.harness.scenarios import _leading_pair, _pointwise_maxima

SHIPPED_RING = CylindricalParams(c1=1.0, b1=0.1, a2=0.2)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_leading_pair_table_is_bit_identical(n, t):
    """cylindrical-check's grid and ring at two sizes and two times."""
    grid = make_axis_offset_grid(2, 2.0, n)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = cylindrical_fields(SHIPPED_RING, params)
    classes = _reflection_classes(grid)
    assert classes is not None
    assert len(classes[0][0]) == (n // 2) * (n // 2 + 1) // 2
    full = _leading_pair(w, grid, t, params)
    table = _leading_pair(w, grid, t, params, classes)
    for a, b in zip(full, table):
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.time, a.hbar, a.grid) == (b.time, b.hbar, b.grid)


def test_expansion_matches_the_mesh():
    """The expansion of x*x + y*y sampled on the representatives is the
    squared radius of the full mesh, bit for bit."""
    grid = make_axis_offset_grid(2, 1.5, 64)
    (x, y), expand = _reflection_classes(grid)
    X, Y = grid.mesh()
    out = np.empty(grid.shape)
    assert expand(x * x + y * y, out) is out
    assert out.tobytes() == (X * X + Y * Y).tobytes()


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
        _leading_pair(w, grid, 0.0, params, _reflection_classes(grid))

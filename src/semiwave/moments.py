"""Expectation values, centered Weyl moments and concentration diagnostics.

Every centered moment of order <= 2 is read off one Gram matrix.  For a
field psi and a phase-space centre z = (x0, p0), take the 2dim+1 vectors

    u = (psi, (x_j - x0_j) psi, (P_j - p0_j) psi),   P_j = -i hbar d/dx_j,

with P applied spectrally, which is exact for band-limited samples; then
G_ab = Re<u_a, u_b> / ||psi||^2.  Row 0 holds the first moments, and the
rest is the 2dim x 2dim second-moment matrix.  Only the vectors a result
reads are built, and P_j psi, once formed, also gives the mean <P_j> when
the centre is the field's own.  Taking the real part makes
the position-momentum entries the symmetrized products, the one place
where operator ordering matters at second order.  Concentration in the
small parameter is probed two ways: the decay slope of the width across
an hbar sweep, and the mass fraction inside a shrinking ball around the
centroid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classical import PhasePoint
from .core import (ComplexField, _floats, _momentum, apply_momentum, inner_product,
                   norm_squared)

_IMAG_WARN = 1e-8


@dataclass(frozen=True)
class MomentRecord:
    """Means and second centered moments of one field.

    delta2 is the symmetric 2dim x 2dim matrix over the phase-space index
    order (x_1..x_dim, p_1..p_dim); its off-diagonal position-momentum
    entries are symmetrized products.
    """

    t: float
    hbar: float
    mean_x: tuple[float, ...]
    mean_p: tuple[float, ...]
    delta2: np.ndarray

    def __post_init__(self):
        d2 = np.asarray(self.delta2, dtype=float)
        dim = len(self.mean_x)
        if d2.shape != (2 * dim, 2 * dim):
            raise ValueError("delta2 must be a 2dim x 2dim matrix")
        for j in range(dim):
            if d2[j, j] < 0 or d2[dim + j, dim + j] < 0:
                raise ValueError("variances must be nonnegative")

    def var_x(self, axis: int = 0) -> float:
        return float(self.delta2[axis, axis])

    def var_p(self, axis: int = 0) -> float:
        dim = len(self.mean_x)
        return float(self.delta2[dim + axis, dim + axis])

    def cov_xp(self, axis: int = 0) -> float:
        dim = len(self.mean_x)
        return float(self.delta2[axis, dim + axis])


@dataclass(frozen=True)
class ScalingReport:
    """Least-squares power-law fit value = C * hbar^slope in log-log form,
    as fit_scaling builds and checks it."""

    hbars: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float


def fit_scaling(hbars, values) -> ScalingReport:
    """Fit log(value) against log(hbar); at least two distinct points."""
    hb = tuple(float(h) for h in hbars)
    vals = tuple(float(v) for v in values)
    if len(hb) != len(vals):
        raise ValueError("hbars and values must have equal length")
    if len(hb) < 2:
        raise ValueError("slope fitting needs at least two points")
    if any(h <= 0 for h in hb) or any(v <= 0 for v in vals):
        raise ValueError("slope fitting needs positive hbars and values")
    if any(b >= a for a, b in zip(hb, hb[1:])):
        raise ValueError("hbars must be strictly decreasing")
    slope, intercept = np.polyfit(np.log(hb), np.log(vals), 1)
    return ScalingReport(hbars=hb, values=vals, slope=float(slope),
                         intercept=float(intercept))


def _total(dens: np.ndarray) -> float:
    """Sum of a density; refuses an identically zero field."""
    total = float(np.sum(dens))
    if total == 0.0:
        raise ValueError("field is identically zero; not a usable state")
    return total


def mean_position(psi: ComplexField) -> np.ndarray:
    """Density-weighted mean of each coordinate."""
    dens = psi.density()
    total = _total(dens)
    xs = psi.grid.mesh()
    return np.array([float(np.sum(x * dens) / total) for x in xs])


def _momentum_mean(psi: ComplexField, p_vals: np.ndarray, ax: int, nsq: float) -> float:
    """Re <psi| P_ax psi> / ||psi||^2 from the samples of P_ax psi.

    A sizable imaginary part means the state is not resolved by the grid;
    it is reported as a warning, not an error, so sweeps can proceed.
    """
    val = inner_product(psi, psi.with_values(p_vals)) / nsq
    if abs(val.imag) > _IMAG_WARN * max(1.0, abs(val.real)):
        warnings.warn(
            f"momentum mean has imaginary part {val.imag:.3e} on axis "
            f"{ax}; the state is not grid-resolved",
            stacklevel=3,
        )
    return val.real


def mean_momentum(psi: ComplexField) -> np.ndarray:
    """Real part of <psi| -i hbar d/dx_j |psi> / ||psi||^2 per axis."""
    nsq = norm_squared(psi)
    return np.array([_momentum_mean(psi, apply_momentum(psi, ax).values, ax, nsq)
                     for ax in range(psi.grid.dim)])


def _centred(psi: ComplexField, z: PhasePoint | None, x_axes, p_axes):
    """The centred vectors (x_j - x0_j) psi for j in x_axes, then
    (P_j - p0_j) psi for j in p_axes, with P_j = -i hbar d/dx_j, about z or
    the field's own means.  Only these vectors are built, and each P_j is
    applied once, for its mean and its vector alike.  Returns the centre
    coordinates along x_axes and p_axes, and the vectors."""
    grid, vals = psi.grid, psi.values
    if z is not None and z.dim != grid.dim:
        raise ValueError("phase-space point dimension does not match the field")
    x0, p0, us = [], [], []
    if x_axes:
        at = z.x if z is not None else mean_position(psi)
        mesh = grid.mesh()
        x0 = [float(at[j]) for j in x_axes]
        us = [(mesh[j] - c) * vals for j, c in zip(x_axes, x0)]
    nsq = norm_squared(psi) if p_axes and z is None else None
    for j in p_axes:
        p_vals = _momentum(vals, grid, psi.hbar, j)
        p0.append(z.p[j] if z is not None else _momentum_mean(psi, p_vals, j, nsq))
        us.append(p_vals - p0[-1] * vals)
    return tuple(x0), tuple(p0), us


def _gram(psi: ComplexField, us) -> np.ndarray:
    """G_ab = Re<u_a, u_b> dV / ||psi||^2 over the given vectors, each
    Re<u_a, u_b> one einsum over the float views, so no conjugated copy of
    the stack is made."""
    scale = psi.grid.cell_volume / norm_squared(psi)
    fs = [_floats(u) for u in us]
    g = np.empty((len(us), len(us)))
    for a in range(len(us)):
        for b in range(a, len(us)):
            g[a, b] = g[b, a] = np.einsum("i,i->", fs[a], fs[b]) * scale
    return g


def centered_moment(psi: ComplexField, alpha, beta, z: PhasePoint | None = None) -> float:
    """Centered moment of multi-order alpha in momentum, beta in position.

    Orders up to |alpha| + |beta| = 2 are supported; the mixed second
    moment is the symmetrized operator product, everything else is a plain
    power.  Centering defaults to the field's own means.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    dim = psi.grid.dim
    if len(alpha) != dim or len(beta) != dim:
        raise ValueError(f"multi-indices must have length dim={dim}")
    if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be nonnegative")
    na, nb = sum(alpha), sum(beta)
    if na + nb > 2:
        raise ValueError(
            f"moments of order {na + nb} are not supported (maximum 2)"
        )
    # one axis per unit factor; each distinct one gets a vector after psi
    fx = [ax for ax, b in enumerate(beta) for _ in range(b)]
    fp = [ax for ax, a in enumerate(alpha) for _ in range(a)]
    x_axes, p_axes = sorted(set(fx)), sorted(set(fp))
    _, _, us = _centred(psi, z, x_axes, p_axes)
    g = _gram(psi, [psi.values] + us)
    if na + nb == 0:
        return 1.0  # G[0, 0] up to rounding
    idx = [1 + x_axes.index(ax) for ax in fx]
    idx += [1 + len(x_axes) + p_axes.index(ax) for ax in fp]
    a, b = (idx + [0])[:2]
    return float(g[a, b])


def compute_moment_record(psi: ComplexField, z: PhasePoint | None = None) -> MomentRecord:
    """Means and the full second-moment matrix, centered on z or on the
    field's own means.  The per-axis uncertainty product is checked
    against the hbar/2 bound as a quadrature sanity gate."""
    dim = psi.grid.dim
    mean_x, mean_p, us = _centred(psi, z, range(dim), range(dim))
    d2 = _gram(psi, us)
    hbar = psi.hbar
    for ax in range(dim):
        prod = d2[ax, ax] * d2[dim + ax, dim + ax]
        if prod < (0.5 * hbar) ** 2 - 1e-8:
            raise ValueError(
                f"uncertainty product {prod:.3e} on axis {ax} violates the "
                f"(hbar/2)^2 bound; the moment quadrature is unreliable"
            )
    return MomentRecord(t=psi.time, hbar=hbar, mean_x=mean_x, mean_p=mean_p, delta2=d2)


def mass_within_radius(psi: ComplexField, radius: float, center=None) -> float:
    """Fraction of the squared norm inside the Euclidean ball of the given
    radius around center (default: the density centroid)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if center is None:
        center = mean_position(psi)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if len(center) != psi.grid.dim:
        raise ValueError("center dimension does not match the field")
    xs = psi.grid.mesh()
    dist_sq = sum((x - c) ** 2 for x, c in zip(xs, center))
    dens = psi.density()
    total = _total(dens)
    inside = float(np.sum(np.where(dist_sq <= radius * radius, dens, 0.0)))
    return inside / total


def _width_observable(psi: ComplexField, z: PhasePoint | None, observable: str) -> float:
    """Root of the summed variances of the position or the momentum vectors."""
    axes = range(psi.grid.dim)
    x_axes, p_axes = (axes, ()) if observable == "position" else ((), axes)
    _, _, us = _centred(psi, z, x_axes, p_axes)
    return float(np.sqrt(np.trace(_gram(psi, us))))


def concentration_scaling(fields, z: PhasePoint | None = None,
                          observable: str = "position") -> ScalingReport:
    """Width-versus-hbar slope across a sweep of fields.

    The width is the root of the summed per-axis variance, centered on z
    when given (the classical orbit point) or on each field's own means.
    observable selects the position or the momentum width.
    """
    if observable not in ("position", "momentum"):
        raise ValueError(f"unknown observable {observable!r}")
    fields = list(fields)
    if len(fields) < 3:
        raise ValueError("concentration fits need at least three hbar values")
    hbars = [f.hbar for f in fields]
    widths = [_width_observable(f, z, observable) for f in fields]
    if any(w <= 0 for w in widths):
        raise ValueError("degenerate width in the sweep; cannot fit a slope")
    return fit_scaling(hbars, widths)

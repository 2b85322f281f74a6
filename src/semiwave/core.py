"""Grids, fields, physical parameters and basic spectral operations.

Everything downstream works on periodic uniform grids in one or two
dimensions.  Quadrature is the plain Riemann sum times the cell volume,
which is spectrally accurate for smooth periodic integrands, and all
derivatives are taken in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TIME_ATOL = 1e-9


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid.

    The coordinate of index j along an axis is lo + j*spacing; the right
    endpoint hi is excluded (it is identified with lo by periodicity).
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"grid dim must be 1 or 2, got {self.dim}")
        for name, tup in (("lo", self.lo), ("hi", self.hi), ("n", self.n)):
            if len(tup) != self.dim:
                raise ValueError(f"grid {name} must have length dim={self.dim}")
        for a, b in zip(self.lo, self.hi):
            if not b > a:
                raise ValueError(f"grid needs hi > lo, got [{a}, {b})")
        for m in self.n:
            if m < 16 or not _is_power_of_two(m):
                raise ValueError(f"grid size must be a power of two >= 16, got {m}")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / m for a, b, m in zip(self.lo, self.hi, self.n))

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis (right endpoint excluded)."""
        return tuple(
            a + h * np.arange(m)
            for a, h, m in zip(self.lo, self.spacing, self.n)
        )

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Full coordinate mesh (ij indexing); a 1-tuple in one dimension."""
        if self.dim == 1:
            return (self.axes()[0],)
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers 2*pi*fftfreq per axis, fft ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(m, d=h)
            for m, h in zip(self.n, self.spacing)
        )

    def axis_wavenumber(self, axis: int) -> np.ndarray:
        """Wavenumbers of one axis shaped to broadcast against a field:
        length n along `axis`, 1 along the others.  Every spectral
        multiplier along an axis is built from it."""
        shape = [1] * self.dim
        shape[axis] = self.n[axis]
        return self.wavenumbers()[axis].reshape(shape)


def make_uniform_grid(dim: int, lo, hi, n) -> Grid:
    """Build a Grid, broadcasting scalar lo/hi/n over the axes."""
    def tup(v, cast):
        if np.isscalar(v):
            return (cast(v),) * dim
        return tuple(cast(x) for x in v)
    return Grid(dim=dim, lo=tup(lo, float), hi=tup(hi, float), n=tup(n, int))


def make_axis_offset_grid(dim: int, half_width: float, n) -> Grid:
    """Grid for radially symmetric fields: shifted half a cell so that no
    sample point lands on the coordinate origin, and reflection about the
    origin maps the sample set onto itself up to rounding.

    The match is exact (x[n-1-i] == -x[i] in floating point) only for some
    widths: half_width 1, 1.5, 2, 2.5, 3, 5 and 8 give exact mirror axes at
    every n from 16 to 1024, while 0.1, 0.3, 0.7, 0.9 and 1.1 match only to
    rounding.  `_reflection_classes` checks the axes and uses the symmetry
    only where it is exact."""
    g0 = make_uniform_grid(dim, -half_width, half_width, n)
    h = g0.spacing
    return Grid(
        dim=dim,
        lo=tuple(-half_width + hj / 2 for hj in h),
        hi=tuple(half_width + hj / 2 for hj in h),
        n=g0.n,
    )


def _reflection_classes(grid: Grid):
    """Representatives of the grid's reflection classes and the gather onto
    the positive quadrant, or None where the symmetry is not exact.

    On a 2D grid whose two axes are identical and exact mirror images
    (x[n-1-i] == -x[i]), the reflections x -> -x, y -> -y and the swap
    x <-> y map the sample set onto itself, and x*x + y*y is bit-identical
    on the up to eight points of one class.  Returns ((x, y), gather): the
    coordinates of one point per class, (n/2)(n/2+1)/2 of them, all in the
    positive quadrant with x <= y; and `gather(table)`, which lays values
    given per representative out on the positive quadrant, an (n/2, n/2)
    array whose entry [i, j] belongs to grid point (n/2 + i, n/2 + j)."""
    if grid.dim != 2:
        return None
    x, y = grid.axes()
    if not (np.array_equal(x, y) and np.array_equal(x[::-1], -x)):
        return None
    h = grid.n[0] // 2
    rows, cols = np.triu_indices(h)
    # the class of point (h + i, h + j) in the positive quadrant
    quadrant = np.empty((h, h), dtype=np.int32)
    quadrant[rows, cols] = quadrant[cols, rows] = np.arange(len(rows))

    def gather(table: np.ndarray) -> np.ndarray:
        return np.take(table, quadrant)

    return (x[h + rows], x[h + cols]), gather


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of one run.

    hbar is the small (semiclassical) parameter, mass the particle mass and
    r the self-attraction coefficient.  When the construction parameter
    kappa is supplied, r is tied to it by r = kappa**2 exactly; families
    that build envelopes require r > 0.
    """

    hbar: float
    mass: float
    r: float = 0.0
    kappa: float | None = None

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.kappa is not None:
            if self.r != self.kappa * self.kappa:
                raise ValueError(
                    "inconsistent parameters: r must equal kappa**2 "
                    f"(r={self.r}, kappa**2={self.kappa * self.kappa})"
                )
            if not self.r > 0:
                raise ValueError("kappa must be nonzero")

    @classmethod
    def from_kappa(cls, hbar: float, mass: float, kappa: float) -> "PhysParams":
        return cls(hbar=hbar, mass=mass, r=kappa * kappa, kappa=kappa)

    def with_hbar(self, hbar: float) -> "PhysParams":
        return PhysParams(hbar=hbar, mass=self.mass, r=self.r, kappa=self.kappa)

    def with_r(self, r: float) -> "PhysParams":
        """Same constants with the nonlinearity coefficient replaced (the
        kappa tie is dropped unless it still holds)."""
        kappa = self.kappa if (self.kappa is not None and r == self.kappa**2) else None
        return PhysParams(hbar=self.hbar, mass=self.mass, r=r, kappa=kappa)


@dataclass
class ComplexField:
    """Complex scalar field sampled on a grid at one instant."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, time: float | None = None) -> "ComplexField":
        return ComplexField(
            grid=self.grid,
            values=values,
            time=self.time if time is None else time,
            hbar=self.hbar,
        )

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def _check_compatible(a: ComplexField, b: ComplexField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if abs(a.time - b.time) > TIME_ATOL * (1.0 + abs(a.time)):
        raise ValueError(f"fields taken at different times: {a.time} vs {b.time}")


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """L2 inner product <a|b> = sum conj(a)*b * cell_volume (conjugate-linear
    in the first argument), through one np.vdot, so no conjugated copy or
    product array is built."""
    _check_compatible(a, b)
    return complex(np.vdot(a.values, b.values) * a.grid.cell_volume)


def norm_squared(psi: ComplexField) -> float:
    """Squared L2 norm; refuses an identically zero field.

    The sum of re^2 + im^2 is one einsum over the interleaved float view of
    the samples, so no temporary is built.  einsum runs numpy's own loop,
    not BLAS: a BLAS dot such as np.vdot splits sums above about 10^4
    entries across threads, so its last bits depend on the thread count."""
    flat = np.ravel(psi.values).view(np.float64)
    val = float(np.einsum("i,i->", flat, flat)) * psi.grid.cell_volume
    if val == 0.0:
        raise ValueError("field is identically zero; not a usable state")
    return val


def _momentum(values: np.ndarray, grid: Grid, hbar: float, axis: int) -> np.ndarray:
    """-i*hbar*d/dx_axis applied to plain samples in Fourier space: the one
    momentum operator of the package."""
    mult = hbar * grid.axis_wavenumber(axis)
    return np.fft.ifft(mult * np.fft.fft(values, axis=axis), axis=axis)


def _expi(theta) -> np.ndarray:
    """exp(i theta) of a real array, from one cos and one sin pass written
    straight into the real and imaginary parts, with no complex argument
    built: every phase factor of a real phase in the package goes through
    it."""
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def apply_momentum(psi: ComplexField, axis: int = 0) -> ComplexField:
    """Apply the momentum operator -i*hbar*d/dx_axis in Fourier space."""
    if not 0 <= axis < psi.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {psi.grid.dim}")
    return psi.with_values(_momentum(psi.values, psi.grid, psi.hbar, axis))


# ---------------------------------------------------------------------------
# Potential specifications
#
# The scalar part V(x, t) and the vector part A(x, t) of the external field
# are given as small spec objects.  Built-in forms carry analytic gradients;
# the expression forms fall back on central differences.  `_diff` and
# `_diff2` below are the package's one first- and second-difference pair:
# every derivative fallback, here and in the asymptotics, goes through them.

_FD_STEP = 1e-6
_FD_STEP2 = 1e-4  # second differences lose digits at the first-order step


def _diff(f: Callable, x):
    """Central first difference of f at x, relative step _FD_STEP*(1 + |x|)."""
    h = _FD_STEP * (1.0 + np.abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _diff2(f: Callable, x):
    """Central second difference of f at x, relative step _FD_STEP2*(1 + |x|)."""
    h = _FD_STEP2 * (1.0 + np.abs(x))
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def _along(f: Callable, xs: Sequence, t: float, axis: int):
    """f(xs, t) as a function of coordinate `axis` alone, and that coordinate:
    `_diff(*_along(f, xs, t, axis))` is the partial derivative along it."""
    xs = tuple(np.asarray(c, dtype=float) for c in xs)
    return (lambda s: f(xs[:axis] + (s,) + xs[axis + 1:], t)), xs[axis]


def _constant(like, value: float = 0.0) -> np.ndarray:
    """Float array shaped like `like` with every entry equal to value."""
    return np.full_like(np.asarray(like, dtype=float), value)


class ScalarPotential:
    """Base scalar potential; subclasses provide value() and gradient().

    `static` is True when V does not depend on t.  The propagator then
    samples V once per run instead of twice per step, so a subclass may set
    it only when value() ignores t.
    """

    static: bool = False

    def value(self, xs: tuple[np.ndarray, ...], t: float) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, xs: tuple[np.ndarray, ...], t: float) -> tuple[np.ndarray, ...]:
        return tuple(_diff(*_along(self.value, xs, t, ax)) for ax in range(len(xs)))


@dataclass
class ZeroScalar(ScalarPotential):
    static = True

    def value(self, xs, t):
        return np.zeros(np.broadcast(*xs).shape)

    def gradient(self, xs, t):
        return tuple(_constant(c) for c in xs)


@dataclass
class HarmonicScalar(ScalarPotential):
    """V = (m/2) * sum_j omega_j^2 (x_j - c_j)^2.

    The mass enters the conventional normalisation, so the spec carries it.
    """

    static = True

    omega: tuple[float, ...]
    center: tuple[float, ...]
    mass: float = 1.0

    def __post_init__(self):
        self.omega = tuple(float(w) for w in np.atleast_1d(self.omega))
        self.center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(self.omega) != len(self.center):
            raise ValueError("omega and center must have equal length")

    def value(self, xs, t):
        out = 0.0
        for x, w, c in zip(xs, self.omega, self.center, strict=True):
            out = out + 0.5 * self.mass * w * w * (np.asarray(x, dtype=float) - c) ** 2
        return out

    def gradient(self, xs, t):
        return tuple(
            self.mass * w * w * (np.asarray(x, dtype=float) - c)
            for x, w, c in zip(xs, self.omega, self.center, strict=True)
        )


@dataclass
class SeparatedScalar(ScalarPotential):
    """V = v1(x) for one-dimensional separated families.

    v1_prime is optional; when absent the gradient falls back on central
    differences of v1.
    """

    static = True

    v1: Callable[[np.ndarray], np.ndarray] | None = None
    v1_prime: Callable[[np.ndarray], np.ndarray] | None = None

    def value(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        out = _constant(x)
        if self.v1 is not None:
            out = out + self.v1(x)
        return out

    def gradient(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        if self.v1 is None:
            return (_constant(x),)
        if self.v1_prime is not None:
            return (np.asarray(self.v1_prime(x), dtype=float),)
        return (_diff(self.v1, x),)


@dataclass
class ExpressionScalar(ScalarPotential):
    """Arbitrary closed-form V(xs, t) given as a callable; gradient by
    central differences unless an analytic one is supplied."""

    fn: Callable
    grad: Callable | None = None

    def value(self, xs, t):
        return np.asarray(self.fn(xs, t), dtype=float)

    def gradient(self, xs, t):
        if self.grad is not None:
            return tuple(np.asarray(g, dtype=float) for g in self.grad(xs, t))
        return super().gradient(xs, t)


class VectorPotential:
    """Base vector potential A(x, t)."""

    def value(self, xs: tuple[np.ndarray, ...], t: float) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def divergence(self, xs, t) -> np.ndarray:
        jac = self.jacobian(xs, t)
        return sum(jac[j][j] for j in range(len(xs)))

    def jacobian(self, xs, t) -> list[list[np.ndarray]]:
        """J[i][j] = dA_j/dx_i, from one stacked +-h pair of A per axis i."""
        return [list(_diff(*_along(lambda q, s: np.stack(self.value(q, s)), xs, t, i)))
                for i in range(len(xs))]


class _SpatiallyConstant(VectorPotential):
    """A that does not vary in space: zero divergence and jacobian."""

    def divergence(self, xs, t):
        return _constant(xs[0])

    def jacobian(self, xs, t):
        z = _constant(xs[0])
        return [[z.copy() for _ in xs] for _ in xs]


@dataclass
class ZeroVector(_SpatiallyConstant):
    def value(self, xs, t):
        return tuple(_constant(c) for c in xs)


@dataclass
class UniformVector(_SpatiallyConstant):
    """Spatially uniform A(t); the only vector form the propagator accepts."""

    a_of_t: Callable[[float], Sequence[float]]

    def components(self, t: float) -> tuple[float, ...]:
        return tuple(float(c) for c in np.atleast_1d(self.a_of_t(t)))

    def value(self, xs, t):
        comps = self.components(t)
        if len(comps) != len(xs):
            raise ValueError("vector potential dimension mismatch")
        return tuple(_constant(c, a) for c, a in zip(xs, comps))


@dataclass
class ExpressionVector(VectorPotential):
    fn: Callable  # fn(xs, t) -> tuple of component arrays

    def value(self, xs, t):
        comps = self.fn(xs, t)
        return tuple(np.broadcast_to(np.asarray(c, dtype=float), np.asarray(xs[0]).shape).copy()
                     for c in comps)


@dataclass
class PotentialSpec:
    """Bundle of the scalar and vector external fields."""

    scalar: ScalarPotential = field(default_factory=ZeroScalar)
    vector: VectorPotential = field(default_factory=ZeroVector)


def free_potential() -> PotentialSpec:
    return PotentialSpec(ZeroScalar(), ZeroVector())


def eval_potential(spec: PotentialSpec, grid: Grid, t: float):
    """Sample V and A on the grid at time t.

    Returns (V, (A_1, ..., A_dim)) as plain arrays of the grid shape.
    """
    return _sample_potential(spec, grid.mesh(), t)


def _sample_potential(spec: PotentialSpec, xs, t: float):
    """V and A at the points xs (one coordinate array per axis), as plain
    arrays of their broadcast shape."""
    shape = np.broadcast(*xs).shape
    v = np.broadcast_to(np.asarray(spec.scalar.value(xs, t), dtype=float), shape).copy()
    a = tuple(
        np.broadcast_to(np.asarray(c, dtype=float), shape).copy()
        for c in spec.vector.value(xs, t)
    )
    return v, a

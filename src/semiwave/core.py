"""Grids, fields, physical parameters and basic spectral operations.

Everything downstream works on periodic uniform grids in one or two
dimensions.  Quadrature is the plain Riemann sum times the cell volume,
which is spectrally accurate for smooth periodic integrands, and all
derivatives are taken in Fourier space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import scipy  # submodules load on first attribute access (tests/test_cold_start.py)

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
    origin maps the sample set onto itself up to rounding;
    `_reflection_classes` makes the match exact by sampling the positive
    half-axis alone."""
    g0 = make_uniform_grid(dim, -half_width, half_width, n)
    h = g0.spacing
    return Grid(
        dim=dim,
        lo=tuple(-half_width + hj / 2 for hj in h),
        hi=tuple(half_width + hj / 2 for hj in h),
        n=g0.n,
    )


def _reflection_classes(grid: Grid):
    """Representatives of the reflection classes of a square 2D axis-offset
    grid and the gather onto the positive quadrant.

    The reflections x -> -x, y -> -y and the swap x <-> y map the sample
    set onto itself, up to rounding of the coordinates.  Returns ((x, y),
    gather): the coordinates of one point per class, (n/2)(n/2+1)/2 of
    them, taken from the positive half-axis with x <= y; and
    `gather(table)`, which lays values given per representative out on the
    positive quadrant, an (n/2, n/2) array whose entry [i, j] belongs to
    grid point (n/2 + i, n/2 + j).  A field sampled this way is the exactly
    even extension of its positive quadrant, so x*x + y*y, and any value
    that depends on position through it alone, is one number per class;
    gather fills [i, j] and [j, i] from one class, so the quadrant is
    also exactly symmetric under i <-> j.

    Refuses, with a ValueError, a grid that is not 2D and square (equal n,
    lo and hi on both axes) or not cell-centred (lo + hi equal to the
    spacing, to rounding, so that the points mirror about the origin)."""
    if grid.dim != 2 or len(set(zip(grid.n, grid.lo, grid.hi))) != 1:
        raise ValueError("reflection classes need a square 2D grid (equal n, lo and "
                         f"hi on both axes), got n={grid.n}, lo={grid.lo}, hi={grid.hi}")
    spacing = grid.spacing[0]
    if abs(grid.lo[0] + grid.hi[0] - spacing) > 1e-9 * spacing:
        raise ValueError("reflection classes need a cell-centred grid (lo = -hi up to "
                         f"the half-cell offset), got [{grid.lo[0]}, {grid.hi[0]}) "
                         f"with spacing {spacing}")
    h = grid.n[0] // 2
    x = grid.axes()[0][h:]
    rows, cols = np.triu_indices(h)
    # the class of point (h + i, h + j) in the positive quadrant
    quadrant = np.empty((h, h), dtype=np.int32)
    quadrant[rows, cols] = quadrant[cols, rows] = np.arange(len(rows))

    def gather(table: np.ndarray) -> np.ndarray:
        return np.take(table, quadrant)

    return (x[rows], x[cols]), gather


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of one run.

    hbar is the small (semiclassical) parameter, mass the particle mass and
    r the self-attraction coefficient; families that build envelopes
    require r > 0.
    """

    hbar: float
    mass: float
    r: float

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    def with_hbar(self, hbar: float) -> "PhysParams":
        return replace(self, hbar=hbar)

    def with_r(self, r: float) -> "PhysParams":
        return replace(self, r=r)


@dataclass
class ComplexField:
    """Complex scalar field sampled on a grid at one instant.  Refuses
    non-finite values and a non-finite time, which no time check could
    then compare.

    A complex128 array is taken as it is, without a copy, and is made
    read-only: the caller's own array can no longer be written.  The
    propagator's snapshots rely on this to keep a state without copying
    it; any other input is converted into a new array."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time}")
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


def _floats(values: np.ndarray) -> np.ndarray:
    """The samples of a complex array as one interleaved (re, im) float view.

    Sums over these views go through np.einsum, which runs numpy's own
    loop with no temporary, not BLAS: a BLAS dot such as np.vdot splits
    sums above about 10^4 entries across threads, so its last bits depend
    on the thread count."""
    return np.ravel(values).view(np.float64)


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """L2 inner product <a|b> = sum conj(a)*b * cell_volume (conjugate-linear
    in the first argument).  Re = sum(ar br + ai bi) is one einsum over the
    float views and Im = sum(ar bi - ai br) two over their strided halves,
    so no conjugated copy or product array is built."""
    _check_compatible(a, b)
    fa, fb = _floats(a.values), _floats(b.values)
    re = np.einsum("i,i->", fa, fb)
    im = np.einsum("i,i->", fa[0::2], fb[1::2]) - np.einsum("i,i->", fa[1::2], fb[0::2])
    return complex(re, im) * a.grid.cell_volume


def norm_squared(psi: ComplexField) -> float:
    """Squared L2 norm, the sum of re^2 + im^2 as one einsum over the float
    view; refuses an identically zero field."""
    flat = _floats(psi.values)
    val = float(np.einsum("i,i->", flat, flat)) * psi.grid.cell_volume
    if val == 0.0:
        raise ValueError("field is identically zero; not a usable state")
    return val


def _momentum(values: np.ndarray, grid: Grid, hbar: float, axis: int) -> np.ndarray:
    """-i*hbar*d/dx_axis applied to plain samples in Fourier space: the one
    momentum operator of the package."""
    return _spectral_multiply(values, hbar * grid.axis_wavenumber(axis), axes=(axis,))


# Grid sizes are powers of two, so a contiguous 2D row is a power of two in
# bytes (8 KiB for a 512^2 complex array), and a pass down the columns meets
# the same few cache sets at every element.  One cache line more per row
# spreads a column over all of them: on a 2-core host a 2D cosine pair on a
# 512^2 complex array took 14.0-17.3 ms so, against 21.4-22.3 ms unpadded.
# Padding does not close the gap to the contiguous axis: medians of 15, a
# 512^2 complex dctn took 10.4-11.3 ms along axis 0, 9.3-9.7 ms along axis 0
# of a padded copy and 4.7-4.8 ms along axis 1, so the quadrant residual
# runs its cosine pair along axis 1 alone (solver._quadrant_kinetic).
_ROW_PAD_BYTES = 64


def _padded(shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """An uninitialised array of `shape`: in two or more dimensions, the
    first shape[-1] columns of a buffer whose rows are _ROW_PAD_BYTES
    longer, so its rows are not a power of two in bytes; in one
    dimension, a plain array."""
    if len(shape) < 2:
        return np.empty(shape, dtype=dtype)
    extra = _ROW_PAD_BYTES // np.dtype(dtype).itemsize
    return np.empty(shape[:-1] + (shape[-1] + extra,), dtype=dtype)[..., :shape[-1]]


def _spectral_multiply(values: np.ndarray, multiplier, axes=None,
                       even: bool = False, _owned: bool = False) -> np.ndarray:
    """Apply the operator that is diagonal in Fourier space with symbol
    `multiplier` (broadcast against values) through one transform pair
    along `axes`, all of them by default: the one spectral multiply of the
    package.  multiplier is one array or a tuple of factors, which
    multiply the spectrum in turn, in place, as spectrum times factor; a
    symbol that is a product of per-axis factors so needs no product of
    the grid's size.

    values are a whole periodic grid and multiplier is in fft ordering,
    and the pair is one FFT pair.  With even=True, values are instead
    the positive half along every axis of a field that is even about the
    centre of a cell-centred grid (`_reflection_classes`); its Fourier
    series holds cosines alone, so multiplier spans the first n/2
    wavenumbers of each axis and the pair is one type-II DCT pair of size
    n/2 per axis of `axes` (Martucci, IEEE Trans. Signal Process. 42,
    1994).

    A caller that owns values passes _owned=True: both transforms then
    run in place and values hold the result.  The Strang plan does so on
    its contiguous work arrays.  Otherwise a pair along any axis but the
    last runs in place on a `_padded` copy of values and returns a
    contiguous copy of the result; a pair in 1D or along the last axis
    alone, where the copies would cost more than the stride saves, runs
    the forward transform out of place and the inverse in place on the
    spectrum.  pocketfft does the same arithmetic per line at any stride,
    so every way gives the bits of the out-of-place pair.  Medians of 15,
    three runs per side on a 2-core host, unpadded against padded: a
    256^2 pair in place took 1.41-2.09 against 1.30-1.31 ms, a 256^2
    pass along axis 0 1.07-1.63 against 0.93-1.04 ms (along axis 1,
    0.69-0.73 ms as it runs, 0.89-1.17 ms on a padded copy), and an FFT
    pair on a caller's 512^2 array 10.5-11.1 against 10.1-11.8 ms.  The
    copy paid on construct-sweep while cylindrical-check's quadrant ran a
    2D cosine pair (pass median 0.151 s with it, 0.170 s without, 8 runs
    each); that pair now runs along the last axis alone, and the copy
    serves the 2D pairs that cross rows, such as the momentum moments of a
    2D state.  The Strang plan's own arrays
    are not padded, because its elementwise passes over padded rows cost
    more than the pair saves (`solver._StrangPlan`).

    The FFT pair is two calls of pocketfft's kernel,
    scipy.fft._pocketfft.pypocketfft.c2c, with the arguments that
    scipy.fft.fftn and ifftn pass it: the axes as non-negative ints, no
    scaling forward and 1/N inverse, the array itself as output when it is
    owned and complex, and one thread.  So its bits are theirs, without
    their per-call dispatch and argument checks: medians of 21 x 2000
    in-place 2048-point transforms on a 2-core host read 18.7 us through
    fftn and 12.8 us for the kernel, and a 1D Strang step at n = 2048 went
    from 79 to 66 us.  A scipy.fft.set_workers context does not reach the
    FFT pair.  The cosine pair stays on scipy.fft.dctn/idctn, which split
    a complex quadrant into real and imaginary parts for pocketfft's
    real-only cosine kernel."""
    factors = multiplier if isinstance(multiplier, tuple) else (multiplier,)
    nd = values.ndim
    copied = not _owned and nd > 1 and (axes is None or any(ax % nd < nd - 1 for ax in axes))
    if copied:
        work = _padded(values.shape, values.dtype)
        work[...] = values
        values, _owned = work, True
    if even:
        spec = scipy.fft.dctn(values, type=2, axes=axes, overwrite_x=_owned)
        for factor in factors:
            spec *= factor
        out = scipy.fft.idctn(spec, type=2, axes=axes, overwrite_x=True)
    else:
        c2c = scipy.fft._pocketfft.pypocketfft.c2c
        axes = tuple(range(nd)) if axes is None else tuple(ax % nd for ax in axes)
        into = values if _owned and values.dtype.kind == "c" else None
        spec = c2c(values, axes, True, 0, into, 1)
        for factor in factors:
            spec *= factor
        out = c2c(spec, axes, False, 2, spec, 1)
    return np.ascontiguousarray(out) if copied else out


def _expi(theta, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i theta) of a real array, from one cos and one sin pass written
    straight into the real and imaginary parts of out (a fresh complex
    array by default), with no complex argument built: every phase factor
    of a real phase in the package goes through it."""
    if out is None:
        out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def apply_momentum(psi: ComplexField, axis: int = 0) -> ComplexField:
    """Apply the momentum operator -i*hbar*d/dx_axis in Fourier space."""
    if not 0 <= axis < psi.grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {psi.grid.dim}")
    return psi.with_values(_momentum(psi.values, psi.grid, psi.hbar, axis))


class _Schedule:
    """(length, end time) of each step from t0 to t_end: whole steps of dt
    ending at t0 + k dt, then a shortened one ending at t_end if a tail is
    left.  The one step rule: the propagator and the classical orbit both
    walk it.  Refuses a non-finite t0, t_end or dt, dt <= 0 and t_end < t0.
    Steps are yielded as they are read, so its size does not grow with the
    step count."""

    def __init__(self, t0: float, t_end: float, dt: float):
        for name, value in (("t0", t0), ("t_end", t_end), ("dt", dt)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if t_end < t0:
            raise ValueError(f"t_end={t_end:g} precedes the initial time {t0:g}; "
                             "steps only run forward")
        remaining = t_end - t0
        self.t0, self.dt, self.end = t0, dt, t0 + remaining
        self.n_full = int(np.floor(remaining / dt + 1e-12))
        tail = remaining - self.n_full * dt
        self.tail = tail if tail >= 1e-12 * dt else None

    def __len__(self) -> int:
        return self.n_full + (self.tail is not None)

    def __iter__(self):
        for k in range(1, self.n_full + 1):
            yield self.dt, self.t0 + k * self.dt
        if self.tail is not None:
            yield self.tail, self.end


# ---------------------------------------------------------------------------
# Potential specifications
#
# The scalar part V(x, t) and the vector part A(t) of the external field
# are given as small spec objects.  Every scalar form that is asked for
# its gradient carries an analytic one: the classical orbit and the
# separated families read it, and no difference quotient stands in for it.
# `_diff` below is the package's one central difference; its one caller is
# the explicit time derivative of the first correction's coefficients
# (`asymptotics.corrections.corrected_term_with_dt`).

_FD_STEP = 1e-6


def _diff(f: Callable, x):
    """Central first difference of f at x, relative step _FD_STEP*(1 + |x|)."""
    h = _FD_STEP * (1.0 + np.abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


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
        raise NotImplementedError(f"{type(self).__name__} carries no analytic gradient")


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
        # on the orbit's Python floats the arithmetic stays in Python floats
        return tuple(
            self.mass * w * w * (x - c)
            for x, w, c in zip(xs, self.omega, self.center, strict=True)
        )


@dataclass
class SeparatedScalar(ScalarPotential):
    """V = v1(x) for one-dimensional separated families, with its slope
    v1_prime."""

    static = True

    v1: Callable[[np.ndarray], np.ndarray]
    v1_prime: Callable[[np.ndarray], np.ndarray]

    def value(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return _constant(x) + self.v1(x)

    def gradient(self, xs, t):
        x = np.asarray(xs[0], dtype=float)
        return (np.asarray(self.v1_prime(x), dtype=float),)


@dataclass
class ExpressionScalar(ScalarPotential):
    """Arbitrary closed-form V(xs, t) given as a callable fn, and its
    gradient as a callable grad returning one array per axis.  grad may be
    left out where only V is read (the propagator and the operator
    residual); reading the gradient then raises."""

    fn: Callable
    grad: Callable | None = None

    def value(self, xs, t):
        return np.asarray(self.fn(xs, t), dtype=float)

    def gradient(self, xs, t):
        if self.grad is None:
            return super().gradient(xs, t)
        return tuple(np.asarray(g, dtype=float) for g in self.grad(xs, t))


@dataclass
class UniformVector:
    """Spatially uniform A(t), one component per axis: the one vector
    potential of the package.  components(t, dim), A at t as dim floats,
    is the one way it is read, by the Strang step, the residuals and the
    classical orbit; a uniform A has no divergence and no jacobian."""

    a_of_t: Callable[[float], Sequence[float]]

    def components(self, t: float, dim: int) -> tuple[float, ...]:
        comps = tuple(float(c) for c in np.atleast_1d(self.a_of_t(t)))
        if len(comps) != dim:
            raise ValueError("vector potential dimension mismatch")
        return comps


@dataclass
class ZeroVector(UniformVector):
    """A = 0, in any dimension: components() gives dim zeros, so a_of_t is
    never read."""

    a_of_t: Callable[[float], Sequence[float]] = field(default=lambda t: 0.0, repr=False)

    def components(self, t, dim):
        return (0.0,) * dim


@dataclass
class PotentialSpec:
    """Bundle of the scalar and vector external fields."""

    scalar: ScalarPotential = field(default_factory=ZeroScalar)
    vector: UniformVector = field(default_factory=ZeroVector)

"""Split-step spectral propagator and the full-equation residual.

The propagator integrates

    i hbar psi_t = (1/2m) (-i hbar grad - A)^2 psi + V psi - 2 r |psi|^2 psi

on a periodic grid with Strang splitting: a half step of the local
(potential plus nonlinear) phase, a full kinetic step in Fourier space,
and a second local half step with the modulus refreshed.  Every factor is
a pure phase, so each step preserves the norm to rounding.  The steps are
core._Schedule's, which the classical orbit walks too.

A is uniform in space (core.UniformVector), and the plan and the residual
both read it through its components(t, dim).  The kinetic operator is
then diagonal in Fourier space, with symbol sum_j (hbar k_j - a_j)^2: the
residual multiplies by the symbol itself, and the kinetic step by its
exponential, with A sampled at the step's midpoint, as the product of the
per-axis factors exp(-i h (hbar k_j - a_j)^2 / (2 m hbar)), each
multiplying the spectrum in turn; both between one n-D FFT pair.  Under
such an A a solution is the A = 0 one moved by (1/m) int a and rephased,
which is how the propagator's A is checked; an x-dependent A would need
another propagator and oracle.

A run builds one propagator plan (_StrangPlan) per (grid, params, pot).
It owns the work arrays that every step is written into and runs the
transform pair in place, so only the snapshot states are fresh arrays.
The two complex work arrays are plain C-contiguous arrays.  Padded rows
(core._padded) spare the pass down the columns its power-of-two stride,
but numpy cannot run an elementwise pass over a padded 2D array as one
loop: at 256^2 a multiply took 215-226 us on padded rows against 127-140
us contiguous, and the step's elementwise passes spent most of the
pair's saving of about 200 us.  The plan's docstring lists the arrays
and says why every complex multiply is written psi times factor.  V is
sampled on the open mesh of the grid's axes.  A scalar potential whose
`static` property is true (ZeroScalar, HarmonicScalar, SeparatedScalar)
is sampled once per plan, and its term of the local phase is kept per
total half-step length; when r is 0 as well the local factor itself is
the same every step and is kept instead.  Any other V is sampled at the
midpoint of each half step, twice per step.

Because the local factor is a pure phase, |psi|^2 is the same on both
sides of it, so the closing half step of step n and the opening half step
of step n+1 are applied as one multiply with phase

    [(h_n/2) V(t_n + 3h_n/4) + (h_{n+1}/2) V(t_n + h_n + h_{n+1}/4)
     - r (h_n + h_{n+1}) |psi|^2] / hbar,

where t_n is the start and h_n the length of step n.  The pair is split
again after every snapshot step and on the last step, so every recorded
state is an exact Strang state.  The norm sum(|psi|^2) dV is taken from
the same |psi|^2 after each kinetic step and doubles as the finiteness
probe: when it is not finite, the pending closing half step is checked
again, so the abort names the step whose factor produced the fault.

The residual evaluator applies the full operator to a sampled field and
its time derivative.  It serves as the independent check that asymptotic
constructions satisfy the equation to the advertised order.  The Strang
kinetic step and the residual's diagonal kinetic operator both go through
core._spectral_multiply.  Its FFT pair calls pocketfft's c2c kernel
directly, for the same bits: scipy.fft.fftn's dispatch and argument
checks cost about a sixth of a 1D step at ehrenfest's n = 2048.  The
other three terms are summed into the kinetic term's array in the order
of the written equation, so the residual holds no full-size temporary
per term; a ZeroScalar V is not sampled.

For a field sampled once per class of `core._reflection_classes` on a
square axis-offset grid under the free equation (cylindrical-check's
ring), the residual is evaluated on the (n/2)^2 positive quadrant alone.
The gathered quadrant is even in x and in y and equal to its transpose
bit for bit, so d_yy psi is (d_xx psi).T: the kinetic term is phi +
phi.T, with phi one type-II DCT pair of size n/2 along the contiguous
last axis (_spectral_multiply's cosine pair), and the sum is formed in
place one pair of 64^2 blocks at a time.  At a 512^2 quadrant this took
10.2-10.5 ms against 20.9-22.7 ms for the 2D cosine pair, whose half
along axis 0 walks a power-of-two row stride (2-core host, medians of
15).  The other terms are summed as above, and the relative residual is
the ratio of the quadrant's sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexField,
    Grid,
    PhysParams,
    PotentialSpec,
    TIME_ATOL,
    ZeroScalar,
    _Schedule,
    _expi,
    _spectral_multiply,
    norm_squared,
)


@dataclass(frozen=True)
class SolverConfig:
    """Run settings for the propagator.

    dt is the step, t_end the final time (a shortened last step lands on
    it exactly), snapshot_every the snapshot stride in steps.
    """

    dt: float
    t_end: float
    snapshot_every: int = 1
    params: PhysParams = None
    pot: PotentialSpec = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        every = self.snapshot_every
        if isinstance(every, bool) or not np.isfinite(every) or int(every) != every \
                or every < 1:
            raise ValueError(
                f"snapshot_every must be a positive integer, got {self.snapshot_every}"
            )
        if self.params is None:
            raise ValueError("SolverConfig needs params")
        if self.pot is None:
            object.__setattr__(self, "pot", PotentialSpec())


@dataclass
class EvolutionRecord:
    """Snapshots and the largest relative norm drift of one run."""

    snapshots: list[ComplexField]
    mass_drift: float

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.snapshots]

    @property
    def final(self) -> ComplexField:
        return self.snapshots[-1]


def _density(vals: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """|vals|^2 as re^2 + im^2, written into out with im^2 in scratch when
    they are given (real arrays of vals' shape)."""
    out = np.square(vals.real, out=out)
    out += np.square(vals.imag, out=scratch)
    return out


class _StrangPlan:
    """Strang propagator on one grid for one (params, pot).

    Holds the open mesh np.ix_ of the grid's axes, at which V is sampled
    and then broadcast to the grid's shape; the local phase rate
    V/(2 hbar) when the scalar potential is static (sampled once, at t0);
    and the work arrays every step is written into, so a step allocates
    none of the grid's size:

    * two complex arrays used in turn: the local factor goes into the one
      that does not hold psi, and psi times it into the same one, which
      the kinetic step's transform pair then overwrites in place.  Both
      are C-contiguous and handed to core._spectral_multiply as owned;
    * the per-axis kinetic factors, each the length of its axis, rebuilt
      only when the uniform A or the step length changes; the spectrum is
      multiplied by each in turn, so no factor of the grid's size is
      built;
    * real arrays for the phase theta and for scratch, and two for
      |psi|^2 used in turn, so a non-finite norm can still be traced to
      the pending closing half step, which acts on the previous density.

    A snapshot state alone is written into a fresh array, so no work array
    escapes into a ComplexField.

    Every complex multiply is written as psi times factor.  Complex
    multiply with FMA is not commutative to the bit, and numpy computes
    psi * (a temporary factor) as factor *= psi for arrays of 256 KiB and
    more (temporary elision): the order would then depend on the grid's
    size.  Fixed, it gives the bits of the written-out product on every
    grid.

    For a static V the term hsum * V/(2 hbar) of each total half-step
    length hsum is built once and kept (h, 2h, and with a shortened last
    step h + tail and tail: at most four); when r is 0 as well the whole
    local factor exp(-i hsum V/(2 hbar)) is kept instead, so a step makes
    no cos/sin pass for it.
    """

    def __init__(self, grid: Grid, params: PhysParams, pot: PotentialSpec, t0: float):
        self.params = params
        self.pot = pot
        self.xs = np.ix_(*grid.axes())
        self.shape = grid.shape
        self.dv = grid.cell_volume
        self.v_rate = self._v_rate(t0) if pot.scalar.static else None
        self._static = {}  # total half-step length -> its static term
        self.hk = tuple(params.hbar * grid.axis_wavenumber(ax) for ax in range(grid.dim))
        self._kin_key, self._kin = None, ()
        self._work = tuple(np.empty(grid.shape, dtype=np.complex128) for _ in range(2))
        self._theta, self._scratch = np.empty(grid.shape), np.empty(grid.shape)
        self._dens = tuple(np.empty(grid.shape) for _ in range(2))

    def _v_rate(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        v = np.asarray(self.pot.scalar.value(self.xs, t), dtype=float)
        return np.multiply(0.5 / self.params.hbar, np.broadcast_to(v, self.shape), out=out)

    def _free(self, vals: np.ndarray) -> np.ndarray:
        """The work array that does not hold vals."""
        first, second = self._work
        return second if np.may_share_memory(vals, first) else first

    def local_factor(self, dens: np.ndarray, halves: list[tuple[float, float]],
                     out: np.ndarray) -> np.ndarray:
        """exp(-i phase) of the local half steps `halves`, (t, h) pairs that
        each act for h/2 with V sampled at t, written into out unless it is
        a kept static factor.  A pure phase leaves |psi|^2 unchanged, so
        all of them share dens and combine into one factor."""
        hsum = sum(h for _, h in halves)
        r = self.params.r
        theta = self._theta
        if self.v_rate is None:
            np.multiply(r * hsum / self.params.hbar, dens, out=theta)
            for t, h in halves:
                theta -= np.multiply(h, self._v_rate(t, self._scratch), out=self._scratch)
            return _expi(theta, out=out)
        term = self._static.get(hsum)
        if term is None:
            term = hsum * self.v_rate
            if r == 0:
                # the nonlinear phase 0*dens is +0.0 for a finite dens >= 0
                term = _expi(0.0 - term)
            self._static[hsum] = term
        if r == 0:
            return term
        np.multiply(r * hsum / self.params.hbar, dens, out=theta)
        theta -= term
        return _expi(theta, out=out)

    def kinetic(self, vals: np.ndarray, t: float, h: float) -> np.ndarray:
        """Full kinetic step of length h, A sampled at t, in place on vals,
        which must be a work array."""
        a = self.pot.vector.components(t, len(self.hk))
        if (a, h) != self._kin_key:
            scale = h / (2.0 * self.params.mass * self.params.hbar)
            self._kin = tuple(_expi(-scale * (hk - a_ax) ** 2) for hk, a_ax in zip(self.hk, a))
            self._kin_key = (a, h)
        return _spectral_multiply(vals, self._kin, _owned=True)

    def run(self, vals: np.ndarray, t0: float, steps: _Schedule, every: int):
        """Strang steps from t0, one per (length, end time) pair of `steps`.
        Yields (t, norm, state) after each step; state is the exact Strang
        state after every `every`-th step and the last one, a fresh array,
        and None between them, where the closing half step is still pending
        and will be fused with the next opening one.  vals is only read.  A
        non-finite norm aborts with the index of the step that produced it.
        """
        dens, prev = self._dens  # |psi|^2 now and one step before
        _density(vals, dens, self._scratch)
        closing = None  # (t, h) of the previous step's pending closing half
        t, last = t0, len(steps)
        for step, (h, t_next) in enumerate(steps, 1):
            t_start, t = t, t_next
            opening = (t_start + 0.25 * h, h)
            work = self._free(vals)
            factor = self.local_factor(dens, [opening] if closing is None
                                       else [closing, opening], work)
            vals = self.kinetic(np.multiply(vals, factor, out=work), t_start + 0.5 * h, h)
            dens, prev = _density(vals, prev, self._scratch), dens
            nrm = float(np.sum(dens)) * self.dv
            if not math.isfinite(nrm):
                if closing is not None and not np.all(np.isfinite(
                        self.local_factor(prev, [closing], self._free(vals)))):
                    step, t = step - 1, t_start
                raise _nonfinite(step, t)
            closing = (t_start + 0.75 * h, h)
            if step % every == 0 or step == last:
                vals = np.multiply(vals, self.local_factor(dens, [closing], self._free(vals)))
                closing = None
                dens, prev = _density(vals, prev, self._scratch), dens
                nrm = float(np.sum(dens)) * self.dv
                if not math.isfinite(nrm):
                    raise _nonfinite(step, t)
            yield t, nrm, (vals if closing is None else None)


def _nonfinite(step: int, t: float) -> FloatingPointError:
    return FloatingPointError(f"non-finite amplitude at step {step} (t={t:.6g}); aborting")


def evolve(psi0: ComplexField, config: SolverConfig) -> EvolutionRecord:
    """Propagate psi0 to t_end, recording snapshots and the norm drift.

    Snapshots are taken at the start, every snapshot_every steps, and at
    the final time.  A non-finite amplitude aborts with the step index;
    a t_end before psi0.time is refused.
    """
    grid = psi0.grid
    t0 = psi0.time
    steps = _Schedule(t0, config.t_end, config.dt)
    hbar = config.params.hbar
    snapshots = [ComplexField(grid, psi0.values, time=t0, hbar=hbar)]
    n0 = norm_squared(snapshots[0])
    drift = 0.0
    plan = _StrangPlan(grid, config.params, config.pot, t0)
    for t, nrm, state in plan.run(psi0.values, t0, steps, config.snapshot_every):
        drift = max(drift, abs(nrm - n0) / n0)
        if state is not None:
            snapshots.append(ComplexField(grid, state, time=t, hbar=hbar))
    return EvolutionRecord(snapshots=snapshots, mass_drift=drift)


# ---------------------------------------------------------------------------
# residual of the full equation


def _kinetic_apply(values: np.ndarray, grid: Grid, pot: PotentialSpec,
                   t: float, params: PhysParams) -> np.ndarray:
    """(-i hbar grad - A)^2 applied spectrally.  A uniform A makes it
    diagonal in Fourier space: one multiply by sum_j (hbar k_j - a_j)^2,
    with a = A(t), between one n-D FFT pair."""
    symbol = 0.0
    for ax, a_ax in enumerate(pot.vector.components(t, grid.dim)):
        symbol = symbol + (params.hbar * grid.axis_wavenumber(ax) - a_ax) ** 2
    return _spectral_multiply(values, symbol)


def _add_local_terms(res: np.ndarray, vals: np.ndarray, dvals: np.ndarray, v,
                     params: PhysParams) -> np.ndarray:
    """Turn res, which holds (-i hbar grad - A)^2 psi, into the residual
    by summing the other terms into it left to right, with one complex and
    one real scratch array for them.  v is V sampled at the points of
    vals, or None for a V that is zero."""
    res /= 2.0 * params.mass
    term = np.multiply(-1j * params.hbar, dvals)
    np.add(term, res, out=res)
    if v is not None:
        res += np.multiply(v, vals, out=term)
    dens = np.abs(vals)
    np.square(dens, out=dens)
    np.multiply(2.0 * params.r, dens, out=dens)
    res -= np.multiply(dens, vals, out=term)
    return res


def apply_nlse_operator(pair, pot: PotentialSpec, params: PhysParams) -> ComplexField:
    """Residual of the full equation,

        -i hbar psi_t + (1/2m)(-i hbar grad - A)^2 psi + V psi - 2r|psi|^2 psi,

    at the time of the supplied field.  pair is (psi, dpsi): the field and
    its time derivative, on the same grid at the same time.

    The terms are summed left to right into the kinetic term's array, with
    one complex and one real scratch array for the others, so the result
    has the bits of the sum written out above.  A ZeroScalar V is not
    sampled and its term not added, which can only leave a -0.0 where the
    full sum has +0.0.
    """
    psi, dpsi = pair
    if psi.grid != dpsi.grid:
        raise ValueError("field and its time derivative live on different grids")
    if abs(psi.time - dpsi.time) > TIME_ATOL * (1.0 + abs(psi.time)):
        raise ValueError("field and its time derivative are taken at different times")
    grid, t = psi.grid, psi.time
    vals = psi.values
    res = _kinetic_apply(vals, grid, pot, t, params)
    v = None if isinstance(pot.scalar, ZeroScalar) else \
        np.asarray(pot.scalar.value(grid.mesh(), t), dtype=float)
    res = _add_local_terms(res, vals, dpsi.values, v, params)
    return ComplexField(grid, res, time=t, hbar=params.hbar)


def relative_residual(residual: ComplexField, psi: ComplexField) -> float:
    """L2 norm of the residual divided by the L2 norm of the field."""
    return float(np.sqrt(norm_squared(residual) / norm_squared(psi)))


# block side of _add_transpose: a pair of 64^2 complex blocks is 128 KiB
_TRANSPOSE_BLOCK = 64


def _add_transpose(a: np.ndarray) -> np.ndarray:
    """a + a.T written into the square array a, one pair of blocks at a
    time: for blocks [I, J] with I <= J, s = a[I, J] + a[J, I].T goes to
    [I, J] and s.T to [J, I].  Floating-point addition commutes, so a gets
    the bits of a + a.T, with no second array of a's size and no pass down
    a's columns."""
    n, b = len(a), _TRANSPOSE_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            s = np.add(a[i:i + b, j:j + b], a[j:j + b, i:i + b].T)
            a[i:i + b, j:j + b] = s
            a[j:j + b, i:i + b] = s.T
    return a


def _quadrant_kinetic(psi: np.ndarray, grid: Grid, hbar: float) -> np.ndarray:
    """(-i hbar grad)^2 psi on the positive quadrant of a square axis-offset
    grid, for a quadrant psi that is even about the grid's centre in both
    axes and equal to psi.T bit for bit, as `core._reflection_classes`'
    gather lays it out.  On the square grid d_yy psi is then (d_xx psi).T,
    so the term is phi + phi.T, where phi is the cosine pair of
    `_spectral_multiply` with symbol (hbar k_y)^2 along the contiguous last
    axis alone, summed in place (_add_transpose)."""
    symbol = (hbar * grid.axis_wavenumber(1)[:, :grid.n[1] // 2]) ** 2
    return _add_transpose(_spectral_multiply(psi, symbol, axes=(1,), even=True))


def _quadrant_relative_residual(tables: tuple[np.ndarray, np.ndarray], gather,
                                grid: Grid, params: PhysParams) -> float:
    """relative_residual of apply_nlse_operator for A = 0 and V = 0 and a
    field sampled once per reflection class of a square axis-offset grid
    (`core._reflection_classes`), from its positive quadrant alone: tables
    are the field and its time derivative per class, and gather lays them
    out on the quadrant, grid points (n/2 + i, n/2 + j), so the symmetry
    _quadrant_kinetic relies on holds by construction.

    The other terms are summed as in apply_nlse_operator.  The quadrant
    holds a quarter of each norm's sum, and that factor and the cell
    volume cancel in the ratio."""
    psi, dpsi = map(gather, tables)
    del tables  # frees the per-class tables before the quadrant-sized temporaries
    res = _add_local_terms(_quadrant_kinetic(psi, grid, params.hbar), psi, dpsi, None,
                           params)
    return math.sqrt(float(np.sum(_density(res))) / float(np.sum(_density(psi))))

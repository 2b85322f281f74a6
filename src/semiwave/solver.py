"""Split-step spectral propagator and the full-equation residual.

The propagator integrates

    i hbar psi_t = (1/2m) (-i hbar grad - A)^2 psi + V psi - 2 r |psi|^2 psi

on a periodic grid with Strang splitting: a half step of the local
(potential plus nonlinear) phase, a full kinetic step in Fourier space,
and a second local half step with the modulus refreshed.  Every factor is
a pure phase, so each step preserves the norm to rounding.

A run builds one propagator plan (_StrangPlan) per (grid, params, pot).
It holds the mesh and a single cached kinetic factor, rebuilt only when
the uniform A or the step length changes.  A scalar potential whose
`static` property is true (ZeroScalar, HarmonicScalar, SeparatedScalar)
is sampled once per plan, and its term of the local phase
is kept per total half-step length; when r is 0 as well the local factor
itself is the same every step and is kept instead.  Any other V is
sampled at the midpoint of each half step, twice per step.

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
constructions satisfy the equation to the advertised order.  For a
spatially constant A (ZeroVector, UniformVector) the kinetic operator is
diagonal in Fourier space, with symbol sum_j (hbar k_j - a_j)^2, and is
applied as one n-D FFT pair; any other A takes two momentum passes per
axis, which keep it exact for x-dependent A as well.  The Strang kinetic
step and this diagonal operator go through one spectral-multiplier helper,
_spectral_multiply.  The other three terms are summed into the kinetic
term's array in the order of the written equation, so the residual holds
no full-size temporary per term; a ZeroScalar V is not sampled.

For a field even in x and in y on a square mirror grid under the free
equation (cylindrical-check's ring on `core._reflection_classes`' grids),
the residual is evaluated on the (n/2)^2 positive quadrant alone:
_spectral_multiply's cosine pair, a type-II DCT pair of size n/2 per axis,
applies the kinetic operator there, the other terms are summed as above,
and the relative residual is the ratio of the quadrant's sums.  Any other
grid keeps the full mesh.

Propagation accepts only a spatially constant A (ZeroVector,
UniformVector); the plan refuses any other when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # submodules load on first attribute access (tests/test_cold_start.py)

from .core import (
    ComplexField,
    Grid,
    PhysParams,
    PotentialSpec,
    TIME_ATOL,
    UniformVector,
    ZeroScalar,
    ZeroVector,
    _SpatiallyConstant,
    _expi,
    _momentum,
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
        if int(self.snapshot_every) != self.snapshot_every or self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be a positive integer, got {self.snapshot_every}"
            )
        if self.params is None:
            raise ValueError("SolverConfig needs params")
        if self.pot is None:
            object.__setattr__(self, "pot", PotentialSpec())


@dataclass
class EvolutionRecord:
    """Snapshots plus norm bookkeeping from one run."""

    snapshots: list[ComplexField]
    norms: list[float]
    mass_drift: float

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.snapshots]

    @property
    def final(self) -> ComplexField:
        return self.snapshots[-1]


def _uniform_components(vec: ZeroVector | UniformVector, dim: int,
                        t: float) -> tuple[float, ...]:
    """Components at time t of a spatially constant A on a dim-axis grid."""
    if isinstance(vec, ZeroVector):
        return (0.0,) * dim
    comps = vec.components(t)
    if len(comps) != dim:
        raise ValueError("vector potential dimension mismatch")
    return comps


def _density(vals: np.ndarray) -> np.ndarray:
    return vals.real ** 2 + vals.imag ** 2


def _spectral_multiply(values: np.ndarray, multiplier, even: bool = False) -> np.ndarray:
    """Apply the operator that is diagonal in Fourier space with symbol
    `multiplier` (broadcast against values) through one transform pair.

    values are a whole periodic grid and multiplier is in fft ordering,
    and the pair is one n-D FFT pair.  With even=True, values are instead
    the positive half along every axis of a field that is even about the
    centre of a cell-centred mirror grid (x[n-1-i] == -x[i]); its Fourier
    series holds cosines alone, so multiplier spans the first n/2
    wavenumbers of each axis and the pair is one type-II DCT pair of size
    n/2 per axis (Martucci, IEEE Trans. Signal Process. 42, 1994)."""
    if even:
        spec = scipy.fft.dctn(values, type=2)
        spec *= multiplier
        # in place: same bits, and 33 -> 19 ms per pair at 512^2 (2-core host)
        return scipy.fft.idctn(spec, type=2, overwrite_x=True)
    spec = scipy.fft.fftn(values)
    spec *= multiplier
    return scipy.fft.ifftn(spec)


class _StrangPlan:
    """Strang propagator on one grid for one (params, pot).

    Holds the mesh, the local phase rate V/(2 hbar) when the scalar
    potential is static (sampled once, at t0), and one kinetic factor,
    rebuilt only when the uniform A or the step length changes.  For a
    static V the term hsum * V/(2 hbar) of each total half-step length
    hsum is built once and kept (h, 2h, and with a shortened last step
    h + tail and tail: at most four); when r is 0 as well the whole local
    factor exp(-i hsum V/(2 hbar)) is kept instead, so a step makes no
    cos/sin pass for it.
    """

    def __init__(self, grid: Grid, params: PhysParams, pot: PotentialSpec, t0: float):
        # the kinetic factor diagonalises in Fourier space only for uniform A
        if not isinstance(pot.vector, _SpatiallyConstant):
            raise ValueError(
                "propagation supports only spatially uniform vector "
                "potentials; supply A as a function of time alone"
            )
        self.params = params
        self.pot = pot
        self.xs = grid.mesh()
        self.dv = grid.cell_volume
        self.v_rate = self._v_rate(t0) if pot.scalar.static else None
        self._static = {}  # total half-step length -> its static term
        self.hk = tuple(params.hbar * grid.axis_wavenumber(ax) for ax in range(grid.dim))
        self._kin_key = None
        self._kin = None

    def _v_rate(self, t: float) -> np.ndarray:
        v = np.asarray(self.pot.scalar.value(self.xs, t), dtype=float)
        return (0.5 / self.params.hbar) * v

    def local_factor(self, dens: np.ndarray, halves: list[tuple[float, float]]) -> np.ndarray:
        """exp(-i phase) of the local half steps `halves`, (t, h) pairs that
        each act for h/2 with V sampled at t.  A pure phase leaves |psi|^2
        unchanged, so all of them share dens and combine into one factor."""
        hsum = sum(h for _, h in halves)
        r = self.params.r
        if self.v_rate is None:
            theta = (r * hsum / self.params.hbar) * dens
            for t, h in halves:
                theta -= h * self._v_rate(t)
            return _expi(theta)
        term = self._static.get(hsum)
        if term is None:
            term = hsum * self.v_rate
            if r == 0:
                # the nonlinear phase 0*dens is +0.0 for a finite dens >= 0
                term = _expi(0.0 - term)
            self._static[hsum] = term
        if r == 0:
            return term
        theta = (r * hsum / self.params.hbar) * dens
        theta -= term
        return _expi(theta)

    def kinetic(self, vals: np.ndarray, t: float, h: float) -> np.ndarray:
        """Full kinetic step of length h, A sampled at t."""
        a = _uniform_components(self.pot.vector, len(self.hk), t)
        if (a, h) != self._kin_key:
            scale = h / (2.0 * self.params.mass * self.params.hbar)
            factor = 1.0
            for hk, a_ax in zip(self.hk, a):
                factor = factor * _expi(-scale * (hk - a_ax) ** 2)
            self._kin_key, self._kin = (a, h), factor
        return _spectral_multiply(vals, self._kin)

    def run(self, vals: np.ndarray, t0: float, steps: list[tuple[float, float]],
            every: int):
        """Strang steps from t0, one per (length, end time) pair of `steps`.
        Yields (t, norm, state) after each step; state is the exact Strang
        state after every `every`-th step and the last one, and None between
        them, where the closing half step is still pending and will be fused
        with the next opening one.  A non-finite norm aborts with the index
        of the step that produced it.
        """
        dens = _density(vals)
        closing = None  # (t, h) of the previous step's pending closing half
        t = t0
        for step, (h, t_next) in enumerate(steps, 1):
            t_start, t = t, t_next
            opening = (t_start + 0.25 * h, h)
            vals = vals * self.local_factor(dens, [opening] if closing is None
                                            else [closing, opening])
            vals = self.kinetic(vals, t_start + 0.5 * h, h)
            prev, dens = dens, _density(vals)
            nrm = float(np.sum(dens)) * self.dv
            if not math.isfinite(nrm):
                if closing is not None and not np.all(
                        np.isfinite(self.local_factor(prev, [closing]))):
                    step, t = step - 1, t_start
                raise _nonfinite(step, t)
            closing = (t_start + 0.75 * h, h)
            if step % every == 0 or step == len(steps):
                vals = vals * self.local_factor(dens, [closing])
                closing = None
                dens = _density(vals)
                nrm = float(np.sum(dens)) * self.dv
                if not math.isfinite(nrm):
                    raise _nonfinite(step, t)
            yield t, nrm, (vals if closing is None else None)


def _nonfinite(step: int, t: float) -> FloatingPointError:
    return FloatingPointError(f"non-finite amplitude at step {step} (t={t:.6g}); aborting")


def _schedule(t0: float, t_end: float, dt: float) -> list[tuple[float, float]]:
    """(length, end time) of each step from t0 to t_end: whole steps of dt,
    then one shortened step when a tail is left."""
    remaining = t_end - t0
    n_full = int(np.floor(remaining / dt + 1e-12))
    steps = [(dt, t0 + k * dt) for k in range(1, n_full + 1)]
    tail = remaining - n_full * dt
    if tail >= 1e-12 * dt:
        steps.append((tail, t0 + remaining))
    return steps


def evolve(psi0: ComplexField, config: SolverConfig) -> EvolutionRecord:
    """Propagate psi0 to t_end, recording snapshots and norms.

    Snapshots are taken at the start, every snapshot_every steps, and at
    the final time.  A non-finite amplitude aborts with the step index;
    a t_end before psi0.time is refused.
    """
    grid = psi0.grid
    t0 = psi0.time
    if config.t_end < t0:
        raise ValueError(
            f"t_end={config.t_end:g} precedes the initial time {t0:g}; "
            "evolve only runs forward"
        )

    hbar = config.params.hbar
    snapshots = [ComplexField(grid, psi0.values, time=t0, hbar=hbar)]
    n0 = norm_squared(snapshots[0])
    norms = [n0]
    drift = 0.0
    plan = _StrangPlan(grid, config.params, config.pot, t0)
    steps = _schedule(t0, config.t_end, config.dt)
    for t, nrm, state in plan.run(psi0.values, t0, steps, config.snapshot_every):
        drift = max(drift, abs(nrm - n0) / n0)
        if state is not None:
            snapshots.append(ComplexField(grid, state, time=t, hbar=hbar))
            norms.append(nrm)
    return EvolutionRecord(snapshots=snapshots, norms=norms, mass_drift=drift)


# ---------------------------------------------------------------------------
# residual of the full equation


def _kinetic_apply(values: np.ndarray, grid: Grid, pot: PotentialSpec,
                   t: float, params: PhysParams) -> np.ndarray:
    """(-i hbar grad - A)^2 applied spectrally.

    A spatially constant A makes the operator diagonal in Fourier space:
    it is applied as one multiply by sum_j (hbar k_j - a_j)^2 between one
    n-D FFT pair.  Any other A takes two momentum passes per axis, which
    keep the operator exact for spatially varying A as well; the residual
    evaluator supports that even though propagation does not.
    """
    hbar = params.hbar
    if isinstance(pot.vector, _SpatiallyConstant):
        a = _uniform_components(pot.vector, grid.dim, t)
        symbol = 0.0
        for ax, a_ax in enumerate(a):
            symbol = symbol + (hbar * grid.axis_wavenumber(ax) - a_ax) ** 2
        return _spectral_multiply(values, symbol)
    xs = grid.mesh()
    a = tuple(np.asarray(c, dtype=float) for c in pot.vector.value(xs, t))
    out = np.zeros_like(values)
    for ax in range(grid.dim):
        chi = _momentum(values, grid, hbar, ax) - a[ax] * values
        out = out + _momentum(chi, grid, hbar, ax) - a[ax] * chi
    return out


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


def _quadrant_relative_residual(psi: np.ndarray, dpsi: np.ndarray, grid: Grid,
                                params: PhysParams) -> float:
    """relative_residual of apply_nlse_operator for A = 0 and V = 0 and a
    field even in every axis on a square mirror grid (see
    `core._reflection_classes`), from its positive quadrant alone: psi and
    dpsi are the field and its time derivative at grid points
    (n/2 + i, n/2 + j).

    The kinetic operator is the cosine pair of `_spectral_multiply` with
    symbol sum_j (hbar k_j)^2, and the other terms are summed as in
    apply_nlse_operator.  The quadrant holds a quarter of each norm's sum,
    and that factor and the cell volume cancel in the ratio."""
    half = tuple(slice(0, m // 2) for m in grid.n)
    symbol = 0.0
    for ax in range(grid.dim):
        symbol = symbol + (params.hbar * grid.axis_wavenumber(ax)[half]) ** 2
    res = _add_local_terms(_spectral_multiply(psi, symbol, even=True), psi, dpsi, None,
                           params)
    return math.sqrt(float(np.sum(_density(res))) / float(np.sum(_density(psi))))

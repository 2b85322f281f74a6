"""Named reproduction scenarios and their report rows.

Each scenario is a pure function from its typed configuration (the
scenario's schema in config.py) to a ScenarioResult: a list of metric rows
plus plot tables and optional field snapshots.  A scenario computes its
metrics' values only.  How each row passes is declared once, in GATES,
and _rows() judges every value by its entry, so the bounds, their
margins and the reason for each row without a bound sit in one table.
Writing files is emit()'s job, so identical configurations give
identical results objects and, through emit, identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..asymptotics import (
    CylindricalFields,
    SolitonFields,
    assemble_leading_term,
    corrected_term_with_dt,
    hj_residual,
    leading_term_time_derivative,
    one_soliton,
    transport_residuals,
)
from ..asymptotics.fields import _leading_values, _time_derivative_values
from ..classical import PhasePoint, integrate_bicharacteristic
from ..core import ComplexField, PotentialSpec, ZeroScalar, ZeroVector, \
    _reflection_classes, norm_squared
from ..moments import ScalingReport, concentration_scaling, fit_scaling, \
    mass_within_radius, mean_momentum, mean_position, centered_moment
from ..solver import SolverConfig, _quadrant_relative_residual, apply_nlse_operator, \
    evolve, relative_residual
from .config import (
    Concentration,
    CylindricalCheck,
    Ehrenfest,
    ExperimentConfig,
    IdentitySuite,
    ResidualScaling,
    SolitonPropagation,
    parse_config,
)


@dataclass(frozen=True)
class ReportRow:
    """One metric of one scenario case; tolerance None marks a value that
    is reported without a pass threshold."""

    scenario: str
    case: str
    metric: str
    value: float
    tolerance: float | None
    passed: bool


@dataclass
class ScenarioResult:
    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    plotdata: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)
    snapshots: list[ComplexField] = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, metric: str) -> ReportRow:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(f"no row with metric {metric!r}")


@dataclass(frozen=True)
class Gate:
    """How a metric's row passes: kind names its rule in PASSES, and the
    bound is the row's tolerance.  A 'flag' row is 1 for yes and 0 for
    no; a row with no bound says why in reason.  case None means the
    metric carries its case as 'name[case]'."""

    case: str | None
    kind: str
    bound: float | None = None
    reason: str = ""
    center: float = 0.0


PASSES = {
    "below": lambda v, g: v < g.bound,
    "at_least": lambda v, g: v >= g.bound,
    "within": lambda v, g: abs(v - g.center) < g.bound,
    "flag": lambda v, g: v == 1.0,
    "reported": lambda v, g: True,
}

GATES: dict[tuple[str, str], Gate] = {
    # measured 9.7e-7 and 4.5e-13 as shipped, and at most 1.5e-6 and
    # 6.4e-13 over 40 seeded solitons (xi in (0.15, 0.35), eta in
    # (0.45, 0.55), x0 in (-5, 5 - 20 xi), so the centre stays 15 from the
    # box edges); gated 6.5x and 7.8x above those maxima
    ("soliton-propagation", "l2_error"): Gate("propagation", "below", 1e-5),
    ("soliton-propagation", "mass_drift"): Gate("propagation", "below", 5e-12),
    ("soliton-propagation", "peak_velocity"): Gate(
        "propagation", "reported", reason="peak_velocity_error gates it"),
    # the centroid's fitted velocity: 2.8e-14 as shipped, at most 7.4e-13
    # and 8.8e-13 over the same 40 solitons at n = 1024 and 256, and 2.3e-12
    # and 2.5e-12 over a twentieth of the run (t_end 0.5) at n = 256 and
    # 1024; gated 5.9x above the largest
    ("soliton-propagation", "peak_velocity_error"): Gate("propagation", "below", 1.5e-11),
    ("soliton-propagation", "step_norm_drift"): Gate("propagation", "below", 1e-12),
    ("soliton-propagation", "convergence_ratio"): Gate(
        "convergence", "reported", reason="convergence_ratio_deviation gates it"),
    # 15x the largest |ratio - 4| measured, 8.9e-5 as shipped and at most
    # 3.3e-3 over dt = 2e-3 and 5e-4, eta = 0.4 and seven seeded solitons
    # inside the box (one whose tail the box edge cut read 0.096)
    ("soliton-propagation", "convergence_ratio_deviation"): Gate(
        "convergence", "below", 0.05),
    ("ehrenfest", "x_deviation"): Gate(None, "below", 5e-3),
    ("ehrenfest", "p_deviation"): Gate(None, "below", 5e-3),
    # 2 for the symmetric profile; measured 2.0015538 to 2.0016056 over 40
    # seeded c1 in construct-sweep's range (0.4975, 0.5025) and both its
    # ends, at n = 1024 and 4096, so |v - 2| <= 1.6e-3, gated 6.2x above
    ("residual-scaling", "leading_slope"): Gate("leading", "within", 0.01, center=2.0),
    ("residual-scaling", "corrected_slope"): Gate("corrected", "at_least", 1.8),
    # exactly 1 in theory; |v - 1| measured 8.9e-16 as shipped and at most
    # 4.4e-15 over construct-sweep seeds 1-5000 (xi in (-0.5, 0.5), x0 in
    # (-1, 1)) at n = 4096 and 16384, gated 6.8x above that
    ("concentration", "position_width_slope"): Gate(
        "position", "within", 3e-14, center=1.0),
    # exactly 0 in theory; |v| measured at most 5.3e-15 over the same
    # seeds (seed 4564, n = 16384; 1.7e-15 at n = 4096), gated 1.9x above
    ("concentration", "momentum_width_slope"): Gate("momentum", "within", 1e-14),
    # measured 2.0e-15 as shipped and at most 1.8e-14 over the same 10000
    # configurations, gated 5.5x above that
    ("concentration", "var_x_deviation"): Gate("variance", "below", 1e-13),
    ("concentration", "mass_within_sqrt_hbar"): Gate("mass", "at_least", 0.99),
    # largest |eq_a| or |eq_b| over the four families; measured at most
    # 2.8e-14 over construct-sweep seeds 1-2000 at its sizes (the ring at
    # n = 512; class 1 2.8e-16, class 2 5.6e-16, soliton 0) and 1.1e-14 at
    # the shipped sizes (3.6e-15 as shipped).  The ring's maximum grows like
    # 1/r nearest the axis, so like n: 1.7e-13 at n = 2048 over 20 seeded
    # rings, still 5.9x below the gate, which is 35x above the measured one
    ("identity-suite", "transport_max"): Gate("transport", "below", 1e-12),
    # exactly 0, yet kept: the soliton's correctness is established by
    # soliton-propagation, so this row checks hj_residual's sign and
    # normalisation against a known solution
    ("identity-suite", "hj_soliton_max"): Gate("eikonal", "below", 1e-12),
    # measured at most 4.4e-16 (class 1, c1 in [0.45, 0.55] at n = 1024,
    # 4096 and 16384), 4.7e-15 (class 2) and 3.3e-16 (cylindrical) over 20
    # seeded parameter sets, at the shipped and at refined grids
    ("identity-suite", "hj_class1_max"): Gate("eikonal", "below", 1e-12),
    ("identity-suite", "hj_class2_max"): Gate("eikonal", "below", 1e-12),
    ("identity-suite", "hj_cylindrical_max"): Gate("eikonal", "below", 1e-12),
    ("cylindrical-check", "residual_monotone"): Gate(
        "residual", "flag", reason="yes when the residual falls strictly at every "
        "step; how fast is residual_slope's job, so there is no size to bound"),
    ("cylindrical-check", "residual_slope"): Gate(
        "residual", "reported", reason="the shipped ring sits on the axis (a1 = 0), "
        "so the slope follows the grid: 0.717, 0.822, 0.926 at n = 256, 512, 1024"),
}


def gate_of(scenario: str, metric: str) -> Gate:
    """The GATES entry of a metric; 'name[case]' reads the entry of name."""
    return GATES[scenario, metric.partition("[")[0]]


def _rows(scenario: str, values: dict[str, float]) -> list[ReportRow]:
    """The report rows of a scenario's {metric: value}, in that order, each
    judged by its GATES entry.  A value that is not finite never passes."""
    rows = []
    for metric, value in values.items():
        gate, value = gate_of(scenario, metric), float(value)
        rows.append(ReportRow(scenario, metric.partition("[")[2][:-1] or gate.case,
                              metric, value, gate.bound,
                              math.isfinite(value) and PASSES[gate.kind](value, gate)))
    return rows


def _scaling_table(fit: ScalingReport, value: str) -> tuple[list[str], list[tuple]]:
    """Plot table of a fitted sweep: hbar, the measured value, and the fit."""
    return ["hbar", value, "fitted"], [
        (h, v, float(np.exp(fit.intercept + fit.slope * np.log(h))))
        for h, v in zip(fit.hbars, fit.values)]


def _class_tables(jet, params) -> tuple[np.ndarray, np.ndarray]:
    """The leading-order state and its time derivative from a jet sampled
    at the reflection class representatives, one value per class."""
    table = _leading_values(jet, params)
    return table, _time_derivative_values(jet, table, params)


# ---------------------------------------------------------------------------
# soliton-propagation


def run_soliton_propagation(spec: SolitonPropagation) -> ScenarioResult:
    """Propagate the closed-form solitary wave and compare against itself:
    terminal error, mass drift, fitted peak velocity, one-step norm
    preservation, and a dt-halving order check.  The peak is located as
    the centroid, which it is for the symmetric sech^2 packet."""
    scen = spec.scenario
    params = spec.params.phys()
    grid = spec.grid.build()
    pot = PotentialSpec()
    sp = spec.family.soliton
    config = spec.solver.config(params, pot)

    psi0 = one_soliton(sp, grid, 0.0, params)
    rec = evolve(psi0, config)
    exact = one_soliton(sp, grid, config.t_end, params)
    error = rec.final.with_values(rec.final.values - exact.values)

    times = np.array(rec.times)
    peaks = np.array([mean_position(s)[0] for s in rec.snapshots])
    velocity = float(np.polyfit(times, peaks, 1)[0])
    target = 2.0 * sp.xi / params.mass

    stepped = evolve(psi0, replace(config, t_end=psi0.time + config.dt)).final
    drift = abs(norm_squared(stepped) - norm_squared(psi0)) / norm_squared(psi0)

    conv_t = spec.convergence.t_end

    def terminal(dt):
        c = SolverConfig(dt=dt, t_end=conv_t, snapshot_every=10 ** 9,
                         params=params, pot=pot)
        return evolve(psi0, c).final.values

    # successive differences: 4 for a second-order method, with no reference
    # run's own error in it
    coarse, mid, fine = (terminal(config.dt / k) for k in (1.0, 2.0, 4.0))
    ratio = float(np.max(np.abs(coarse - mid))) / float(np.max(np.abs(mid - fine)))

    rows = _rows(scen, {
        "l2_error": relative_residual(error, exact),
        "mass_drift": rec.mass_drift,
        "peak_velocity": velocity,
        "peak_velocity_error": abs(velocity - target),
        "step_norm_drift": drift,
        "convergence_ratio": ratio,
        "convergence_ratio_deviation": abs(ratio - 4.0),
    })
    x = grid.axes()[0]
    dens = rec.final.density()
    density = (["x", "density"], [(float(a), float(b)) for a, b in zip(x, dens)])
    return ScenarioResult(scen, rows, {"density": density}, rec.snapshots)


# ---------------------------------------------------------------------------
# ehrenfest


def run_ehrenfest(spec: Ehrenfest) -> ScenarioResult:
    """Track the packet centroid against the classical orbit for each
    requested self-attraction strength; the initial profile is built once
    with the base parameters and held fixed."""
    scen = spec.scenario
    params = spec.params.phys()
    grid = spec.grid.build()
    pot = spec.potential.build(params.mass)
    sp = spec.family.soliton
    dt, t_end = spec.solver.dt, spec.solver.t_end

    psi0 = one_soliton(sp, grid, 0.0, params)
    z0 = PhasePoint(x=(sp.x0,), p=(2.0 * sp.xi,), t=0.0)
    traj = integrate_bicharacteristic(z0, t_end, dt, pot, params.mass)
    ct = traj.times()
    cx = traj.positions()[:, 0]
    cp = traj.momenta()[:, 0]

    result, values = ScenarioResult(scenario=scen), {}
    for idx, r in enumerate(spec.params.r_values or (params.r,)):
        rec = evolve(psi0, spec.solver.config(params.with_r(r), pot))
        ts = np.array(rec.times)
        xs = np.array([mean_position(s)[0] for s in rec.snapshots])
        ps = np.array([mean_momentum(s)[0] for s in rec.snapshots])
        # the orbit walks the propagator's schedule: every snapshot time is a node
        node = np.searchsorted(ct, ts)
        ref_x, ref_p = cx[node], cp[node]
        case = f"r={r:g}"
        values[f"x_deviation[{case}]"] = np.max(np.abs(xs - ref_x))
        values[f"p_deviation[{case}]"] = np.max(np.abs(ps - ref_p))
        if idx == 0:
            result.plotdata["centroid"] = (
                ["t", "mean_x", "mean_p", "classical_x", "classical_p"],
                [tuple(map(float, tup)) for tup in zip(ts, xs, ps, ref_x, ref_p)],
            )
            result.snapshots = rec.snapshots
    result.rows = _rows(scen, values)
    return result


# ---------------------------------------------------------------------------
# residual-scaling


def run_residual_scaling(spec: ResidualScaling) -> ScenarioResult:
    """Relative residual of the leading and the corrected field across the
    hbar sweep, with fitted log-log slopes."""
    scen = spec.scenario
    grid = spec.grid.build()
    hbars = spec.params.hbars
    base = spec.params.phys()
    w = spec.family.class1.fields(base.mass, spec.grid)
    pot = w.potential
    t_eval = spec.family.eval_time

    # no jet entry depends on hbar: one jet serves the whole sweep, and its
    # derivative block is evaluated once, on the first corrected pair
    jet = w.jet(grid.mesh(), t_eval)
    lead, corr = [], []
    for hb in hbars:
        pp = base.with_hbar(hb)
        psi = assemble_leading_term(jet, grid, pp)
        dpsi = leading_term_time_derivative(jet, psi, pp)
        lead.append(relative_residual(
            apply_nlse_operator((psi, dpsi), pot, pp), psi))
        cpsi, cdpsi = corrected_term_with_dt(w, jet, psi, dpsi, pp,
                                             spec.family.correction_c1)
        corr.append(relative_residual(
            apply_nlse_operator((cpsi, cdpsi), pot, pp), cpsi))

    fit_lead = fit_scaling(hbars, lead)
    fit_corr = fit_scaling(hbars, corr)
    rows = _rows(scen, {"leading_slope": fit_lead.slope,
                        "corrected_slope": fit_corr.slope})
    return ScenarioResult(scen, rows, {
        "scaling": _scaling_table(fit_lead, "residual"),
        "scaling_corrected": _scaling_table(fit_corr, "residual")})


# ---------------------------------------------------------------------------
# concentration


def run_concentration(spec: Concentration) -> ScenarioResult:
    """Width decay across the sweep, the variance oracle at hbar = 1, and
    the mass fraction in the shrinking ball."""
    scen = spec.scenario
    grid = spec.grid.build()
    hbars = spec.params.hbars
    base = spec.params.phys()
    sp = spec.family.soliton
    t_eval = spec.family.eval_time

    fields = [one_soliton(sp, grid, t_eval, base.with_hbar(h)) for h in hbars]
    pos = concentration_scaling(fields)
    mom = concentration_scaling(fields, observable="momentum")

    unit = one_soliton(sp, grid, t_eval, base.with_hbar(1.0))
    var = centered_moment(unit, (0,), (2,))
    oracle = (np.pi ** 2 / 12.0) * (1.0 / (2.0 * sp.eta)) ** 2
    frac = mass_within_radius(fields[-1], np.sqrt(hbars[-1]))
    rows = _rows(scen, {"position_width_slope": pos.slope,
                        "momentum_width_slope": mom.slope,
                        "var_x_deviation": abs(var - oracle),
                        "mass_within_sqrt_hbar": frac})
    return ScenarioResult(scen, rows, {"scaling": _scaling_table(pos, "width")})


# ---------------------------------------------------------------------------
# identity-suite


def _identity_families(spec: IdentitySuite, mass: float):
    """(name, fields, grid) for all four shipped families."""
    fam = spec.family
    return (
        ("soliton", SolitonFields(fam.soliton.constants, mass), fam.soliton.grid.build()),
        ("class1", fam.class1.fields(mass, fam.class1.grid), fam.class1.grid.build()),
        ("class2", fam.class2.fields(mass, fam.class2.grid), fam.class2.grid.build()),
        ("cylindrical", CylindricalFields(fam.cylindrical.constants, mass),
         fam.cylindrical.grid.build()),
    )


def _pointwise_maxima(w, grid, t, params):
    """The largest |eikonal residual| and |transport residual| (both
    equations) over the grid for one family at t, under the potential the
    family solves.

    A radial family is sampled once per reflection class, whose maximum is
    the maximum over the even extension of the positive quadrant.  The
    residuals' terms read the direction x/r, so that holds only under a
    reflection-invariant potential, and this is done only under the free
    potential; any other family or potential is sampled on the full mesh."""
    pot = w.potential
    free = isinstance(pot.scalar, ZeroScalar) and isinstance(pot.vector, ZeroVector)
    xs = _reflection_classes(grid)[0] if w.radial and free else grid.mesh()
    jet = w.jet(xs, t)
    arrays = [hj_residual(jet, pot, params), *transport_residuals(jet, pot, params)]
    return tuple(float(np.max(np.abs(v))) for v in arrays)


def run_identity_suite(spec: IdentitySuite) -> ScenarioResult:
    """Pointwise identities: the eikonal residual of each family and the
    transport pair of all four vanish to rounding level."""
    scen = spec.scenario
    params = spec.params.phys()
    maxima = {name: _pointwise_maxima(w, grid, spec.family.eval_time, params)
              for name, w, grid in _identity_families(spec, params.mass)}
    # np.max keeps a NaN wherever it sits; Python's max drops one that is
    # not its first argument, and the row would then pass
    transport_max = np.max([v for m in maxima.values() for v in m[1:]])

    return ScenarioResult(scen, _rows(scen, {
        "transport_max": transport_max,
        **{f"hj_{name}_max": m[0] for name, m in maxima.items()},
    }))


# ---------------------------------------------------------------------------
# cylindrical-check


def run_cylindrical_check(spec: CylindricalCheck) -> ScenarioResult:
    """Residual decay of the radial special solution across the sweep, on
    the offset grid.  The ring solves the free equation.

    Its rows are a yes/no flag (the residual falls at every step) and the
    fitted slope, reported without a bound: the shipped ring sits on the
    axis, so the slope follows the grid.  A row that checks the ring's
    residual coefficient has yet to join them.

    The state is sampled once per reflection class of the grid, so it is
    even in x and in y and symmetric under x <-> y, and the residual is
    evaluated on the positive quadrant alone, its kinetic term through a
    cosine-transform pair along one axis plus that term's transpose."""
    scen = spec.scenario
    grid = spec.grid.build()
    hbars = spec.params.hbars
    base = spec.params.phys()
    w = CylindricalFields(spec.family.cylindrical, base.mass)
    xs, gather = _reflection_classes(grid)
    # no jet entry depends on hbar: one jet serves the whole sweep, as in
    # residual-scaling; the tables and quadrant arrays of one hbar are
    # dropped before the next hbar's are built
    jet = w.jet(xs, spec.family.eval_time)
    residuals = []
    for hb in hbars:
        params = base.with_hbar(hb)
        residuals.append(_quadrant_relative_residual(_class_tables(jet, params), gather,
                                                     grid, params))
    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))
    fit = fit_scaling(hbars, residuals)
    rows = _rows(scen, {"residual_monotone": float(monotone),
                        "residual_slope": fit.slope})
    return ScenarioResult(scen, rows, {"scaling": _scaling_table(fit, "residual")})


# ---------------------------------------------------------------------------
# registry


_RUNNERS = {
    SolitonPropagation: run_soliton_propagation,
    Ehrenfest: run_ehrenfest,
    ResidualScaling: run_residual_scaling,
    Concentration: run_concentration,
    IdentitySuite: run_identity_suite,
    CylindricalCheck: run_cylindrical_check,
}


def run_spec(spec) -> ScenarioResult:
    """Run the scenario of a parsed configuration, an instance of its
    SCHEMAS class."""
    return _RUNNERS[type(spec)](spec)


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Parse the configuration, then run the scenario it names."""
    return run_spec(parse_config(cfg))

"""Named reproduction scenarios and their report rows.

Each scenario is a pure function from its typed configuration (the
scenario's schema in config.py) to a ScenarioResult: a list of metric rows
plus plot tables and optional field snapshots.  Writing files is emit()'s
job, so identical configurations give identical results objects and,
through emit, identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..asymptotics import (
    CorrectionParams,
    assemble_leading_term,
    corrected_term_with_dt,
    cylindrical_fields,
    first_integral_residual,
    hj_residual,
    leading_term_time_derivative,
    one_soliton,
    psi_via_representation,
    soliton_correction_fields,
    transport_residuals,
)
from ..classical import PhasePoint, integrate_bicharacteristic
from ..core import ComplexField, free_potential, norm_squared
from ..moments import concentration_scaling, fit_scaling, mass_within_radius, \
    mean_momentum, mean_position, centered_moment
from ..solver import SolverConfig, apply_nlse_operator, evolve, relative_residual, \
    split_step
from .config import (
    SCHEMAS,
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


def _below(scenario, case, metric, value, tol) -> ReportRow:
    return ReportRow(scenario, case, metric, float(value), float(tol),
                     bool(value < tol))


def _at_least(scenario, case, metric, value, bound) -> ReportRow:
    return ReportRow(scenario, case, metric, float(value), float(bound),
                     bool(value >= bound))


def _report(scenario, case, metric, value) -> ReportRow:
    return ReportRow(scenario, case, metric, float(value), None, True)


def _peak_position(fld: ComplexField) -> float:
    """Sub-cell peak location of |psi|^2 by parabolic refinement."""
    dens = fld.density()
    j = int(np.argmax(dens))
    n = len(dens)
    jm, jp = (j - 1) % n, (j + 1) % n
    h = fld.grid.spacing[0]
    denom = dens[jm] - 2.0 * dens[j] + dens[jp]
    shift = 0.0 if denom == 0.0 else 0.5 * h * (dens[jm] - dens[jp]) / denom
    return float(fld.grid.axes()[0][j] + shift)


def _l2_relative(a: ComplexField, b: ComplexField) -> float:
    diff = a.with_values(a.values - b.values)
    return float(np.sqrt(norm_squared(diff) / norm_squared(b)))


# ---------------------------------------------------------------------------
# soliton-propagation


def run_soliton_propagation(spec: SolitonPropagation) -> ScenarioResult:
    """Propagate the closed-form solitary wave and compare against itself:
    terminal error, mass drift, fitted peak velocity, one-step norm
    preservation, and a dt-halving order check."""
    scen = spec.scenario
    params = spec.params.phys()
    grid = spec.grid.build()
    pot = spec.potential.build(params.mass)
    sp = spec.family.soliton
    config = spec.solver.config(params, pot)

    psi0 = one_soliton(sp, grid, 0.0, params)
    rec = evolve(psi0, config)
    exact = one_soliton(sp, grid, config.t_end, params)

    result = ScenarioResult(scenario=scen, snapshots=rec.snapshots)
    result.rows.append(_below(scen, "propagation", "l2_error",
                              _l2_relative(rec.final, exact), 1e-4))
    result.rows.append(_below(scen, "propagation", "mass_drift",
                              rec.mass_drift, 1e-10))

    times = np.array(rec.times)
    peaks = np.array([_peak_position(s) for s in rec.snapshots])
    velocity = float(np.polyfit(times, peaks, 1)[0])
    target = 2.0 * sp.xi / params.mass
    result.rows.append(_report(scen, "propagation", "peak_velocity", velocity))
    result.rows.append(_below(scen, "propagation", "peak_velocity_error",
                              abs(velocity - target), 1e-3))

    stepped = split_step(psi0, config.dt, config)
    drift = abs(norm_squared(stepped) - norm_squared(psi0)) / norm_squared(psi0)
    result.rows.append(_below(scen, "propagation", "step_norm_drift", drift, 1e-12))

    conv_t = spec.convergence.t_end

    def terminal(dt):
        c = SolverConfig(dt=dt, t_end=conv_t, snapshot_every=10 ** 9,
                         params=params, pot=pot)
        return evolve(psi0, c).final.values

    ref = terminal(config.dt / 8.0)
    e_coarse = float(np.max(np.abs(terminal(config.dt) - ref)))
    e_fine = float(np.max(np.abs(terminal(config.dt / 2.0) - ref)))
    ratio = e_coarse / e_fine
    result.rows.append(_report(scen, "convergence", "convergence_ratio", ratio))
    result.rows.append(_below(scen, "convergence", "convergence_ratio_deviation",
                              abs(ratio - 4.0), 0.8))

    x = grid.axes()[0]
    dens = rec.final.density()
    result.plotdata["density"] = (
        ["x", "density"], [(float(a), float(b)) for a, b in zip(x, dens)]
    )
    return result


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
    traj = integrate_bicharacteristic(z0, t_end + dt, dt, pot, params.mass)
    ct = traj.times()
    cx = traj.positions()[:, 0]
    cp = traj.momenta()[:, 0]

    result = ScenarioResult(scenario=scen)
    for idx, r in enumerate(spec.params.r_values or (params.r,)):
        rec = evolve(psi0, spec.solver.config(params.with_r(r), pot))
        ts = np.array(rec.times)
        xs = np.array([mean_position(s)[0] for s in rec.snapshots])
        ps = np.array([mean_momentum(s)[0] for s in rec.snapshots])
        ref_x = np.interp(ts, ct, cx)
        ref_p = np.interp(ts, ct, cp)
        case = f"r={r:g}"
        result.rows.append(_below(scen, case, f"x_deviation[{case}]",
                                  np.max(np.abs(xs - ref_x)), 5e-3))
        result.rows.append(_below(scen, case, f"p_deviation[{case}]",
                                  np.max(np.abs(ps - ref_p)), 5e-3))
        if idx == 0:
            result.plotdata["centroid"] = (
                ["t", "mean_x", "mean_p", "classical_x", "classical_p"],
                [tuple(map(float, tup)) for tup in zip(ts, xs, ps, ref_x, ref_p)],
            )
            result.snapshots = rec.snapshots
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
    w, pot = spec.family.fields(base)
    t_eval = spec.family.eval_time
    cp = CorrectionParams(C1=spec.family.correction_c1)

    lead, corr = [], []
    for hb in hbars:
        pp = base.with_hbar(hb)
        psi = assemble_leading_term(w, grid, t_eval, pp)
        dpsi = leading_term_time_derivative(w, grid, t_eval, pp)
        lead.append(relative_residual(
            apply_nlse_operator((psi, dpsi), pot, pp), psi))
        cpsi, cdpsi = corrected_term_with_dt(w, cp, grid, t_eval, pot, pp)
        corr.append(relative_residual(
            apply_nlse_operator((cpsi, cdpsi), pot, pp), cpsi))

    fit_lead = fit_scaling(hbars, lead)
    fit_corr = fit_scaling(hbars, corr)
    result = ScenarioResult(scenario=scen)
    result.rows.append(_at_least(scen, "leading", "leading_slope",
                                 fit_lead.slope, 0.9))
    result.rows.append(_at_least(scen, "corrected", "corrected_slope",
                                 fit_corr.slope, 1.8))
    for name, fit, vals in (("scaling", fit_lead, lead),
                            ("scaling_corrected", fit_corr, corr)):
        fitted = [float(np.exp(fit.intercept + fit.slope * np.log(h))) for h in hbars]
        result.plotdata[name] = (
            ["hbar", "residual", "fitted"],
            list(zip(map(float, hbars), map(float, vals), fitted)),
        )
    return result


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

    result = ScenarioResult(scenario=scen)
    result.rows.append(ReportRow(scen, "position", "position_width_slope",
                                 float(pos.slope), 0.02,
                                 bool(abs(pos.slope - 1.0) <= 0.02)))
    result.rows.append(_report(scen, "momentum", "momentum_width_slope",
                               mom.slope))

    unit = one_soliton(sp, grid, t_eval, base.with_hbar(1.0))
    var = centered_moment(unit, (0,), (2,))
    oracle = (np.pi ** 2 / 12.0) * (1.0 / (2.0 * sp.eta)) ** 2
    result.rows.append(_below(scen, "variance", "var_x_deviation",
                              abs(var - oracle), 1e-6))

    smallest = fields[-1]
    frac = mass_within_radius(smallest, np.sqrt(hbars[-1]))
    result.rows.append(_at_least(scen, "mass", "mass_within_sqrt_hbar",
                                 frac, 0.99))

    widths = [float(v) for v in pos.values]
    fitted = [float(np.exp(pos.intercept + pos.slope * np.log(h))) for h in hbars]
    result.plotdata["scaling"] = (
        ["hbar", "width", "fitted"],
        list(zip(map(float, hbars), widths, fitted)),
    )
    return result


# ---------------------------------------------------------------------------
# identity-suite


def _identity_families(spec: IdentitySuite, params):
    """(name, fields, grid, potential) for all four shipped families."""
    fam = spec.family
    sgrid, grid1, grid2, cgrid = fam.grids()
    return (
        ("soliton", soliton_correction_fields(fam.soliton.constants, params), sgrid,
         free_potential()),
        ("class1", fam.class1.fields(params), grid1, fam.class1.potential()),
        ("class2", fam.class2.fields(params), grid2, fam.class2.potential()),
        ("cylindrical", cylindrical_fields(fam.cylindrical.constants, params), cgrid,
         free_potential()),
    )


def _reduced_transport(w, xs, t, params):
    """The one-dimensional reduced transport pair, written directly in
    terms of x-derivatives, for comparison with the general form."""
    m = params.mass
    S_x = w.grad_S(xs, t)[0]
    S_xx = w.lap_S(xs, t)
    sig_x = w.grad_sigma(xs, t)[0]
    sig_xx = w.lap_sigma(xs, t)
    sig_xt = w.dt_grad_sigma_sq(xs, t) / (2.0 * sig_x)
    S1_x = w.grad_S1(xs, t)[0]
    sig1_x = w.grad_sigma1(xs, t)[0]
    red_a = w.dt_S1(xs, t) + S_x * S1_x / m - sig_x * sig1_x / m \
        + 1.5 * sig_xx / m
    red_b = w.dt_sigma1(xs, t) + S_x * sig1_x / m + sig_x * S1_x / m \
        - 0.5 * (S_xx / m + 2.0 * sig_xt / sig_x
                 + 2.0 * S_x * sig_xx / (m * sig_x))
    return red_a, red_b


def run_identity_suite(spec: IdentitySuite) -> ScenarioResult:
    """Pointwise identities: both assembly routes agree, the general
    transport pair matches its 1D reduction, the envelope first integral
    vanishes, and the eikonal residual is at rounding level."""
    scen = spec.scenario
    params = spec.params.phys()
    t_eval = spec.family.eval_time
    families = _identity_families(spec, params)

    repr_max = 0.0
    reduction_max = 0.0
    integral_max = 0.0
    hj_vals = {}
    for name, w, grid, pot in families:
        a = assemble_leading_term(w, grid, t_eval, params)
        b = psi_via_representation(w, grid, t_eval, params)
        repr_max = max(repr_max, float(np.max(np.abs(a.values - b.values))))
        integral_max = max(integral_max, float(np.max(np.abs(
            first_integral_residual(w, grid, t_eval, params)))))
        hj_vals[name] = float(np.max(np.abs(
            hj_residual(w, grid, t_eval, pot, params))))
        if grid.dim == 1:
            eq_a, eq_b = transport_residuals(w, grid, t_eval, pot, params)
            red_a, red_b = _reduced_transport(w, grid.mesh(), t_eval, params)
            reduction_max = max(
                reduction_max,
                float(np.max(np.abs(eq_a - red_a))),
                float(np.max(np.abs(eq_b - red_b))),
            )

    result = ScenarioResult(scenario=scen)
    result.rows.append(_below(scen, "assembly", "representation_identity_max",
                              repr_max, 1e-12))
    result.rows.append(_below(scen, "transport", "transport_reduction_max",
                              reduction_max, 1e-10))
    result.rows.append(_below(scen, "envelope", "first_integral_max",
                              integral_max, 1e-10))
    result.rows.append(_below(scen, "eikonal", "hj_soliton_max",
                              hj_vals["soliton"], 1e-12))
    result.rows.append(_below(scen, "eikonal", "hj_class1_max",
                              hj_vals["class1"], 1e-8))
    result.rows.append(_report(scen, "eikonal", "hj_class2_max",
                               hj_vals["class2"]))
    result.rows.append(_report(scen, "eikonal", "hj_cylindrical_max",
                               hj_vals["cylindrical"]))
    return result


# ---------------------------------------------------------------------------
# cylindrical-check


def run_cylindrical_check(spec: CylindricalCheck) -> ScenarioResult:
    """Residual decay of the radial special solution across the sweep and
    exact reflection symmetry of its modulus on the offset grid."""
    scen = spec.scenario
    grid = spec.grid.build()
    hbars = spec.params.hbars
    base = spec.params.phys()
    cpar = spec.family.cylindrical
    t_eval = spec.family.eval_time
    pot = spec.potential.build(base.mass)

    residuals = []
    sym_max = 0.0
    for hb in hbars:
        pp = base.with_hbar(hb)
        w = cylindrical_fields(cpar, pp)
        psi = assemble_leading_term(w, grid, t_eval, pp)
        dpsi = leading_term_time_derivative(w, grid, t_eval, pp)
        residuals.append(relative_residual(
            apply_nlse_operator((psi, dpsi), pot, pp), psi))
        mod = np.abs(psi.values)
        sym_max = max(
            sym_max,
            float(np.max(np.abs(mod - mod[::-1, :]))),
            float(np.max(np.abs(mod - mod[:, ::-1]))),
            float(np.max(np.abs(mod - mod.T))),
        )

    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))
    fit = fit_scaling(hbars, residuals)
    result = ScenarioResult(scenario=scen)
    result.rows.append(ReportRow(scen, "residual", "residual_monotone",
                                 1.0 if monotone else 0.0, None, monotone))
    result.rows.append(_report(scen, "residual", "residual_slope", fit.slope))
    result.rows.append(_below(scen, "symmetry", "radial_symmetry_max",
                              sym_max, 1e-14))
    fitted = [float(np.exp(fit.intercept + fit.slope * np.log(h))) for h in hbars]
    result.plotdata["scaling"] = (
        ["hbar", "residual", "fitted"],
        list(zip(map(float, hbars), map(float, residuals), fitted)),
    )
    return result


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

# scenario name -> (runner, one-line description from the schema)
SCENARIOS = {name: (_RUNNERS[schema], " ".join(schema.__doc__.split()))
             for name, schema in SCHEMAS.items()}


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Parse the configuration, then run the scenario it names."""
    spec = parse_config(cfg)
    return _RUNNERS[type(spec)](spec)

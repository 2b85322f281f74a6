"""Named reproduction scenarios and their report rows.

Each scenario is a pure function from its typed configuration (the
scenario's schema in config.py) to a ScenarioResult: a list of metric rows
plus plot tables and optional field snapshots.  Writing files is emit()'s
job, so identical configurations give identical results objects and,
through emit, identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
from ..asymptotics.fields import _leading_values, _representation_values, \
    _time_derivative_values
from ..asymptotics.residuals import _eikonal
from ..classical import PhasePoint, integrate_bicharacteristic
from ..core import ComplexField, ZeroScalar, ZeroVector, _reflection_classes, \
    _sample_potential, free_potential, norm_squared
from ..moments import ScalingReport, concentration_scaling, fit_scaling, \
    mass_within_radius, mean_momentum, mean_position, centered_moment
from ..solver import SolverConfig, _quadrant_relative_residual, apply_nlse_operator, \
    evolve, relative_residual
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


def _scaling_table(fit: ScalingReport, value: str) -> tuple[list[str], list[tuple]]:
    """Plot table of a fitted sweep: hbar, the measured value, and the fit."""
    return ["hbar", value, "fitted"], [
        (h, v, float(np.exp(fit.intercept + fit.slope * np.log(h))))
        for h, v in zip(fit.hbars, fit.values)]


def _leading_pair(w, grid, t, params) -> tuple[ComplexField, ComplexField]:
    """The leading-order state and its time derivative from one jet.

    The jet is sampled on the open mesh (one broadcast axis per dimension),
    which gives the same entries as the full mesh because each is
    elementwise in the coordinates.  It is dropped on return, so it is not
    held while the operator residual allocates its own arrays."""
    jet = w.jet(np.ix_(*grid.axes()), t)
    psi = assemble_leading_term(jet, grid, t, params)
    return psi, leading_term_time_derivative(jet, psi, params)


def _class_tables(w, t, params, xs) -> tuple[np.ndarray, np.ndarray]:
    """The leading-order state and its time derivative at the reflection
    class representatives xs, one value per class."""
    jet = w.jet(xs, t)
    table = _leading_values(jet, xs[0].shape, params)
    return table, _time_derivative_values(jet, table, params)


# ---------------------------------------------------------------------------
# soliton-propagation


def run_soliton_propagation(spec: SolitonPropagation) -> ScenarioResult:
    """Propagate the closed-form solitary wave and compare against itself:
    terminal error, mass drift, fitted peak velocity, one-step norm
    preservation, and a dt-halving order check."""
    scen = spec.scenario
    params = spec.params.phys()
    grid = spec.grid.build()
    pot = free_potential()
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
    # reported only: the peak_velocity_error row below gates it
    result.rows.append(_report(scen, "propagation", "peak_velocity", velocity))
    result.rows.append(_below(scen, "propagation", "peak_velocity_error",
                              abs(velocity - target), 1e-3))

    stepped = evolve(psi0, replace(config, t_end=psi0.time + config.dt)).final
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
    # reported only: the convergence_ratio_deviation row below gates it
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

    # no jet entry depends on hbar: one jet serves the whole sweep, and its
    # derivative block is evaluated once, on the first corrected pair
    jet = w.jet(grid.mesh(), t_eval)
    lead, corr = [], []
    for hb in hbars:
        pp = base.with_hbar(hb)
        psi = assemble_leading_term(jet, grid, t_eval, pp)
        dpsi = leading_term_time_derivative(jet, psi, pp)
        lead.append(relative_residual(
            apply_nlse_operator((psi, dpsi), pot, pp), psi))
        cpsi, cdpsi = corrected_term_with_dt(w, jet, psi, dpsi, cp, pot, pp)
        corr.append(relative_residual(
            apply_nlse_operator((cpsi, cdpsi), pot, pp), cpsi))

    fit_lead = fit_scaling(hbars, lead)
    fit_corr = fit_scaling(hbars, corr)
    result = ScenarioResult(scenario=scen)
    result.rows.append(_at_least(scen, "leading", "leading_slope",
                                 fit_lead.slope, 0.9))
    result.rows.append(_at_least(scen, "corrected", "corrected_slope",
                                 fit_corr.slope, 1.8))
    result.plotdata["scaling"] = _scaling_table(fit_lead, "residual")
    result.plotdata["scaling_corrected"] = _scaling_table(fit_corr, "residual")
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
    # exactly 0 in theory; measured at most 1.1e-15 over construct-sweep
    # seeds 1-20 at the shipped and refined grids, gated 9x above that
    result.rows.append(ReportRow(scen, "momentum", "momentum_width_slope",
                                 float(mom.slope), 1e-14,
                                 bool(abs(mom.slope) < 1e-14)))

    unit = one_soliton(sp, grid, t_eval, base.with_hbar(1.0))
    var = centered_moment(unit, (0,), (2,))
    oracle = (np.pi ** 2 / 12.0) * (1.0 / (2.0 * sp.eta)) ** 2
    result.rows.append(_below(scen, "variance", "var_x_deviation",
                              abs(var - oracle), 1e-6))

    smallest = fields[-1]
    frac = mass_within_radius(smallest, np.sqrt(hbars[-1]))
    result.rows.append(_at_least(scen, "mass", "mass_within_sqrt_hbar",
                                 frac, 0.99))

    result.plotdata["scaling"] = _scaling_table(pos, "width")
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


def _reduced_transport(jet, params):
    """The one-dimensional reduced transport pair, written directly in
    terms of x-derivatives, for comparison with the general form."""
    m = params.mass
    S_x, sig_x = jet.dS[0], jet.dsigma[0]
    S1_x, sig1_x = jet.dS1[0], jet.dsigma1[0]
    S_xx, sig_xx = jet.lap_S, jet.lap_sigma
    sig_xt = jet.g_t / (2.0 * sig_x)
    red_a = jet.S1_t + S_x * S1_x / m - sig_x * sig1_x / m \
        + 1.5 * sig_xx / m
    red_b = jet.sigma1_t + S_x * sig1_x / m + sig_x * S1_x / m \
        - 0.5 * (S_xx / m + 2.0 * sig_xt / sig_x
                 + 2.0 * S_x * sig_xx / (m * sig_x))
    return red_a, red_b


def _is_free(pot) -> bool:
    return isinstance(pot.scalar, ZeroScalar) and isinstance(pot.vector, ZeroVector)


def _pointwise_maxima(w, grid, t, pot, params):
    """The jet of one family at (grid, t), and the largest |a - b| between
    the two assembly routes, |first integral residual| and |eikonal
    residual| over the grid.

    A maximum over the reflection classes is the maximum over the grid.
    For the eikonal residual, whose terms read the direction x/r, that
    holds only under a reflection-invariant potential, so a radial family
    is sampled once per class only under the free potential."""
    classes = _reflection_classes(grid) if w.radial and _is_free(pot) else None
    if classes is None:
        jet = w.jet(grid.mesh(), t)
        a = assemble_leading_term(jet, grid, t, params).values
        b = psi_via_representation(jet, grid, t, params).values
        hj = hj_residual(jet, grid, t, pot, params)
    else:
        xs = classes[0]
        jet = w.jet(xs, t)
        a = _leading_values(jet, xs[0].shape, params)
        b = _representation_values(jet, xs[0].shape, params)
        hj = _eikonal(jet, *_sample_potential(pot, xs, t), params)
    return (jet, float(np.max(np.abs(a - b))),
            float(np.max(np.abs(first_integral_residual(jet, params)))),
            float(np.max(np.abs(hj))))


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
        jet, rep, integral, hj_vals[name] = _pointwise_maxima(w, grid, t_eval, pot, params)
        repr_max = max(repr_max, rep)
        integral_max = max(integral_max, integral)
        if grid.dim == 1:
            eq_a, eq_b = transport_residuals(jet, grid, t_eval, pot, params)
            red_a, red_b = _reduced_transport(jet, params)
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
    # measured at most 4.4e-16 (class 1, c1 in [0.45, 0.55] at n = 1024,
    # 4096 and 16384), 4.7e-15 (class 2) and 3.3e-16 (cylindrical) over 20
    # seeded parameter sets, at the shipped and at refined grids
    result.rows.append(_below(scen, "eikonal", "hj_class1_max",
                              hj_vals["class1"], 1e-12))
    result.rows.append(_below(scen, "eikonal", "hj_class2_max",
                              hj_vals["class2"], 1e-12))
    result.rows.append(_below(scen, "eikonal", "hj_cylindrical_max",
                              hj_vals["cylindrical"], 1e-12))
    return result


# ---------------------------------------------------------------------------
# cylindrical-check


def _quadrant_residual(w, grid, t, params, classes) -> tuple[float, float]:
    """The relative residual of a radial family's leading pair under the
    free potential, and the largest |psi| asymmetry under x <-> y, from the
    positive quadrant alone: the class tables are gathered there and not
    mirrored to the grid."""
    xs, gather = classes
    psi, dpsi = map(gather, _class_tables(w, t, params, xs))
    mod = np.abs(psi)
    return (_quadrant_relative_residual(psi, dpsi, grid, params),
            float(np.max(np.abs(mod - mod.T))))


def run_cylindrical_check(spec: CylindricalCheck) -> ScenarioResult:
    """Residual decay of the radial special solution across the sweep and
    exact reflection symmetry of its modulus on the offset grid.  The ring
    solves the free equation.

    On a grid with exact mirror axes the state is even in x and in y, so
    the residual is evaluated on the positive quadrant alone, its kinetic
    term through a cosine-transform pair.  A grid whose axes are mirror
    images only to rounding has no classes and keeps the full mesh."""
    scen = spec.scenario
    grid = spec.grid.build()
    hbars = spec.params.hbars
    base = spec.params.phys()
    cpar = spec.family.cylindrical
    t_eval = spec.family.eval_time
    w = cylindrical_fields(cpar, base)
    classes = _reflection_classes(grid)

    def residual_and_asymmetry(hb):
        # the fields of one hbar are dropped on return, before the next
        # hbar's jet is built
        pp = base.with_hbar(hb)
        if classes is not None:
            return _quadrant_residual(w, grid, t_eval, pp, classes)
        psi, dpsi = _leading_pair(w, grid, t_eval, pp)
        residual = relative_residual(
            apply_nlse_operator((psi, dpsi), free_potential(), pp), psi)
        mod = np.abs(psi.values)
        return residual, max(
            float(np.max(np.abs(mod - mod[::-1, :]))),
            float(np.max(np.abs(mod - mod[:, ::-1]))),
            float(np.max(np.abs(mod - mod.T))),
        )

    residuals, asymmetries = zip(*map(residual_and_asymmetry, hbars))
    sym_max = max(0.0, *asymmetries)
    monotone = all(a > b for a, b in zip(residuals, residuals[1:]))
    fit = fit_scaling(hbars, residuals)
    result = ScenarioResult(scenario=scen)
    # a yes/no row: it passes when the residual falls strictly at every
    # step of the sweep.  How fast it falls is residual_slope's job, so
    # there is no size for a numeric tolerance to bound
    result.rows.append(ReportRow(scen, "residual", "residual_monotone",
                                 1.0 if monotone else 0.0, None, monotone))
    result.rows.append(_report(scen, "residual", "residual_slope", fit.slope))
    # exactly 0 by construction, not an independent check: |psi| is a
    # function of x*x + y*y, which is bit-symmetric on the mirror grid.  On
    # the full mesh the row compares |psi| with its two reflections and its
    # transpose.  On the quadrant path the reflections are the
    # representation itself, so the row compares what remains: |psi| on
    # the quadrant with its transpose (the x <-> y swap), which the one
    # value per class also makes exact
    result.rows.append(_below(scen, "symmetry", "radial_symmetry_max",
                              sym_max, 1e-14))
    result.plotdata["scaling"] = _scaling_table(fit, "residual")
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

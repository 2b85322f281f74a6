"""End-to-end acceptance checklist, one printed line per criterion.

Every criterion runs through the packaged scenario configurations, exactly
as `semiwave run <scenario>` would, and asserts that the rows it reads
pass.  Each row's bound is its entry in `harness.scenarios.GATES`, and
the printed lines show the tolerance each row carries.  Run with -s to
see the per-criterion lines.

What each criterion reads:
  * A1: free transport of the closed-form solitary wave: relative terminal
    error, relative mass drift, fitted peak velocity against
    2 xi / m = 0.5, wall time under 30 s.
  * A2: centroid against the classical harmonic orbit in both position
    and momentum, for attraction strengths 0.5, 0, and 1 with the initial
    profile held fixed.
  * A3/A4: log-log residual slopes of the leading term (a symmetric
    profile gives about 2) and of the corrected term, sweep hbar in
    {0.2, 0.1, 0.05, 0.025}, under 10 s.
  * A5: position width slope against 1 over hbar in {0.4, 0.2, 0.1,
    0.05}; Var(x) at hbar = 1 against pi^2/12 = 0.8224670334...; mass
    within sqrt(hbar) of the center at hbar = 0.05.
  * A6: the transport residuals and the eikonal residual of all four
    families.
  * A7: radial-family residual strictly decreasing over hbar in
    {0.2, 0.1, 0.05}, with the slope reported.
  * A8: dt-halving ratio of successive differences (runs at dt, dt/2 and
    dt/4) against 4 on the free-transport setup, and per-step relative
    norm drift.
"""

import functools
import time

from semiwave.harness import SCENARIO_NAMES, ExperimentConfig, default_config_path, \
    run_scenario
from semiwave.harness.scenarios import GATES, PASSES, gate_of


@functools.cache
def _run(name):
    """The packaged scenario, run once per session and timed."""
    t0 = time.monotonic()
    res = run_scenario(ExperimentConfig.from_file(default_config_path(name)))
    return res, time.monotonic() - t0


def _line(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


def test_a1_free_soliton_transport():
    """The propagator carries the exact travelling profile across the box:
    terminal shape error, mass conservation, and ballistic peak motion."""
    res, wall = _run("soliton-propagation")
    err = res.row("l2_error")
    drift = res.row("mass_drift")
    vel = res.row("peak_velocity")
    vel_err = res.row("peak_velocity_error")
    ok = err.passed and drift.passed and vel_err.passed and wall < 30.0
    assert _line(
        "A1", ok,
        f"terminal error {err.value:.3e} < {err.tolerance:g}, "
        f"mass drift {drift.value:.3e} < {drift.tolerance:g}, "
        f"peak velocity {vel.value:.6f} (error {vel_err.value:.3e} < "
        f"{vel_err.tolerance:g}), {wall:.1f}s < 30s",
    )


def test_a2_centroid_follows_classical_orbit():
    """In a quadratic well the centroid obeys the classical equations for
    any attraction strength, with the initial profile held fixed."""
    res, _ = _run("ehrenfest")
    worst_x = max((r for r in res.rows if r.metric.startswith("x_deviation")),
                  key=lambda r: r.value)
    worst_p = max((r for r in res.rows if r.metric.startswith("p_deviation")),
                  key=lambda r: r.value)
    ok = res.all_passed() and len(res.rows) == 6
    assert _line(
        "A2", ok,
        f"max |<x> - x_cl| {worst_x.value:.3e} < {worst_x.tolerance:g}, "
        f"max |<p> - p_cl| {worst_p.value:.3e} < {worst_p.tolerance:g}, "
        f"strengths 0.5 / 0 / 1",
    )


def test_a3_leading_term_residual_scaling():
    """The leading term solves the equation up to a small defect; for the
    symmetric standing profile its relative residual decays with a fitted
    slope near 2."""
    res, wall = _run("residual-scaling")
    row = res.row("leading_slope")
    ok = row.passed and wall < 10.0
    assert _line(
        "A3", ok,
        f"leading residual slope {row.value:.5f} within 2 +- {row.tolerance:g}, "
        f"{wall:.1f}s < 10s",
    )


def test_a4_corrected_term_residual_scaling():
    """Adding the first correction removes the O(hbar) defect, pushing the
    slope toward 2."""
    res, _ = _run("residual-scaling")
    row = res.row("corrected_slope")
    assert _line(
        "A4", row.passed,
        f"corrected residual slope {row.value:.3f} >= {row.tolerance:g}",
    )


def test_a5_semiclassical_concentration():
    """The solitary profile concentrates like hbar in position while its
    momentum spread stays fixed, and its mass piles into a shrinking ball."""
    res, _ = _run("concentration")
    slope = res.row("position_width_slope")
    var = res.row("var_x_deviation")
    mass = res.row("mass_within_sqrt_hbar")
    ok = slope.passed and var.passed and mass.passed
    assert _line(
        "A5", ok,
        f"position width slope {slope.value:.4f} within 1 +- {slope.tolerance:g}, "
        f"Var(x) deviation at hbar=1 {var.value:.2e} < {var.tolerance:g}, "
        f"mass within sqrt(hbar) {mass.value:.5f} >= {mass.tolerance:g}",
    )


def test_a6_pointwise_identity_suite():
    """The transport pair and the eikonal residual vanish to the stated
    precision on all four shipped families."""
    res, _ = _run("identity-suite")
    tr = res.row("transport_max")
    hj = [res.row(f"hj_{name}_max") for name in ("soliton", "class1", "class2",
                                                 "cylindrical")]
    ok = tr.passed and all(r.passed for r in hj)
    assert _line(
        "A6", ok,
        f"transport {tr.value:.2e} < {tr.tolerance:g}, eikonal at most "
        f"{max(r.value for r in hj):.2e} < {hj[0].tolerance:g} (four families)",
    )


def test_a7_radial_family_check():
    """The radial family has a genuine O(hbar) defect, so its residual
    falls monotonically along the sweep."""
    res, _ = _run("cylindrical-check")
    mono = res.row("residual_monotone")
    slope = res.row("residual_slope")
    assert _line(
        "A7", mono.passed,
        f"residual strictly decreasing over the sweep (slope {slope.value:.3f})",
    )


def test_a8_time_step_convergence():
    """Halving dt divides the difference between successive terminal
    states by about four (order two), and every split factor is unitary so
    a single step preserves mass."""
    res, _ = _run("soliton-propagation")
    ratio = res.row("convergence_ratio")
    dev = res.row("convergence_ratio_deviation")
    norm = res.row("step_norm_drift")
    ok = dev.passed and norm.passed
    assert _line(
        "A8", ok,
        f"dt-halving difference ratio {ratio.value:.5f} within 4.0 +- {dev.tolerance:g}, "
        f"one-step norm drift {norm.value:.2e} < {norm.tolerance:g}",
    )


def test_rows_and_gates_match_one_to_one():
    """The six packaged runs emit a row for every GATES entry and none
    without one; each row carries its entry's case and bound, and every
    entry without a bound says why."""
    rows = [r for name in SCENARIO_NAMES for r in _run(name)[0].rows]
    assert {(r.scenario, r.metric.partition("[")[0]) for r in rows} == set(GATES)
    for r in rows:
        gate = gate_of(r.scenario, r.metric)
        assert r.tolerance == gate.bound
        assert r.case == (gate.case or r.metric.partition("[")[2][:-1])
    for g in GATES.values():
        assert g.kind in PASSES
        assert (g.bound is None) == (g.kind in ("flag", "reported"))
        assert g.reason or g.bound is not None

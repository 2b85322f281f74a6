"""End-to-end acceptance checklist, one printed line per criterion.

Every criterion runs through the packaged scenario configurations, exactly
as `semiwave run <scenario>` would, and asserts the stated tolerance.  Run
with -s to see the per-criterion lines.

Oracle values used here:
  * A1: free transport of the closed-form solitary wave, relative terminal
    error < 1e-4, relative mass drift < 1e-10, fitted peak velocity within
    1e-3 of 2 xi / m = 0.5, wall time under 30 s.
  * A2: centroid within 5e-3 of the classical harmonic orbit in both
    position and momentum, for attraction strengths 0.5, 0, and 1 with the
    initial profile held fixed.
  * A3/A4: log-log residual slope of the leading term at least 0.9 (a
    symmetric profile actually gives about 2), of the corrected term at
    least 1.8, sweep hbar in {0.2, 0.1, 0.05, 0.025}, under 10 s.
  * A5: position width slope 1.00 +- 0.02 over hbar in {0.4, 0.2, 0.1,
    0.05}; Var(x) at hbar = 1 equals pi^2/12 = 0.8224670334... within
    1e-6; mass within sqrt(hbar) of the center at least 0.99 at
    hbar = 0.05.
  * A6: assembly-route identity below 1e-12, one-dimensional transport
    reduction below 1e-10, envelope first integral below 1e-10, eikonal
    residual below 1e-12 (closed-form family) and 1e-8 (quadrature-backed
    family).
  * A7: radial-family residual strictly decreasing over hbar in
    {0.2, 0.1, 0.05} with the slope reported, modulus reflection symmetry
    below 1e-14 on the axis-offset grid.
  * A8: dt-halving ratio of successive differences (runs at dt, dt/2 and
    dt/4) 4.0 +- 0.05 on the free-transport setup and per-step relative
    norm drift below 1e-12.
"""

import time

import pytest

from semiwave.harness import ExperimentConfig, default_config_path, run_scenario

def _packaged(name):
    return ExperimentConfig.from_file(default_config_path(name))


def _line(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    return ok


@pytest.fixture(scope="module")
def propagation():
    """Free-transport scenario, run once and timed; feeds A1 and A8."""
    t0 = time.monotonic()
    res = run_scenario(_packaged("soliton-propagation"))
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def scaling():
    """Residual-sweep scenario, run once and timed; feeds A3 and A4."""
    t0 = time.monotonic()
    res = run_scenario(_packaged("residual-scaling"))
    return res, time.monotonic() - t0


def test_a1_free_soliton_transport(propagation):
    """The propagator carries the exact travelling profile across the box:
    terminal shape error, mass conservation, and ballistic peak motion."""
    res, wall = propagation
    err = res.row("l2_error")
    drift = res.row("mass_drift")
    vel = res.row("peak_velocity")
    vel_err = res.row("peak_velocity_error")
    ok = err.passed and drift.passed and vel_err.passed and wall < 30.0
    assert _line(
        "A1", ok,
        f"terminal error {err.value:.3e} < 1e-4, "
        f"mass drift {drift.value:.3e} < 1e-10, "
        f"peak velocity {vel.value:.6f} (error {vel_err.value:.3e} < 1e-3), "
        f"{wall:.1f}s < 30s",
    )


def test_a2_centroid_follows_classical_orbit():
    """In a quadratic well the centroid obeys the classical equations for
    any attraction strength, with the initial profile held fixed."""
    res = run_scenario(_packaged("ehrenfest"))
    worst_x = max(r.value for r in res.rows if r.metric.startswith("x_deviation"))
    worst_p = max(r.value for r in res.rows if r.metric.startswith("p_deviation"))
    ok = res.all_passed() and len(res.rows) == 6
    assert _line(
        "A2", ok,
        f"max |<x> - x_cl| {worst_x:.3e} < 5e-3, "
        f"max |<p> - p_cl| {worst_p:.3e} < 5e-3, strengths 0.5 / 0 / 1",
    )


def test_a3_leading_term_residual_scaling(scaling):
    """The leading term solves the equation up to an O(hbar) defect, so
    its relative residual decays with at least unit slope."""
    res, wall = scaling
    row = res.row("leading_slope")
    ok = row.passed and wall < 10.0
    assert _line(
        "A3", ok,
        f"leading residual slope {row.value:.3f} >= 0.9, {wall:.1f}s < 10s",
    )


def test_a4_corrected_term_residual_scaling(scaling):
    """Adding the first correction removes the O(hbar) defect, pushing the
    slope toward 2."""
    res, _ = scaling
    row = res.row("corrected_slope")
    assert _line(
        "A4", row.passed,
        f"corrected residual slope {row.value:.3f} >= 1.8",
    )


def test_a5_semiclassical_concentration():
    """The solitary profile concentrates like hbar in position while its
    momentum spread stays fixed, and its mass piles into a shrinking ball."""
    res = run_scenario(_packaged("concentration"))
    slope = res.row("position_width_slope")
    var = res.row("var_x_deviation")
    mass = res.row("mass_within_sqrt_hbar")
    ok = slope.passed and var.passed and mass.passed
    assert _line(
        "A5", ok,
        f"position width slope {slope.value:.4f} within 1 +- 0.02, "
        f"Var(x) deviation at hbar=1 {var.value:.2e} < 1e-6, "
        f"mass within sqrt(hbar) {mass.value:.5f} >= 0.99",
    )


def test_a6_pointwise_identity_suite():
    """Both assembly routes, the transport reduction, the envelope first
    integral, and the eikonal residual agree to the stated precision on
    all four shipped families."""
    res = run_scenario(_packaged("identity-suite"))
    rep = res.row("representation_identity_max")
    red = res.row("transport_reduction_max")
    fi = res.row("first_integral_max")
    hj_s = res.row("hj_soliton_max")
    hj_c = res.row("hj_class1_max")
    ok = all(r.passed for r in (rep, red, fi, hj_s, hj_c))
    assert _line(
        "A6", ok,
        f"assembly {rep.value:.2e} < 1e-12, reduction {red.value:.2e} < 1e-10, "
        f"first integral {fi.value:.2e} < 1e-10, eikonal {hj_s.value:.2e} < 1e-12 "
        f"(soliton) and {hj_c.value:.2e} < 1e-12 (class 1)",
    )


def test_a7_radial_family_check():
    """The radial family has a genuine O(hbar) defect, so its residual
    falls monotonically along the sweep; the modulus is exactly symmetric
    under the reflections the offset grid supports."""
    res = run_scenario(_packaged("cylindrical-check"))
    mono = res.row("residual_monotone")
    slope = res.row("residual_slope")
    sym = res.row("radial_symmetry_max")
    ok = mono.passed and sym.passed
    assert _line(
        "A7", ok,
        f"residual strictly decreasing over the sweep (slope {slope.value:.3f}), "
        f"reflection symmetry {sym.value:.2e} < 1e-14",
    )


def test_a8_time_step_convergence(propagation):
    """Halving dt divides the difference between successive terminal
    states by about four (order two), and every split factor is unitary so
    a single step preserves mass."""
    res, _ = propagation
    ratio = res.row("convergence_ratio")
    dev = res.row("convergence_ratio_deviation")
    norm = res.row("step_norm_drift")
    ok = dev.passed and norm.passed
    assert _line(
        "A8", ok,
        f"dt-halving difference ratio {ratio.value:.5f} within 4.0 +- {dev.tolerance:g}, "
        f"one-step norm drift {norm.value:.2e} < 1e-12",
    )

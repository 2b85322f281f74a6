"""Configuration, scenario, emission, and CLI behaviour of the harness.

Oracle values used here:
  * the mass fraction of the solitary profile within sqrt(hbar) of its
    center is tanh(2 eta / sqrt(hbar)); at eta = 0.5, hbar = 0.4 this is
    tanh(1.5811...) = 0.91871..., safely below the 0.99 report floor, so a
    sweep ending at hbar = 0.4 forces exactly one failing row.
  * doubles round-trip through 17 significant decimal digits, so a %.17g
    results file reparses to the bit-identical float.
"""

import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from semiwave import (
    ComplexField,
    PhysParams,
    PotentialSpec,
    WkbFields,
    apply_nlse_operator,
    assemble_leading_term,
    leading_term_time_derivative,
    make_axis_offset_grid,
    make_uniform_grid,
    relative_residual,
)
from semiwave.asymptotics import CylindricalFields, CylindricalParams
from semiwave.classical import PhasePoint, integrate_bicharacteristic
from semiwave.harness import (
    SCENARIO_NAMES,
    ConfigError,
    ExperimentConfig,
    ReportRow,
    ScenarioResult,
    default_config_path,
    emit,
    format_float,
    main,
    run_scenario,
    validate_config,
)
from semiwave.core import HarmonicScalar, _reflection_classes
from semiwave.harness.config import SCHEMAS
from semiwave.harness import cli, config, scenarios
from semiwave.harness.scenarios import GATES, PASSES, _RUNNERS, _class_tables, _rows
from semiwave.solver import _quadrant_relative_residual

def small_propagation_dict():
    """A twentieth of the shipped run on a quarter of its grid."""
    return {
        "scenario": "soliton-propagation",
        "grid": {"lo": -20.0, "hi": 20.0, "n": 256},
        "params": {"hbar": 1.0, "mass": 1.0, "r": 0.5},
        "family": {"soliton": {"eta": 0.5, "xi": 0.25, "x0": -5.0}},
        "solver": {"dt": 1.0e-3, "t_end": 0.5, "snapshot_every": 100},
        "convergence": {"t_end": 0.25},
    }


def failing_concentration_dict():
    return {
        "scenario": "concentration",
        "grid": {"lo": -20.0, "hi": 20.0, "n": 1024},
        "params": {"hbar": [1.6, 0.8, 0.4], "mass": 1.0, "r": 0.5},
        "family": {"soliton": {"eta": 0.5, "xi": 0.0}},
    }


# ---------------------------------------------------------------------------
# configuration and validation


def test_packaged_configs_exist_and_validate():
    """Every scenario ships a default configuration that passes its own
    schema, so `run <name>` works out of the box."""
    for name in SCENARIO_NAMES:
        path = default_config_path(name)
        assert Path(path).is_file()
        cfg = ExperimentConfig.from_file(path)
        assert cfg.scenario == name
        validate_config(cfg)


def test_default_config_path_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown scenario"):
        default_config_path("warp-drive")


def test_unknown_top_level_block_rejected():
    with pytest.raises(ConfigError, match="fancy: unknown top-level block"):
        ExperimentConfig.from_dict({"scenario": "concentration", "fancy": {}})


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario: required"):
        ExperimentConfig.from_dict({"params": {}})


def test_validation_names_field_paths():
    """Schema failures point at the offending key by dotted path, which is
    what makes a long config debuggable from the error alone."""
    cfg = ExperimentConfig.from_dict({
        "scenario": "concentration",
        "grid": {"lo": -20.0, "hi": 20.0, "n": 1000},
        "params": {"hbar": [0.4, 0.2, 0.1], "mass": 1.0, "r": 0.5},
        "family": {"soliton": {"xi": 0.0}},
    })
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    text = str(err.value)
    assert "family.soliton.eta: required" in text
    assert "grid.n" in text


def test_sweep_must_be_strictly_decreasing():
    cfg = ExperimentConfig.from_dict(failing_concentration_dict())
    cfg.params["hbar"] = [0.1, 0.2, 0.05]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        validate_config(cfg)


def test_sweep_and_scalar_scenarios_reject_wrong_shape():
    """Slope scenarios need a list of hbar values; propagation runs need a
    single one.  Mixing them up is caught before any work happens."""
    prop = ExperimentConfig.from_dict(small_propagation_dict())
    prop.params["hbar"] = [0.4, 0.2, 0.1]
    with pytest.raises(ConfigError, match="single value"):
        validate_config(prop)
    conc = ExperimentConfig.from_dict(failing_concentration_dict())
    conc.params["hbar"] = 0.1
    with pytest.raises(ConfigError, match="needs a list"):
        validate_config(conc)


def test_ehrenfest_requires_confining_potential():
    """The zero V is not a form ehrenfest's scalar takes, and a quadratic
    one must confine."""
    cfg = ExperimentConfig.from_file(default_config_path("ehrenfest"))
    cfg.potential["scalar"] = {"form": "zero"}
    with pytest.raises(ConfigError, match=r"potential\.scalar\.form: unknown form 'zero'"):
        validate_config(cfg)
    cfg.potential["scalar"] = {"form": "quadratic", "coefficient": -1.0}
    with pytest.raises(ConfigError, match=r"potential\.scalar: .*confining"):
        validate_config(cfg)


def test_override_values_are_yaml_parsed():
    cfg = ExperimentConfig.from_dict(small_propagation_dict())
    cfg.apply_override("solver.dt=5.0e-4")
    assert cfg.solver["dt"] == 5.0e-4
    cfg.apply_override("params.hbar=[0.4, 0.2, 0.1]")
    assert cfg.params["hbar"] == [0.4, 0.2, 0.1]
    cfg.apply_override("family.soliton.x0=1.5")
    assert cfg.family["soliton"]["x0"] == 1.5
    with pytest.raises(ConfigError, match="unknown top-level block"):
        cfg.apply_override("nope.key=1")
    with pytest.raises(ConfigError, match="path=value"):
        cfg.apply_override("solver.dt")


def test_override_replaces_a_whole_block():
    """A one-key path replaces that block: a mapping replaces it, an empty
    value (None) leaves an empty block as from_dict does, and anything else
    is refused by the block's name."""
    cfg = ExperimentConfig.from_file(default_config_path("cylindrical-check"))
    cfg.apply_override("grid={half_width: 2.0, n: 64}")
    assert cfg.grid == {"half_width": 2.0, "n": 64}
    cfg.apply_override("output=")
    assert cfg.output == {}
    validate_config(cfg)
    with pytest.raises(ConfigError, match=r"^output: must be a mapping$"):
        cfg.apply_override("output=3")
    assert cfg.output == {}


# Each row is a key the scenario cannot use: missing, mistyped, misspelled,
# outside the range the scenario needs, or in a block it does not read.
# Parsing refuses it by dotted path before any work starts.
REJECTED = [
    ("identity-suite", "family.soliton.grid={}", "family.soliton.grid.n"),
    ("identity-suite", "family.class1.grid.lo=abc", "family.class1.grid.lo"),
    ("concentration", "family.eval_time=abc", "family.eval_time"),
    ("residual-scaling", "family.correction_c1=[1]", "family.correction_c1"),
    ("residual-scaling", "family.class1.sigma_zero=abc", "family.class1.sigma_zero"),
    # free-space scenarios: their oracles judge no V or A, so they read no
    # potential block
    ("soliton-propagation", "potential.scalar={form: harmonic}", "potential"),
    ("soliton-propagation", "potential.scalar=[1]", "potential"),
    ("cylindrical-check", "potential.vector={form: uniform, components: [1.0]}",
     "potential"),
    ("cylindrical-check", "potential.scalar={form: harmonic, omega: 1.0}", "potential"),
    ("ehrenfest", "params.r_values=[]", "params.r_values"),
    # r is the one self-attraction key; kappa is no alias for it
    ("soliton-propagation", "params.kappa=0.5", "params.kappa"),
    ("ehrenfest", "potential.scalar={form: quadratic, coefficient: -1}",
     "potential.scalar"),
    ("ehrenfest", "potential.scalar={form: harmonic}", "potential.scalar.omega"),
    ("ehrenfest", "potential.scalar=[1]", "potential.scalar"),
    ("ehrenfest", "potential.vector={form: uniform, components: [1.0, 2.0]}",
     "potential.vector.components"),
    ("soliton-propagation", "solver.snapshot_evry=5", "solver.snapshot_evry"),
    ("identity-suite", "solver.dt=0.1", "solver"),
    # separated families: refused at parse time, not mid-run
    ("residual-scaling", "family.class1.c1=-1.0", "family.class1"),
    # a float key takes finite numbers alone, in a list as well
    ("residual-scaling", "family.class1.c1=.nan", "family.class1.c1"),
    ("identity-suite", "family.class2.c1=.nan", "family.class2.c1"),
    ("identity-suite", "params.hbar=.inf", "params.hbar"),
    ("ehrenfest", "params.r_values=[0.5, -.inf]", "params.r_values"),
    ("identity-suite", "family.class1.c1=-0.5", "family.class1"),
    ("residual-scaling", "family.class1.sigma_zero=10", "family.class1"),
    # a separated family's interval is the grid it is sampled on
    ("residual-scaling", "family.class1.domain=[-2,2]", "family.class1.domain"),
    ("identity-suite", "family.class1.grid={n: 1024}", "family.class1.grid.lo"),
    ("identity-suite", "family.class2.grid.lo=10", "family.class2.grid"),
    # residual-scaling builds class 1 alone: the soliton's dressing is a
    # callable, which no file can carry
    ("residual-scaling", "family.type=class1", "family.type"),
    ("residual-scaling", "family.soliton={eta: 0.5, xi: 0.1}", "family.soliton"),
    # an empty block is still a block the scenario does not read
    ("concentration", "potential={}", "potential"),
    ("concentration", "solver={}", "solver"),
]


@pytest.mark.parametrize("scenario, override, path", REJECTED)
def test_schema_rejects_with_dotted_path(scenario, override, path):
    cfg = ExperimentConfig.from_file(default_config_path(scenario))
    cfg.apply_override(override)
    with pytest.raises(ConfigError, match=rf"(^|; ){re.escape(path)}: "):
        validate_config(cfg)


def _mapping_paths(node, prefix=""):
    for key, val in node.items():
        if isinstance(val, dict):
            path = f"{prefix}{key}"
            yield path
            yield from _mapping_paths(val, path + ".")


def test_unknown_keys_rejected_in_every_block():
    """A key no block declares is refused wherever it appears, so a typo
    never runs with the default silently in its place."""
    for name in SCENARIO_NAMES:
        raw = yaml.safe_load(default_config_path(name).read_text())
        for path in _mapping_paths(raw):
            cfg = ExperimentConfig.from_dict(raw)
            cfg.apply_override(f"{path}.bogus_key=1")
            with pytest.raises(ConfigError, match=rf"{re.escape(path)}\.bogus_key: unknown key"):
                validate_config(cfg)


@pytest.mark.parametrize("column, metric", [(0, "hj_class2_max"),
                                            (1, "transport_max")])
def test_nan_family_maximum_fails_its_row(column, metric, monkeypatch):
    """A NaN maximum of identity-suite's third family (class 2) reaches
    its row and fails it.  Python's max drops a NaN that is not its first
    argument, and the row passed.  Every family, the ring included, has
    every column."""
    real, calls = scenarios._pointwise_maxima, []

    def poisoned(*args):
        m = real(*args)
        calls.append(m)
        return m[:column] + (math.nan,) + m[column + 1:] if len(calls) == 3 else m

    monkeypatch.setattr(scenarios, "_pointwise_maxima", poisoned)
    row = run_scenario(ExperimentConfig.from_file(
        default_config_path("identity-suite"))).row(metric)
    assert [len(m) for m in calls] == [3] * 4
    assert math.isnan(row.value) and not row.passed


@pytest.mark.parametrize("entry, metric", [("S_t", "hj_class1_max"),
                                           ("sigma1_t", "transport_max")])
def test_perturbed_family_fails_its_row(entry, metric, monkeypatch):
    """A class-1 jet whose S_t or sigma1_t is off by 1e-3 no longer solves
    the eikonal or the transport equation, and that row fails: the rows
    check the family, not an identity of the construction."""
    real = scenarios._identity_families

    class Perturbed:
        def __init__(self, w):
            self._w, self.radial, self.potential = w, w.radial, w.potential

        def jet(self, xs, t):
            jet = self._w.jet(xs, t)
            return replace(jet, **{entry: getattr(jet, entry) + 1e-3})

    def perturbed(spec, mass):
        return tuple((name, Perturbed(w) if name == "class1" else w, grid)
                     for name, w, grid in real(spec, mass))

    monkeypatch.setattr(scenarios, "_identity_families", perturbed)
    result = run_scenario(ExperimentConfig.from_file(default_config_path("identity-suite")))
    assert not result.row(metric).passed
    assert result.row(metric).value > 1e-4
    assert [r.metric for r in result.rows if not r.passed] == [metric]


@pytest.mark.parametrize("kind", sorted(PASSES))
def test_non_finite_value_never_passes(kind):
    """A NaN or an infinity fails its row whatever the gate's kind, a
    reported row included; a value that meets the gate passes."""
    (scen, metric), gate = next((key, g) for key, g in GATES.items() if g.kind == kind)
    ok = {"below": 0.0, "at_least": gate.bound, "within": gate.center, "flag": 1.0,
          "reported": 0.5}[kind]
    for value in (ok, math.nan, math.inf, -math.inf):
        [row] = _rows(scen, {metric: value})
        assert row.passed == (value == ok)
        assert row.tolerance == gate.bound


def test_run_scenario_validates_first():
    cfg = ExperimentConfig.from_dict({"scenario": "concentration"})
    with pytest.raises(ConfigError, match="params.hbar"):
        run_scenario(cfg)


# ---------------------------------------------------------------------------
# scenario runs (shrunk for speed)


def test_propagation_rows_and_snapshots():
    """The propagation report carries the terminal error, mass drift, peak
    velocity, one-step norm drift, and the dt-halving ratio, and stores the
    snapshot cadence requested by the solver block."""
    cfg = ExperimentConfig.from_dict(small_propagation_dict())
    res = run_scenario(cfg)
    metrics = {r.metric for r in res.rows}
    assert metrics == {
        "l2_error", "mass_drift", "peak_velocity", "peak_velocity_error",
        "step_norm_drift", "convergence_ratio", "convergence_ratio_deviation",
    }
    assert res.all_passed()
    assert len(res.snapshots) == 6
    header, rows = res.plotdata["density"]
    assert header == ["x", "density"]
    assert len(rows) == 256


def test_ehrenfest_rows_per_strength():
    """One deviation pair per requested self-attraction strength, plus a
    centroid table for the first run; the quadratic well makes the centroid
    classical for every strength, so all pairs pass."""
    cfg = ExperimentConfig.from_dict({
        "scenario": "ehrenfest",
        "grid": {"lo": -6.0, "hi": 6.0, "n": 512},
        "params": {"hbar": 0.05, "mass": 1.0, "r": 0.5, "r_values": [0.5, 0.0]},
        "family": {"soliton": {"eta": 0.5, "xi": 0.25, "x0": 2.0}},
        "potential": {"scalar": {"form": "harmonic", "omega": 1.0, "center": 0.0}},
        "solver": {"dt": 1.0e-3, "t_end": 0.3, "snapshot_every": 100},
    })
    res = run_scenario(cfg)
    assert [r.metric for r in res.rows] == [
        "x_deviation[r=0.5]", "p_deviation[r=0.5]",
        "x_deviation[r=0]", "p_deviation[r=0]",
    ]
    assert res.all_passed()
    header, rows = res.plotdata["centroid"]
    assert header == ["t", "mean_x", "mean_p", "classical_x", "classical_p"]
    assert rows[0][0] == 0.0


def test_ehrenfest_snapshot_times_are_orbit_nodes(tmp_path):
    """Over one period of the shipped well, which ends on a shortened step,
    every snapshot time is a node of the classical orbit, so the classical
    columns are orbit values with no interpolation: the last row's equal
    x0 cos t + p0 sin t and p0 cos t - x0 sin t to RK4 accuracy (measured
    2.6e-14 and 1.0e-13 at t = 2 pi)."""
    cfg = ExperimentConfig.from_file(default_config_path("ehrenfest"))
    cfg.apply_override("grid.n=512")
    cfg.apply_override("params.r_values=[0.5]")
    emit(run_scenario(cfg), tmp_path)
    lines = (tmp_path / "plotdata" / "centroid.csv").read_text().splitlines()
    table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    x0, p0 = 2.0, 0.5
    pot = PotentialSpec(scalar=HarmonicScalar(omega=(1.0,), center=(0.0,)))
    nodes = integrate_bicharacteristic(PhasePoint(x=(x0,), p=(p0,)), 2.0 * math.pi, 1e-3,
                                       pot, 1.0).times()
    assert {row[0] for row in table} <= set(nodes.tolist())
    t, _, _, cx, cp = table[-1]
    assert t == 2.0 * math.pi
    assert abs(cx - (x0 * math.cos(t) + p0 * math.sin(t))) < 1e-12
    assert abs(cp - (p0 * math.cos(t) - x0 * math.sin(t))) < 1e-12


def test_concentration_failure_is_reported_not_raised():
    """A sweep that stops while the packet is still wide keeps less than
    99 percent of its mass inside the sqrt(hbar) ball: the fraction is
    tanh(2 eta / sqrt(hbar)) = 0.9187 at hbar = 0.4.  The scenario reports
    the failing row instead of raising."""
    res = run_scenario(ExperimentConfig.from_dict(failing_concentration_dict()))
    assert not res.all_passed()
    row = res.row("mass_within_sqrt_hbar")
    assert not row.passed
    # boundary cells of the ball shift the discrete fraction by up to
    # density(R) * spacing, a bit under 0.01 on this grid
    assert row.value == pytest.approx(math.tanh(2.0 * 0.5 / math.sqrt(0.4)), abs=0.01)
    # the width law still holds, to 2.1e-9: the box cuts the widest packet's
    # tail (hbar = 1.6), which the row's gate now sees
    assert abs(res.row("position_width_slope").value - 1.0) < 1e-8


def test_registry_matches_scenario_names():
    """Every scenario schema has a runner, and every runner a schema."""
    assert set(_RUNNERS) == set(SCHEMAS.values())


def test_residual_scaling_box_doubles_through_grid_overrides():
    """A separated family's interval is the grid it is sampled on, so twice
    the box at the same spacing takes grid overrides alone, and the slope
    holds: 2.001565770707469 against 2.0015657707072654 as shipped."""
    def leading_slope(*overrides):
        cfg = ExperimentConfig.from_file(default_config_path("residual-scaling"))
        for override in overrides:
            cfg.apply_override(override)
        return run_scenario(cfg).row("leading_slope").value

    doubled = leading_slope("grid.lo=-8.0", "grid.hi=8.0", "grid.n=2048")
    assert doubled == pytest.approx(leading_slope(), rel=1e-10)


@pytest.mark.parametrize("scenario, jets", [
    ("cylindrical-check", ["CylindricalFields"]),
    ("identity-suite", ["SolitonFields", "Class1Fields", "Class2Fields",
                        "CylindricalFields"]),
    ("residual-scaling", ["Class1Fields"] * 9),
])
def test_one_jet_per_family_grid_and_time(scenario, jets, monkeypatch):
    """The state, its time derivative and every residual at one (family,
    grid, t) are read off one jet, and no jet entry depends on hbar:
    cylindrical-check evaluates one, shared by every hbar of its sweep,
    and identity-suite one per family.  residual-scaling evaluates 9 for
    its 4 hbar values: one at t_eval, shared by every hbar as
    cylindrical-check's is, plus two per hbar at t_eval +- h for the
    t-difference of the correction's coefficients."""
    built = []

    def counting(jet):
        def wrapper(self, xs, t):
            built.append(type(self).__name__)
            return jet(self, xs, t)
        return wrapper

    for cls in WkbFields.__subclasses__():
        if "jet" in vars(cls):
            monkeypatch.setattr(cls, "jet", counting(cls.jet))
    assert run_scenario(ExperimentConfig.from_file(default_config_path(scenario))).all_passed()
    assert built == jets


# ---------------------------------------------------------------------------
# emission


def handmade_result():
    grid = make_uniform_grid(1, -2.0, 2.0, 16)
    x = grid.axes()[0]
    vals = np.exp(-x ** 2) * np.exp(1j * x)
    fld = ComplexField(grid, vals.astype(complex))
    res = ScenarioResult(scenario="concentration")
    res.rows.append(ReportRow("concentration", "demo", "checked_metric",
                              0.1 + 1.0 / 3.0, 1e-6, True))
    res.rows.append(ReportRow("concentration", "demo", "reported_metric",
                              2.5, None, True))
    res.plotdata["curve"] = (["a", "b"], [(1.0, 2.0), (0.1, 0.25)])
    res.snapshots.append(fld)
    return res


def test_results_csv_shape_and_roundtrip(tmp_path):
    """The report is one header plus one line per row; tolerances print
    empty for reported-only metrics, and %.17g reparses bit-identically."""
    emit(handmade_result(), tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "scenario,case,metric,value,tolerance,passed"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[:3] == ["concentration", "demo", "checked_metric"]
    assert float(fields[3]) == 0.1 + 1.0 / 3.0
    assert fields[5] == "true"
    assert lines[2].split(",")[4] == ""


def test_plotdata_and_snapshot_files(tmp_path):
    paths = emit(handmade_result(), tmp_path,
                 formats=("results", "plotdata", "snapshots"))
    names = {p.relative_to(tmp_path).as_posix() for p in paths}
    assert names == {"results.csv", "plotdata/curve.csv",
                     "snapshots/snapshot_0000.csv"}
    curve = (tmp_path / "plotdata" / "curve.csv").read_text().splitlines()
    assert curve[0] == "a,b"
    assert len(curve) == 3
    snap = (tmp_path / "snapshots" / "snapshot_0000.csv").read_text().splitlines()
    assert snap[0] == "x,re,im,density"
    assert len(snap) == 17
    x, re, im, dens = map(float, snap[1].split(","))
    assert dens == pytest.approx(re ** 2 + im ** 2)


def test_emission_is_deterministic(tmp_path):
    """Two emissions of the same result are byte-identical, which is what
    lets report files be diffed across machines."""
    a, b = tmp_path / "a", tmp_path / "b"
    emit(handmade_result(), a, formats=("results", "plotdata", "snapshots"))
    emit(handmade_result(), b, formats=("results", "plotdata", "snapshots"))
    for pa in sorted(a.rglob("*.csv")):
        pb = b / pa.relative_to(a)
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("scenario", ["residual-scaling", "concentration",
                                      "identity-suite", "cylindrical-check"])
def test_rerun_is_byte_identical(scenario, tmp_path):
    """Two runs of a shipped construction scenario emit the same bytes, so
    results.csv and plotdata/ can be compared with cmp across runs."""
    cfg = ExperimentConfig.from_file(default_config_path(scenario))
    a, b = tmp_path / "a", tmp_path / "b"
    emit(run_scenario(cfg), a)
    emit(run_scenario(cfg), b)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert Path("results.csv") in files
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_emit_rejects_empty_and_unknown(tmp_path):
    empty = ScenarioResult(scenario="concentration")
    with pytest.raises(ValueError, match="no report rows"):
        emit(empty, tmp_path)
    with pytest.raises(ValueError, match="unknown output format"):
        emit(handmade_result(), tmp_path, formats=("results", "pdf"))


def reference_csv(header, rows) -> str:
    """The per-value reference: format_float on every cell, joined by ","
    and "\\n"."""
    lines = [",".join(header)] + [",".join(format_float(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def emit_plotdata(tmp_path, tables) -> None:
    res = handmade_result()
    res.plotdata = tables
    emit(res, tmp_path, formats=("plotdata",))


AWKWARD = [-0.0, 5e-324, 1e16, 1e17, 1e-5, 1e-4, math.nan, math.inf, -math.inf,
           0.1 + 0.2, 3, True, False, 2 ** 60 + 1, np.float32(0.1), np.int64(-7),
           np.float64(2.0 / 3.0), np.bool_(True)]


def test_plotdata_matches_per_value_reference(tmp_path):
    """Block formatting writes what per-value format_float writes, for
    signed zeros, subnormals, the %g exponent switch points, non-finite
    values and every scalar type a plot row may hold; an empty table is
    its header line alone."""
    rows = [tuple(AWKWARD[i:i + 3]) for i in range(0, len(AWKWARD), 3)]
    emit_plotdata(tmp_path, {"awkward": (["a", "b", "c"], rows),
                             "empty": (["t", "value"], [])})
    text = (tmp_path / "plotdata" / "awkward.csv").read_text()
    assert text == reference_csv(["a", "b", "c"], rows)
    assert "-0," in text and "4.9406564584124654e-324" in text
    assert (tmp_path / "plotdata" / "empty.csv").read_text() == "t,value\n"


def test_plotdata_across_a_block_boundary(tmp_path):
    """8193 rows end one row past a block boundary; the seams leave no
    mark."""
    rng = np.random.default_rng(5)
    cells = rng.standard_normal((8193, 2)) * 10.0 ** rng.integers(-20, 20, (8193, 2))
    rows = [tuple(r) for r in cells]
    emit_plotdata(tmp_path, {"long": (["u", "v"], rows)})
    assert (tmp_path / "plotdata" / "long.csv").read_text() == reference_csv(["u", "v"], rows)


def test_plotdata_ragged_row_rejected(tmp_path):
    with pytest.raises(ValueError, match="plotdata table 'curve': row 1 has 3 values"):
        emit_plotdata(tmp_path, {"curve": (["a", "b"], [(1.0, 2.0), (1.0, 2.0, 3.0)])})


def test_snapshot_2d_matches_mesh_reference(tmp_path):
    """On a non-square grid (16 x 32, the smallest a Grid allows) each row
    takes its coordinates in C order of the ij mesh: x varies slowest."""
    grid = make_uniform_grid(2, (-1.0, -3.0), (2.0, 5.0), (16, 32))
    x, y = grid.mesh()
    fld = ComplexField(grid, np.exp(-x ** 2 - 0.3 * y ** 2 + 1j * (x - y / 3.0)))
    res = handmade_result()
    res.snapshots = [fld]
    emit(res, tmp_path, formats=("snapshots",))
    cols = [x.ravel(), y.ravel(), fld.values.real.ravel(), fld.values.imag.ravel(),
            fld.density().ravel()]
    expected = reference_csv(["x", "y", "re", "im", "density"], zip(*cols))
    assert (tmp_path / "snapshots" / "snapshot_0000.csv").read_text() == expected


def test_snapshot_emission_memory(tmp_path):
    """One 256^2 snapshot is written block by block, so the transient
    heap stays small: tracemalloc peak measured 2.8 MiB against a 6 MiB
    bound, a margin of 2.1x.  The 0.5 MiB density column is held for the
    whole file, and each 2048-row block's arrays are freed before the next
    (formatting every row as its own string and joining them peaked at
    18.9 MiB; one % per block of Python floats at 1.0 MiB)."""
    grid = make_uniform_grid(2, -8.0, 8.0, 256)
    x, y = grid.mesh()
    res = handmade_result()
    res.snapshots = [ComplexField(grid, np.exp(-x ** 2 - y ** 2 + 1j * x))]
    del x, y
    emit(res, tmp_path / "warm", formats=("snapshots",))
    tracemalloc.start()
    try:
        emit(res, tmp_path, formats=("snapshots",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_cylindrical_residual_memory():
    """One hbar of cylindrical-check at 512^2 (leading state, its time
    derivative, the operator residual and its norm) builds the state in
    the array of its phase factor, samples the jet on the open mesh and sums
    the residual into the kinetic term's array: tracemalloc peak measured
    18.5 MiB against a 21 MiB bound, a margin of 13% (sampling the jet on
    the full coordinate mesh peaked at 22.5 MiB, and building every term as
    its own temporary at 32.5 MiB)."""
    grid = make_axis_offset_grid(2, 8.0, 512)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = CylindricalFields(CylindricalParams(c1=1.0, b1=0.1, a2=0.2), params.mass)

    def residual():
        # the jet is dropped before the operator residual allocates its arrays
        jet = w.jet(np.ix_(*grid.axes()), 0.3)
        psi = assemble_leading_term(jet, grid, params)
        dpsi = leading_term_time_derivative(jet, psi, params)
        del jet
        return relative_residual(apply_nlse_operator((psi, dpsi), PotentialSpec(), params),
                                 psi)

    residual()
    tracemalloc.start()
    try:
        residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * 2 ** 20


def test_quadrant_residual_memory():
    """One hbar of cylindrical-check at 512^2 on the positive quadrant,
    from the jet that the sweep shares: class tables, their gather onto
    the 256^2 quadrant, the cosine-pair residual and its norms.
    tracemalloc peak measured 4.6 MiB against a 6.5 MiB bound, a margin
    of 41% (the full-mesh path of test_cylindrical_residual_memory peaks
    at 18.5)."""
    grid = make_axis_offset_grid(2, 8.0, 512)
    params = PhysParams(hbar=0.1, mass=1.0, r=0.5)
    w = CylindricalFields(CylindricalParams(c1=1.0, b1=0.1, a2=0.2), params.mass)
    xs, gather = _reflection_classes(grid)
    jet = w.jet(xs, 0.3)

    def residual():
        return _quadrant_relative_residual(_class_tables(jet, params), gather, grid,
                                           params)

    residual()
    tracemalloc.start()
    try:
        residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2 ** 20


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out


def test_cli_validate_packaged(capsys):
    assert main(["validate", "identity-suite"]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_cli_accepts_file_stem(capsys):
    """The stem of a packaged file names its scenario too."""
    assert main(["validate", "soliton_propagation"]) == 0
    assert "scenario soliton-propagation" in capsys.readouterr().out


def test_cli_rejects_unknown_config(capsys):
    assert main(["run", "not-a-thing", "--out", "unused"]) == 2
    assert "neither an existing file nor a scenario name" in capsys.readouterr().err


def test_cli_run_with_overrides(tmp_path, capsys):
    """A packaged scenario shrunk through --override runs, writes its
    report under --out, and exits 0 when every row passes."""
    code = main([
        "run", "cylindrical-check", "--out", str(tmp_path),
        "--override", "grid.n=128",
        "--override", "params.hbar=[0.4, 0.2, 0.1]",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] residual_monotone = 1 (yes/no)\n" in out
    assert re.search(r"\[PASS\] residual_slope = \S+ \(reported\)\n", out)
    assert "\n2 rows, all passed; " in out
    assert (tmp_path / "results.csv").is_file()
    assert (tmp_path / "plotdata" / "scaling.csv").is_file()


def test_cli_run_ehrenfest_with_uniform_vector(tmp_path, capsys):
    """The schema's uniform form is the config's one route to a nonzero A.
    ehrenfest run through it passes every row, so the packet's centroid
    follows an orbit that carries the A: in the unit well with a constant
    a it is x0 cos t + (p0 - a) sin t, p = a + (p0 - a) cos t - x0 sin t
    (at t = 1.5 its x is 0.25 from the A = 0 orbit's)."""
    code = main([
        "run", "ehrenfest", "--out", str(tmp_path),
        "--override", "grid.n=512",
        "--override", "params.r_values=[0.5]",
        "--override", "solver.t_end=1.5",
        "--override", "potential.vector={form: uniform, components: [0.25]}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "\n2 rows, all passed; " in out
    lines = (tmp_path / "plotdata" / "centroid.csv").read_text().splitlines()
    t, _, _, cx, cp = (float(v) for v in lines[-1].split(","))
    assert t == 1.5
    # RK4 at dt = 1e-3: measured 2.5e-14 and 7.3e-15
    assert cx == pytest.approx(2.0 * math.cos(t) + 0.25 * math.sin(t), abs=2.5e-13)
    assert cp == pytest.approx(0.25 + 0.25 * math.cos(t) - 2.0 * math.sin(t), abs=2.5e-13)


def test_cli_run_parses_once(tmp_path, monkeypatch):
    """`semiwave run` parses its configuration once, before any work, and
    runs the spec it checked."""
    real, calls = config.parse_config, []

    def counting(cfg):
        calls.append(cfg.scenario)
        return real(cfg)

    for module in (config, cli, scenarios):
        monkeypatch.setattr(module, "parse_config", counting)
    assert main(["run", "identity-suite", "--out", str(tmp_path)]) == 0
    assert calls == ["identity-suite"]


def test_cli_failing_run_exits_one(tmp_path, capsys):
    """A report with a failing row exits 1 and prints the FAIL marker, so
    shell pipelines can gate on the outcome."""

    cfg_path = tmp_path / "wide.yaml"
    cfg_path.write_text(yaml.safe_dump(failing_concentration_dict()))
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] mass_within_sqrt_hbar" in out
    assert (tmp_path / "out" / "results.csv").is_file()


@pytest.mark.parametrize("override, path", [("family.class2.c1=.nan", "family.class2.c1"),
                                             ("params.hbar=.inf", "params.hbar")])
def test_cli_validate_refuses_non_finite_numbers(override, path, capsys):
    """A NaN or an infinity exits 2 from validate and names its key,
    instead of passing validation and failing mid-run."""
    assert main(["validate", "identity-suite", "--override", override]) == 2
    assert f"{path}: must be a finite number" in capsys.readouterr().err


def test_cli_validate_names_what_yaml_read(capsys):
    """YAML 1.1 reads 1e-3 (no dot) as a string: the refusal names the
    string it got and says how to write the number."""
    assert main(["validate", "soliton-propagation", "--override", "solver.dt=1e-3"]) == 2
    err = capsys.readouterr().err
    assert "solver.dt: must be a finite number, got str '1e-3'" in err
    assert "write 1.0e-3" in err
    assert main(["validate", "soliton-propagation", "--override", "solver.dt=1.0e-3"]) == 0


def test_cli_library_abort_exits_three(tmp_path, capsys):
    """A validated config whose run dies inside the library exits 3 with
    the error's type and message, not 1 (a failed gate) and a traceback."""
    code = main(["run", "concentration", "--out", str(tmp_path),
                 "--override", "family.soliton.eta=1.0e+200"])
    assert code == 3
    assert capsys.readouterr().err.startswith("run error: OverflowError: ")


def test_cli_validate_reports_problems(tmp_path, capsys):

    bad = failing_concentration_dict()
    del bad["family"]["soliton"]["eta"]
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(bad))
    assert main(["validate", str(cfg_path)]) == 2
    assert "family.soliton.eta" in capsys.readouterr().err


@pytest.mark.parametrize("override", [None, "grid.n=[1"])
def test_cli_invalid_yaml_exits_two(override, tmp_path, capsys):
    """YAML that does not parse, in a file or in an override, exits 2 and
    names where it came from, not 1 (a failed gate) and a traceback."""
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("scenario: concentration\ngrid: [1\n")
    args = ["validate", str(cfg_path)] if override is None \
        else ["validate", "concentration", "--override", override]
    assert main(args) == 2
    assert f"{override or cfg_path}: not valid YAML" in capsys.readouterr().err


def test_cli_directory_is_not_a_config_file(tmp_path, monkeypatch, capsys):
    """A directory named like a scenario does not shadow the packaged
    configuration, and any other directory is refused as no file."""
    (tmp_path / "concentration").mkdir()
    (tmp_path / "runs").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "concentration"]) == 0
    assert main(["validate", "runs"]) == 2
    assert "'runs' is neither an existing file" in capsys.readouterr().err

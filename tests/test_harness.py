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
from pathlib import Path

import numpy as np
import pytest
import yaml

from semiwave import ComplexField, make_uniform_grid
from semiwave.harness import (
    SCENARIO_NAMES,
    SCENARIOS,
    ConfigError,
    ExperimentConfig,
    ReportRow,
    ScenarioResult,
    default_config_path,
    emit,
    main,
    parse_config,
    run_scenario,
    validate_config,
)

quiet = pytest.mark.filterwarnings("ignore:dt=.*advisory")


def small_propagation_dict():
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


def test_r_and_kappa_must_agree():
    cfg = ExperimentConfig.from_dict(small_propagation_dict())
    cfg.params["kappa"] = 0.5
    cfg.params["r"] = 0.3
    with pytest.raises(ConfigError, match=r"r must equal kappa\*\*2"):
        validate_config(cfg)


def test_ehrenfest_requires_confining_potential():
    cfg = ExperimentConfig.from_file(default_config_path("ehrenfest"))
    cfg.potential["scalar"] = {"form": "zero"}
    with pytest.raises(ConfigError, match="confining"):
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


# Each row is a key the scenario cannot use: missing, mistyped, misspelled,
# outside the range the scenario needs, or in a block it does not read.
# Parsing refuses it by dotted path before any work starts.
REJECTED = [
    ("identity-suite", "family.soliton.grid={}", "family.soliton.grid.n"),
    ("identity-suite", "family.class1.grid.lo=abc", "family.class1.grid.lo"),
    ("concentration", "family.eval_time=abc", "family.eval_time"),
    ("residual-scaling", "family.correction_c1=[1]", "family.correction_c1"),
    ("residual-scaling", "family.class1.sigma_zero=abc", "family.class1.sigma_zero"),
    ("soliton-propagation", "potential.scalar={form: harmonic}", "potential.scalar.omega"),
    ("soliton-propagation", "potential.scalar=[1]", "potential.scalar"),
    ("cylindrical-check", "potential.vector={form: uniform, components: [1.0]}",
     "potential.vector.components"),
    ("ehrenfest", "params.r_values=[]", "params.r_values"),
    ("ehrenfest", "potential.scalar={form: quadratic, coefficient: -1}",
     "potential.scalar"),
    ("soliton-propagation", "solver.snapshot_evry=5", "solver.snapshot_evry"),
    ("identity-suite", "solver.dt=0.1", "solver"),
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


def test_kappa_alone_fixes_r():
    cfg = ExperimentConfig.from_dict(small_propagation_dict())
    del cfg.params["r"]
    cfg.params["kappa"] = 0.5
    phys = parse_config(cfg).params.phys()
    assert (phys.r, phys.kappa) == (0.25, 0.5)


def test_run_scenario_validates_first():
    cfg = ExperimentConfig.from_dict({"scenario": "concentration"})
    with pytest.raises(ConfigError, match="params.hbar"):
        run_scenario(cfg)


# ---------------------------------------------------------------------------
# scenario runs (shrunk for speed)


@quiet
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


@quiet
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
    assert res.row("position_width_slope").passed


def test_registry_matches_scenario_names():
    assert set(SCENARIOS) == set(SCENARIO_NAMES)


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


def test_emit_rejects_empty_and_unknown(tmp_path):
    empty = ScenarioResult(scenario="concentration")
    with pytest.raises(ValueError, match="no report rows"):
        emit(empty, tmp_path)
    with pytest.raises(ValueError, match="unknown output format"):
        emit(handmade_result(), tmp_path, formats=("results", "pdf"))


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
    assert "[PASS] radial_symmetry_max" in out
    assert (tmp_path / "results.csv").is_file()
    assert (tmp_path / "plotdata" / "scaling.csv").is_file()


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


def test_cli_validate_reports_problems(tmp_path, capsys):

    bad = failing_concentration_dict()
    del bad["family"]["soliton"]["eta"]
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(bad))
    assert main(["validate", str(cfg_path)]) == 2
    assert "family.soliton.eta" in capsys.readouterr().err

"""Smoke test of the benchmark: every workload once at a tiny size.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import run  # noqa: E402
import semiwave.core  # noqa: E402
import semiwave.harness.scenarios  # noqa: E402
import semiwave.solver  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# a count each workload must move, and one it must leave at zero
EXERCISED = {"ehrenfest-1d": "classical.rk4_steps", "driven-2d": "harness.emit.files",
             "construct-sweep": "solver.apply_nlse_operator.calls"}
BYPASSED = {"ehrenfest-1d": "asymptotics.phase_evals", "driven-2d": "harness.run_scenario.calls",
            "construct-sweep": "solver.evolve.calls"}
pytestmark = pytest.mark.filterwarnings("ignore:dt=.*advisory")
SEED_FREE = ("solver.steps", "solver.fft_calls", "asymptotics.phase_evals")


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)


def test_spec_names_match_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_reports_every_metric(workload):
    reports = [bench.worker(workload, seed, 0.0, True, time.monotonic(), tiny=True)
               for seed in (1, 2)]
    spec_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for rep in reports:
        assert rep["failed"] == 0, rep["failures"]
        assert rep["ops"] >= 2
        assert set(rep["per_layer"]) == set(spec_layer)
        assert all(run.per_layer_unit(k) == u for k, u in spec_layer.items())
        assert len(rep["scaled_walls"]) == len(rep["walls"]) >= 1
        assert all(k > 0 for k in rep["kernels"])
        e2e = run.end_to_end(rep, [rep["setup_scaled_s"]])
        assert set(e2e) == set(run.END_TO_END_UNITS)
        assert all(m["value"] is not None and m["value"] > 0 for m in e2e.values())
        assert rep["per_layer"][EXERCISED[workload]] > 0
        assert rep["per_layer"][BYPASSED[workload]] == 0
        assert rep["manifest"]["array_bytes"] > 0
    for name in SEED_FREE:
        assert reports[0]["per_layer"][name] == reports[1]["per_layer"][name], name
    assert math.isfinite(reports[0]["per_layer"]["trace.overhead_s"])
    # the traced names are restored once the run ends
    assert not hasattr(semiwave.solver.evolve, "__wrapped__")
    assert not hasattr(semiwave.harness.scenarios.evolve, "__wrapped__")
    assert not hasattr(semiwave.core.HarmonicScalar.value, "__wrapped__")


def test_fails_without_the_library(tmp_path):
    """A checkout holding only the benchmark gives no result and a non-zero
    exit code."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "driven-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

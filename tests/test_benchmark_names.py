"""The benchmark's traced names exist in the library.

perfbench/spans.py wraps public functions and methods of every layer by
name.  Importing it and tracing one small run here makes a renamed or
removed name fail this suite, not only the benchmark's own smoke test.
"""

from pathlib import Path

import semiwave.asymptotics
import semiwave.harness
import semiwave.harness.scenarios
from semiwave.harness import ExperimentConfig, default_config_path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    tracer = spans.Tracer()
    # identity-suite calls the residuals, residual-scaling the assembly
    cfgs = [ExperimentConfig.from_file(default_config_path(name))
            for name in ("identity-suite", "residual-scaling")]
    with tracer.installed("probe"):
        assert hasattr(semiwave.harness.scenarios.assemble_leading_term, "__wrapped__")
        # through the module, so the traced binding is the one called
        assert all(semiwave.harness.run_scenario(cfg).all_passed() for cfg in cfgs)
    summary = tracer.summary("probe")
    assert summary["asymptotics.assemble.calls"] > 0
    assert summary["asymptotics.residuals.calls"] > 0
    assert summary["harness.run_scenario.calls"] == 2
    assert not hasattr(semiwave.asymptotics.assemble_leading_term, "__wrapped__")
    assert not hasattr(semiwave.harness.scenarios.assemble_leading_term, "__wrapped__")

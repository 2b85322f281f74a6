"""Experiment harness: configurations, scenarios, CSV emission, CLI."""

from semiwave.harness.cli import main
from semiwave.harness.config import (
    SCENARIO_NAMES,
    ConfigError,
    ExperimentConfig,
    default_config_path,
    parse_config,
    validate_config,
)
from semiwave.harness.emit import emit, format_float
from semiwave.harness.scenarios import (
    ReportRow,
    ScenarioResult,
    run_scenario,
)

__all__ = [
    "SCENARIO_NAMES",
    "ConfigError",
    "ExperimentConfig",
    "ReportRow",
    "ScenarioResult",
    "default_config_path",
    "emit",
    "format_float",
    "main",
    "parse_config",
    "run_scenario",
    "validate_config",
]

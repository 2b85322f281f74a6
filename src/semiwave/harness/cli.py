"""Command-line front end: run, validate, list-scenarios.

Exit codes: 0 when every row passes, 1 when a row fails, 2 for a
configuration error, 3 when a validated run aborts inside the library."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    SCENARIO_NAMES,
    SCHEMAS,
    ConfigError,
    ExperimentConfig,
    default_config_path,
    parse_config,
)
from .emit import emit, format_float
from .scenarios import gate_of, run_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiwave",
        description="Build semiclassical solitary-wave fields and check them "
                    "against a spectral propagator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its report")
    run_p.add_argument("config",
                       help="scenario name or file stem (packaged configuration) "
                            "or a path to a YAML configuration file")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: output.directory from "
                            "the configuration)")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="PATH=VALUE",
                       help="dotted-path configuration override, repeatable "
                            "(e.g. solver.dt=5.0e-4)")
    run_p.add_argument("--snapshots", action="store_true",
                       help="also write stored field snapshots as CSV")

    val_p = sub.add_parser("validate", help="check a configuration and exit")
    val_p.add_argument("config", help="scenario name, its file stem, or a YAML path")
    val_p.add_argument("--override", action="append", default=[],
                       metavar="PATH=VALUE")

    sub.add_parser("list-scenarios", help="list scenario names")
    return parser


def _load_config(source: str, overrides: list[str]) -> ExperimentConfig:
    path = Path(source)
    name = source.replace("_", "-")  # packaged files are named by the stem
    if path.is_file():
        cfg = ExperimentConfig.from_file(path)
    elif name in SCENARIO_NAMES:
        cfg = ExperimentConfig.from_file(default_config_path(name))
    else:
        raise ConfigError(
            [f"config: {source!r} is neither an existing file nor a scenario "
             f"name (choose from {', '.join(SCENARIO_NAMES)})"]
        )
    for item in overrides:
        cfg.apply_override(item)
    return cfg


def _rule(gate) -> str:
    """How a row of this gate passes, as printed after its value."""
    bound = "" if gate.bound is None else format_float(gate.bound)
    return {"below": f"< {bound}", "at_least": f">= {bound}",
            "within": f"within {bound} of {format_float(gate.center)}",
            "flag": "yes/no", "reported": "reported"}[gate.kind]


def _print_rows(result) -> None:
    for r in result.rows:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.metric} = "
              f"{format_float(r.value)} ({_rule(gate_of(r.scenario, r.metric))})")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name, schema in SCHEMAS.items():
            print(f"{name}: {' '.join(schema.__doc__.split())}")
        return 0

    try:
        cfg = _load_config(args.config, args.override)
        spec = parse_config(cfg)
    except ConfigError as err:
        print("configuration error:", file=sys.stderr)
        for line in str(err).split("; "):
            print(f"  {line}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"configuration ok: scenario {cfg.scenario}")
        return 0

    out_dir = args.out or spec.output.directory \
        or f"out/{cfg.scenario.replace('-', '_')}"
    formats = ("results", "plotdata", "snapshots") if args.snapshots \
        else ("results", "plotdata")
    try:
        result = run_spec(spec)
        written = emit(result, out_dir, formats=formats)
    except Exception as err:  # a validated config that the library cannot run
        print(f"run error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3

    _print_rows(result)
    failed = sum(1 for r in result.rows if not r.passed)
    print(f"{len(result.rows)} rows, "
          + ("all passed" if failed == 0 else f"{failed} failed")
          + f"; wrote {len(written)} files under {out_dir}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

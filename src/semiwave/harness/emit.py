"""Deterministic CSV emission for scenario results.

Floats are serialized with the shortest round-trippable decimal form
(%.17g), rows keep the order the scenario produced them in, and files are
written with plain "\n" newlines, so rerunning the same configuration
reproduces the output byte for byte.

Every table goes through one block writer: up to _BLOCK_ROWS rows are
formatted by a single % operation, the row template repeated once per row
and applied to the block's cells, and each block is written to the open
file as soon as it is formatted, so no file is ever held whole in memory.
A snapshot's coordinates repeat along the grid, so each axis is formatted
once and row i takes each axis's string at np.unravel_index(i, shape), in
C order; that is the same text as formatting the ij mesh value by value.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .scenarios import ScenarioResult

RESULTS_HEADER = "scenario,case,metric,value,tolerance,passed"

_KNOWN_FORMATS = ("results", "plotdata", "snapshots")

# rows per % operation.  The time per row is flat from 1024 to 8192 rows;
# at 8192 the block-sized strings fragmented the heap, and a long driven-2d
# benchmark run grew its resident memory by about 50 KiB a pass.  At 2048
# it stayed flat.
_BLOCK_ROWS = 2048


def format_float(v: float) -> str:
    return "%.17g" % float(v)


def _write_table(path: Path, header, slots, n_rows: int, block) -> Path:
    """Write the header and n_rows rows; block(start, stop) returns rows
    [start, stop) as a 2-D array whose cells fill the row's % slots."""
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(slots) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            fh.write((row * (stop - start)) % tuple(block(start, stop).ravel().tolist()))
    return path


def _write_results(path: Path, result: ScenarioResult) -> Path:
    cells = np.array([
        (r.scenario, r.case, r.metric, format_float(r.value),
         "" if r.tolerance is None else format_float(r.tolerance),
         "true" if r.passed else "false")
        for r in result.rows
    ], dtype=object)
    header = RESULTS_HEADER.split(",")
    return _write_table(path, header, ["%s"] * len(header), len(cells),
                        lambda a, b: cells[a:b])


def _write_plotdata(path: Path, name: str, header, rows) -> Path:
    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise ValueError(
                f"plotdata table {name!r}: row {i} has {len(r)} values for "
                f"{len(header)} columns"
            )
    cells = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return _write_table(path, header, ["%.17g"] * len(header), len(cells),
                        lambda a, b: cells[a:b])


def _write_snapshot(path: Path, fld) -> Path:
    grid = fld.grid
    axes = [np.array([format_float(v) for v in ax], dtype=object)
            for ax in grid.axes()]
    flat = fld.values.ravel()
    columns = (flat.real, flat.imag, fld.density().ravel())

    def block(start, stop):
        cells = np.empty((stop - start, grid.dim + len(columns)), dtype=object)
        idx = np.unravel_index(np.arange(start, stop), grid.shape)
        for j, (strs, i) in enumerate(zip(axes, idx)):
            cells[:, j] = strs[i]
        for j, col in enumerate(columns, grid.dim):
            cells[:, j] = col[start:stop]
        return cells

    header = ["x", "y"][: grid.dim] + ["re", "im", "density"]
    return _write_table(path, header, ["%s"] * grid.dim + ["%.17g"] * len(columns),
                        flat.size, block)


def emit(result: ScenarioResult, out_dir, formats=("results", "plotdata")) -> list[Path]:
    """Write the requested output families under out_dir; returns paths.

    "results" is the per-metric report, "plotdata" the scenario's plot
    tables, "snapshots" the stored fields (one CSV per snapshot).  An empty
    report is treated as a defect in the calling code, and a plot table
    row whose length differs from its header is refused.
    """
    for f in formats:
        if f not in _KNOWN_FORMATS:
            raise ValueError(
                f"unknown output format {f!r} (choose from {', '.join(_KNOWN_FORMATS)})"
            )
    if not result.rows:
        raise ValueError(f"scenario {result.scenario!r} produced no report rows")

    out = Path(out_dir)
    written: list[Path] = []
    if "results" in formats:
        written.append(_write_results(out / "results.csv", result))
    if "plotdata" in formats:
        for name, (header, rows) in result.plotdata.items():
            written.append(
                _write_plotdata(out / "plotdata" / f"{name}.csv", name, header, rows)
            )
    if "snapshots" in formats:
        for idx, fld in enumerate(result.snapshots):
            written.append(
                _write_snapshot(out / "snapshots" / f"snapshot_{idx:04d}.csv", fld)
            )
    return written

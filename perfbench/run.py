"""Run one semiwave benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ehrenfest-1d --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the library from src/.
Workloads are ehrenfest-1d, driven-2d and construct-sweep (README.md says
why each was chosen).  With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

This process imports only the standard library.  It spawns set-up probes
(--trace 0 only) and one measuring worker, each a fresh interpreter, waits
for each, and exits non-zero without a result if any of them fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ehrenfest-1d", "driven-2d", "construct-sweep")
# set-up is sampled this many times in separate probes, plus once more in
# the worker, and reported as the median
SETUP_PROBES = 3
# a run must end within 180 s; children get what is left of this
RUN_BUDGET_S = 170.0
# the workloads are single-threaded; a BLAS or OpenMP pool on a two-core
# machine would measure the scheduler
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "accuracy_err": "1"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    return "count"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the role of a child process and the time it was spawned
    ap.add_argument("--role", choices=("probe", "worker"), default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("--t-spawn", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child(role: str, args, deadline: float) -> dict:
    """Run one child interpreter to completion and return its JSON line."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **CHILD_ENV},
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} exceeded the run's time budget; no result")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{role} exited with code {proc.returncode}; no result")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": None if math.isnan(value) else value, "unit": unit}


def end_to_end(rep: dict, setups: list[float]) -> dict:
    """End-to-end metrics from a worker report and the set-up samples."""
    values = {"wall_s": statistics.median(rep["scaled_walls"]),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": rep["peak_rss_mb"],
              "accuracy_err": rep["accuracy_err"]}
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role is not None:
        # child roles need the library; importing it here keeps the parent light
        import bench
        if args.role == "probe":
            out = bench.probe(args.workload, args.seed, args.t_spawn)
        else:
            out = bench.worker(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.t_spawn)
        print(json.dumps(out))
        return 0

    deadline = time.monotonic() + RUN_BUDGET_S
    probes = [] if args.trace else [_child("probe", args, deadline)
                                    for _ in range(SETUP_PROBES)]
    rep = _child("worker", args, deadline)
    probes.append(rep)
    setups = [p["setup_scaled_s"] for p in probes]

    print("manifest " + json.dumps(rep["manifest"]))
    walls = rep["walls"]
    print(f"pass walls_s untraced={[round(w, 4) for w in walls]} "
          f"traced={[round(w, 4) for w in rep['traced_walls']]}")
    print(f"pass walls_s untraced, scaled={[round(w, 4) for w in rep['scaled_walls']]}")
    print(f"calibration kernel_s={[round(k, 4) for k in rep['kernels']]}")
    print(f"raw wall_s {statistics.median(walls)} s, "
          f"raw setup_s {statistics.median(p['setup_s'] for p in probes)} s "
          "(not gated: the machine's speed drifts)")
    if args.trace:
        metrics = {k: _metric(v, per_layer_unit(k)) for k, v in rep["per_layer"].items()}
        print(f"spans written to {rep['trace_file']}")
    else:
        metrics = end_to_end(rep, setups)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"failed_ops {rep['failed']} of ops {rep['ops']}")
    for line in rep["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": rep["failed"] == 0, "attempted": rep["ops"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

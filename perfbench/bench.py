"""Set-up probe and measuring worker, run as child processes by run.py.

A probe imports the library, builds one workload's inputs from the seed and
reports how long that took from the moment its process was spawned.  The
worker does the same set-up, then repeats timed passes of the workload for
the requested number of seconds and checks every pass's outputs after its
clock stops.  Before the timed passes it runs one untimed pass at the tiny
size, so that lazy imports and first-call costs fall outside the clock; its
outputs are checked and its operations counted.  The reported time is the
median over passes, so a slower first full pass (about 20% slower on
construct-sweep, with twice the page faults) does not move it.  In a traced
run the passes alternate untraced and traced, so the tracing overhead is
measured in the same process.  Both roles also time the calibration kernel of
calibrate.py (the worker before the first pass, at the splits of a pass and
after each pass) and report their times scaled by it as well as raw.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import semiwave  # noqa: E402

if not Path(semiwave.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"semiwave was imported from {semiwave.__file__}, not from src/")

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"

# every shipped propagation config trips the advisory step guard; it says
# nothing about this run
warnings.filterwarnings("ignore", message="dt=.*advisory")


def probe(workload: str, seed: int, t_spawn: float) -> dict:
    WORKLOADS[workload][0](seed, False)
    setup_s = time.monotonic() - t_spawn
    return {"setup_s": setup_s, "setup_scaled_s": calibrate.scaled(setup_s, _kernel())}


def _kernel() -> float:
    """Kernel time after one untimed warm-up run."""
    calibrate.kernel_s()
    return calibrate.kernel_s()


def _cache_bytes() -> dict[str, int | None]:
    """L2 and L3 sizes of cpu0 as the kernel reports them."""
    out: dict[str, int | None] = {"l2_bytes": None, "l3_bytes": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    src = ROOT / "src" / "semiwave"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".yaml")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(workload: str, seed: int, array_bytes: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "array_bytes": array_bytes,
        **_cache_bytes(),
    }


def _median(values):
    return statistics.median(values) if values else math.nan


def worker(workload: str, seed: int, seconds: float, trace: bool, t_spawn: float,
           tiny: bool = False) -> dict:
    """Set up, warm up, then run passes for `seconds` (at least one; in a
    traced run at least one of each kind) and return the raw measurements."""
    setup_fn, pass_fn = WORKLOADS[workload]
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()

    def traced_as(run, on: bool):
        return tracer.installed(run) if on else contextlib.nullcontext()

    with traced_as("setup", tracer is not None):
        inputs = setup_fn(seed, tiny)
    setup_s = time.monotonic() - t_spawn

    ops = failed = 0
    failures: list[str] = []

    def account(result, label: str) -> None:
        nonlocal ops, failed
        ops += result.ops
        failed += len(result.failures)
        failures.extend(f"{label} {op}: {msg}" for op, msgs in result.failures.items()
                        for msg in msgs)

    start = time.monotonic()
    warm = pass_fn(setup_fn(seed, True), OUT / "warm-up" / workload, None)
    warm.verify()
    account(warm, "warm-up")
    # kernel times, in order: before the first pass, at each split of a
    # pass, and after each pass
    kernels = [_kernel()]

    out_dir = OUT / workload
    walls: dict[bool, list[float]] = {False: [], True: []}
    scaled_walls: dict[bool, list[float]] = {False: [], True: []}
    per_layer: list[dict[str, float]] = []
    accuracy: list[float] = []
    index = 0
    longest = 0.0
    while True:
        t_pass = time.monotonic()
        traced = tracer is not None and index % 2 == 1
        with traced_as(index, traced):
            clock = calibrate.Clock(kernels)
            # a traced pass runs uninterrupted, so its spans hold no kernel time
            result = pass_fn(inputs, out_dir, None if traced else clock.split)
            clock.stop()
        if traced:
            per_layer.append(tracer.summary(index))
        result.verify()
        kernels.append(calibrate.kernel_s())
        walls[traced].append(clock.raw_s())
        scaled_walls[traced].append(clock.scaled_s())
        accuracy.append(result.accuracy_err)
        account(result, f"pass {index}")
        index += 1
        longest = max(longest, time.monotonic() - t_pass)
        # stop before a pass that would end past `seconds`, so a run's
        # length does not depend on how a pass lines up with it
        if time.monotonic() - start + longest > seconds and walls[False] \
                and (tracer is None or walls[True]):
            break

    report = {
        "setup_s": setup_s,
        "setup_scaled_s": calibrate.scaled(setup_s, kernels[0]),
        "walls": walls[False],
        "scaled_walls": scaled_walls[False],
        "kernels": kernels,
        "traced_walls": walls[True],
        "accuracy_err": _median([a for a in accuracy if not math.isnan(a)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "failed": failed,
        "failures": failures,
        "manifest": manifest(workload, seed, inputs.array_bytes),
    }
    if tracer:
        layers = {name: _median([p[name] for p in per_layer]) for name in per_layer[0]}
        layers["harness.config.setup_s"] = tracer.summary("setup")["harness.config.self_s"]
        layers["trace.overhead_s"] = _median(scaled_walls[True]) - _median(scaled_walls[False])
        report["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "manifest": report["manifest"],
            "fields": ["group", "start", "end", "parent", "run", "raised"],
            "spans": tracer.spans,
            "counts": [[run, name, n] for (run, name), n in tracer.counts.items()],
        }))
        report["trace_file"] = os.path.relpath(trace_file, ROOT)
    return report

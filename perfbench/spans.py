"""Spans around the public names of each semiwave layer, for traced runs.

Inside ``with tracer.installed(run):`` each traced function, in every loaded
semiwave module that binds it, and each traced method on its class is
replaced with a wrapper that records a span: group, start, end, parent
span, run id and whether an exception left it.  FFT calls and phase-field
evaluations are counted, not spanned.  Leaving the block puts the originals
back, so untraced passes run the library untouched; no file of the library
changes.

A span's self time is its duration minus the durations of its child spans.
The layer of a group is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter

import numpy as np

import semiwave.asymptotics as asymptotics
import semiwave.classical as classical
import semiwave.core as core
import semiwave.harness as harness
import semiwave.moments as moments
import semiwave.solver as solver
from semiwave.asymptotics.fields import WkbFields

LAYERS = ("core", "classical", "asymptotics", "solver", "moments", "harness")

# span group -> public functions timed under it
FUNCTION_GROUPS = {
    "core.norm_squared": (core.norm_squared,),
    "core.apply_momentum": (core.apply_momentum,),
    "classical.integrate": (classical.integrate_bicharacteristic,),
    "asymptotics.assemble": (asymptotics.assemble_leading_term, asymptotics.one_soliton,
                             asymptotics.psi_via_representation,
                             asymptotics.corrected_term_with_dt),
    "asymptotics.time_derivative": (asymptotics.leading_term_time_derivative,),
    "asymptotics.residuals": (asymptotics.hj_residual, asymptotics.transport_residuals,
                              asymptotics.first_integral_residual),
    "solver.evolve": (solver.evolve,),
    "solver.apply_nlse_operator": (solver.apply_nlse_operator,),
    "moments.record": (moments.compute_moment_record, moments.centered_moment),
    "moments.means": (moments.mean_position, moments.mean_momentum),
    "moments.scaling": (moments.concentration_scaling, moments.fit_scaling,
                        moments.mass_within_radius),
    "harness.config": (harness.validate_config,),
    "harness.run_scenario": (harness.run_scenario,),
    "harness.emit": (harness.emit,),
}
# span group -> (class, method) pairs; subclasses are found at install time
METHOD_GROUPS = {
    "core.potential_value": ((core.ScalarPotential, "value"),),
    "harness.config": ((harness.ExperimentConfig, "from_file"),
                       (harness.ExperimentConfig, "apply_override")),
}
GROUPS = tuple(dict.fromkeys([*FUNCTION_GROUPS, *METHOD_GROUPS]))
PHASE_METHODS = ("S", "sigma", "S1", "sigma1")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                 "rfft", "irfft", "rfftn", "irfftn")

COUNTS = ("solver.steps", "solver.fft_calls", "solver.fft_points",
          "solver.fft_flops_computed", "classical.rk4_steps",
          "asymptotics.phase_evals", "harness.emit.files", "harness.emit.bytes")


def _evolve_steps(args, kwargs) -> int:
    """Strang steps evolve() takes: whole steps of dt up to t_end, plus one
    shortened step when a tail is left (SolverConfig's documented rule)."""
    psi0 = args[0] if args else kwargs["psi0"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    remaining = config.t_end - psi0.time
    n_full = int(math.floor(remaining / config.dt + 1e-12))
    tail = remaining - n_full * config.dt
    return n_full + (1 if tail >= 1e-12 * config.dt else 0)


def _transform(name: str, a, args, kwargs) -> tuple[int, int]:
    """(points, transform length) of one numpy/scipy FFT call."""
    shape = a.shape if isinstance(a, np.ndarray) else np.shape(a)
    if name.endswith(("n", "2")):
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        if axes is None:
            axes = range(len(shape)) if name.endswith("n") else (-2, -1)
        return math.prod(shape), math.prod(shape[ax] for ax in axes)
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    return math.prod(shape), shape[axis]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        # [group, start, end, parent index or -1, run id, raised]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (run id, name) -> count
        self.run = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _span(self, group: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1, self.run, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            self._count_outputs(group, args, kwargs, out)
            return out

        return wrapper

    def _count_outputs(self, group, args, kwargs, out) -> None:
        counts, run = self.counts, self.run
        if group == "solver.evolve":
            counts[run, "solver.steps"] += _evolve_steps(args, kwargs)
        elif group == "classical.integrate":
            counts[run, "classical.rk4_steps"] += len(out.points) - 1
        elif group == "harness.emit":
            counts[run, "harness.emit.files"] += len(out)
            counts[run, "harness.emit.bytes"] += sum(p.stat().st_size for p in out)

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.run, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fft(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            # the innermost open solver span, if any, owns the transform
            owner = next((spans[i][0] for i in reversed(stack)
                          if spans[i][0].startswith("solver.")), None)
            if owner is not None:
                size, length = _transform(name, a, args, kwargs)
                run = self.run
                counts[run, "solver.fft_calls"] += 1
                counts[run, "solver.fft_points"] += size
                counts[run, "solver.fft_flops_computed"] += 5 * size * math.log2(length)
                counts[run, owner + ".fft_points"] += size
            return fn(a, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch_method(self, cls, attr: str, make) -> None:
        orig = vars(cls)[attr]
        if isinstance(orig, classmethod):
            new = classmethod(make(orig.__func__))
        else:
            new = make(orig)
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, new)

    @contextlib.contextmanager
    def installed(self, run):
        """Record under run id `run` while the block runs; the originals are
        restored on exit, also when the block raises."""
        self.run = run
        try:
            self._install()
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def _install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "semiwave" or name.startswith("semiwave.")]
        for group, fns in FUNCTION_GROUPS.items():
            for fn in fns:
                wrapper = self._span(group, fn)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for group, pairs in METHOD_GROUPS.items():
            for base, attr in pairs:
                for cls in _subclasses(base):
                    if attr in vars(cls):
                        self._patch_method(cls, attr, lambda f, g=group: self._span(g, f))
        for cls in _subclasses(WkbFields):
            for attr in PHASE_METHODS:
                if attr in vars(cls):
                    self._patch_method(
                        cls, attr, lambda f: self._counted("asymptotics.phase_evals", f))
        fft_modules = [np.fft]
        if "scipy.fft" in sys.modules:
            fft_modules.append(sys.modules["scipy.fft"])
        for mod in fft_modules:
            for attr in FFT_FUNCTIONS:
                if hasattr(mod, attr):
                    self._patches.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._fft(getattr(mod, attr)))

    # -- summaries ---------------------------------------------------------
    def summary(self, run) -> dict[str, float]:
        """Per-layer metrics of one run id (see README.md for each name)."""
        child = [0.0] * len(self.spans)
        for g, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {f"{g}.{k}": 0.0 for g in GROUPS for k in ("calls", "self_s")}
        out.update({f"{layer}.{k}": 0.0 for layer in LAYERS
                    for k in ("calls", "self_s", "errors")})
        inclusive = Counter()
        n = 0
        for idx, (g, t0, t1, parent, r, raised) in enumerate(self.spans):
            if r != run:
                continue
            n += 1
            layer = g.split(".", 1)[0]
            own = t1 - t0 - child[idx]
            inclusive[g] += t1 - t0
            out[g + ".calls"] += 1
            out[g + ".self_s"] += own
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += own
            if raised and (parent < 0 or not self.spans[parent][0].startswith(layer + ".")):
                out[layer + ".errors"] += 1
        for name in COUNTS:
            out[name] = float(self.counts[run, name])
        steps = out["solver.steps"]
        rk4 = out["classical.rk4_steps"]
        out["solver.step_us"] = 1e6 * inclusive["solver.evolve"] / steps if steps else 0.0
        out["classical.step_us"] = 1e6 * inclusive["classical.integrate"] / rk4 if rk4 else 0.0
        # complex128 read and written once per transform; elementwise passes
        # are not modelled
        out["solver.step_bytes_computed"] = (
            32.0 * self.counts[run, "solver.evolve.fft_points"] / steps if steps else 0.0)
        out["trace.spans"] = float(n)
        return out

"""Experiment configuration: loading, overrides, and the typed schema.

A configuration is one YAML document with nested blocks.  Each scenario
declares its document below as a frozen dataclass, one class per block,
and parse_config() walks the raw blocks into those classes once.  Every
problem is reported by dotted field path: a missing, unknown or mistyped
key (a float key takes finite numbers alone), or a ValueError from a
block's own checks.  Where the library declares a block's keys
(SolitonParams, Class1Params, Class2Params, CylindricalParams) the
walker fills that class directly.  Potentials are named closed forms
with numeric parameters, each with one scalar() builder, and callable
fields are never read, so a config file can never inject code.  A family
block builds a WkbFields, which carries the external field it solves.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from types import NoneType, UnionType
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from ..asymptotics import (Class1Fields, Class1Params, Class2Fields, Class2Params,
                          CylindricalParams, SolitonParams)
from ..asymptotics.families import _check_class1
from ..core import (Grid, HarmonicScalar, PhysParams, PotentialSpec, SeparatedScalar,
                    UniformVector, ZeroScalar, ZeroVector, make_axis_offset_grid,
                    make_uniform_grid)
from ..solver import SolverConfig


class ConfigError(ValueError):
    """Schema violation; carries one message per offending field path."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentConfig:
    """Raw configuration blocks of one scenario run, as loaded and
    overridden; parse_config() turns them into the scenario's schema.  An
    absent block is None, and a present one, empty included, is a dict."""

    scenario: str
    grid: dict | None = None
    params: dict | None = None
    potential: dict | None = None
    family: dict | None = None
    solver: dict | None = None
    convergence: dict | None = None
    output: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(["<root>: config must be a mapping"])
        unknown = sorted(set(raw) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigError([f"{k}: unknown top-level block" for k in unknown])
        if "scenario" not in raw:
            raise ConfigError(["scenario: required"])
        blocks = {k: {} if v is None else v for k, v in raw.items() if k != "scenario"}
        bad = [f"{k}: must be a mapping" for k, v in blocks.items() if not isinstance(v, dict)]
        if bad:
            raise ConfigError(bad)
        return cls(scenario=str(raw["scenario"]), **blocks)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_load_yaml(Path(path).read_text(), str(path)))

    def apply_override(self, dotted: str) -> None:
        """Apply one 'a.b.c=value' override; the value is parsed as YAML.

        A one-key path replaces that whole block: the value must be a
        mapping, and None stands for an empty block, as in from_dict."""
        if "=" not in dotted:
            raise ConfigError([f"{dotted}: override must look like path=value"])
        path, _, raw_val = dotted.partition("=")
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            raise ConfigError([f"{dotted}: empty override path"])
        value = _load_yaml(raw_val, dotted)
        if keys == ["scenario"]:
            self.scenario = str(value)
            return
        if keys[0] not in self.__dataclass_fields__ or keys[0] == "scenario":
            raise ConfigError([f"{keys[0]}: unknown top-level block"])
        if len(keys) == 1:
            if value is None:
                value = {}
            if not isinstance(value, dict):
                raise ConfigError([f"{keys[0]}: must be a mapping"])
            setattr(self, keys[0], value)
            return
        node = getattr(self, keys[0])
        if node is None:  # an absent block is made by its first write
            setattr(self, keys[0], node := {})
        for k in keys[1:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError([f"{path}: {k} is not a mapping"])
        node[keys[-1]] = value


def _load_yaml(text: str, source: str):
    """The YAML document in text; source names it in a parse error."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as err:
        problem = f"{source}: not valid YAML ({' '.join(str(err).split())})"
        raise ConfigError([problem]) from None


# ---------------------------------------------------------------------------
# schema: one frozen class per block

_block = dataclass(frozen=True, kw_only=True)
_INLINE = {"inline": True}  # field metadata: its class's keys sit in the same mapping


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise ConfigError([problem])


def _positive(block, *keys: str) -> None:
    bad = [f"{k}: must be positive" for k in keys if not getattr(block, k) > 0]
    if bad:
        raise ConfigError(bad)


def _grid_size(n: int) -> None:
    _require(n >= 16 and not n & (n - 1), "n: must be a power-of-two integer >= 16")


@_block
class Grid1d:
    """n points on [lo, hi)."""

    n: int
    lo: float
    hi: float

    def __post_init__(self):
        _grid_size(self.n)
        self.build()

    def build(self) -> Grid:
        return make_uniform_grid(1, self.lo, self.hi, self.n)


@_block
class Grid2d:
    """Axis-offset n x n grid on [-half_width, half_width)**2."""

    half_width: float
    n: int

    def __post_init__(self):
        _grid_size(self.n)
        _positive(self, "half_width")

    def build(self) -> Grid:
        return make_axis_offset_grid(2, self.half_width, self.n)


@_block
class Params:
    """PhysParams checks the values."""

    hbar: float
    mass: float
    r: float

    def __post_init__(self):
        for hbar in self.hbars:
            self.phys(hbar)

    @property
    def hbars(self) -> tuple[float, ...]:
        return self.hbar if isinstance(self.hbar, tuple) else (self.hbar,)

    def phys(self, hbar: float | None = None) -> PhysParams:
        """PhysParams at hbar, by default the first or only value."""
        hbar = self.hbars[0] if hbar is None else hbar
        return PhysParams(hbar=hbar, mass=self.mass, r=self.r)


@_block
class SweepParams(Params):
    hbar: tuple[float, ...]

    def __post_init__(self):
        _require(len(self.hbar) >= 3, "hbar: sweep needs at least 3 values")
        _require(all(b < a for a, b in zip(self.hbar, self.hbar[1:])),
                 "hbar: sweep must be strictly decreasing")
        super().__post_init__()


@_block
class EhrenfestParams(Params):
    """r_values: the self-attraction strengths to run, r alone by default."""

    r_values: tuple[float, ...] | None = None

    def __post_init__(self):
        _require(self.r_values != (), "r_values: needs at least one value")
        super().__post_init__()


@_block
class Zero:
    form: ClassVar[str] = "zero"

    def scalar(self, mass=None):
        return ZeroScalar()

    def vector(self):
        return ZeroVector()


@_block
class Harmonic:
    """V = (m/2) omega**2 (x - center)**2."""

    form: ClassVar[str] = "harmonic"
    omega: float
    center: float = 0.0

    def __post_init__(self):
        _positive(self, "omega")

    def scalar(self, mass):
        return HarmonicScalar(omega=(self.omega,), center=(self.center,), mass=mass)


@_block
class Quadratic:
    """V = v1(x) = coefficient * x**2."""

    form: ClassVar[str] = "quadratic"
    coefficient: float

    def scalar(self, mass=None):
        c = self.coefficient
        return SeparatedScalar(v1=lambda x: c * np.asarray(x) ** 2,
                               v1_prime=lambda x: 2.0 * c * np.asarray(x))


@_block
class Uniform:
    """Spatially constant A, one component per grid axis."""

    form: ClassVar[str] = "uniform"
    components: tuple[float, ...]

    def vector(self):
        return UniformVector(a_of_t=lambda t: self.components)


@_block
class Potential:
    """The confining V and the vector A of ehrenfest's one-dimensional run."""

    scalar: Harmonic | Quadratic
    vector: Zero | Uniform = Zero()

    def __post_init__(self):
        v = self.scalar
        _require(not isinstance(v, Quadratic) or v.coefficient > 0,
                 "scalar: ehrenfest needs a confining potential (harmonic, or "
                 "quadratic with coefficient > 0)")
        _require(not isinstance(self.vector, Uniform) or len(self.vector.components) == 1,
                 "vector.components: needs 1 value, one per grid axis")

    def build(self, mass: float) -> PotentialSpec:
        return PotentialSpec(scalar=self.scalar.scalar(mass), vector=self.vector.vector())


@_block
class Solver:
    dt: float
    t_end: float
    snapshot_every: int = 1

    def __post_init__(self):
        _positive(self, "dt", "t_end", "snapshot_every")

    def config(self, params: PhysParams, pot: PotentialSpec) -> SolverConfig:
        return SolverConfig(dt=self.dt, t_end=self.t_end,
                            snapshot_every=self.snapshot_every, params=params, pot=pot)


@_block
class Convergence:
    """t_end of the dt-halving runs."""

    t_end: float = 1.0

    def __post_init__(self):
        _positive(self, "t_end")


@_block
class Output:
    directory: str | None = None


@_block
class _Separated:
    """The potential V = v1(x); subclasses add the family's constants, whose
    class picks the family that fields() builds.  The family's interval is
    that of the grid it is sampled on."""

    v1: Zero | Quadratic = Zero()
    sigma_zero: ClassVar[float | None] = None  # a key of Class1 alone

    def check(self, grid: Grid1d) -> None:
        """Refuse class-1 constants with c1 + v1 <= 0 on the grid's interval
        or a sigma_zero outside it, before any family is built."""
        if isinstance(self.constants, Class1Params):
            _check_class1(self.constants.c1, self.v1.scalar(), (grid.lo, grid.hi),
                          self.sigma_zero)

    def fields(self, mass: float, grid: Grid1d):
        """The family the constants' class names, on the grid's interval."""
        if isinstance(self.constants, Class1Params):
            return Class1Fields(self.constants, (grid.lo, grid.hi), mass,
                                sigma_zero=self.sigma_zero, v1=self.v1.scalar())
        return Class2Fields(self.constants, (grid.lo, grid.hi), mass, v1=self.v1.scalar())


@_block
class Class1(_Separated):
    """sigma vanishes at sigma_zero, by default the interval midpoint."""

    constants: Class1Params = field(metadata=_INLINE)
    sigma_zero: float | None = None


@_block
class SampledClass1(_Separated):
    constants: Class1Params = field(metadata=_INLINE)
    grid: Grid1d

    def __post_init__(self):
        self.check(self.grid)


@_block
class SampledClass2(_Separated):
    constants: Class2Params = field(metadata=_INLINE)
    grid: Grid1d


@_block
class SampledSoliton:
    constants: SolitonParams = field(metadata=_INLINE)
    grid: Grid1d


@_block
class SampledCylindrical:
    constants: CylindricalParams = field(metadata=_INLINE)
    grid: Grid2d


@_block
class SolitonFamily:
    soliton: SolitonParams


@_block
class ConcentrationFamily(SolitonFamily):
    eval_time: float = 0.0


@_block
class ScalingFamily:
    class1: Class1
    correction_c1: float = 0.0
    eval_time: float = 0.0


@_block
class IdentityFamily:
    soliton: SampledSoliton
    class1: SampledClass1
    class2: SampledClass2
    cylindrical: SampledCylindrical
    eval_time: float = 0.25


@_block
class CylindricalFamily:
    cylindrical: CylindricalParams
    eval_time: float = 0.0


# One class per scenario document; its docstring is the scenario's
# one-line description.


@_block
class _Scenario:
    scenario: str
    output: Output = Output()


@_block
class SolitonPropagation(_Scenario):
    """closed-form solitary wave through the propagator: terminal error,
    mass drift, peak velocity, dt-halving order"""

    grid: Grid1d
    params: Params
    family: SolitonFamily
    solver: Solver
    convergence: Convergence = Convergence()


@_block
class Ehrenfest(_Scenario):
    """packet centroid versus the classical orbit for several
    self-attraction strengths"""

    grid: Grid1d
    params: EhrenfestParams
    family: SolitonFamily
    solver: Solver
    potential: Potential


@_block
class ResidualScaling(_Scenario):
    """equation residual of the leading and corrected fields across an
    hbar sweep with fitted slopes"""

    grid: Grid1d
    params: SweepParams
    family: ScalingFamily

    def __post_init__(self):
        try:
            self.family.class1.check(self.grid)
        except ValueError as err:
            raise ConfigError([f"family.class1: {err}"]) from None


@_block
class Concentration(_Scenario):
    """width decay, variance oracle, and mass-in-ball concentration of
    the solitary family"""

    grid: Grid1d
    params: SweepParams
    family: ConcentrationFamily


@_block
class IdentitySuite(_Scenario):
    """pointwise identities: eikonal residual of each family, transport
    residuals of all four"""

    params: Params
    family: IdentityFamily


@_block
class CylindricalCheck(_Scenario):
    """radial special solution: residual decay in hbar, with the slope
    reported"""

    grid: Grid2d
    params: SweepParams
    family: CylindricalFamily


# the one list of scenarios: name -> schema of its configuration
SCHEMAS = {
    "soliton-propagation": SolitonPropagation,
    "ehrenfest": Ehrenfest,
    "residual-scaling": ResidualScaling,
    "concentration": Concentration,
    "identity-suite": IdentitySuite,
    "cylindrical-check": CylindricalCheck,
}
SCENARIO_NAMES = tuple(SCHEMAS)


def default_config_path(scenario: str) -> Path:
    """Path of the packaged acceptance-grade config for a scenario."""
    if scenario not in SCHEMAS:
        raise ConfigError([f"scenario: unknown scenario {scenario!r}"])
    name = scenario.replace("-", "_") + ".yaml"
    return Path(resources.files("semiwave.harness").joinpath("configs", name))


# ---------------------------------------------------------------------------
# walker

_KINDS = {float: "a finite number", int: "an integer", str: "a string"}


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _is_number(v) -> bool:
    """A finite int or float, bool excluded: NaN, +-inf and ints beyond the
    float range are refused for every float key."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


@cache
def _keys(cls) -> tuple:
    """(field, type) of each key a block class declares; callable fields
    hold code and are never read from a file."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls)
                 if Callable not in map(get_origin, (hints[f.name], *get_args(hints[f.name]))))


def _fill(cls, raw, path: str, problems: list, known: set | None = None):
    """cls from the mapping raw, or None once a problem is recorded.  An
    inline field's class reads the same mapping and adds its key names to
    the caller's known set."""
    inline = known is not None
    if not inline and not isinstance(raw, dict):
        problems.append(f"{path}: must be a mapping")
        return None
    start, kwargs, known = len(problems), {}, known if inline else set()
    for f, tp in _keys(cls):
        key = _join(path, f.name)
        if f.metadata.get("inline"):
            kwargs[f.name] = _fill(tp, raw, path, problems, known)
            continue
        known.add(f.name)
        if f.name in raw:
            kwargs[f.name] = _value(tp, raw[f.name], key, problems)
        elif f.default is MISSING and is_dataclass(tp):  # name its missing keys
            kwargs[f.name] = _fill(tp, {}, key, problems)
        elif f.default is MISSING:
            problems.append(f"{key}: required")
    if not inline:
        expected = f" (expected one of {', '.join(sorted(known))})" if known else ""
        problems.extend(f"{_join(path, k)}: unknown key{expected}"
                        for k in sorted(set(raw) - known, key=str))
    if len(problems) == start:
        try:
            return cls(**kwargs)
        except ConfigError as err:
            problems.extend(_join(path, p) for p in err.problems)
        except ValueError as err:
            problems.append(f"{path or '<root>'}: {err}")
    return None


def _reads_as_number(text: str) -> bool:
    """True for a string that Python, but not YAML 1.1, reads as a finite number."""
    try:
        return _is_number(float(text))
    except ValueError:
        return False


def _value(tp, v, path: str, problems: list):
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return _fill(tp, v, path, problems)
    if origin in (Union, UnionType):
        options = [a for a in args if a is not NoneType]
        if v is None and len(options) < len(args):
            return None
        if len(options) == 1:
            return _value(options[0], v, path, problems)
        forms = {opt.form: opt for opt in options}  # closed forms, picked by name
        name = v.get("form") if isinstance(v, dict) else None
        if isinstance(name, str) and name in forms:
            rest = {k: x for k, x in v.items() if k != "form"}
            return _fill(forms[name], rest, path, problems)
        if not isinstance(v, dict):
            problems.append(f"{path}: must be a mapping")
        else:
            what = f"unknown form {name!r}" if "form" in v else "required"
            problems.append(f"{path}.form: {what} (choose from {', '.join(forms)})")
        return None
    if origin is tuple:
        size = None if args[-1] is Ellipsis else len(args)
        ok = isinstance(v, list) and all(map(_is_number, v)) and size in (None, len(v))
        what = f"needs a list of {'' if size is None else f'{size} '}finite numbers"
        v = tuple(map(float, v)) if ok else v
    elif isinstance(v, list):
        ok, what = False, "must be a single value, not a list"
    else:
        ok = _is_number(v) if tp is float else isinstance(v, tp) and not isinstance(v, bool)
        what = f"must be {_KINDS[tp]}"
        v = float(v) if ok and tp is float else v
    if ok:
        return v
    hint = float in (tp, *args) and any(
        isinstance(x, str) and _reads_as_number(x) for x in (v if isinstance(v, list) else [v]))
    problems.append(f"{path}: {what}, got {type(v).__name__} {v!r}"
                    + (" (YAML 1.1 reads a float only with a dot and a signed exponent: "
                       "write 1.0e-3 or 1.0e+3, not 1e-3 or 1.0e3)" if hint else ""))
    return None


def parse_config(cfg: ExperimentConfig):
    """The scenario's typed configuration, an instance of its SCHEMAS
    class; raises ConfigError listing every problem by dotted path."""
    schema = SCHEMAS.get(cfg.scenario)
    if schema is None:
        raise ConfigError(
            [f"scenario: unknown scenario {cfg.scenario!r} "
             f"(choose from {', '.join(SCHEMAS)})"]
        )
    raw = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    problems: list[str] = []
    spec = _fill(schema, {k: v for k, v in raw.items() if v is not None}, "", problems)
    if problems:
        raise ConfigError(problems)
    return spec


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError listing every schema violation by field path."""
    parse_config(cfg)

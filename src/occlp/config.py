"""Study configuration: a small line-oriented grammar with full validation.

Sections in brackets, ``key = value`` pairs, arrays in brackets, decimal
numbers; ``#`` starts a comment.  Every parse error names the offending line.
Top-level keys (before any section) apply to the whole study::

    seed = 0

    [system]
    name = rotation
    cost = y1
    inner_radius = 0.5
    outer_radius = 1.5

    [grid]
    state_resolution = [5, 64]
    control_resolution = 9

    [basis]
    degree = 4

    [program]
    variants = [ergodic, nonergodic, discounted, perturbed]
    y0 = [1.0, 0.0]
    discount_rates = [0.005]
    epsilons = [0.1, 0.01, 0.001, 0.0]

    [simulate]
    policy = steer_hold:1.0:3.14159265358979:0.0
    horizons = [25.0, 50.0, 100.0, 200.0]

    [output]
    dir = out
    formats = [json, csv-dir]

``occlp --print-defaults`` prints the default configuration, whose system is
the rotation (:func:`default_config_text`).  The built-in systems are presets
of the custom one (:data:`PRESETS`), and a ``[system]`` key that the named
system does not read is an error on its line.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .grid import GridError, check_state_resolution
from .simulate import (ConstantPolicy, LawPolicy, Policy, SchedulePolicy, SimulationError,
                       rotation_delta_family)
from .system import (ControlRegion, RegionError, StateRegion, SystemSpec, SystemSpecError,
                     validate_bounds)


class ConfigError(ValueError):
    """A config error; ``key`` names the key at fault where the line is not
    known yet (an error from :func:`build_system`)."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


# ---------------------------------------------------------------------------
# schema: each field declares one key, and its type picks the key's coercer

Expr = str  # an expression, kept as written: a bare number is one too


@dataclass(frozen=True)
class SystemConfig:
    name: str = "rotation"
    cost: Expr = "y1"
    inner_radius: float = 0.5
    outer_radius: float = 1.5
    lower: tuple[float, ...] = (-1.0, -1.0)
    upper: tuple[float, ...] = (1.0, 1.0)
    region: str = ""  # for custom systems: box | annulus
    dynamics: tuple[Expr, ...] = ()
    first_integrals: tuple[Expr, ...] = ()
    control_lower: tuple[float, ...] = (-1.0,)
    control_upper: tuple[float, ...] = (1.0,)
    bound_f: float | None = None
    bound_k: float | None = None

    @cached_property
    def spec(self) -> SystemSpec:  # built once per object
        return build_system(self)


@dataclass(frozen=True)
class GridConfig:
    state_resolution: tuple[int, ...] = (5, 64)
    control_resolution: int = 9


@dataclass(frozen=True)
class BasisConfig:
    degree: int = 4


@dataclass(frozen=True)
class ProgramConfig:
    variants: tuple[str, ...] = ("ergodic", "nonergodic")
    y0: tuple[float, ...] = (1.0, 0.0)
    discount_rates: tuple[float, ...] = (0.005,)
    epsilons: tuple[float, ...] = (0.1, 0.01, 0.001, 0.0)
    xi_mass_cap: float = 1e6


@dataclass(frozen=True)
class SimulateConfig:
    policy: str = ""
    horizons: tuple[float, ...] = (25.0, 50.0, 100.0, 200.0)
    dt: float = 1e-3
    abel_rates: tuple[float, ...] = ()
    abel_horizon: float = 1200.0
    abel_dt: float = 1e-2
    periodic_deltas: tuple[float, ...] = ()
    periodic_dt: float = 1e-2


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    formats: tuple[str, ...] = ("json",)


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 0
    system: SystemConfig = field(default_factory=SystemConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    program: ProgramConfig = field(default_factory=ProgramConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def resolved_dict(self) -> dict:
        return asdict(self)

    def system_spec(self) -> SystemSpec:
        """The ``[system]`` section's spec (:func:`build_system`), built once per
        section object: the study runs the spec that :func:`parse_config` built."""
        return self.system.spec

    def simulate_policy(self) -> Policy:
        """The ``[simulate]`` policy (:func:`build_policy`) of the system at y0,
        built once per config object, as :meth:`system_spec` is."""
        return self._policy

    @cached_property
    def _policy(self) -> Policy:
        return build_policy(self.simulate.policy, self.system_spec(),
                            np.asarray(self.program.y0, dtype=float))


_KNOWN_VARIANTS = ("ergodic", "nonergodic", "discounted", "perturbed")

# Each built-in system is ``name = custom`` with the [system] keys its preset
# fixes, given the keys it reads; bound_f is the analytic sup ||f||, which
# only stands in for an undeclared bound_f.  Every preset fixes the control
# box [-1, 1] and, but for the rotation's, no first integral.
_EVERY_PRESET = MappingProxyType(dict(control_lower=(-1.0,), control_upper=(1.0,),
                                      first_integrals=()))
PRESETS = MappingProxyType({
    # every circle about the origin is invariant: the squared radius is conserved
    "rotation": lambda cfg: dict(_EVERY_PRESET, region="annulus",
                                 dynamics=("u1*y2", "-u1*y1"),
                                 first_integrals=("y1^2 + y2^2",), bound_f=cfg.outer_radius),
    "frozen": lambda cfg: dict(_EVERY_PRESET, region="box", dynamics=("0",) * len(cfg.lower),
                               bound_f=0.0),
    "scalar-drift": lambda cfg: dict(_EVERY_PRESET, region="box", lower=(-1.0,),
                                     upper=(1.0,), dynamics=("-y1 + u1",), bound_f=2.0),
})

# the keys of the other region kind, which a region does not read
_UNREAD_BY_REGION = {"box": ("inner_radius", "outer_radius"), "annulus": ("lower", "upper")}


# ---------------------------------------------------------------------------
# tokenising


def _parse_value(raw: str, line: int):
    """A value's text as written, or an array's item texts; each key's coercer
    reads its own type from the text."""
    raw = raw.strip()
    if not raw.startswith("["):
        return raw
    if not raw.endswith("]"):
        raise ConfigError("unterminated array (missing ']')", line)
    inner = raw[1:-1].strip()
    items = tuple(part.strip() for part in _split_items(inner)) if inner else ()
    if not all(items):
        raise ConfigError("empty value", line)
    return items


def _split_items(inner: str) -> list[str]:
    """An array's items: split at the commas outside parentheses, so an item
    may call ``atan2(a, b)``."""
    items, depth, start = [], 0, 0
    for i, char in enumerate(inner):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            items.append(inner[start:i])
            start = i + 1
    return items + [inner[start:]]


def _read_items(text: str) -> dict[str, dict[str, tuple[object, int]]]:
    """Section -> key -> (value, line).  Top-level keys live in section ''."""
    sections: dict[str, dict[str, tuple[object, int]]] = {"": {}}
    current = ""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            current = line[1:-1].strip()
            if not current:
                raise ConfigError("empty section name", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, raw_value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (_parse_value(raw_value, lineno), lineno)
    return sections


# ---------------------------------------------------------------------------
# coercion helpers


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _finite(values: tuple[float, ...], line: int, key: str) -> tuple[float, ...]:
    # float() reads nan, inf and 1e999, which would pass every "> 0" check
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v!r}", line)
    return values


def _want_float(value, line: int, key: str) -> float:
    number = _number(value) if isinstance(value, str) else None
    if number is None:
        raise ConfigError(f"{key} must be a number, got {value!r}", line)
    return _finite((number,), line, key)[0]


def _want_int(value, line: int, key: str) -> int:
    number = _number(value) if isinstance(value, str) else None
    if number is None or not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}", line)
    return int(number)


def _want_str(value, line: int, key: str) -> str:
    if isinstance(value, str) and _number(value) is None:
        return value
    raise ConfigError(f"{key} must be a name, got {value!r}", line)


def _want_expr(value, line: int, key: str) -> str:
    # the text as written: exprs.parse_expr reads a bare number too
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be an expression, got {value!r}", line)


def _want_float_tuple(value, line: int, key: str) -> tuple[float, ...]:
    numbers = tuple(map(_number, (value,) if isinstance(value, str) else value))
    if None in numbers:
        raise ConfigError(f"{key} must be a numeric array, got {value!r}", line)
    return _finite(numbers, line, key)


def _want_int_tuple(value, line: int, key: str) -> tuple[int, ...]:
    floats = _want_float_tuple(value, line, key)
    if not all(v.is_integer() for v in floats):
        raise ConfigError(f"{key} must contain integers, got {value!r}", line)
    return tuple(int(v) for v in floats)


def _want_str_tuple(value, line: int, key: str) -> tuple[str, ...]:
    items = (value,) if isinstance(value, str) else value
    if any(_number(v) is not None for v in items):
        raise ConfigError(f"{key} must be an array of names, got {value!r}", line)
    return items


def _want_expr_tuple(value, line: int, key: str) -> tuple[str, ...]:
    return (value,) if isinstance(value, str) else value


_COERCERS = {"str": _want_str, "Expr": _want_expr, "int": _want_int, "float": _want_float,
             "float | None": _want_float, "tuple[int, ...]": _want_int_tuple,
             "tuple[float, ...]": _want_float_tuple, "tuple[str, ...]": _want_str_tuple,
             "tuple[Expr, ...]": _want_expr_tuple}

# section name -> the fields declaring its keys; "" holds the top-level keys
_SECTIONS = {f.name: f.default_factory for f in fields(StudyConfig)
             if f.default_factory is not MISSING}
_SCHEMA = {"": tuple(f for f in fields(StudyConfig) if f.name not in _SECTIONS),
           **{name: fields(cls) for name, cls in _SECTIONS.items()}}


def parse_config(text: str) -> StudyConfig:
    """Parse and fully validate a study configuration."""
    sections = _read_items(text)
    for section, items in sections.items():
        if section not in _SCHEMA:
            line = min(line for _, line in items.values()) if items else None
            raise ConfigError(f"unknown section [{section}]", line)
        known = {f.name for f in _SCHEMA[section]}
        for key, (_value, line) in items.items():
            if key not in known:
                where = f"[{section}]" if section else "top level"
                raise ConfigError(f"unknown key {key!r} in {where}", line)

    def line_of(section: str, key: str) -> int | None:
        return sections.get(section, {}).get(key, (None, None))[1]

    def build(section: str, cls):
        items = sections.get(section, {})
        return cls(**{f.name: _COERCERS[f.type](*items[f.name], f.name)
                      for f in _SCHEMA[section] if f.name in items})

    top = build("", dict)
    system, grid, basis = (build("system", SystemConfig), build("grid", GridConfig),
                           build("basis", BasisConfig))
    if basis.degree < 1:
        raise ConfigError("degree must be >= 1", line_of("basis", "degree"))

    program = build("program", ProgramConfig)
    for variant in program.variants:
        if variant not in _KNOWN_VARIANTS:
            raise ConfigError(f"unknown program variant {variant!r}",
                              line_of("program", "variants"))
    for rate in program.discount_rates:
        if rate <= 0:
            raise ConfigError("discount_rates must be positive",
                              line_of("program", "discount_rates"))
    for eps in program.epsilons:
        if eps < 0:
            raise ConfigError("epsilons must be nonnegative", line_of("program", "epsilons"))
    if program.xi_mass_cap <= 0:
        raise ConfigError("xi_mass_cap must be positive", line_of("program", "xi_mass_cap"))
    for key in ("discount_rates", "epsilons"):
        _check_report_names(getattr(program, key), key, line_of("program", key))

    sim = build("simulate", SimulateConfig)
    for key in ("dt", "abel_dt", "periodic_dt", "abel_horizon", "horizons", "abel_rates"):
        if np.any(np.asarray(getattr(sim, key)) <= 0):
            raise ConfigError(f"{key} must be positive", line_of("simulate", key))
    if not all(0.0 < delta <= 1.0 for delta in sim.periodic_deltas):
        raise ConfigError("periodic_deltas must lie in (0, 1]",
                          line_of("simulate", "periodic_deltas"))
    if sim.policy and not sim.horizons:
        raise ConfigError("a policy needs at least one horizon", line_of("simulate", "horizons"))
    for key in ("horizons", "abel_rates"):
        _check_report_names(getattr(sim, key), key, line_of("simulate", key))

    output = build("output", OutputConfig)
    for fmt in output.formats:
        if fmt not in ("json", "csv-dir"):
            raise ConfigError(f"unknown output format {fmt!r}", line_of("output", "formats"))
    cfg = StudyConfig(**top, system=system, grid=grid, basis=basis, program=program,
                      simulate=sim, output=output)

    # cross-block validation: the system must read every key set in its
    # section and build, its grid must build, y0 must be inside it, and the
    # policy and the periodic candidates must build for it
    unread = _unread_keys(cfg.system)
    for key, (_value, line) in sections.get("system", {}).items():
        if key in unread:
            raise ConfigError(f"key {key!r} is not read by system {cfg.system.name!r}", line)
    try:
        spec = cfg.system_spec()
    except ConfigError as err:
        text = str(err) if str(err).startswith(f"{err.key} ") else f"{err.key}: {err}"
        raise ConfigError(text, line_of("system", err.key) or line_of("system", "name")) from err
    try:
        check_state_resolution(spec.region, cfg.grid.state_resolution)
    except GridError as err:
        raise ConfigError(str(err), line_of("grid", "state_resolution")) from err
    try:
        spec.control.grid(cfg.grid.control_resolution)
    except RegionError as err:
        raise ConfigError(str(err), line_of("grid", "control_resolution")) from err
    y0 = np.asarray(cfg.program.y0, dtype=float)
    if y0.shape != (spec.dim_state,):
        raise ConfigError(f"y0 has dimension {y0.shape[0]}, system expects {spec.dim_state}",
                          line_of("program", "y0"))
    if not spec.region.contains(y0):
        raise ConfigError(f"y0 {cfg.program.y0} lies outside the state region",
                          line_of("program", "y0"))
    if sim.policy:
        try:
            cfg.simulate_policy()
        except ConfigError as err:
            raise ConfigError(str(err), line_of("simulate", "policy")) from err
    for delta in sim.periodic_deltas:  # each candidate runs as a rotation_delta policy
        try:
            build_policy(f"rotation_delta:{delta!r}", spec, y0)
        except ConfigError as err:
            raise ConfigError(f"periodic_deltas: {err}",
                              line_of("simulate", "periodic_deltas")) from err
    return cfg


def _check_report_names(values, key: str, line: int | None):
    """Each entry names its report entries by its ``:g`` form (``perturbed[eps=0.1]``,
    ``cesaro[T=25]``...), so two entries with the same form would overwrite each other."""
    seen = {}
    for value in values:
        name = f"{value:g}"
        if name in seen:
            raise ConfigError(f"{key} entries {seen[name]!r} and {value!r} share the report "
                              f"name {name}", line)
        seen[name] = value


# ---------------------------------------------------------------------------
# building runtime objects from configuration


def _unread_keys(cfg: SystemConfig) -> set[str]:
    """The [system] keys that ``cfg``'s system does not read: those its preset
    fixes, bound_f aside, and those of the other region kind."""
    fixed = PRESETS[cfg.name](cfg) if cfg.name in PRESETS else {}
    kind = fixed.get("region", cfg.region)
    return (fixed.keys() - {"bound_f"}) | set(_UNREAD_BY_REGION.get(kind, ()))


def build_system(cfg: SystemConfig) -> SystemSpec:
    """The configured system: a custom one, or a built-in one as the custom
    system its preset declares (:data:`PRESETS`).  Keys that the system does
    not read are ignored here; :func:`parse_config` rejects them.  It raises
    a ConfigError whose ``key`` names the ``[system]`` key at fault."""
    analytic_f = None
    if cfg.name in PRESETS:
        preset = PRESETS[cfg.name](cfg)
        analytic_f = preset.pop("bound_f")
        cfg = replace(cfg, **preset)
    elif cfg.name != "custom":
        raise ConfigError(f"unknown system name {cfg.name!r}", key="name")
    if not cfg.dynamics:
        raise ConfigError("custom systems need a dynamics array of expressions", key="dynamics")
    # the system is built with its undeclared bounds unchecked (inf), and its
    # declared bounds are checked against its sampled maxima
    try:
        if cfg.region == "annulus":
            region = StateRegion(kind="annulus", inner=cfg.inner_radius, outer=cfg.outer_radius)
        elif cfg.region == "box":
            region = StateRegion(kind="box", lower=cfg.lower, upper=cfg.upper)
        else:
            raise ConfigError("custom systems need region = box or region = annulus",
                              key="region")
        probe = SystemSpec(dynamics_text=tuple(cfg.dynamics), cost_text=cfg.cost, region=region,
                           control=ControlRegion(lower=cfg.control_lower,
                                                 upper=cfg.control_upper),
                           first_integrals=tuple(cfg.first_integrals),
                           bound_f=math.inf if cfg.bound_f is None else cfg.bound_f,
                           bound_k=math.inf if cfg.bound_k is None else cfg.bound_k)
    except SystemSpecError as err:
        region_key = "inner_radius" if cfg.region == "annulus" else "lower"
        key = {"dynamics_text": "dynamics", "cost_text": "cost", "control": "control_lower",
               "first_integrals": "first_integrals", "region": region_key}.get(err.field, "name")
        raise ConfigError(str(err), key=key) from err
    with np.errstate(all="ignore"):  # a NaN or inf sample is the error below
        report = validate_bounds(probe)
    for key, sampled in (("dynamics", report.max_dynamics_norm),
                         ("cost", report.max_cost_abs)):
        if not math.isfinite(sampled):
            raise ConfigError(f"{key} is not finite on the sampled state region "
                              f"(sampled maximum {sampled})", key=key)
    for text, drift, conserved in zip(cfg.first_integrals, report.max_drifts, report.conserved):
        if not math.isfinite(drift):
            raise ConfigError(f"first integral {text!r}: its drift grad F . f is not finite "
                              f"on the sampled state region (sampled maximum {drift})",
                              key="first_integrals")
        if not conserved:
            raise ConfigError(f"first integral {text!r} is not conserved: its drift "
                              f"|grad F . f| reaches {drift:.6g} on the sampled state region",
                              key="first_integrals")
    # the sampled maximum is a lower bound on the sup, so a declared bound
    # below it is wrong; one at or above it is used.  An undeclared bound is
    # a built-in's own bound_f, or else the sampled maximum, with headroom on
    # a custom system
    for key, sampled, ok in (("bound_f", report.max_dynamics_norm, report.bound_f_ok),
                             ("bound_k", report.max_cost_abs, report.bound_k_ok)):
        if not ok:
            raise ConfigError(f"{key} {getattr(cfg, key):g} is below its sampled "
                              f"maximum {sampled:.6g} on the state region", key=key)
    if analytic_f is None:
        defaults = (1.1 * report.max_dynamics_norm, 1.1 * report.max_cost_abs)
    else:
        defaults = (analytic_f, report.max_cost_abs)
    return probe.with_bounds(defaults[0] if cfg.bound_f is None else cfg.bound_f,
                             defaults[1] if cfg.bound_k is None else cfg.bound_k)


def build_policy(text: str, spec: SystemSpec, y0) -> Policy:
    """Policy mini-syntax: ``constant:<u..>``, ``steer_hold:<u>:<t>:<u>``,
    ``schedule:t0:u0,t1:u1,...`` (optionally ``@period``), ``rotation_delta:<d>``."""
    if not text:
        raise ConfigError("no policy configured")
    kind, _, rest = text.partition(":")
    if kind not in ("constant", "steer_hold", "schedule", "rotation_delta"):
        raise ConfigError(f"unknown policy kind {kind!r}")
    try:
        if kind == "constant":
            policy = ConstantPolicy([float(v) for v in rest.split(":")])
        elif kind == "steer_hold":  # a two-piece schedule
            u1, t_switch, u2 = rest.split(":")
            policy = SchedulePolicy([0.0, float(t_switch)], [float(u1), float(u2)])
        elif kind == "schedule":
            body, _, period = rest.partition("@")
            times, values = [], []
            for piece in body.split(","):
                t_text, u_text = piece.split(":")
                times.append(float(t_text))
                values.append(float(u_text))
            policy = SchedulePolicy(times, values, period=float(period) if period else None)
        else:
            policy = rotation_delta_family(spec, y0, [float(rest)])[0].policy
    except (ValueError, IndexError, SimulationError) as err:
        raise ConfigError(f"malformed policy {text!r}: {err}") from err
    controls = [policy.law] if isinstance(policy, LawPolicy) else policy.values
    for u in controls:
        if len(u) != spec.dim_control:
            raise ConfigError(f"policy {text!r} gives a control of length {len(u)}, "
                              f"the system has {spec.dim_control} controls")
    return policy


def default_config_text() -> str:
    """The default configuration (what --print-defaults shows).  Its system is
    the rotation, and it leaves out the nine ``[system]`` keys it does not set:
    ``region``, ``lower``, ``upper``, ``dynamics``, ``first_integrals``,
    ``control_lower``, ``control_upper``, ``bound_f`` and ``bound_k``
    (:class:`SystemConfig` lists every key)."""
    return f"""\
seed = 0

[system]
name = rotation            # rotation | frozen | scalar-drift | custom
cost = y1
inner_radius = 0.5
outer_radius = 1.5

[grid]
state_resolution = [5, 64] # box: one entry per axis; annulus: [radial, angular]
control_resolution = 9

[basis]
degree = 4

[program]
variants = [ergodic, nonergodic]
y0 = [1.0, 0.0]
discount_rates = [0.005]
epsilons = [0.1, 0.01, 0.001, 0.0]
xi_mass_cap = {ProgramConfig.xi_mass_cap!r}

[simulate]
policy =                   # constant:<u> | steer_hold:<u>:<t>:<u> | schedule:... | rotation_delta:<d>
horizons = [25.0, 50.0, 100.0, 200.0]
dt = 0.001
abel_rates = []
abel_horizon = 1200.0
abel_dt = 0.01
periodic_deltas = []
periodic_dt = 0.01

[output]
dir = out
formats = [json]
"""

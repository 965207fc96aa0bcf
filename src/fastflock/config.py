"""Scenario configuration: dataclasses, YAML loading, and validation.

Validation is collecting: every violated field is reported, not just the
first one found.
"""

from __future__ import annotations

import dataclasses
import math
import re
import types
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .flocking import ControllerGains
from .geometry import TWO_PI, pairwise
from .sensors import CommConfig, SensorConfig, VioConfig
from .velocity_inference import ResponseModel


class ConfigError(Exception):
    """One or more invalid configuration fields."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class PlantConfig:
    tau: float = 0.5
    v_max: float = 8.0
    a_max: float = 4.0


@dataclass
class FilterConfig:
    """The track bank's assumed noise of communicated and of inferred
    velocities; the other filter constants live in the modules that use
    them."""

    vel_sigma_comm: float = 0.3
    vel_sigma_inferred: float = 0.8


@dataclass
class TargetConfig:
    kind: str = "static"  # static | waypoints
    position: tuple[float, float] = (0.0, 0.0)
    waypoints: list[tuple[float, float]] = field(default_factory=list)
    speed: float = 0.0


@dataclass
class LayoutConfig:
    kind: str = "grid"  # grid | ring | explicit
    spacing: float = 13.0
    origin: tuple[float, float] = (0.0, 0.0)
    positions: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    dt: float = 0.05
    duration: float = 60.0
    n_agents: int = 6
    comm: bool = True
    safety_radius: float = 2.0
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    gains: ControllerGains = field(
        default_factory=lambda: ControllerGains(
            kp=0.8, kv=0.5, cruise_speed=5.0, d_min=15.0, d_max=40.0, spacing=13.0
        )
    )
    sensors: SensorConfig = field(default_factory=SensorConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    # An optional override of the neighbours' response model; when absent,
    # the simulation derives it from `dt` and `plant.tau`
    # (`ResponseModel.of_plant`).
    response_model: ResponseModel | None = None


# The dataclass that each nested section of a scenario mapping builds, by path.
_SECTIONS = {
    "layout": LayoutConfig,
    "gains": ControllerGains,
    "sensors": SensorConfig,
    "sensors.vio": VioConfig,
    "sensors.comm": CommConfig,
    "plant": PlantConfig,
    "filters": FilterConfig,
    "target": TargetConfig,
    "response_model": ResponseModel,
}
# Each buildable class's field annotations, resolved once.
_HINTS = {cls: typing.get_type_hints(cls)
          for cls in (ScenarioConfig, *_SECTIONS.values())}


def _is_number(value) -> bool:
    """A finite real number; a bool does not count as a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _fits(value, hint) -> bool:
    """Whether `value` has the type a field annotation `hint` asks for:
    `float` a finite real, `int` an int, `bool` and `str` their own type, a
    tuple or list a sequence of fitting entries (a fixed-size tuple of its
    exact length). Other types, such as the sections, are not checked here."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin in (tuple, list):
        if not isinstance(value, (tuple, list)):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_fits, value, args))
        return all(_fits(item, args[0]) for item in value)
    if hint is type(None):
        return value is None
    if hint is float:
        return _is_number(value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint in (bool, str):
        return isinstance(value, hint)
    return True


def _describe(hint) -> str:
    """What `_fits` asks of a value for the annotation `hint`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(arg) for arg in args)
    if origin is tuple and args[-1] is not Ellipsis:
        return f"a list of {len(args)} entries, each {_describe(args[0])}"
    if origin in (tuple, list):
        return f"a list, each entry {_describe(args[0])}"
    return {type(None): "null", float: "a finite number", int: "an integer",
            bool: "true or false", str: "a string"}[hint]


def _build(cls, data, errors: list[str], prefix: str = ""):
    """`cls` built from the mapping `data`, each nested section built the
    same way; None, with every reason appended to `errors`, when it cannot
    be built. A null section keeps its default, and so does a field whose
    value does not fit its annotation (which is reported)."""
    if not isinstance(data, Mapping):
        errors.append(f"{prefix or 'scenario'}: must be a mapping")
        return None
    hints = _HINTS[cls]
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    mistyped = False
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in known:
            errors.append(f"{prefix}: unknown field '{key}'" if prefix
                          else f"unknown top-level field '{key}'")
        elif path in _SECTIONS:
            if value is not None:
                built = _build(_SECTIONS[path], value, errors, path)
                if built is not None:
                    kwargs[key] = built
        elif _fits(value, hints[key]):
            kwargs[key] = value
        else:
            errors.append(f"{path} must be {_describe(hints[key])}")
            mistyped = True
    try:
        return cls(**kwargs)
    except TypeError as exc:
        # A required field is missing. A dropped mistyped field may be the
        # one; its own error already explains that.
        if not mistyped:
            errors.append(f"{prefix}: {exc}")
        return None


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig; raises ConfigError listing every
    violated field."""
    errors: list[str] = []
    config = _build(ScenarioConfig, data, errors)
    if config is not None:
        # `_build` has type-checked every field it took.
        errors.extend(_semantic_errors(config))
    if errors:
        raise ConfigError(errors)
    return config


def _int_at_least(value, least: int) -> bool:
    """An int >= least; a bool does not count as a number."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _positive(value) -> bool:
    """A finite real number > 0; a bool does not count as a number."""
    return _is_number(value) and value > 0


def _semantic_errors(config: ScenarioConfig) -> list[str]:
    """Semantic checks across a well-typed scenario."""
    errors = []
    if not _int_at_least(config.seed, 0):
        errors.append("seed must be an integer >= 0")
    agents_ok = _int_at_least(config.n_agents, 1)
    if not agents_ok:
        errors.append("n_agents must be an integer >= 1")
    for name in ("dt", "duration", "safety_radius"):
        if not _positive(getattr(config, name)):
            errors.append(f"{name} must be a finite number > 0")
    # The run flies round(duration / dt) ticks, and a log needs two; the
    # ratio test is the same and cannot overflow as round() of inf does.
    if (_positive(config.dt) and _positive(config.duration)
            and not config.duration / config.dt >= 1.5):
        errors.append("duration must span at least two ticks: "
                      "round(duration / dt) >= 2")
    sensors = config.sensors
    vio = sensors.vio
    if not 0.0 < sensors.fov <= TWO_PI:
        errors.append("sensors.fov must lie in (0, 2*pi]")
    if sensors.heading_mode not in ("velocity", "goal"):
        errors.append("sensors.heading_mode must be 'velocity' or 'goal'")
    for name, value in (("bearing_sigma", sensors.bearing_sigma),
                        ("range_sigma_rel", sensors.range_sigma_rel),
                        ("imu_accel_sigma", sensors.imu_accel_sigma),
                        ("target_sigma", sensors.target_sigma),
                        *((f"vio.{name}", getattr(vio, name)) for name in (
                            "pos_sigma", "vel_sigma", "drift_rate",
                            "count_sigma"))):
        # numpy rejects a noise scale of -0.0 as negative.
        if math.copysign(1.0, value) < 0:
            errors.append(f"sensors.{name} must be >= 0 (and not -0)")
    for name, value in (("dropout_prob", sensors.dropout_prob),
                        ("comm.drop_prob", sensors.comm.drop_prob)):
        if not 0.0 <= value <= 1.0:
            errors.append(f"sensors.{name} must be in [0, 1]")
    if sensors.comm.latency_ticks < 0:
        errors.append("sensors.comm.latency_ticks must be >= 0")
    gains = config.gains
    for name in ("kp", "kv", "cruise_speed", "spacing"):
        if getattr(gains, name) <= 0:
            errors.append(f"gains.{name} must be > 0")
    if not 0 < gains.d_min < gains.d_max:
        errors.append("gains.d_min must satisfy 0 < d_min < d_max")
    if gains.max_neighbors < 1:
        errors.append("gains.max_neighbors must be >= 1")
    # Below pi/700 every blend weight can underflow to zero (exp(-700) is
    # still a normal float), and the weights become 0/0.
    if not gains.bearing_scale >= math.pi / 700:
        errors.append("gains.bearing_scale must be >= pi/700")
    if config.plant.tau <= 0 or config.plant.v_max <= 0 or config.plant.a_max <= 0:
        errors.append("plant tau/v_max/a_max must be > 0")
    elif (_positive(config.dt)
          and not 1.0 - math.exp(-config.dt / config.plant.tau) > 0.0):
        # The self-state filter's command input would round to zero.
        errors.append("dt is too small against plant.tau: "
                      "1 - exp(-dt / plant.tau) rounds to 0")
    for name in ("vel_sigma_comm", "vel_sigma_inferred"):
        # The bank's R = sigma^2 I needs a determinant sigma^4 in (0, inf).
        sigma = getattr(config.filters, name)
        if not (sigma > 0 and 0 < (sigma * sigma) * (sigma * sigma) < math.inf):
            errors.append(f"filters.{name} must be > 0 with sigma^4 in (0, inf)")
    if config.target.kind not in ("static", "waypoints"):
        errors.append("target.kind must be 'static' or 'waypoints'")
    elif config.target.kind == "waypoints":
        if len(config.target.waypoints) < 2:
            errors.append("target.waypoints needs at least two points")
        if config.target.speed <= 0:
            errors.append("target.speed must be > 0 for a waypoint target")
    elif config.target.speed < 0:
        errors.append("target.speed must be >= 0")
    layout = config.layout
    if layout.kind not in ("grid", "ring", "explicit"):
        errors.append("layout.kind must be grid, ring, or explicit")
    elif layout.kind != "explicit" and not _positive(layout.spacing):
        errors.append("layout.spacing must be a finite number > 0")
    elif agents_ok and _positive(config.safety_radius):
        try:
            positions = initial_positions(config)
        except ValueError as exc:
            errors.append(f"layout: {exc}")
        else:
            _, dist = pairwise(positions)
            close = np.argwhere(np.triu(dist < config.safety_radius, 1))
            errors.extend(
                f"layout: agents {i} and {j} start {dist[i, j]:.2f} m apart, "
                f"inside the safety radius {config.safety_radius}"
                for i, j in close.tolist()
            )
    return errors


def initial_positions(config: ScenarioConfig) -> list[np.ndarray]:
    """Deterministic initial agent positions for the configured layout."""
    layout = config.layout
    n = config.n_agents
    origin = np.asarray(layout.origin, dtype=float)
    if layout.kind == "explicit":
        if len(layout.positions) != n:
            raise ValueError(
                f"explicit layout has {len(layout.positions)} positions "
                f"for {n} agents"
            )
        return [origin + np.asarray(p, dtype=float) for p in layout.positions]
    if layout.kind == "ring":
        if n == 1:
            return [origin.copy()]
        radius = layout.spacing / (2.0 * math.sin(math.pi / n))
        return [
            origin
            + radius
            * np.array([math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)])
            for i in range(n)
        ]
    # grid: row-major square-ish grid centered on the origin
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    out = []
    for i in range(n):
        r, c = divmod(i, cols)
        offset = np.array(
            [(c - (cols - 1) / 2.0) * layout.spacing,
             (r - (rows - 1) / 2.0) * layout.spacing]
        )
        out.append(origin + offset)
    return out


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's when PyYAML has it, which also reads an
    exponent float without a dot (5e-2) as a float: YAML 1.1 reads a
    string."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9][0-9_]*(\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read, build and validate a scenario file; an unreadable or malformed
    file is a ConfigError like any invalid field."""
    try:
        with open(path) as handle:
            data = yaml.load(handle, Loader=_Loader)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: expected a mapping at the top level"])
    return scenario_from_dict(data)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-data view of the scenario, suitable for the log header."""
    return dataclasses.asdict(config)

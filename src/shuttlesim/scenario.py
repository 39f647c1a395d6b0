"""Scenario files: a YAML description of world, route, vehicle and parameters.

Schema (all sections optional unless noted):

    name: ped-crossing
    seed: 42
    duration: 20.0            # required for `run`; at most one simulated day at 50 Hz
    tick_rate: 50             # Hz, 10..200
    waypoints: route_3mps.waypoints   # path relative to the scenario file
    origin: [30.615, -96.34]  # lat/lon of the local frame
    start: {x: 0, y: 0, heading: 0, speed: 0}
    world:
      obstacles:   [{center: [x, y], size: [sx, sy], height: h}]
      pedestrians: [{position: [x, y], velocity: [vx, vy], height: 1.7, radius: 0.3}]
      signs:       [{center: [x, y, z], normal: [nx, ny, nz], width: 0.75,
                     height: 0.75, intensity: 200}]
    vehicle:   {wheelbase: 2.57, ...}          # VehicleParams overrides
    gains:     {kp_speed: 1.8, ...}            # ControllerGains overrides
    follower:  {kp: 1.5, switch_radius: 2.0, ...}
    grid:      {cell_size: 0.25, ...}
    corridor:  {length: 15.0, clearance: 0.4}
    sign_filter: {min_intensity: 85, ...}
    lidar:     {azimuth_step_deg: 0.2, range_jitter: 0.0, ...}
    lidar_period_ticks: 5     # sweeps arrive every N control ticks
    perception_latency_ticks: 0  # 0..100
    sign_stop: {latch_distance: 1.5, dwell: 2.0, clear_ticks: 50}
    manual_stops: [{t: 12.0, duration: 3.0}]
    drive_script:             # for `record`
      - {duration: 25.1, speed: 2.5, yaw_rate: 0.25, blend: 0.0}

YAML types no value but null here: an empty value keeps the default, and every other
scalar is text that ``shuttlesim.bounds.number`` reads by the one law of every input
number: ASCII with no ``_``, read by ``float``, finite, and whole for an int. So ``017``
is 17 (YAML 1.1 read 15), ``1:30``, ``0x1F``, ``1_0`` and ``.inf`` are errors, and
``yes``, ``on`` and dates are text. A key given twice is an error. A field's range is
its annotation, checked when its dataclass is built. Errors read ``file: key.path: message``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import yaml

from shuttlesim.bounds import LIMIT, Bound, Coordinate, Count, Natural, NonNegative, Positive, check_bounds, number
from shuttlesim.lidar import LidarConfig
from shuttlesim.obstacles import CorridorParams, GridParams
from shuttlesim.plant import VehicleParams
from shuttlesim.signs import FilterParams, SignStopParams
from shuttlesim.twist import ControllerGains
from shuttlesim.waypoints import MAX_LAT, MAX_LON, FollowerParams, read_text
from shuttlesim.world import WorldModel

DEFAULT_ORIGIN = (30.615, -96.34)
MAX_TICKS = 24 * 3600 * 50  # one simulated day at 50 Hz: the most ticks a run or recording may take


class ScenarioError(ValueError):
    """Raised for malformed or invalid scenario files."""


@dataclass(frozen=True)
class StartPose:
    x: Coordinate = 0.0
    y: Coordinate = 0.0
    heading: float = 0.0
    speed: Annotated[NonNegative, LIMIT] = 0.0

    __post_init__ = check_bounds


@dataclass(frozen=True)
class DriveSegment:
    duration: Positive
    speed: NonNegative
    yaw_rate: float = 0.0
    blend: NonNegative = 0.0  # seconds of linear ramp from the previous command

    __post_init__ = check_bounds


@dataclass(frozen=True)
class ManualStop:
    t: NonNegative
    duration: Positive

    __post_init__ = check_bounds


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: Natural = 0
    duration: Positive = 10.0
    tick_rate: Annotated[float, Bound(10.0, 200.0, "within [10, 200]")] = 50.0
    waypoints: str | None = None  # a path; in a file, relative to the file
    origin: tuple[Annotated[float, Bound(-MAX_LAT, MAX_LAT, f"within [-{MAX_LAT:g}, {MAX_LAT:g}]")],
                  Annotated[float, Bound(-MAX_LON, MAX_LON, f"within [-{MAX_LON:g}, {MAX_LON:g}]")]] = DEFAULT_ORIGIN
    start: StartPose = StartPose()
    world: WorldModel = WorldModel()
    vehicle: VehicleParams = VehicleParams()
    gains: ControllerGains = ControllerGains()
    follower: FollowerParams = FollowerParams()
    grid: GridParams = GridParams()
    corridor: CorridorParams = CorridorParams()
    sign_filter: FilterParams = FilterParams()
    lidar: LidarConfig = LidarConfig()
    lidar_period_ticks: Count = 5
    perception_latency_ticks: Annotated[int, Bound(0, 100, "within [0, 100]")] = 0  # at most 101 sweeps queued
    sign_stop: SignStopParams = SignStopParams()
    manual_stops: tuple[ManualStop, ...] = ()
    drive_script: tuple[DriveSegment, ...] = ()

    def __post_init__(self):
        check_bounds(self)
        for name, seconds in (("duration", self.duration), ("drive_script", sum(d.duration for d in self.drive_script))):
            if seconds * self.tick_rate > MAX_TICKS:
                raise ScenarioError(f"{name}: {seconds:g} s at {self.tick_rate:g} Hz is more than {MAX_TICKS} ticks")
        if round(self.duration * self.tick_rate) == 0:  # a run takes round(duration * tick_rate) ticks
            raise ScenarioError(f"duration: {self.duration:g} s at {self.tick_rate:g} Hz is less than one tick")
        if self.lidar.background_intensity >= self.sign_filter.min_intensity:
            raise ScenarioError(f"lidar: background_intensity must be below sign_filter.min_intensity "
                                f"({self.sign_filter.min_intensity!r}), got {self.lidar.background_intensity!r}")
        reach = self.vehicle.front_overhang + self.corridor.length + self.vehicle.half_width + self.corridor.clearance
        if self.grid.extent < reach:  # the height map must hold every cell the corridor can take
            raise ScenarioError(f"grid: extent must cover the corridor's reach ({reach:g}), got {self.grid.extent!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.tick_rate


def _error(where: str, message) -> ScenarioError:
    return ScenarioError(f"{where}: {message}" if where else str(message))


def _build(cls, data, where: str = ""):
    """Build dataclass ``cls`` from a mapping; ``where`` is its key path for errors."""
    if not isinstance(data, dict):
        raise _error(where, f"expected a mapping, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise _error(where, f"unknown {'keys' if where else 'top-level keys'} {sorted(map(str, unknown))}")
    hints = get_type_hints(cls)
    kwargs = {name: _convert(hints[name], value, f"{where}.{name}" if where else name)
              for name, value in data.items() if value is not None}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _error(where, exc) from exc


def _convert(tp, value, where: str):
    if is_dataclass(tp):
        return _build(tp, value, where)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _error(where, f"expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise _error(where, f"expected {len(args)} values, got {len(value)}")
        return tuple(_convert(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if type(None) in args:  # X | None
        (tp,) = set(args) - {type(None)}
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _error(where, f"expected {tp.__name__}, got {value!r}")
    try:
        return str(value) if tp is str else number(str(value), tp)
    except ValueError as exc:
        raise _error(where, exc) from None


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> ScenarioConfig:
    config = _build(ScenarioConfig, data)
    if config.waypoints is None or base_dir is None:
        return config
    try:
        return replace(config, waypoints=str((base_dir / config.waypoints).resolve()))
    except ValueError as exc:  # a NUL byte in the path
        raise _error("waypoints", exc) from exc


class _Loader(yaml.SafeLoader):
    """YAML that types no scalar but null, leaving the rest as text for ``_convert``; a key given twice is an error."""

    yaml_implicit_resolvers = {c: [r for r in resolvers if r[0].endswith((":null", ":merge"))]
                               for c, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}
    yaml_constructors = {tag: c for tag, c in yaml.SafeLoader.yaml_constructors.items()  # None rejects any other tag
                         if tag is None or tag.endswith((":null", ":str", ":seq", ":map"))}

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        first = {}
        for key in (k for k, _ in node.value if isinstance(k, yaml.ScalarNode)):
            if first.setdefault(key.value, key) is not key:
                raise yaml.composer.ComposerError(None, None, f"duplicate key {key.value!r}", key.start_mark)
        return node


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = read_text(path)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    try:
        data = yaml.load(text, _Loader)
    except yaml.YAMLError as exc:
        line = f" (line {exc.problem_mark.line + 1})" if getattr(exc, "problem_mark", None) else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ScenarioError(f"{path}: invalid YAML{line}: {problem}") from exc
    if data is None:
        raise ScenarioError(f"{path}: scenario file is empty")
    try:
        return scenario_from_dict(data, base_dir=path.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

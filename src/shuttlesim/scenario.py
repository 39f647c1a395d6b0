"""Scenario files: a YAML description of world, route, vehicle and parameters.

Schema (all sections optional unless noted):

    name: ped-crossing
    seed: 42
    duration: 20.0            # required for `run`
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
    perception_latency_ticks: 0
    sign_stop: {latch_distance: 1.5, dwell: 2.0, clear_ticks: 50}
    manual_stops: [{t: 12.0, duration: 3.0}]
    drive_script:             # for `record`
      - {duration: 25.1, speed: 2.5, yaw_rate: 0.25, blend: 0.0}
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from shuttlesim.lidar import LidarConfig
from shuttlesim.obstacles import CorridorParams, GridParams
from shuttlesim.plant import VehicleParams
from shuttlesim.signs import FilterParams, SignStopParams
from shuttlesim.twist import ControllerGains
from shuttlesim.waypoints import FollowerParams
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel

DEFAULT_ORIGIN = (30.615, -96.34)


class ScenarioError(ValueError):
    """Raised for malformed or invalid scenario files."""


@dataclass(frozen=True)
class StartPose:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0


@dataclass(frozen=True)
class DriveSegment:
    duration: float
    speed: float
    yaw_rate: float = 0.0
    blend: float = 0.0  # seconds of linear ramp from the previous command

    def __post_init__(self):
        if self.duration <= 0:
            raise ScenarioError("drive segment duration must be positive")


@dataclass(frozen=True)
class ManualStop:
    t: float
    duration: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    seed: int = 0
    duration: float = 10.0
    tick_rate: float = 50.0
    waypoint_file: str | None = None
    origin: tuple[float, float] = DEFAULT_ORIGIN
    start: StartPose = StartPose()
    world: WorldModel = WorldModel()
    vehicle: VehicleParams = VehicleParams()
    gains: ControllerGains = ControllerGains()
    follower: FollowerParams = FollowerParams()
    grid: GridParams = GridParams()
    corridor: CorridorParams = CorridorParams()
    sign_filter: FilterParams = FilterParams()
    lidar: LidarConfig = LidarConfig()
    lidar_period_ticks: int = 5
    perception_latency_ticks: int = 0
    sign_stop: SignStopParams = SignStopParams()
    manual_stops: tuple[ManualStop, ...] = ()
    drive_script: tuple[DriveSegment, ...] = ()

    def __post_init__(self):
        if not 10.0 <= self.tick_rate <= 200.0:
            raise ScenarioError(f"tick_rate must be within [10, 200], got {self.tick_rate}")
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.lidar_period_ticks < 1:
            raise ScenarioError("lidar_period_ticks must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.tick_rate


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _pair(value, where):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(f"{where}: expected [a, b]")
    return (float(value[0]), float(value[1]))


def _triple(value, where):
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ScenarioError(f"{where}: expected [a, b, c]")
    return (float(value[0]), float(value[1]), float(value[2]))


def _build_world(data) -> WorldModel:
    if data is None:
        return WorldModel()
    if not isinstance(data, dict):
        raise ScenarioError("world: expected a mapping")
    unknown = set(data) - {"obstacles", "pedestrians", "signs"}
    if unknown:
        raise ScenarioError(f"world: unknown keys {sorted(unknown)}")

    obstacles = []
    for i, item in enumerate(data.get("obstacles") or []):
        where = f"world.obstacles[{i}]"
        item = dict(item)
        item["center"] = _pair(item.get("center"), f"{where}.center")
        item["size"] = _pair(item.get("size"), f"{where}.size")
        obstacles.append(_build(BoxObstacle, item, where))

    pedestrians = []
    for i, item in enumerate(data.get("pedestrians") or []):
        where = f"world.pedestrians[{i}]"
        item = dict(item)
        item["position"] = _pair(item.get("position"), f"{where}.position")
        if "velocity" in item:
            item["velocity"] = _pair(item["velocity"], f"{where}.velocity")
        pedestrians.append(_build(Pedestrian, item, where))

    signs = []
    for i, item in enumerate(data.get("signs") or []):
        where = f"world.signs[{i}]"
        item = dict(item)
        item["center"] = _triple(item.get("center"), f"{where}.center")
        item["normal"] = _triple(item.get("normal"), f"{where}.normal")
        signs.append(_build(SignSpec, item, where))

    return WorldModel(tuple(obstacles), tuple(pedestrians), tuple(signs))


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    known = {
        "name", "seed", "duration", "tick_rate", "waypoints", "origin", "start",
        "world", "vehicle", "gains", "follower", "grid", "corridor",
        "sign_filter", "lidar", "lidar_period_ticks", "perception_latency_ticks",
        "sign_stop", "manual_stops", "drive_script",
    }
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown top-level keys {sorted(unknown)}")

    waypoint_file = data.get("waypoints")
    if waypoint_file is not None and base_dir is not None:
        waypoint_file = str((base_dir / waypoint_file).resolve())

    kwargs = dict(
        name=str(data.get("name", "scenario")),
        seed=int(data.get("seed", 0)),
        duration=float(data.get("duration", 10.0)),
        tick_rate=float(data.get("tick_rate", 50.0)),
        waypoint_file=waypoint_file,
        origin=_pair(data["origin"], "origin") if "origin" in data else DEFAULT_ORIGIN,
        start=_build(StartPose, data.get("start") or {}, "start"),
        world=_build_world(data.get("world")),
        vehicle=_build(VehicleParams, data.get("vehicle") or {}, "vehicle"),
        gains=_build(ControllerGains, data.get("gains") or {}, "gains"),
        follower=_build(FollowerParams, data.get("follower") or {}, "follower"),
        grid=_build(GridParams, data.get("grid") or {}, "grid"),
        corridor=_build(CorridorParams, data.get("corridor") or {}, "corridor"),
        sign_filter=_build(FilterParams, data.get("sign_filter") or {}, "sign_filter"),
        lidar=_build(LidarConfig, data.get("lidar") or {}, "lidar"),
        lidar_period_ticks=int(data.get("lidar_period_ticks", 5)),
        perception_latency_ticks=int(data.get("perception_latency_ticks", 0)),
        sign_stop=_build(SignStopParams, data.get("sign_stop") or {}, "sign_stop"),
        manual_stops=tuple(
            _build(ManualStop, item, f"manual_stops[{i}]")
            for i, item in enumerate(data.get("manual_stops") or [])
        ),
        drive_script=tuple(
            _build(DriveSegment, item, f"drive_script[{i}]")
            for i, item in enumerate(data.get("drive_script") or [])
        ),
    )
    return ScenarioConfig(**kwargs)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" (line {mark.line + 1})" if mark is not None else ""
        raise ScenarioError(f"{path}: invalid YAML{line}: {exc}") from exc
    if data is None:
        raise ScenarioError(f"{path}: scenario file is empty")
    try:
        return scenario_from_dict(data, base_dir=path.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

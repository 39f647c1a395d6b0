"""Fixed-step closed-loop harness: sensors, detectors, arbiter, controller, plant.

Every tick produces one log row; metrics are always recomputed from rows so a
log replay reproduces them exactly. Runs with the same seed are byte-identical.
The sign-detection and occupied-cell side logs are formatted only for a run
given a sink to append them to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from shuttlesim.arbiter import DisplayTracker, Source, SpeedCommand, select
from shuttlesim.lidar import LidarFrame, scan
from shuttlesim.obstacles import build_grid, corridor_from_steering, modify_speed
from shuttlesim.plant import VehicleState, step_plant
from shuttlesim.scenario import ScenarioConfig, ScenarioError
from shuttlesim.signs import STOP_SPEED, SignDetector, SignStopLogic
from shuttlesim.twist import TwistCommand, TwistController
from shuttlesim.waypoints import (
    RECORD_SPACING,
    RecordedTrace,
    cross_track_error,
    follow_step,
    from_local,
    load_waypoints,
    read_text,
)
from shuttlesim.world import step_pedestrians

RESUME_SPEED = 0.1  # a stop event ends when speed recovers past this

SIGN_LOG_HEADER = "t,d,n,a,b,c"
GRID_DUMP_HEADER = "t,x,y,min_z,max_z"


@dataclass(frozen=True)
class LogRow:
    """One tick of the log; the CSV columns are these fields, in this order."""

    t: float
    x: float
    y: float
    heading: float
    v: float
    omega: float
    throttle: float
    brake: float
    steer: float
    cte: float
    obstacle_d: float | None
    sign_d: float | None
    sign_n: int
    display: str
    source: Source  # the arbitration winner, logged as its index in ``Source``
    sign_stop_d: float | None  # detection distance the held sign stop latched on

    def format(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, fmt, _ in _COLUMNS)

    @classmethod
    def parse(cls, line: str) -> "LogRow":
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"log row has {len(parts)} fields, expected {len(_COLUMNS)}")
        return cls(*(parse(part) for (_, _, parse), part in zip(_COLUMNS, parts)))


_SOURCES = tuple(Source)


def _parse_source(text: str) -> Source:
    code = int(text)
    if not 0 <= code < len(_SOURCES):
        raise ValueError(f"source code {code} is not in 0..{len(_SOURCES) - 1}")
    return _SOURCES[code]


def _parse_finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"non-finite value {text!r}")


# (format, parse) by field annotation; every column but ``display`` is numeric
_CODECS = {
    "float": (lambda v: repr(float(v)), _parse_finite),
    "float | None": (lambda v: "" if v is None else repr(float(v)),
                     lambda s: _parse_finite(s) if s else None),
    "int": (lambda v: str(int(v)), int),
    "str": (str, str),
    "Source": (lambda v: str(_SOURCES.index(v)), _parse_source),
}
_COLUMNS = tuple((f.name, *_CODECS[f.type]) for f in fields(LogRow))
LOG_HEADER = ",".join(name for name, _, _ in _COLUMNS)


@dataclass(frozen=True)
class StopEvent:
    t: float
    source: str
    trigger_distance: float | None
    duration: float


@dataclass(frozen=True)
class RunMetrics:
    ticks: int
    peak_cte: float
    mean_cte: float
    stop_events: tuple[StopEvent, ...]
    sign_detection_ticks: int
    final_speed: float

    def summary_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "peak_cte": self.peak_cte,
            "mean_cte": self.mean_cte,
            "stop_events": [asdict(e) for e in self.stop_events],
            "sign_detection_ticks": self.sign_detection_ticks,
            "final_speed": self.final_speed,
        }


def metrics_from_rows(rows: list[LogRow]) -> RunMetrics:
    """Aggregate run metrics from log rows (and nothing else).

    A stop is attributed to the source that won arbitration on its first
    stopped row; its trigger distance is that row's ``obstacle_d`` for an
    obstacle stop, its ``sign_stop_d`` for a sign stop, and None otherwise.
    """
    if not rows:
        raise ValueError("no log rows")
    ctes = [r.cte for r in rows]

    def stop_event(row: LogRow, t_end: float) -> StopEvent:
        trigger = {Source.OBSTACLE: row.obstacle_d, Source.SIGN: row.sign_stop_d}.get(row.source)
        return StopEvent(row.t, row.source.value, trigger, t_end - row.t)

    events = []
    stop_row = None
    has_moved = False
    for row in rows:
        if row.v >= RESUME_SPEED:
            has_moved = True
        if stop_row is None:
            if has_moved and row.v < STOP_SPEED:
                stop_row = row
        elif row.v >= RESUME_SPEED:
            events.append(stop_event(stop_row, row.t))
            stop_row = None
    if stop_row is not None:
        events.append(stop_event(stop_row, rows[-1].t))

    return RunMetrics(
        ticks=len(rows),
        peak_cte=max(ctes),
        mean_cte=sum(ctes) / len(ctes),
        stop_events=tuple(events),
        sign_detection_ticks=sum(r.sign_d is not None for r in rows),
        final_speed=rows[-1].v,
    )


class Simulation:
    """One scenario run; create fresh per run for deterministic results.

    ``sign_log`` and ``grid_dump`` are optional sinks: when given, each tick
    appends its sign-detection row (``SIGN_LOG_HEADER``) and its
    occupied-cell rows (``GRID_DUMP_HEADER``) to them.
    """

    def __init__(self, scenario: ScenarioConfig, sign_log: list[str] | None = None,
                 grid_dump: list[str] | None = None):
        if scenario.waypoint_file is None:
            raise ScenarioError("waypoints: run requires a waypoints file")
        self.scenario = scenario
        self.rng = np.random.default_rng(scenario.seed)
        try:
            self.route = load_waypoints(scenario.waypoint_file, origin=scenario.origin)
        except ValueError as exc:
            raise ScenarioError(f"waypoints: {exc}") from exc
        self.target_index, self.finished = 0, False  # the waypoint follower's state
        self.world = scenario.world
        start = scenario.start
        self.state = VehicleState(x=start.x, y=start.y, heading=start.heading, speed=start.speed)
        self.controller = TwistController(scenario.vehicle, scenario.gains)
        mount = (scenario.vehicle.lidar_offset_x, 0.0, scenario.vehicle.lidar_mount_height)
        self.detector = SignDetector(scenario.sign_filter, mount)
        self.sign_logic = SignStopLogic(scenario.sign_stop, scenario.follower.accel_limit)
        self.display = DisplayTracker()
        self.sign_log = sign_log
        self.grid_dump = grid_dump
        self._frames: deque[LidarFrame] = deque()  # sweeps scanned but not yet perceived, oldest first
        self._sweep = None  # the sweep perceived last
        self._grid = None
        self._detection = None

    def _sense(self, tick: int):
        cfg = self.scenario
        period, latency = cfg.lidar_period_ticks, cfg.perception_latency_ticks
        if tick % period == 0:
            self._frames.append(scan(self.world, self.state, cfg.vehicle, cfg.lidar, rng=self.rng))
        # perception takes each sweep exactly the latency after its scan
        if tick >= latency and (tick - latency) % period == 0:
            # held until the next one replaces it: a sweep freed before the next
            # scan lets the allocator return its pages, which that scan faults back in
            self._sweep = self._frames.popleft()
            self._grid = build_grid(self._sweep, cfg.grid)
            self._detection = self.detector.detect(self._sweep)

    def run(self) -> tuple[RunMetrics, list[LogRow]]:
        cfg = self.scenario
        dt = cfg.dt
        n_ticks = int(round(cfg.duration * cfg.tick_rate))
        halt = TwistCommand(0.0, 0.0, cfg.follower.accel_limit, cfg.vehicle.max_decel)
        manual_stop = SpeedCommand(halt, Source.MANUAL_STOP)
        rows: list[LogRow] = []

        for tick in range(n_ticks):
            t = tick * dt
            wp_cmd, self.target_index, self.finished = follow_step(
                self.route, self.target_index, self.finished, self.state, cfg.follower)
            commands = [SpeedCommand(wp_cmd, Source.WAYPOINT)]

            self._sense(tick)

            obstacle_d = None
            if self._grid is not None:
                corridor = corridor_from_steering(self.state.steer_angle, cfg.vehicle, cfg.corridor)
                obs_twist, report = modify_speed(wp_cmd, self._grid, corridor, cfg.vehicle.max_decel)
                if report.present:
                    obstacle_d = report.closest_distance
                    commands.append(SpeedCommand(obs_twist, Source.OBSTACLE))

            sign_d = None
            sign_n = 0
            if self._detection is not None:
                sign_d = self._detection.distance
                sign_n = self._detection.point_count
                if self.sign_log is not None:
                    a, b, c, _ = self._detection.plane
                    self.sign_log.append(f"{t!r},{sign_d!r},{sign_n},{a!r},{b!r},{c!r}")
            sign_cmd = self.sign_logic.update(self._detection, self.state.speed, t)
            sign_stop_d = None
            if sign_cmd is not None:
                commands.append(SpeedCommand(sign_cmd, Source.SIGN))
                sign_stop_d = self.sign_logic.hold_distance

            if any(w.t <= t <= w.t + w.duration for w in cfg.manual_stops):
                commands.append(manual_stop)

            selected = select(commands)
            act = self.controller.step(selected.twist, self.state.speed, self.state.accel, dt)

            display = self.display.update(self.state.speed)
            cte = cross_track_error(self.route, self.state)
            if self.grid_dump is not None and self._grid is not None:
                g = self._grid
                for (cx, cy), lo, hi in zip(g.centers.tolist(), g.min_z.tolist(), g.max_z.tolist()):
                    self.grid_dump.append(f"{t!r},{cx!r},{cy!r},{lo!r},{hi!r}")

            rows.append(
                LogRow(
                    t=t, x=self.state.x, y=self.state.y, heading=self.state.heading,
                    v=self.state.speed, omega=self.state.yaw_rate,
                    throttle=act.throttle, brake=act.brake, steer=act.steer,
                    cte=cte, obstacle_d=obstacle_d, sign_d=sign_d, sign_n=sign_n,
                    display=display.value, source=selected.source,
                    sign_stop_d=sign_stop_d,
                )
            )

            self.state = step_plant(
                self.state, cfg.vehicle, act.throttle, act.brake,
                act.steer / cfg.vehicle.steering_ratio, dt,
            )
            self.world = step_pedestrians(self.world, dt)

        return metrics_from_rows(rows), rows


def write_csv(path, header: str, lines) -> None:
    Path(path).write_text(header + "\n" + "\n".join(lines) + "\n")


def write_log(rows: list[LogRow], path) -> None:
    write_csv(path, LOG_HEADER, (r.format() for r in rows))


def read_log(path) -> list[LogRow]:
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line or line.startswith("t,") or line.startswith("#"):
            continue
        try:
            rows.append(LogRow.parse(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no log rows")
    return rows


def record_trace(scenario: ScenarioConfig) -> RecordedTrace:
    """Drive the scripted segments closed-loop and sample the path every metre."""
    if not scenario.drive_script:
        raise ScenarioError("drive_script: record requires a non-empty drive_script")
    cfg = scenario
    dt = cfg.dt
    controller = TwistController(cfg.vehicle, cfg.gains)
    start = cfg.start
    state = VehicleState(x=start.x, y=start.y, heading=start.heading, speed=start.speed)

    samples = []

    def sample(t):
        lat, lon = from_local(cfg.origin, state.x, state.y)
        samples.append((lat, lon, state.speed, state.yaw_rate, t))

    sample(0.0)
    travelled_since = 0.0
    t = 0.0
    prev_speed, prev_yaw = start.speed, 0.0
    for segment in cfg.drive_script:
        seg_ticks = int(round(segment.duration / dt))
        for k in range(seg_ticks):
            if segment.blend > 0 and k * dt < segment.blend:
                frac = k * dt / segment.blend
                speed_cmd = prev_speed + frac * (segment.speed - prev_speed)
                yaw_cmd = prev_yaw + frac * (segment.yaw_rate - prev_yaw)
            else:
                speed_cmd, yaw_cmd = segment.speed, segment.yaw_rate
            cmd = TwistCommand(speed_cmd, yaw_cmd, cfg.follower.accel_limit, cfg.follower.decel_limit)
            act = controller.step(cmd, state.speed, state.accel, dt)
            prev = (state.x, state.y)
            state = step_plant(state, cfg.vehicle, act.throttle, act.brake,
                               act.steer / cfg.vehicle.steering_ratio, dt)
            travelled_since += math.hypot(state.x - prev[0], state.y - prev[1])
            t += dt
            if travelled_since >= RECORD_SPACING:
                sample(t)
                travelled_since = 0.0
        prev_speed, prev_yaw = segment.speed, segment.yaw_rate
    if travelled_since > 1e-6:
        sample(t)

    arr = np.asarray(samples)
    if len(arr) < 2:
        raise ScenarioError("drive_script: too short to record a path")
    return RecordedTrace(lat=arr[:, 0], lon=arr[:, 1], v=arr[:, 2], omega=arr[:, 3], t=arr[:, 4])

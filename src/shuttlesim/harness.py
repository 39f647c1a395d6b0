"""Fixed-step closed-loop harness: sensors, detectors, arbiter, controller, plant.

Every tick produces one log row; metrics are always recomputed from rows so a
log replay reproduces them exactly. Runs with the same seed are byte-identical.
The sign-detection and occupied-cell side logs are formatted only for a run
given a sink to append them to. A tick skips what its scene cannot feed: the
obstacle corridor on a height map with no occupied cell, the sign latch
without a sign detector, and the pedestrian step without pedestrians.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from shuttlesim.arbiter import DisplayTracker, Message, Source, SpeedCommand, select
from shuttlesim.bounds import Natural, NonNegative, Pedal, check_bounds, number
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


class LogRow(NamedTuple):
    """One tick of the log; the CSV columns are these fields, in this order, each in its annotated range."""

    t: NonNegative
    x: float
    y: float
    heading: float
    v: NonNegative
    omega: float
    throttle: Pedal
    brake: Pedal
    steer: float
    cte: NonNegative
    obstacle_d: NonNegative | None
    sign_d: NonNegative | None
    sign_n: Natural
    display: str
    source: Source  # the arbitration winner, logged as its index in ``Source``
    sign_stop_d: NonNegative | None  # detection distance the held sign stop latched on

    def format(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, fmt, _ in _COLUMNS)

    @classmethod
    def parse(cls, line: str) -> "LogRow":
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"log row has {len(parts)} fields, expected {len(_COLUMNS)}")
        return cls(*(parse(part) for (_, _, parse), part in zip(_COLUMNS, parts)))


_SOURCES = tuple(Source)
_DISPLAYS = tuple(m.value for m in Message)
_TRIGGER = {Source.OBSTACLE: "obstacle_d", Source.SIGN: "sign_stop_d"}  # the column a source's stop triggered at


def _parse_source(text: str) -> Source:
    if not 0 <= (code := number(text, int)) < len(_SOURCES):
        raise ValueError(f"source code {code} is not in 0..{len(_SOURCES) - 1}")
    return _SOURCES[code]


# (format, parse) by the field's type, its range aside; every column but ``display`` is numeric
_CODECS = {
    float: (lambda v: repr(float(v)), number),
    float | None: (lambda v: "" if v is None else repr(float(v)), lambda s: number(s) if s else None),
    int: (lambda v: str(int(v)), lambda s: number(s, int)),
    str: (str, str),
    Source: (lambda v: str(_SOURCES.index(v)), _parse_source),
}
_COLUMNS = tuple((name, *_CODECS[tp]) for name, tp in get_type_hints(LogRow).items())
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
        return asdict(self) | {"stop_events": [asdict(e) for e in self.stop_events]}  # a list, which YAML can dump


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
        trigger = getattr(row, _TRIGGER[row.source]) if row.source in _TRIGGER else None
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
        if scenario.waypoints is None:
            raise ScenarioError("waypoints: run requires a waypoints file")
        self.scenario = scenario
        self.rng = np.random.default_rng(scenario.seed)
        try:
            self.route = load_waypoints(scenario.waypoints, origin=scenario.origin)
        except ValueError as exc:
            raise ScenarioError(f"waypoints: {exc}") from exc
        self.target_index, self.finished = 0, False  # the waypoint follower's state
        peds = scenario.world.pedestrians  # the scene is static; only these positions move
        self.positions = np.array([p.position for p in peds], dtype=float).reshape(-1, 2)
        self._velocities = np.array([p.velocity for p in peds], dtype=float).reshape(-1, 2)
        self.state = VehicleState(**asdict(scenario.start))
        self.controller = TwistController(scenario.vehicle, scenario.gains)
        mount = (scenario.vehicle.lidar_offset_x, 0.0, scenario.vehicle.lidar_mount_height)
        # without a sign every return is darker than min_intensity: detection could only give None
        self.detector = SignDetector(scenario.sign_filter, mount) if scenario.world.signs else None
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
            self._frames.append(scan(cfg.world, self.state, cfg.vehicle, cfg.lidar, self.rng, self.positions))
        # perception takes each sweep exactly the latency after its scan
        if tick >= latency and (tick - latency) % period == 0:
            # held until the next one replaces it: freed in its own tick, a sweep and its temporaries
            # leave more free atop glibc's heap than its trim threshold (twice the largest block it
            # has mmapped and freed), so the heap is trimmed and the next sweep faults it back in
            self._sweep = self._frames.popleft()
            self._grid = build_grid(self._sweep, cfg.grid)
            if self.detector is not None:
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
            if self._grid is not None and len(self._grid.centers):  # an empty height map caps nothing
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
            # without a detector there is no detection, so the latch stays armed and quiet
            sign_cmd = None if self.detector is None else self.sign_logic.update(self._detection, self.state.speed, t)
            sign_stop_d = None
            if sign_cmd is not None:
                commands.append(SpeedCommand(sign_cmd, Source.SIGN))
                sign_stop_d = self.sign_logic.hold_distance

            if cfg.manual_stops and any(w.t <= t <= w.t + w.duration for w in cfg.manual_stops):
                commands.append(manual_stop)

            selected = select(commands)
            act = self.controller.step(selected.twist, self.state.speed, self.state.accel, dt)

            display = self.display.update(self.state.speed)
            cte = cross_track_error(self.route, self.state)
            if self.grid_dump is not None and self._grid is not None:
                g = self._grid
                for (cx, cy), lo, hi in zip(g.centers.tolist(), g.min_z.tolist(), g.max_z.tolist()):
                    self.grid_dump.append(f"{t!r},{cx!r},{cy!r},{lo!r},{hi!r}")

            # in field order, positionally: keyword arguments take twice as long
            rows.append(LogRow(t, self.state.x, self.state.y, self.state.heading, self.state.speed,
                               self.state.yaw_rate, act.throttle, act.brake, act.steer, cte, obstacle_d,
                               sign_d, sign_n, display.value, selected.source, sign_stop_d))

            self.state = step_plant(
                self.state, cfg.vehicle, act.throttle, act.brake,
                act.steer / cfg.vehicle.steering_ratio, dt,
            )
            if len(self.positions):
                self.positions = step_pedestrians(self.positions, self._velocities, dt)

        return metrics_from_rows(rows), rows


def write_csv(path, header: str, lines) -> None:
    Path(path).write_text(header + "\n" + "\n".join(lines) + "\n")


def write_log(rows: list[LogRow], path) -> None:
    write_csv(path, LOG_HEADER, (r.format() for r in rows))


def read_log(path) -> list[LogRow]:
    """The log's rows; any line but a ``#`` line, the header or a row spelled as the harness writes it is an error at its line."""
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if line == LOG_HEADER or line.startswith("#"):
            continue
        try:
            row = LogRow.parse(line)
            if row.display not in _DISPLAYS:
                raise ValueError(f"display {row.display!r} is not one of {', '.join(_DISPLAYS)}")
            check_bounds(row)
            if row.throttle > 0.0 and row.brake > 0.0:
                raise ValueError(f"throttle {row.throttle!r} and brake {row.brake!r} are both on")
            if (row.sign_d is None) != (row.sign_n == 0):  # a detection has a distance and at least one point
                raise ValueError(f"sign_n {row.sign_n!r} with "
                                 + ("a blank sign_d" if row.sign_d is None else f"sign_d {row.sign_d!r}"))
            if row.source in _TRIGGER and getattr(row, _TRIGGER[row.source]) is None:
                raise ValueError(f"source {row.source.value} with a blank {_TRIGGER[row.source]}")
            if rows and row.t <= rows[-1].t:
                raise ValueError(f"t {row.t!r} does not rise past the previous row's {rows[-1].t!r}")
            if (written := row.format()) != line:  # a value the harness spells otherwise, such as 0.020 or +0
                cells = zip(LOG_HEADER.split(","), line.split(","), written.split(","))
                name, text, want = next(c for c in cells if c[1] != c[2])
                raise ValueError(f"{name} {text!r} is not how the harness writes {want!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        rows.append(row)
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
    state = VehicleState(**asdict(cfg.start))

    samples = []

    def sample(t):
        lat, lon = from_local(cfg.origin, state.x, state.y)
        samples.append((lat, lon, state.speed, state.yaw_rate, t))

    sample(0.0)
    travelled_since = 0.0
    t = 0.0
    prev_speed, prev_yaw = cfg.start.speed, 0.0
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

"""Fixed-step closed-loop harness: sensors, detectors, arbiter, controller, plant.

Every tick produces one log row; metrics are always recomputed from rows so a
log replay reproduces them exactly. Runs with the same seed are byte-identical.
The sign-detection and occupied-cell side logs are formatted only for a run
given a sink to append them to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shuttlesim.arbiter import DisplayTracker, Source, SpeedCommand, select
from shuttlesim.lidar import scan
from shuttlesim.obstacles import build_grid, corridor_from_steering, modify_speed
from shuttlesim.plant import VehicleState, step_plant
from shuttlesim.scenario import ScenarioConfig
from shuttlesim.signs import STOP_SPEED, SignDetector, SignStopLogic
from shuttlesim.twist import TwistCommand, TwistController
from shuttlesim.waypoints import (
    RecordedTrace,
    cross_track_error,
    follow_step,
    from_local,
    load_waypoints,
)
from shuttlesim.world import step_pedestrians

LOG_HEADER = "t,x,y,heading,v,omega,throttle,brake,steer,cte,obstacle_d,sign_d,sign_n,display"

RESUME_SPEED = 0.1  # a stop event ends when speed recovers past this


@dataclass(frozen=True)
class LogRow:
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

    def format(self) -> str:
        def num(value):
            return repr(float(value))

        def opt(value):
            return "" if value is None else repr(float(value))

        return ",".join(
            [
                num(self.t), num(self.x), num(self.y), num(self.heading),
                num(self.v), num(self.omega), num(self.throttle), num(self.brake),
                num(self.steer), num(self.cte), opt(self.obstacle_d),
                opt(self.sign_d), str(int(self.sign_n)), self.display,
            ]
        )

    @classmethod
    def parse(cls, line: str) -> "LogRow":
        parts = line.split(",")
        if len(parts) != 14:
            raise ValueError(f"log row has {len(parts)} fields, expected 14")
        return cls(
            t=float(parts[0]), x=float(parts[1]), y=float(parts[2]),
            heading=float(parts[3]), v=float(parts[4]), omega=float(parts[5]),
            throttle=float(parts[6]), brake=float(parts[7]), steer=float(parts[8]),
            cte=float(parts[9]),
            obstacle_d=float(parts[10]) if parts[10] else None,
            sign_d=float(parts[11]) if parts[11] else None,
            sign_n=int(parts[12]),
            display=parts[13],
        )


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
    sign_detections: tuple[tuple[float, int], ...]  # (distance, point count) per tick
    speed_trace: tuple[float, ...]
    accel_trace: tuple[float, ...]

    def summary_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "peak_cte": self.peak_cte,
            "mean_cte": self.mean_cte,
            "stop_events": [
                {
                    "t": e.t,
                    "source": e.source,
                    "trigger_distance": e.trigger_distance,
                    "duration": e.duration,
                }
                for e in self.stop_events
            ],
            "sign_detection_ticks": len(self.sign_detections),
            "final_speed": self.speed_trace[-1] if self.speed_trace else 0.0,
        }


def metrics_from_rows(rows: list[LogRow], dt: float) -> RunMetrics:
    """Aggregate run metrics from log rows (and nothing else)."""
    if not rows:
        raise ValueError("no log rows")
    ctes = [r.cte for r in rows]
    speeds = [r.v for r in rows]
    accels = [0.0] + [(b - a) / dt for a, b in zip(speeds, speeds[1:])]

    def attribute(idx: int) -> tuple[str, float | None]:
        # look back a few seconds: detections often end just before standstill
        t_stop = rows[idx].t
        for row in reversed(rows[: idx + 1]):
            if t_stop - row.t > 3.0:
                break
            if row.obstacle_d is not None and row.obstacle_d <= 5.5:
                return "obstacle", row.obstacle_d
        for row in reversed(rows[: idx + 1]):
            if t_stop - row.t > 3.0:
                break
            if row.sign_d is not None:
                return "sign", row.sign_d
        return "waypoint", None

    events = []
    stopped_since = None
    trigger = None
    has_moved = False
    for i, row in enumerate(rows):
        if row.v >= RESUME_SPEED:
            has_moved = True
        if stopped_since is None:
            if has_moved and row.v < STOP_SPEED:
                stopped_since = row.t
                trigger = attribute(i)
        elif row.v >= RESUME_SPEED:
            events.append(StopEvent(stopped_since, trigger[0], trigger[1], row.t - stopped_since))
            stopped_since = None
    if stopped_since is not None:
        events.append(StopEvent(stopped_since, trigger[0], trigger[1], rows[-1].t - stopped_since))

    detections = tuple((r.sign_d, r.sign_n) for r in rows if r.sign_d is not None)
    return RunMetrics(
        ticks=len(rows),
        peak_cte=max(ctes),
        mean_cte=sum(ctes) / len(ctes),
        stop_events=tuple(events),
        sign_detections=detections,
        speed_trace=tuple(speeds),
        accel_trace=tuple(accels),
    )


class Simulation:
    """One scenario run; create fresh per run for deterministic results.

    ``sign_log`` and ``grid_dump`` are optional sinks: when given, each tick
    appends its ``t,d,n,a,b,c`` sign-detection row and its
    ``t,x,y,min_z,max_z`` occupied-cell rows to them.
    """

    def __init__(self, scenario: ScenarioConfig, sign_log: list[str] | None = None,
                 grid_dump: list[str] | None = None):
        if scenario.waypoint_file is None:
            raise ValueError("run requires a waypoints file in the scenario")
        self.scenario = scenario
        self.rng = np.random.default_rng(scenario.seed)
        self.wlist = load_waypoints(scenario.waypoint_file, origin=scenario.origin)
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
        self._frames: deque[tuple[int, object]] = deque()  # (tick, sweep), oldest first
        self._last_frame = None
        self._grid = None
        self._detection = None

    def _sense(self, tick: int):
        cfg = self.scenario
        if tick % cfg.lidar_period_ticks == 0:
            frame = scan(self.world, self.state, cfg.vehicle, cfg.lidar,
                         rng=self.rng, timestamp=tick * cfg.dt)
            self._frames.append((tick, frame))
        # perception sees the newest sweep at least the latency old; older
        # ones are dropped only once a newer one is usable
        ready = tick - cfg.perception_latency_ticks
        while len(self._frames) > 1 and self._frames[1][0] <= ready:
            self._frames.popleft()
        if self._frames and self._frames[0][0] <= ready and self._frames[0][1] is not self._last_frame:
            frame = self._frames[0][1]
            self._last_frame = frame
            self._grid = build_grid(frame, cfg.grid)
            self._detection = self.detector.detect(frame)

    def run(self) -> tuple[RunMetrics, list[LogRow]]:
        cfg = self.scenario
        dt = cfg.dt
        n_ticks = int(round(cfg.duration * cfg.tick_rate))
        rows: list[LogRow] = []

        for tick in range(n_ticks):
            t = tick * dt
            wp_cmd, self.wlist = follow_step(self.wlist, self.state, cfg.follower)
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
            if sign_cmd is not None:
                commands.append(SpeedCommand(sign_cmd, Source.SIGN))

            for window in cfg.manual_stops:
                if window.t <= t <= window.t + window.duration:
                    commands.append(
                        SpeedCommand(
                            TwistCommand(0.0, 0.0, cfg.follower.accel_limit, cfg.vehicle.max_decel),
                            Source.MANUAL_STOP,
                        )
                    )

            selected = select(commands)
            act = self.controller.step(selected.twist, self.state.speed, self.state.accel, dt)

            display = self.display.update(self.state.speed, t)
            cte = cross_track_error(self.wlist, self.state)
            if self.grid_dump is not None and self._grid is not None:
                for cx, cy, zmin, zmax in self._grid.occupied_cell_stats():
                    self.grid_dump.append(f"{t!r},{cx!r},{cy!r},{zmin!r},{zmax!r}")

            rows.append(
                LogRow(
                    t=t, x=self.state.x, y=self.state.y, heading=self.state.heading,
                    v=self.state.speed, omega=self.state.yaw_rate,
                    throttle=act.throttle, brake=act.brake, steer=act.steer,
                    cte=cte, obstacle_d=obstacle_d, sign_d=sign_d, sign_n=sign_n,
                    display=display.message.value,
                )
            )

            self.state = step_plant(
                self.state, cfg.vehicle, act.throttle, act.brake,
                act.steer / cfg.vehicle.steering_ratio, dt,
            )
            self.world = step_pedestrians(self.world, dt)

        parsed = [LogRow.parse(r.format()) for r in rows]
        return metrics_from_rows(parsed, dt), rows


def run_scenario(scenario: ScenarioConfig) -> tuple[RunMetrics, list[LogRow]]:
    return Simulation(scenario).run()


def write_log(rows: list[LogRow], path) -> None:
    Path(path).write_text(LOG_HEADER + "\n" + "\n".join(r.format() for r in rows) + "\n")


def read_log(path) -> list[LogRow]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line or line.startswith("t,") or line.startswith("#"):
            continue
        try:
            rows.append(LogRow.parse(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no log rows")
    return rows


def record_trace(scenario: ScenarioConfig, spacing: float = 1.0) -> RecordedTrace:
    """Drive the scripted segments closed-loop and sample the path every metre."""
    if not scenario.drive_script:
        raise ValueError("record requires a non-empty drive_script")
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
            cmd = TwistCommand(max(speed_cmd, 0.0), yaw_cmd,
                               cfg.follower.accel_limit, cfg.follower.decel_limit)
            act = controller.step(cmd, state.speed, state.accel, dt)
            prev = (state.x, state.y)
            state = step_plant(state, cfg.vehicle, act.throttle, act.brake,
                               act.steer / cfg.vehicle.steering_ratio, dt)
            travelled_since += math.hypot(state.x - prev[0], state.y - prev[1])
            t += dt
            if travelled_since >= spacing:
                sample(t)
                travelled_since = 0.0
        prev_speed, prev_yaw = segment.speed, segment.yaw_rate
    if travelled_since > 1e-6:
        sample(t)

    arr = np.asarray(samples)
    if len(arr) < 2:
        raise ValueError("drive script too short to record a path")
    return RecordedTrace(lat=arr[:, 0], lon=arr[:, 1], v=arr[:, 2], omega=arr[:, 3], t=arr[:, 4])

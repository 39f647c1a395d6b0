"""Recording, compiling and following waypoint routes.

A waypoint file holds one "lat,lon,speed" triplet per line. Paths are recorded
by driving and sampling position every metre; compile_path then limits each
waypoint's speed so lateral acceleration stays at or below 0.5 m/s^2 using
the turn radius recovered from the recorded v and omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shuttlesim.plant import VehicleState, normalize_angle
from shuttlesim.twist import TwistCommand

EARTH_RADIUS = 6378137.0
LATERAL_ACCEL_LIMIT = 0.5  # m/s^2
RECORD_SPACING = 1.0  # m between recorded waypoints
OMEGA_STRAIGHT = 1e-3  # below this yaw rate the radius is treated as infinite


class PathFormatError(ValueError):
    """Raised on malformed waypoint or trace files."""


class RowError(ValueError):
    """A route value out of range; ``row`` is the index of its waypoint."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def read_text(path) -> str:
    """The contents of a text input file; one that is not UTF-8 raises an error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def to_local(origin: tuple[float, float], lat, lon):
    """Equirectangular projection to metres east/north of ``origin``; takes scalars or arrays."""
    lat0, lon0 = origin
    x = EARTH_RADIUS * np.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = EARTH_RADIUS * np.radians(lat - lat0)
    return x, y


def from_local(origin: tuple[float, float], x, y):
    """Inverse of :func:`to_local`; takes scalars or arrays."""
    lat0, lon0 = origin
    lat = lat0 + np.degrees(y / EARTH_RADIUS)
    lon = lon0 + np.degrees(x / (EARTH_RADIUS * math.cos(math.radians(lat0))))
    return lat, lon


MAX_LAT, MAX_LON = 90.0, 180.0  # bounds on |latitude| and |longitude|, degrees
# a route row's checks, in the order they are made: latitude, longitude, speed
_ROW_ERRORS = (
    "latitude out of range: {}",
    "longitude out of range: {}",
    "waypoint speed must be finite and non-negative, got {}",
)


@dataclass(frozen=True, eq=False)
class Route:
    """A recorded route as read-only columns, projected into the local frame once, with its segments."""

    lat: np.ndarray  # (N,) degrees
    lon: np.ndarray  # (N,) degrees
    speed: np.ndarray  # (N,) m/s
    origin: tuple[float, float]
    xy: np.ndarray  # (N, 2) waypoint positions, m east/north of origin
    remaining: np.ndarray  # (N,) path length from each waypoint to the last, m
    seg_start: np.ndarray  # (2, N-1) x and y rows of the segment start points
    seg_vec: np.ndarray  # (2, N-1) x and y rows of the segment vectors
    seg_len2: np.ndarray  # (N-1,) squared segment lengths

    @classmethod
    def build(cls, lat, lon, speed, origin: tuple[float, float]) -> "Route":
        """Check, project and freeze the columns; raises :class:`RowError` on the first bad row."""
        lat, lon, speed = (np.array(c, dtype=float) for c in (lat, lon, speed))
        ok = np.column_stack((np.abs(lat) <= MAX_LAT, np.abs(lon) <= MAX_LON,
                              np.isfinite(speed) & (speed >= 0.0)))
        if not ok.all():
            row, col = divmod(int(np.argmin(ok)), len(_ROW_ERRORS))
            raise RowError(row, _ROW_ERRORS[col].format(float((lat, lon, speed)[col][row])))
        if len(speed) < 2:
            raise ValueError(f"a route needs at least two waypoints, got {len(speed)}")
        xy = np.column_stack(to_local(origin, lat, lon))
        seg_start = np.ascontiguousarray(xy[:-1].T)
        seg_vec = np.ascontiguousarray(np.diff(xy, axis=0).T)
        dx, dy = seg_vec
        remaining = np.zeros(len(xy))
        remaining[:-1] = np.cumsum(np.hypot(dx, dy)[::-1])[::-1]
        columns = (lat, lon, speed)
        arrays = (xy, remaining, seg_start, seg_vec, dx * dx + dy * dy)
        for a in columns + arrays:
            a.flags.writeable = False
        return cls(*columns, origin, *arrays)


@dataclass(frozen=True)
class RecordedTrace:
    """Samples of (lat, lon, v, omega, t) logged while driving a path."""

    lat: np.ndarray
    lon: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if any(len(a) != n for a in (self.lat, self.lon, self.v, self.omega)):
            raise ValueError("trace arrays must have equal length")
        if n >= 2 and not np.all(np.diff(self.t) > 0):
            raise ValueError("trace timestamps must be strictly increasing")

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class FollowerParams:
    kp: float = 1.5  # heading error -> angular velocity
    switch_radius: float = 2.0  # advance to the next waypoint inside this range, m
    accel_limit: float = 1.0
    decel_limit: float = 1.2
    heading_bias: float = 0.0  # constant compass correction, rad

    def __post_init__(self):
        for name in ("kp", "switch_radius", "accel_limit", "decel_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def follow_step(
    route: Route, target_index: int, finished: bool, state: VehicleState,
    params: FollowerParams = FollowerParams(),
) -> tuple[TwistCommand, int, bool]:
    """Produce the twist command tracking waypoint ``target_index`` of ``route``.

    Returns the command with the follower's next ``(target_index, finished)``.
    Advances the target index past every waypoint closer than the switch
    radius (so stale near points are skipped after position jumps). The speed
    tapers into the final waypoint, and once the vehicle has closed within the
    switch radius of it the follower latches finished and commands zero for good.
    """
    xy = route.xy
    idx = target_index
    if not finished:
        last = len(xy) - 1
        while idx < last and math.hypot(xy[idx, 0] - state.x, xy[idx, 1] - state.y) < params.switch_radius:
            idx += 1
        tx, ty = xy[idx]
        dist = math.hypot(tx - state.x, ty - state.y)
        finished = idx == last and dist < params.switch_radius
    if finished:
        return TwistCommand(0.0, 0.0, params.accel_limit, params.decel_limit), idx, True

    # slow into the terminus so the cart does not sail past the route's end
    remaining = dist + float(route.remaining[idx])
    margin = max(remaining - params.switch_radius, 0.0)
    taper = math.sqrt(2.0 * params.decel_limit * margin) + 0.15
    speed = min(float(route.speed[idx]), taper)

    bearing = math.atan2(ty - state.y, tx - state.x)
    theta_error = normalize_angle(bearing - state.heading - params.heading_bias)
    return TwistCommand(speed, params.kp * theta_error, params.accel_limit, params.decel_limit), idx, False


def turn_radius(v, omega) -> np.ndarray:
    """Turn radius from linear and angular velocity, elementwise; infinite when straight."""
    w = np.abs(omega)
    return np.divide(np.abs(v), w, out=np.full(np.shape(w), math.inf), where=w >= OMEGA_STRAIGHT)


def compile_path(
    trace: RecordedTrace,
    target_speed: float,
    spacing: float = RECORD_SPACING,
) -> Route:
    """Resample a driven trace at 1 m spacing and cap speeds by curvature.

    Each waypoint's speed is min(target_speed, sqrt(0.5 * r)) where r is the
    local turn radius, keeping lateral acceleration at or below 0.5 m/s^2.
    """
    if target_speed <= 0:
        raise ValueError("target_speed must be positive")
    if len(trace) < 2:
        raise ValueError("trace needs at least two samples")

    origin = (float(trace.lat[0]), float(trace.lon[0]))
    xy = np.column_stack(to_local(origin, trace.lat, trace.lon))
    seg = np.hypot(*np.diff(xy, axis=0).T)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    if s[-1] <= 0.0:
        raise ValueError("trace has zero length")

    marks = np.arange(0.0, s[-1], spacing)
    if s[-1] - marks[-1] > 1e-9:
        marks = np.append(marks, s[-1])

    xs = np.interp(marks, s, xy[:, 0])
    ys = np.interp(marks, s, xy[:, 1])
    vs = np.interp(marks, s, trace.v)
    ws = np.interp(marks, s, trace.omega)

    lat, lon = from_local(origin, xs, ys)
    speed = np.minimum(target_speed, np.sqrt(LATERAL_ACCEL_LIMIT * turn_radius(vs, ws)))
    return Route.build(lat, lon, speed, origin)


def cross_track_error(route: Route, state: VehicleState) -> float:
    """Unsigned perpendicular distance from the vehicle to the nearest path segment.

    The search is global, not local to the target, because a path may cross itself.
    """
    (ax, ay), (dx, dy) = route.seg_start, route.seg_vec
    x, y = state.x, state.y
    dot = (x - ax) * dx + (y - ay) * dy
    t = np.divide(dot, route.seg_len2, out=np.zeros_like(dot), where=route.seg_len2 > 0)
    np.clip(t, 0.0, 1.0, out=t)
    return float(np.min(np.hypot(x - (ax + t * dx), y - (ay + t * dy))))


def waypoint_filename(route: str, speed: float) -> str:
    return f"{route}_{speed:g}mps.waypoints"


def save_waypoints(route: Route, path) -> None:
    columns = zip(route.lat.tolist(), route.lon.tolist(), route.speed.tolist())
    lines = [f"{lat:.8f},{lon:.8f},{speed!r}" for lat, lon, speed in columns]
    Path(path).write_text("\n".join(lines) + "\n")


def load_waypoints(path, origin: tuple[float, float] | None = None) -> Route:
    rows, linenos = [], []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise PathFormatError(f"{path}:{lineno}: expected 'lat,lon,speed', got {line!r}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise PathFormatError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
    lat, lon, speed = np.array(rows, dtype=float).reshape(-1, 3).T
    if origin is None and rows:
        origin = (rows[0][0], rows[0][1])
    try:
        return Route.build(lat, lon, speed, origin)
    except RowError as exc:
        raise PathFormatError(f"{path}:{linenos[exc.row]}: {exc}") from exc
    except ValueError as exc:
        raise PathFormatError(f"{path}: {exc}") from exc


def save_trace(trace: RecordedTrace, path) -> None:
    lines = ["t,lat,lon,v,omega"]
    for t, la, lo, v, w in zip(trace.t, trace.lat, trace.lon, trace.v, trace.omega):
        lines.append(f"{float(t)!r},{la:.8f},{lo:.8f},{float(v)!r},{float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(path) -> RecordedTrace:
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise PathFormatError(f"{path}:{lineno}: expected 't,lat,lon,v,omega', got {line!r}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise PathFormatError(f"{path}:{lineno}: {exc}") from exc
        for text, value in zip(parts, row):
            if not math.isfinite(value):
                raise PathFormatError(f"{path}:{lineno}: non-finite value {text.strip()!r}")
        rows.append(row)
    if len(rows) < 2:
        raise PathFormatError(f"{path}: trace needs at least two samples")
    arr = np.asarray(rows)
    return RecordedTrace(lat=arr[:, 1], lon=arr[:, 2], v=arr[:, 3], omega=arr[:, 4], t=arr[:, 0])

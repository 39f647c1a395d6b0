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

from shuttlesim.bounds import Positive, check_bounds, named, number
from shuttlesim.plant import VehicleState, normalize_angle
from shuttlesim.twist import TwistCommand

EARTH_RADIUS = 6378137.0
LATERAL_ACCEL_LIMIT = 0.5  # m/s^2
RECORD_SPACING = 1.0  # m between recorded waypoints
MAX_SAMPLE_GAP = 100.0 * RECORD_SPACING  # m; a trace whose samples lie farther apart was not recorded by driving
OMEGA_STRAIGHT = 1e-3  # below this yaw rate the radius is treated as infinite


class RowError(ValueError):
    """A route or trace value out of range; ``row`` is the index of its waypoint or sample."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def read_text(path) -> str:
    """The contents of a text input file; one that cannot be read or is not UTF-8 raises a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


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


CTE_CELL = 4.0  # m, side of the grid cells that index the route's segments for cross_track_error


def _segment_distances(x, y, ax, ay, dx, dy, len2) -> np.ndarray:
    """Distance from (x, y) to each segment; x and y may also be arrays, one value per segment."""
    dot = (x - ax) * dx + (y - ay) * dy
    # a zero-length segment's 0 / 0 is nan, which fmax takes to 0; a subnormal length2 overflows to inf, which fmin takes to 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.fmin(np.fmax(dot / len2, 0.0), 1.0)
    return np.hypot(x - (ax + t * dx), y - (ay + t * dy))


def _cte_index(segments):
    """Every grid cell that a segment's box, grown by half a cell, overlaps, with the rows of all such segments.

    A segment within half a cell of a point is listed in the point's cell. Returns the grid's corner, (nx, ny),
    {cell id i * ny + j: rows} and the rows, one tuple (ax, ay, dx, dy, len2) per segment, shared by its cells.
    """
    ends = segments[:2], segments[:2] + segments[2:4]
    lo, hi, grow = np.minimum(*ends), np.maximum(*ends), CTE_CELL / 2 + 1e-6  # 1e-6 m takes up rounding
    corner = lo.min(axis=1, keepdims=True) - CTE_CELL  # puts every grown box at i, j >= 0
    first, last = (np.floor((b - corner) / CTE_CELL).astype(np.intp) for b in (lo - grow, hi + grow))
    w, h = last - first + 1
    n = w * h
    if n.sum() > 64 * len(n):
        return (0.0, 0.0), (0, 0), {}, ()  # boxes too large to list their cells
    nx, ny = (last.max(axis=1) + 1).tolist()
    i, j = np.divmod(np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n), np.repeat(h, n))  # cells within each box
    cell = np.repeat(first[0] * ny + first[1], n) + i * ny + j
    order = np.argsort(cell, kind="stable")
    keys, start, count = np.unique(cell[order], return_index=True, return_counts=True)
    rows = tuple(zip(*segments.tolist()))
    listed = [rows[k] for k in np.repeat(np.arange(len(n)), n)[order].tolist()]  # cell after cell
    cells = {c: tuple(listed[a:a + k]) for c, a, k in zip(keys.tolist(), start.tolist(), count.tolist())}
    return corner.ravel().tolist(), (nx, ny), cells, rows


def _nearest(x, y, rows) -> float:
    """``_segment_distances(x, y, *np.transpose(rows)).min()`` bit for bit for a finite point, inf for no rows.
    u is numpy's clamped dot / len2 (0 for 0 / 0, 1 for overflow) but for a zero's sign; abs(complex) is libm's hypot."""
    best = math.inf
    for ax, ay, dx, dy, len2 in rows:
        dot = (x - ax) * dx + (y - ay) * dy
        u = 0.0 if dot <= 0.0 else 1.0 if dot >= len2 else dot / len2
        d = abs(complex(x - (ax + u * dx), y - (ay + u * dy)))
        if d < best:
            best = d
    return best


@dataclass(frozen=True, eq=False)
class Route:
    """A recorded route as read-only columns, projected into the local frame once, with its segments and their grid index."""

    lat: np.ndarray  # (N,) degrees
    lon: np.ndarray  # (N,) degrees
    speed: np.ndarray  # (N,) m/s
    origin: tuple[float, float]
    xy: np.ndarray  # (N, 2) waypoint positions, m east/north of origin
    remaining: np.ndarray  # (N,) path length from each waypoint to the last, m
    segments: np.ndarray  # (5, N-1) rows: start x and y, vector x and y, squared length
    cte_index: tuple  # grid corner, (nx, ny), {cell id: rows of the segments near it}, one shared float row per segment

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
        dx, dy = np.diff(xy, axis=0).T
        remaining = np.zeros(len(xy))
        remaining[:-1] = np.cumsum(np.hypot(dx, dy)[::-1])[::-1]
        segments = np.stack((*xy[:-1].T, dx, dy, dx * dx + dy * dy))
        columns = (lat, lon, speed, xy, remaining, segments)
        for a in columns:
            a.flags.writeable = False
        return cls(*columns[:3], origin, *columns[3:], _cte_index(segments))


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
        if n < 2:
            raise ValueError("trace needs at least two samples")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("trace timestamps must be strictly increasing")
        gap = np.hypot(*np.diff(to_local((self.lat[0], self.lon[0]), self.lat, self.lon), axis=1))
        if not np.all(gap <= MAX_SAMPLE_GAP):  # compile_path's route is then at most MAX_SAMPLE_GAP m a sample
            row = int(np.argmin(gap <= MAX_SAMPLE_GAP))
            raise RowError(row + 1, f"sample is {gap[row]:.3g} m from the one before, more than {MAX_SAMPLE_GAP:g} m")

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class FollowerParams:
    kp: Positive = 1.5  # heading error -> angular velocity
    switch_radius: Positive = 2.0  # advance to the next waypoint inside this range, m
    accel_limit: Positive = 1.0
    decel_limit: Positive = 1.2
    heading_bias: float = 0.0  # constant compass correction, rad

    __post_init__ = check_bounds


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
    xy = route.xy  # read as Python floats with ``item``: the same values, without numpy scalars
    idx = target_index
    if not finished:
        last = len(xy) - 1
        while idx < last and math.hypot(xy.item(idx, 0) - state.x, xy.item(idx, 1) - state.y) < params.switch_radius:
            idx += 1
        tx, ty = xy.item(idx, 0), xy.item(idx, 1)
        dist = math.hypot(tx - state.x, ty - state.y)
        finished = idx == last and dist < params.switch_radius
    if finished:
        return TwistCommand(0.0, 0.0, params.accel_limit, params.decel_limit), idx, True

    # slow into the terminus so the cart does not sail past the route's end
    remaining = dist + route.remaining.item(idx)
    margin = max(remaining - params.switch_radius, 0.0)
    taper = math.sqrt(2.0 * params.decel_limit * margin) + 0.15
    speed = min(route.speed.item(idx), taper)

    bearing = math.atan2(ty - state.y, tx - state.x)
    theta_error = normalize_angle(bearing - state.heading - params.heading_bias)
    return TwistCommand(speed, params.kp * theta_error, params.accel_limit, params.decel_limit), idx, False


def turn_radius(v, omega) -> np.ndarray:
    """Turn radius from linear and angular velocity, elementwise; infinite when straight."""
    w = np.abs(omega)
    return np.divide(np.abs(v), w, out=np.full(np.shape(w), math.inf), where=w >= OMEGA_STRAIGHT)


def compile_path(trace: RecordedTrace, target_speed: float) -> Route:
    """Resample a driven trace at 1 m spacing and cap speeds by curvature.

    Each waypoint's speed is min(target_speed, sqrt(0.5 * r)) where r is the
    local turn radius, keeping lateral acceleration at or below 0.5 m/s^2.
    """
    if target_speed <= 0:
        raise ValueError("target_speed must be positive")

    origin = (float(trace.lat[0]), float(trace.lon[0]))
    xy = np.column_stack(to_local(origin, trace.lat, trace.lon))
    seg = np.hypot(*np.diff(xy, axis=0).T)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    if s[-1] <= 0.0:
        raise ValueError("trace has zero length")

    marks = np.arange(0.0, s[-1], RECORD_SPACING)
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

    The search is global, not local to the target, because a path may cross
    itself. It first reads, in scalar math, the rows ``Route.build`` listed for
    the vehicle's grid cell. If the nearest of them is within half a cell, it is
    the nearest of all, since every segment that close is listed there.
    Otherwise, and for a point in no listed cell or not finite, numpy scans every segment.
    """
    x, y = state.x, state.y
    (x0, y0), (nx, ny), cells, _ = route.cte_index
    i, j = (x - x0) / CTE_CELL, (y - y0) / CTE_CELL
    d = _nearest(x, y, cells.get(int(i) * ny + int(j), ()) if 0.0 <= i < nx and 0.0 <= j < ny else ())
    if d <= CTE_CELL / 2:
        return d
    return float(_segment_distances(x, y, *route.segments).min())


def waypoint_filename(route: str, speed: float) -> str:
    return f"{route}_{speed:g}mps.waypoints"


def save_waypoints(route: Route, path) -> None:
    columns = zip(route.lat.tolist(), route.lon.tolist(), route.speed.tolist())
    lines = [f"{lat:.8f},{lon:.8f},{speed!r}" for lat, lon, speed in columns]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_rows(path, fields: str, header: bool = False):
    """The line numbers and values of the lines of comma-separated ``fields``, skipping blank and ``#`` lines
    and, with ``header``, a line that is ``fields`` itself.

    A bad field count, or a field that ``bounds.number`` does not read, raises a ValueError naming path:line (and field).
    """
    names = fields.split(",")
    linenos, rows = [], []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or header and line == fields:
            continue
        try:
            if len(parts := line.split(",")) != len(names):
                raise ValueError(f"expected {fields!r}, got {line!r}")
            rows.append([named(name, number, p) for name, p in zip(names, parts)])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        linenos.append(lineno)
    return linenos, np.array(rows, dtype=float).reshape(-1, len(names))


def _build_rows(path, linenos, build):
    """``build()``; a RowError it raises becomes a ValueError naming path:line, any other ValueError one naming path."""
    try:
        return build()
    except RowError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_waypoints(path, origin: tuple[float, float] | None = None) -> Route:
    linenos, rows = _read_rows(path, "lat,lon,speed")
    lat, lon, speed = rows.T
    if origin is None and linenos:
        origin = (float(lat[0]), float(lon[0]))
    return _build_rows(path, linenos, lambda: Route.build(lat, lon, speed, origin))


def save_trace(trace: RecordedTrace, path) -> None:
    lines = ["t,lat,lon,v,omega"]
    for t, la, lo, v, w in zip(trace.t, trace.lat, trace.lon, trace.v, trace.omega):
        lines.append(f"{float(t)!r},{la:.8f},{lo:.8f},{float(v)!r},{float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(path) -> RecordedTrace:
    linenos, rows = _read_rows(path, "t,lat,lon,v,omega", header=True)
    t, lat, lon, v, omega = rows.T
    return _build_rows(path, linenos, lambda: RecordedTrace(lat=lat, lon=lon, v=v, omega=omega, t=t))

"""Height-map obstacle detection and distance-based speed reduction.

Each sweep is binned into a vehicle-centred grid; a cell counts as occupied
when the vertical spread of its points exceeds the height threshold. A cell's
lowest point is no lower than the sweep's lowest point ``z_lo``, and rounded
subtraction is monotone, so an occupied cell always holds a tall point, one
whose ``z - z_lo`` exceeds the threshold. Only the tall points are binned at
first; then only the points near the cells they fall in, and the cells holding
a tall point are grouped with all of their points. A sweep of bare ground bins
no point, costs a min, a subtraction, a compare and a ``flatnonzero``, and the
grid is the one grouping every point gives, at any threshold. The vehicle's
expected corridor is projected from the current steering angle with a bicycle
model, and the closest occupied cell along it caps the commanded speed at
d/5 - 1 (full stop at maximum deceleration inside 5 m). A grid changes once
per sweep and the corridor only when the steering does, so each obstacle
report is computed once per grid and corridor and kept in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from shuttlesim.bounds import Natural, NonNegative, Positive, check_bounds
from shuttlesim.lidar import LidarFrame
from shuttlesim.plant import VehicleParams, simulate_full_stop
from shuttlesim.twist import TwistCommand

PEDESTRIAN_SPEED = 1.4  # m/s, design walking speed for clearance analysis
SLOWDOWN_STOP_DISTANCE = 5.0  # m, commanded speed is zero inside this range
SLOWDOWN_SLOPE = 5.0  # v = d/SLOWDOWN_SLOPE - 1
MAX_GRID_CELLS = 1000  # cells a side; every sweep allocates one n x n bool table


@dataclass(frozen=True)
class GridParams:
    cell_size: Positive = 0.25
    extent: Positive = 20.0  # grid covers +-extent around the vehicle, m; at least the corridor's reach
    height_threshold: NonNegative = 0.07
    roof_height: Positive = 2.1  # points above this are overhead structure
    min_cell_points: Natural = 2  # a spread needs at least one point pair

    def __post_init__(self):
        check_bounds(self)
        if not 2 * self.extent / MAX_GRID_CELLS <= self.cell_size < self.extent:
            raise ValueError(f"cell_size {self.cell_size} must be in [2 extent / {MAX_GRID_CELLS}, extent)")


@dataclass(frozen=True)
class OccupancyGrid:
    """A sweep's height map: cell mask, K occupied cells (row-major) and a report per corridor, computed once."""

    occupied: np.ndarray  # (n, n) bool
    centers: np.ndarray  # (K, 2) vehicle-frame cell centres
    min_z: np.ndarray  # (K,) lowest point in each occupied cell
    max_z: np.ndarray  # (K,) highest point in each occupied cell
    reports: dict[Corridor, ObstacleReport] = field(default_factory=dict, init=False, repr=False, compare=False)


def _cells(x: np.ndarray, y: np.ndarray, z: np.ndarray, which: np.ndarray,
           params: GridParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major cell index and height of each binned point, one below the roof
    and inside the n x n grid, among the points ``which`` picks."""
    i = np.floor((x[which] + params.extent) / params.cell_size)  # row and column as whole floats
    j = np.floor((y[which] + params.extent) / params.cell_size)
    z = z[which]
    binned = (z <= params.roof_height) & (i >= 0) & (i < n) & (j >= 0) & (j < n)
    return (i * n + j)[binned].astype(int), z[binned]  # row-major: below n * n, so exact


def build_grid(frame: LidarFrame, params: GridParams = GridParams()) -> OccupancyGrid:
    """Bin a sweep into min/max height cells and flag tall spreads.

    The tall points, those whose ``z`` less the sweep's lowest exceeds the
    threshold, are binned first; a sweep with none in the grid is empty.
    Otherwise only the points near the cells they fall in are binned, and
    those cells' points are grouped by their row-major cell index, so the
    groups come out in the order of the occupied cells.
    """
    n = int(round(2 * params.extent / params.cell_size))
    x, y, z = frame.points.T
    tall = np.flatnonzero(z - z.min(initial=np.inf) > params.height_threshold)
    tall_cell = _cells(x, y, z, tall, params, n)[0] if len(tall) else tall
    occupied = np.zeros(n * n, dtype=bool)
    if len(tall_cell) == 0:
        return OccupancyGrid(occupied.reshape(n, n), np.empty((0, 2)), np.empty(0), np.empty(0))
    # the cells' bounding box grown by half a cell, far wider than any rounding
    # of the cell formula, holds every point that falls in one of them
    rows, cols = np.divmod(tall_cell, n)
    size, extent = params.cell_size, params.extent
    x_lo, x_hi = (rows.min() - 0.5) * size - extent, (rows.max() + 1.5) * size - extent
    y_lo, y_hi = (cols.min() - 0.5) * size - extent, (cols.max() + 1.5) * size - extent
    near = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
    cell, z = _cells(x, y, z, near, params, n)
    occupied[tall_cell] = True  # every cell holding a tall point, until the spreads are known
    maybe = occupied[cell]
    cell, z = cell[maybe], z[maybe]
    order = np.argsort(cell, kind="stable")
    cell, z = cell[order], z[order]
    starts = np.concatenate(([True], cell[1:] != cell[:-1])).nonzero()[0]  # each cell's first point
    cell = cell[starts]
    min_z = np.minimum.reduceat(z, starts)
    max_z = np.maximum.reduceat(z, starts)
    count = np.concatenate((starts[1:], [len(z)])) - starts
    keep = (count >= params.min_cell_points) & (max_z - min_z > params.height_threshold)
    occupied[cell[~keep]] = False
    cell = cell[keep]
    centers = (cell[:, None] // (n, 1) % n + 0.5) * size - extent  # row and column
    return OccupancyGrid(occupied.reshape(n, n), centers, min_z[keep], max_z[keep])


class Corridor(NamedTuple):
    """Swept region the vehicle will traverse, predicted from steering; an immutable tuple."""

    radius: float | None  # signed centreline radius; None means straight
    length: float  # checked distance ahead of the front bumper, m
    half_width: float
    front_overhang: float  # bumper position ahead of the rear axle, m


@dataclass(frozen=True)
class CorridorParams:
    length: Positive = 15.0
    clearance: NonNegative = 0.4  # lateral margin beyond the vehicle half width
    straight_steer_threshold: Positive = 0.01  # rad

    __post_init__ = check_bounds


def corridor_from_steering(
    steer_angle: float,
    vehicle: VehicleParams = VehicleParams(),
    params: CorridorParams = CorridorParams(),
) -> Corridor:
    """Predicted corridor for the current front-wheel angle."""
    if abs(steer_angle) > vehicle.max_steer + 1e-9:
        raise ValueError("steer angle beyond the steering limit")
    if abs(steer_angle) < params.straight_steer_threshold:
        radius = None
    else:
        radius = vehicle.wheelbase / math.tan(steer_angle)
    return Corridor(radius, params.length, vehicle.half_width + params.clearance, vehicle.front_overhang)


def corridor_membership(corridor: Corridor, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inside-the-footprint mask and arc length from the rear axle for (N, 2) points."""
    points = np.atleast_2d(points)
    x, y = points[:, 0], points[:, 1]
    r = corridor.radius
    if r is None:
        s, lateral = x.copy(), np.abs(y)
    else:
        # centre of the turning circle sits at (0, r) in the vehicle frame
        rho = np.hypot(x, y - r)
        lateral = np.abs(rho - abs(r))
        theta = np.arctan2(x, r - y) if r > 0 else np.arctan2(x, y - r)
        s = np.where(theta >= 0.0, abs(r) * theta, -1.0)
    s_max = corridor.front_overhang + corridor.length
    return (s >= 0.0) & (s <= s_max) & (lateral <= corridor.half_width), s


class ObstacleReport(NamedTuple):
    present: bool
    closest_distance: float = math.inf  # ahead of the front bumper, m


def closest_in_corridor(grid: OccupancyGrid, corridor: Corridor) -> ObstacleReport:
    """Closest occupied cell along the corridor, from the bumper; computed once per grid and corridor."""
    if (report := grid.reports.get(corridor)) is None:
        inside, s = corridor_membership(corridor, grid.centers)
        d = np.maximum(s[inside] - corridor.front_overhang, 0.0)
        report = ObstacleReport(True, float(d.min())) if inside.any() else ObstacleReport(present=False)
        grid.reports[corridor] = report
    return report


def speed_limit_for_distance(d: float, check_range: float = CorridorParams.length) -> float | None:
    """Speed cap for an obstacle ``d`` metres ahead; None beyond the range."""
    if d > check_range:
        return None
    if d <= SLOWDOWN_STOP_DISTANCE:
        return 0.0
    return d / SLOWDOWN_SLOPE - 1.0


def modify_speed(
    cmd: TwistCommand,
    grid: OccupancyGrid,
    corridor: Corridor,
    max_decel: float = VehicleParams().max_decel,
) -> tuple[TwistCommand, ObstacleReport]:
    """Cap the command's speed by the closest in-path obstacle."""
    report = closest_in_corridor(grid, corridor)
    if not report.present:
        return cmd, report
    limit = speed_limit_for_distance(report.closest_distance, corridor.length)
    if limit is None:
        return cmd, ObstacleReport(False, report.closest_distance)
    if limit == 0.0:  # inside the stop distance: every distance past it gets a positive cap
        return TwistCommand(0.0, cmd.angular_w, cmd.accel_limit, max_decel), report
    return TwistCommand(min(cmd.linear_v, limit), cmd.angular_w, cmd.accel_limit, cmd.decel_limit), report


def required_side_clearance(
    speed: float, params: VehicleParams = VehicleParams(), dt: float = 0.02
) -> float:
    """Side clearance that keeps a crossing pedestrian outside the stop envelope.

    A pedestrian walking at 1.4 m/s perpendicular to the path covers
    1.4 * stop_time metres while the cart brakes to a halt.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    _, stop_time = simulate_full_stop(speed, params, dt)
    return PEDESTRIAN_SPEED * stop_time

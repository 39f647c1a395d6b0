"""Height-map obstacle detection and distance-based speed reduction.

Each sweep is binned into a vehicle-centred grid; a cell counts as occupied
when the vertical spread of its points exceeds the height threshold. A cell's
lowest point is no lower than the sweep's lowest binned point ``z_lo``, and
rounded subtraction is monotone, so an occupied cell always holds a point more
than the threshold above ``z_lo``. Only the cells holding such a tall point
are grouped, with all of their points; bare ground is never sorted, and the
grid is the one grouping every point gives, at any threshold. The
vehicle's expected corridor is projected from the current steering angle with
a bicycle model, and the closest occupied cell along it caps the commanded
speed at d/5 - 1 (full stop at maximum deceleration inside 5 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from shuttlesim.bounds import NonNegative, Positive, check_bounds
from shuttlesim.lidar import LidarFrame
from shuttlesim.plant import VehicleParams, simulate_full_stop
from shuttlesim.twist import TwistCommand

PEDESTRIAN_SPEED = 1.4  # m/s, design walking speed for clearance analysis
SLOWDOWN_STOP_DISTANCE = 5.0  # m, commanded speed is zero inside this range
SLOWDOWN_SLOPE = 5.0  # v = d/SLOWDOWN_SLOPE - 1
MAX_GRID_CELLS = 1000  # cells a side; every sweep allocates two n x n bool tables


@dataclass(frozen=True)
class GridParams:
    cell_size: Positive = 0.25
    # must cover the corridor's reach: 15 m ahead of the bumper, which sits
    # front_overhang beyond the grid's vehicle-centred origin
    extent: Positive = 20.0  # grid covers +-extent around the vehicle, m
    height_threshold: NonNegative = 0.07
    roof_height: Positive = 2.1  # points above this are overhead structure
    min_cell_points: NonNegative = 2  # a spread needs at least one point pair

    def __post_init__(self):
        check_bounds(self)
        if not 2 * self.extent / MAX_GRID_CELLS <= self.cell_size < self.extent:
            raise ValueError(f"cell_size {self.cell_size} must be in [2 extent / {MAX_GRID_CELLS}, extent)")


@dataclass(frozen=True)
class OccupancyGrid:
    """A sweep's height map: the cell mask and its K occupied cells, in row-major order."""

    occupied: np.ndarray  # (n, n) bool
    centers: np.ndarray  # (K, 2) vehicle-frame cell centres
    min_z: np.ndarray  # (K,) lowest point in each occupied cell
    max_z: np.ndarray  # (K,) highest point in each occupied cell


def build_grid(frame: LidarFrame, params: GridParams = GridParams()) -> OccupancyGrid:
    """Bin a sweep into min/max height cells and flag tall spreads.

    Only the points of cells that hold a tall point are grouped (see the
    module docstring). They are grouped by their row-major cell index, so the
    groups come out in the order of the occupied cells.
    """
    n = int(round(2 * params.extent / params.cell_size))
    x, y, z = frame.points.T
    i = np.floor((x + params.extent) / params.cell_size).astype(int)
    j = np.floor((y + params.extent) / params.cell_size).astype(int)
    binned = (z <= params.roof_height) & (i >= 0) & (i < n) & (j >= 0) & (j < n)
    cell, z = (i * n + j)[binned], z[binned]
    tall = np.zeros(n * n, dtype=bool)
    tall[cell[z - z.min(initial=np.inf) > params.height_threshold]] = True
    maybe = tall[cell]
    cell, z = cell[maybe], z[maybe]
    order = np.argsort(cell, kind="stable")
    cell, z = cell[order], z[order]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    cell = cell[starts]
    min_z = np.minimum.reduceat(z, starts)
    max_z = np.maximum.reduceat(z, starts)
    count = np.diff(starts, append=len(z))
    keep = (count >= params.min_cell_points) & (max_z - min_z > params.height_threshold)
    cell = cell[keep]
    occupied = np.zeros(n * n, dtype=bool)
    occupied[cell] = True
    centers = (np.stack([cell // n, cell % n], axis=1) + 0.5) * params.cell_size - params.extent
    return OccupancyGrid(occupied.reshape(n, n), centers, min_z[keep], max_z[keep])


@dataclass(frozen=True)
class Corridor:
    """Swept region the vehicle will traverse, predicted from steering."""

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
    return Corridor(
        radius=radius,
        length=params.length,
        half_width=vehicle.half_width + params.clearance,
        front_overhang=vehicle.front_overhang,
    )


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


@dataclass(frozen=True)
class ObstacleReport:
    present: bool
    closest_distance: float = math.inf  # ahead of the front bumper, m


def closest_in_corridor(grid: OccupancyGrid, corridor: Corridor) -> ObstacleReport:
    """Closest occupied cell along the corridor, measured from the bumper."""
    if len(grid.centers) == 0:
        return ObstacleReport(present=False)
    inside, s = corridor_membership(corridor, grid.centers)
    if not inside.any():
        return ObstacleReport(present=False)
    d = np.maximum(s[inside] - corridor.front_overhang, 0.0)
    return ObstacleReport(True, float(d.min()))


def speed_limit_for_distance(d: float, check_range: float = 15.0) -> float | None:
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
        return cmd, replace(report, present=False)
    if report.closest_distance <= SLOWDOWN_STOP_DISTANCE:
        return replace(cmd, linear_v=0.0, decel_limit=max_decel), report
    return replace(cmd, linear_v=min(cmd.linear_v, max(0.0, limit))), report


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

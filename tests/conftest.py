import math
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import strategies as st

from shuttlesim.arbiter import _PRIORITY, Source, SpeedCommand
from shuttlesim.lidar import LidarFrame, _ray_table
from shuttlesim.obstacles import (
    SLOWDOWN_STOP_DISTANCE,
    ObstacleReport,
    OccupancyGrid,
    corridor_membership,
    speed_limit_for_distance,
)
from shuttlesim.plant import VehicleParams
from shuttlesim.scenario import DEFAULT_ORIGIN
from shuttlesim.signs import _COLLINEAR, SignDetection, fov_filter, intensity_filter
from shuttlesim.waypoints import EARTH_RADIUS, Route, from_local, save_waypoints
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def straight_path(length_m=80, speed=3.0, origin=DEFAULT_ORIGIN):
    n = length_m + 1
    lat, lon = from_local(origin, np.arange(n, dtype=float), np.zeros(n))
    return Route.build(lat, lon, np.full(n, speed), origin)


@pytest.fixture(scope="session")
def straight_waypoints(tmp_path_factory):
    path = tmp_path_factory.mktemp("paths") / "straight_3mps.waypoints"
    save_waypoints(straight_path(), path)
    return str(path)


# Random worlds of up to three boxes, pedestrians and signs, ahead of a cart at the origin.

XY = st.tuples(st.floats(-5.0, 40.0), st.floats(-10.0, 10.0))
BOXES = st.builds(BoxObstacle, center=XY, size=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
                  height=st.floats(0.3, 3.0))
PEDESTRIANS = st.builds(Pedestrian, position=XY, velocity=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                        height=st.floats(1.0, 2.5), radius=st.floats(0.2, 0.6))


def facing(bearing, tilt):
    return (math.cos(bearing) * math.cos(tilt), math.sin(bearing) * math.cos(tilt), math.sin(tilt))


SIGNS = st.builds(
    lambda xy, z, normal, size: SignSpec(center=(*xy, z), normal=normal, width=size[0], height=size[1]),
    XY, st.floats(0.5, 3.0),
    # any way, or facing the cart
    st.builds(facing, st.floats(-math.pi, math.pi) | st.floats(math.pi - 0.4, math.pi + 0.4),
              st.floats(-0.6, 0.6)),
    st.tuples(st.floats(0.3, 1.5), st.floats(0.3, 1.5)),
)
SMALL_WORLDS = st.builds(WorldModel, *(st.lists(kind, max_size=3).map(tuple) for kind in (BOXES, PEDESTRIANS, SIGNS)))


# Brute-force oracles that the unit tests and the acceptance criteria compare against.


def brute_ror(points, radius=0.5, min_neighbors=3):
    """Keep the points with at least ``min_neighbors`` others within ``radius``,
    deciding every pair of the (n, n) difference matrix."""
    dx, dy, dz = np.moveaxis(points[:, None, :] - points[None, :, :], -1, 0)
    # squared, summed in the order of a KD-tree's ball count, so ties at the radius agree
    near = (dx * dx + dy * dy) + dz * dz <= radius * radius
    np.fill_diagonal(near, False)
    return points[np.count_nonzero(near, axis=1) >= min_neighbors]


def brute_neighbors(points, k):
    """Each point's ``k`` smallest squared distances, ascending, sorted out of the whole (n, n) table of
    ``(dx*dx + dy*dy) + dz*dz``: the k-nearest table that ``signs._neighbors`` proves row by row."""
    dx, dy, dz = np.moveaxis(points[:, None, :] - points[None, :, :], -1, 0)
    return np.sort((dx * dx + dy * dy) + dz * dz, axis=1)[:, :k]


def tree_distances(points, k):
    """cKDTree's distances from each point to its ``k`` nearest, or None where scipy, a test-only
    dependency, is not installed."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return None
    return cKDTree(points).query(points, k=min(k, len(points)))[0].reshape(len(points), -1)


def brute_sor(points, k=8, stddev_mult=1.0):
    if len(points) <= k:
        return points
    means = []
    for i, p in enumerate(points):
        d = np.sort(np.linalg.norm(points - p, axis=1))
        means.append(d[1 : k + 1].mean())  # skip self
    means = np.asarray(means)
    thresh = means.mean() + stddev_mult * means.std()
    return points[means <= thresh]


def two_tree_ror_sor(points, radius=0.5, min_neighbors=3, k=8, stddev_mult=1.0):
    """ROR by a KD-tree ball count, then SOR on a second tree over the survivors."""
    from scipy.spatial import cKDTree

    if len(points):
        counts = cKDTree(points).query_ball_point(points, r=radius, return_length=True)
        points = points[counts - 1 >= min_neighbors]
    if len(points) <= k:
        return points
    dists, _ = cKDTree(points).query(points, k=k + 1)
    means = dists[:, 1:].mean(axis=1)
    return points[means <= means.mean() + stddev_mult * means.std()]


def reference_xy(route):
    """The route projected on every call, point by point in scalar math, independent of to_local."""
    lat0, lon0 = route.origin
    return np.asarray([
        (EARTH_RADIUS * math.radians(lon - lon0) * math.cos(math.radians(lat0)),
         EARTH_RADIUS * math.radians(lat - lat0))
        for lat, lon in zip(route.lat.tolist(), route.lon.tolist())
    ], dtype=float)


def brute_force_cte(route, state):
    xy = reference_xy(route)
    best = math.inf
    p = (state.x, state.y)
    for (ax, ay), (bx, by) in zip(xy[:-1], xy[1:]):
        abx, aby = bx - ax, by - ay
        denom = abx * abx + aby * aby
        if denom == 0:
            t = 0.0
        else:
            t = max(0.0, min(1.0, ((p[0] - ax) * abx + (p[1] - ay) * aby) / denom))
        cx, cy = ax + t * abx, ay + t * aby
        best = min(best, math.hypot(p[0] - cx, p[1] - cy))
    return best


def reference_grid(points, params):
    """Bin every point by its row and column, then sort and group by cell;
    return the grid's (occupied, centers, min_z, max_z) as ``build_grid`` lays them out."""
    n = int(round(2 * params.extent / params.cell_size))
    x, y, z = points.T
    i = np.floor((x + params.extent) / params.cell_size)
    j = np.floor((y + params.extent) / params.cell_size)
    binned = (z <= params.roof_height) & (i >= 0) & (i < n) & (j >= 0) & (j < n)
    cell, z = (i * n + j)[binned].astype(int), z[binned]
    order = np.argsort(cell)
    cell, z = cell[order], z[order]
    cells, starts, counts = np.unique(cell, return_index=True, return_counts=True)
    min_z, max_z = np.minimum.reduceat(z, starts), np.maximum.reduceat(z, starts)
    kept = (counts >= params.min_cell_points) & (max_z - min_z > params.height_threshold)
    cells = cells[kept]
    occupied = np.zeros(n * n, dtype=bool)
    occupied[cells] = True
    centers = (np.stack(np.divmod(cells, n), axis=1) + 0.5) * params.cell_size - params.extent
    return occupied.reshape(n, n), centers.reshape(-1, 2), min_z[kept], max_z[kept]


def reference_report(grid, corridor):
    """The grid's obstacle report for the corridor, computed afresh from
    ``corridor_membership`` without the grid's table of reports."""
    if len(grid.centers) == 0:
        return ObstacleReport(present=False)
    inside, s = corridor_membership(corridor, grid.centers)
    if not inside.any():
        return ObstacleReport(present=False)
    return ObstacleReport(True, float(np.maximum(s[inside] - corridor.front_overhang, 0.0).min()))


def replace_select(commands):
    """``arbiter.select`` as written with ``_replace`` and no lone-command return."""
    if not commands:
        raise ValueError("arbiter needs at least one command")
    winner = min(commands, key=lambda c: (c.twist.linear_v, -c.twist.decel_limit, -_PRIORITY[c.source]))
    waypoint = next((c for c in commands if c.source is Source.WAYPOINT), None)
    if waypoint is not None and winner is not waypoint:
        winner = SpeedCommand(winner.twist._replace(angular_w=waypoint.twist.angular_w), winner.source)
    return winner


def replace_modify_speed(cmd, grid, corridor, max_decel=VehicleParams().max_decel):
    """``obstacles.modify_speed`` as written with ``_replace``, on a fresh report."""
    report = reference_report(grid, corridor)
    if not report.present:
        return cmd, report
    limit = speed_limit_for_distance(report.closest_distance, corridor.length)
    if limit is None:
        return cmd, report._replace(present=False)
    if report.closest_distance <= SLOWDOWN_STOP_DISTANCE:
        return cmd._replace(linear_v=0.0, decel_limit=max_decel), report
    return cmd._replace(linear_v=min(cmd.linear_v, max(0.0, limit))), report


def dot(a, b):
    """The dot product over the last axis, summed elementwise in x, y, z order."""
    return a[..., 0] * b[0] + a[..., 1] * b[1] + a[..., 2] * b[2]


def normal_quantiles():
    """The law of ``scan``'s range jitter, from its own construction: the standard normal's
    quantiles at (i + 0.5) / 4097 for i = 0..4096, the upper half the negated lower half."""
    lower = [NormalDist().inv_cdf((i + 0.5) / 4097) for i in range(2048)]
    return np.array(lower + [0.0] + [-q for q in reversed(lower)])


NORMAL_QUANTILES = normal_quantiles()


def reference_scan(world, state, params, config, rng=None):
    """Cast every object against every ray of the sweep in the sensor frame; return (points, intensity)."""
    h = params.lidar_mount_height
    dirs = _ray_table(config, h)[0].T
    n = len(dirs)
    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    sx = state.x + cos_h * params.lidar_offset_x
    sy = state.y + sin_h * params.lidar_offset_x
    t_best = np.full(n, np.inf)
    intensity = np.zeros(n)

    def update(t_new, hit, value):
        closer = hit & (t_new < t_best)
        t_best[closer] = t_new[closer]
        intensity[closer] = value if np.isscalar(value) else value[closer]

    def rotate(x, y, sin):  # by the angle whose sine is ``sin`` and cosine cos_h
        return cos_h * x - sin * y, sin * x + cos_h * y

    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        t_ground = np.where(dz < 0.0, h / -dz, np.inf)
    update(t_ground, t_ground > config.min_range, config.background_intensity)

    # boxes stay axis-aligned in the world; their rays turn by the heading
    ray = np.stack([*rotate(dirs[:, 0], dirs[:, 1], sin_h), dz], axis=1)
    for box in world.obstacles:
        lo = np.array([box.center[0] - box.size[0] / 2 - sx, box.center[1] - box.size[1] / 2 - sy, -h])
        hi = np.array([box.center[0] + box.size[0] / 2 - sx, box.center[1] + box.size[1] / 2 - sy,
                       box.height - h])
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = lo / ray
            t2 = hi / ray
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        update(t_near, (t_far >= t_near) & (t_near > config.min_range), config.background_intensity)

    for ped in world.pedestrians:
        px, py = rotate(ped.position[0] - sx, ped.position[1] - sy, -sin_h)
        a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
        b = -2.0 * (px * dirs[:, 0] + py * dirs[:, 1])
        c = px * px + py * py - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_side = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
            t_top = (ped.height - h) / dz
        z_side = h + t_side * dz
        update(t_side, (t_side > config.min_range) & (z_side >= 0.0) & (z_side <= ped.height),
               config.background_intensity)
        ex, ey = t_top * dirs[:, 0] - px, t_top * dirs[:, 1] - py
        update(t_top, (dz < 0.0) & (t_top > config.min_range) & (ex * ex + ey * ey <= ped.radius**2),
               config.background_intensity)

    for sign in world.signs:
        cx, cy = rotate(sign.center[0] - sx, sign.center[1] - sy, -sin_h)
        center = np.array([cx, cy, sign.center[2] - h])
        normal = np.array([*rotate(sign.normal[0], sign.normal[1], -sin_h), sign.normal[2]])
        denom = dot(dirs, normal)
        valid = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t_pl = np.where(valid, dot(center, normal) / denom, np.inf)
        p = np.where(valid, t_pl, 0.0)[:, None] * dirs
        horizontal = math.hypot(normal[0], normal[1])
        u = np.array([-normal[1] / horizontal, normal[0] / horizontal, 0.0])
        v = np.array([-normal[2] * u[1], normal[2] * u[0], normal[0] * u[1] - normal[1] * u[0]])
        rel = p - center
        on_face = (np.abs(dot(rel, u)) <= sign.width / 2) & (np.abs(dot(rel, v)) <= sign.height / 2)
        update(t_pl, valid & on_face & (t_pl > config.min_range),
               np.where(denom < 0.0, sign.intensity, config.background_intensity))

    keep = t_best <= config.max_range  # by the true range; then only the kept rays draw jitter
    if config.range_jitter > 0.0:  # one uniform draw per kept ray, interpolated in the quantile table
        u = rng.random(np.count_nonzero(keep))
        t_best[keep] += np.interp(u * 4096, np.arange(4097), NORMAL_QUANTILES) * config.range_jitter
    mount = np.array([params.lidar_offset_x, 0.0, h])
    return mount + t_best[keep, None] * dirs[keep], intensity[keep]


def reference_scan_walked(world, state, params, config, rng=None, positions=None):
    """``reference_scan`` called as ``Simulation`` calls ``scan``: on the world
    rebuilt with each pedestrian at ``positions``, returning a frame."""
    if positions is not None:
        world = replace(world, pedestrians=tuple(replace(p, position=tuple(xy))
                                                 for p, xy in zip(world.pedestrians, positions.tolist(), strict=True)))
    return LidarFrame(*reference_scan(world, state, params, config, rng))


class ReferenceSignDetector:
    """``SignDetector`` as the two filters, ``brute_ror``, ``brute_sor`` and
    ``reference_plane_segment``, which seeds a new generator for each fit."""

    def __init__(self, params, sensor_origin):
        self.params, self.sensor_origin = params, sensor_origin

    def detect(self, frame):
        p = self.params
        points = fov_filter(intensity_filter(frame, p.min_intensity), p.fov_side).points
        points = brute_sor(brute_ror(points, p.ror_radius, p.ror_min_neighbors), p.sor_k, p.sor_stddev_mult)
        found = reference_plane_segment(points, p, self.sensor_origin)
        return None if found is None else found[0]


# Each fast path that ``shuttlesim.harness`` calls, by its name there, and the
# oracle that must give the closed loop the same bytes in its place.
HARNESS_ORACLES = {
    "scan": reference_scan_walked,
    "build_grid": lambda frame, params: OccupancyGrid(*reference_grid(frame.points, params)),
    "modify_speed": replace_modify_speed,
    "select": replace_select,
    "cross_track_error": brute_force_cte,
    "SignDetector": ReferenceSignDetector,
}


def reference_scan_world(world, state, params, config):
    """Cast every object against every ray turned into the world frame, and
    turn the hits back; return (points, intensity). No range jitter."""
    dirs_sensor = _ray_table(config, params.lidar_mount_height)[0].T
    n = len(dirs_sensor)
    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    rot = np.array([[cos_h, -sin_h, 0.0], [sin_h, cos_h, 0.0], [0.0, 0.0, 1.0]])
    dirs = dirs_sensor @ rot.T
    origin = np.array([state.x + cos_h * params.lidar_offset_x,
                       state.y + sin_h * params.lidar_offset_x, params.lidar_mount_height])
    t_best = np.full(n, np.inf)
    intensity = np.zeros(n)

    def update(t_new, hit, value):
        closer = hit & (t_new < t_best)
        t_best[closer] = t_new[closer]
        intensity[closer] = value if np.isscalar(value) else value[closer]

    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < 0.0, -origin[2] / dz, np.inf)
    update(t_ground, t_ground > config.min_range, config.background_intensity)

    for box in world.obstacles:
        lo = np.array([box.center[0] - box.size[0] / 2, box.center[1] - box.size[1] / 2, 0.0])
        hi = np.array([box.center[0] + box.size[0] / 2, box.center[1] + box.size[1] / 2, box.height])
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        update(t_near, (t_far >= t_near) & (t_near > config.min_range), config.background_intensity)

    for ped in world.pedestrians:
        ox, oy = origin[0] - ped.position[0], origin[1] - ped.position[1]
        a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
        b = 2.0 * (ox * dirs[:, 0] + oy * dirs[:, 1])
        c = ox * ox + oy * oy - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cyl = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
            t_top = (ped.height - origin[2]) / dz
        z_hit = origin[2] + t_cyl * dz
        update(t_cyl, (t_cyl > config.min_range) & (z_hit >= 0.0) & (z_hit <= ped.height),
               config.background_intensity)
        # the top cap, entered from above
        rho2 = (ox + t_top * dirs[:, 0]) ** 2 + (oy + t_top * dirs[:, 1]) ** 2
        update(t_top, (dz < 0.0) & (t_top > config.min_range) & (rho2 <= ped.radius**2),
               config.background_intensity)

    for sign in world.signs:
        normal = np.asarray(sign.normal)
        center = np.asarray(sign.center)
        denom = dirs @ normal
        valid = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t_pl = np.where(valid, (center - origin) @ normal / denom, np.inf)
        p = origin + np.where(valid, t_pl, 0.0)[:, None] * dirs
        u = np.cross([0.0, 0.0, 1.0], normal)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        rel = p - center
        on_face = (np.abs(rel @ u) <= sign.width / 2) & (np.abs(rel @ v) <= sign.height / 2)
        update(t_pl, valid & on_face & (t_pl > config.min_range),
               np.where(denom < 0.0, sign.intensity, config.background_intensity))

    keep = t_best <= config.max_range
    pts_world = origin + t_best[keep, None] * dirs[keep]
    return (pts_world - np.array([state.x, state.y, 0.0])) @ rot, intensity[keep]


def reference_plane_distances(points, triple):
    """Each point's distance from the plane through three of the points, worked
    out for that triple alone on Python floats; None when they are collinear.

    The plane is the unit cross product through the first point, and a point's
    distance is ``|x a + y b + z c + d|``, each step rounded on its own.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = points[list(triple)].tolist()
    ax, ay, az, bx, by, bz = x1 - x0, y1 - y0, z1 - z0, x2 - x0, y2 - y0, z2 - z0
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm < _COLLINEAR:
        return None
    a, b, c = nx / norm, ny / norm, nz / norm
    d = -(x0 * a + y0 * b + z0 * c)
    return np.abs(points[:, 0] * a + points[:, 1] * b + points[:, 2] * c + d)


def reference_plane_inliers(points, triple, tol):
    """Inlier mask of the plane through three of the points; None when they are collinear."""
    dist = reference_plane_distances(points, triple)
    return None if dist is None else dist <= tol


def reference_plane_segment(points, params, sensor_origin=(0.0, 0.0, 0.0)):
    """RANSAC scoring one candidate plane at a time.

    Returns None where ``plane_segment`` does, and otherwise the detection
    ``plane_segment`` returns, with the points left at its extraction and its
    inliers among them.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(params.ransac_seed)
    origin = np.asarray(sensor_origin, dtype=float)
    remaining = points
    accepted = []
    for _ in range(3):
        if len(remaining) < max(3, params.min_sign_points):
            break
        best_inliers = None
        m = len(remaining)
        for draw in rng.integers(0, [m, m - 1, m - 2], size=(params.ransac_iters, 3)):
            # each index picks among the ones the earlier picks left
            left = list(range(m))
            inliers = reference_plane_inliers(remaining, [left.pop(k) for k in draw], params.plane_dist_tol)
            if inliers is None:
                continue
            if best_inliers is None or inliers.sum() > best_inliers.sum():
                best_inliers = inliers
        if best_inliers is None or best_inliers.sum() < 3:
            break
        support = remaining[best_inliers]
        centroid = support.mean(axis=0)
        normal = np.linalg.svd(support - centroid, full_matrices=False)[2][-1]
        normal = normal / np.linalg.norm(normal)
        offset = float(-normal @ centroid)
        a, b, c = normal.tolist()
        dist = np.abs(remaining[:, 0] * a + remaining[:, 1] * b + remaining[:, 2] * c + offset)
        inliers = dist <= params.plane_dist_tol
        if normal[0] < 0.0:
            normal, offset = -normal, -offset
        support = remaining[inliers]
        if len(support) >= params.min_sign_points and normal[0] >= params.normal_min_a:
            accepted.append((SignDetection(
                plane=(float(normal[0]), float(normal[1]), float(normal[2]), offset),
                distance=float(np.linalg.norm(support - origin, axis=1).min()),
                point_count=int(len(support)),
            ), remaining, support))
        remaining = remaining[~inliers]
    return min(accepted, key=lambda found: found[0].distance) if accepted else None

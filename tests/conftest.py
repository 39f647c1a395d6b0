import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from shuttlesim.lidar import _ray_table
from shuttlesim.scenario import DEFAULT_ORIGIN
from shuttlesim.signs import SignDetection
from shuttlesim.waypoints import Route, Waypoint, from_local, save_waypoints, to_local
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def straight_path(length_m=80, speed=3.0, origin=DEFAULT_ORIGIN):
    wps = []
    for i in range(length_m + 1):
        lat, lon = from_local(origin, float(i), 0.0)
        wps.append(Waypoint(lat, lon, speed))
    return Route.build(tuple(wps), origin)


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
    keep = []
    for i, p in enumerate(points):
        n = 0
        for j, q in enumerate(points):
            if i != j and np.linalg.norm(p - q) <= radius:
                n += 1
        if n >= min_neighbors:
            keep.append(i)
    return points[keep]


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


def reference_xy(route):
    """The route projected on every call, one to_local per waypoint."""
    return np.asarray([to_local(route.origin, w.lat, w.lon) for w in route.waypoints], dtype=float)


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
    """Bin each point into a dict of cell -> z values; return the grid's
    (occupied, centers, min_z, max_z) as ``build_grid`` lays them out."""
    n = int(round(2 * params.extent / params.cell_size))
    cells = {}
    for x, y, z in points:
        if z > params.roof_height:
            continue
        i = math.floor((x + params.extent) / params.cell_size)
        j = math.floor((y + params.extent) / params.cell_size)
        if 0 <= i < n and 0 <= j < n:
            cells.setdefault((i, j), []).append(z)
    kept = sorted(cell for cell, zs in cells.items()
                  if len(zs) >= params.min_cell_points and max(zs) - min(zs) > params.height_threshold)
    occupied = np.zeros((n, n), dtype=bool)
    for cell in kept:
        occupied[cell] = True
    centers = np.array([[(k + 0.5) * params.cell_size - params.extent for k in cell] for cell in kept])
    return (occupied, centers.reshape(-1, 2), np.array([min(cells[c]) for c in kept]),
            np.array([max(cells[c]) for c in kept]))


def reference_scan(world, state, params, config, rng=None):
    """Cast every object against every ray of the sweep in the sensor frame; return (points, intensity)."""
    h = params.lidar_mount_height
    dirs = _ray_table(config.azimuth_step_deg, h, config.min_range)[0]
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
        denom = dirs @ normal
        valid = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t_pl = np.where(valid, center @ normal / denom, np.inf)
        p = np.where(valid, t_pl, 0.0)[:, None] * dirs
        horizontal = math.hypot(normal[0], normal[1])
        u = np.array([-normal[1] / horizontal, normal[0] / horizontal, 0.0])
        v = np.array([-normal[2] * u[1], normal[2] * u[0], normal[0] * u[1] - normal[1] * u[0]])
        rel = p - center
        on_face = (np.abs(rel @ u) <= sign.width / 2) & (np.abs(rel @ v) <= sign.height / 2)
        update(t_pl, valid & on_face & (t_pl > config.min_range),
               np.where(denom < 0.0, sign.intensity, config.background_intensity))

    returned = np.isfinite(t_best)
    if config.range_jitter > 0.0:
        t_best[returned] += rng.normal(0.0, config.range_jitter, np.count_nonzero(returned))
    keep = returned & (t_best <= config.max_range)
    mount = np.array([params.lidar_offset_x, 0.0, h])
    return mount + t_best[keep, None] * dirs[keep], intensity[keep]


def reference_scan_world(world, state, params, config):
    """Cast every object against every ray turned into the world frame, and
    turn the hits back; return (points, intensity). No range jitter."""
    dirs_sensor = _ray_table(config.azimuth_step_deg, params.lidar_mount_height, config.min_range)[0]
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

    keep = np.isfinite(t_best) & (t_best <= config.max_range)
    pts_world = origin + t_best[keep, None] * dirs[keep]
    return (pts_world - np.array([state.x, state.y, 0.0])) @ rot, intensity[keep]


def reference_plane_segment(points, params, sensor_origin=(0.0, 0.0, 0.0)):
    """RANSAC scoring one candidate plane at a time; returns what ``plane_segment`` returns."""
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
            idx = [left.pop(k) for k in draw]
            p0, p1, p2 = remaining[idx]
            normal = np.cross(p1 - p0, p2 - p0)
            norm = np.linalg.norm(normal)
            if norm < 1e-12:
                continue
            normal = normal / norm
            inliers = np.abs((remaining - p0) @ normal) <= params.plane_dist_tol
            if best_inliers is None or inliers.sum() > best_inliers.sum():
                best_inliers = inliers
        if best_inliers is None or best_inliers.sum() < 3:
            break
        support = remaining[best_inliers]
        centroid = support.mean(axis=0)
        normal = np.linalg.svd(support - centroid, full_matrices=False)[2][-1]
        normal = normal / np.linalg.norm(normal)
        offset = float(-normal @ centroid)
        inliers = np.abs(remaining @ normal + offset) <= params.plane_dist_tol
        if normal[0] < 0.0:
            normal, offset = -normal, -offset
        support = remaining[inliers]
        if len(support) >= params.min_sign_points and normal[0] >= params.normal_min_a:
            accepted.append(SignDetection(
                plane=(float(normal[0]), float(normal[1]), float(normal[2]), offset),
                inlier_points=support,
                distance=float(np.linalg.norm(support - origin, axis=1).min()),
                point_count=int(len(support)),
            ))
        remaining = remaining[~inliers]
    return min(accepted, key=lambda d: d.distance) if accepted else None

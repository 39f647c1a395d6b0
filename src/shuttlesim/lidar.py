"""Roof-mounted 16-beam LiDAR simulation by analytic ray casting.

Beams sit on 16 elevation rings from -15 to +15 degrees in 2 degree steps.
Every ray takes the first hit among ground plane, boxes, pedestrians (solid
cylinders, top cap included) and sign rectangles. Only sign front faces
return the retroreflective intensity; everything else returns the background
value. The cone under the mount that no beam reaches is the sensor's blind
spot, which emerges from the geometry rather than any special casing.

A sweep is cast in the sensor frame. The ray directions and each ray's ground
range are computed once per azimuth step, mount height and minimum range;
each sweep moves the few objects into the sensor frame instead of turning
every ray into the world, draws range jitter only for the rays that return,
and its points come out as ``mount + t * direction``, one contiguous row per
axis, so that the height map and the sign crop read x, y or z without
striding. Traced by the benchmark at its reference CPU speed, a sweep of
28,800 rays costs about 0.6 ms in an empty world and 1.25 ms in the demo world.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from shuttlesim.bounds import LIMIT, Bound, Intensity, NonNegative, Positive, check_bounds
from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.world import SignSpec, WorldModel

RING_ELEVATIONS_DEG = tuple(range(-15, 16, 2))  # 16 beams


@dataclass(frozen=True)
class LidarConfig:
    azimuth_step_deg: Annotated[float, Bound(0.01, 10.0, "within [0.01, 10]")] = 0.2
    max_range: Positive = 50.0
    min_range: NonNegative = 0.1
    background_intensity: Intensity = 20.0
    range_jitter: Annotated[NonNegative, LIMIT] = 0.0  # Gaussian sigma on returned range, m

    def __post_init__(self):
        check_bounds(self)
        if self.max_range <= self.min_range:
            raise ValueError("max_range must exceed min_range")


@dataclass(frozen=True)
class LidarFrame:
    """One sweep's hits in vehicle coordinates (x forward, y left, z up) and their intensities."""

    points: np.ndarray  # (N, 3); from ``scan``, a view of contiguous x, y and z rows
    intensity: np.ndarray  # (N,)

    def __len__(self):
        return len(self.points)


@functools.lru_cache(maxsize=4)
def _ray_table(azimuth_step_deg: float, mount_height: float,
               min_range: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's rays in sensor frame, ring by ring, each ring from azimuth
    0 in steps of ``azimuth_step_deg``: (N, 3) unit directions, the same
    directions as a contiguous (3, N) array of x, y and z rows, and each ray's
    range to the ground (``inf`` for a ray that never reaches it, or reaches
    it within ``min_range``).

    The arrays are read-only: every sweep with these settings shares them.
    """
    azimuths = np.deg2rad(np.arange(0.0, 360.0, azimuth_step_deg))
    elevations = np.deg2rad(np.asarray(RING_ELEVATIONS_DEG, dtype=float))
    cos_e = np.cos(elevations)[:, None]
    sin_e = np.sin(elevations)[:, None]
    dirs = np.stack(
        [
            np.broadcast_to(cos_e * np.cos(azimuths), (16, len(azimuths))),
            np.broadcast_to(cos_e * np.sin(azimuths), (16, len(azimuths))),
            np.broadcast_to(sin_e, (16, len(azimuths))),
        ],
        axis=-1,
    ).reshape(-1, 3)
    dirs = np.ascontiguousarray(dirs)
    dz = dirs[:, 2]
    with np.errstate(divide="ignore"):
        ground = np.where(dz < 0.0, mount_height / -dz, np.inf)
    ground[ground <= min_range] = np.inf
    columns = np.ascontiguousarray(dirs.T)
    for table in (dirs, columns, ground):
        table.flags.writeable = False
    return dirs, columns, ground


def _wedge(center, radius, n_az, step) -> np.ndarray:
    """Indices of the rays aimed within two azimuth steps of the wedge that a
    circle on the ground, centred at ``center`` in the sensor frame, subtends
    from the sensor; every ray when the sensor is inside the circle.

    Rays outside the wedge cannot reach anything inside the circle, so
    casting only these gives every ray the hit a cast of all rays gives it.
    """
    d = math.hypot(center[0], center[1])
    if d <= radius:
        return np.arange(16 * n_az)
    bearing = math.atan2(center[1], center[0])
    half = math.asin(radius / d) + 2.0 * step
    # the azimuths k * step in [bearing - half, bearing + half] modulo a turn;
    # the wedge is narrower than a turn, so no azimuth is listed twice
    columns = np.concatenate([
        np.arange(max(0, math.ceil((bearing - half + turn) / step)),
                  min(n_az, math.floor((bearing + half + turn) / step) + 1))
        for turn in (0.0, 2.0 * math.pi)
    ])
    return (np.arange(0, 16 * n_az, n_az)[:, None] + columns).ravel()


def _update_hits(t_best, intensity_best, rows, t_new, hit_mask, intensity_new):
    """Keep the closer of each ray's best hit and its hit in ``t_new`` (given for ``rows``)."""
    closer = hit_mask & (t_new < t_best[rows])
    t_best[rows[closer]] = t_new[closer]
    intensity_best[rows[closer]] = intensity_new if np.isscalar(intensity_new) else intensity_new[closer]


def _sign_hits(sign: SignSpec, center, normal, dirs, denom, min_range):
    """Range and hit mask of the rays ``dirs`` on a sign whose ``center`` and
    ``normal`` are given in the sensor frame, and which of the rays lie within
    rounding of the sign's edge.

    ``denom`` is ``dirs @ normal`` taken over the whole sweep. The face test's
    matrix products may round a row differently when it sits elsewhere in a
    smaller array, by far less than the edge slack.
    """
    valid = np.abs(denom) > 1e-12
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_pl = np.where(valid, center @ normal / denom, np.inf)
    p = np.where(valid, t_pl, 0.0)[:, None] * dirs
    nx, ny, nz = normal
    horizontal = math.hypot(nx, ny)
    u = np.array([-ny / horizontal, nx / horizontal, 0.0])  # horizontal, along the face
    v = np.array([-nz * u[1], nz * u[0], nx * u[1] - ny * u[0]])  # normal x u, up the face
    rel = p - center
    across, up = np.abs(rel @ u), np.abs(rel @ v)
    on_face = (across <= sign.width / 2) & (up <= sign.height / 2)
    in_front = valid & (t_pl > min_range)
    margin = np.maximum(across - sign.width / 2, up - sign.height / 2)
    edge = in_front & (np.abs(margin) <= 1e-9 * np.abs(rel).sum(axis=1))
    return t_pl, in_front & on_face, edge


def scan(
    world: WorldModel,
    state: VehicleState,
    params: VehicleParams = VehicleParams(),
    config: LidarConfig = LidarConfig(),
    rng: np.random.Generator | None = None,
) -> LidarFrame:
    """Cast one full sweep and return the hits in vehicle coordinates.

    Rays are cast in the sensor frame, from the sensor at the origin, and the
    objects are moved into that frame. Each box, pedestrian and sign is cast
    only against the rays in the azimuth wedge of its bounding circle
    (``_wedge``); every ray gets the same range and intensity as when each
    object is cast against all rays.
    """
    if config.range_jitter > 0.0 and rng is None:
        raise ValueError("range_jitter requires an rng")
    h = params.lidar_mount_height
    dirs, columns, ground = _ray_table(config.azimuth_step_deg, h, config.min_range)
    step = math.radians(config.azimuth_step_deg)
    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    # the sensor's world position on the ground plane
    sx = state.x + cos_h * params.lidar_offset_x
    sy = state.y + sin_h * params.lidar_offset_x

    def to_sensor(x, y):
        """Turn a horizontal world-frame vector into the sensor frame."""
        return cos_h * x + sin_h * y, cos_h * y - sin_h * x

    def wedge(center, radius):
        return _wedge(center, radius, len(dirs) // 16, step)

    t_best = ground.copy()
    intensity = np.full(len(dirs), config.background_intensity)

    for box in world.obstacles:
        rows = wedge(to_sensor(box.center[0] - sx, box.center[1] - sy), math.hypot(*box.size) / 2)
        d = dirs[rows]
        # the box stays axis-aligned in the world: turn its rays there instead
        ray = np.stack([cos_h * d[:, 0] - sin_h * d[:, 1], sin_h * d[:, 0] + cos_h * d[:, 1], d[:, 2]],
                       axis=1)
        lo = np.array([box.center[0] - box.size[0] / 2 - sx, box.center[1] - box.size[1] / 2 - sy, -h])
        hi = np.array([box.center[0] + box.size[0] / 2 - sx, box.center[1] + box.size[1] / 2 - sy,
                       box.height - h])
        # a ray component that is 0 or subnormal puts that slab at +-inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t1 = lo / ray
            t2 = hi / ray
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (t_far >= t_near) & (t_near > config.min_range)
        _update_hits(t_best, intensity, rows, t_near, hit, config.background_intensity)

    for ped in world.pedestrians:
        px, py = to_sensor(ped.position[0] - sx, ped.position[1] - sy)
        rows = wedge((px, py), ped.radius)
        d = dirs[rows]
        # near root of the side surface
        a = d[:, 0] ** 2 + d[:, 1] ** 2
        b = -2.0 * (px * d[:, 0] + py * d[:, 1])
        c = px * px + py * py - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_side = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
            t_top = (ped.height - h) / d[:, 2]
        z_side = h + t_side * d[:, 2]
        side = (t_side > config.min_range) & (z_side >= 0.0) & (z_side <= ped.height)
        # the top cap, entered from above
        ex, ey = t_top * d[:, 0] - px, t_top * d[:, 1] - py
        top = (d[:, 2] < 0.0) & (t_top > config.min_range) & (ex * ex + ey * ey <= ped.radius**2)
        t_cyl = np.minimum(np.where(side, t_side, np.inf), np.where(top, t_top, np.inf))
        _update_hits(t_best, intensity, rows, t_cyl, side | top, config.background_intensity)

    for sign in world.signs:
        cx, cy = to_sensor(sign.center[0] - sx, sign.center[1] - sy)
        center = np.array([cx, cy, sign.center[2] - h])
        normal = np.array([*to_sensor(sign.normal[0], sign.normal[1]), sign.normal[2]])
        denom = dirs @ normal
        rows = wedge((cx, cy), math.hypot(sign.width, sign.height) / 2)
        t_pl, hit, edge = _sign_hits(sign, center, normal, dirs[rows], denom[rows], config.min_range)
        if edge.any():  # a ray on the edge: decide it with the whole sweep's rounding
            rows = np.arange(len(dirs))
            t_pl, hit, _ = _sign_hits(sign, center, normal, dirs, denom, config.min_range)
        # retroreflective sheeting only on the front face
        sign_intensity = np.where(denom[rows] < 0.0, sign.intensity, config.background_intensity)
        _update_hits(t_best, intensity, rows, t_pl, hit, sign_intensity)

    returned = np.isfinite(t_best)
    if config.range_jitter > 0.0:
        t_best[returned] += rng.normal(0.0, config.range_jitter, np.count_nonzero(returned))
    keep = np.flatnonzero(returned & (t_best <= config.max_range))
    # mount + t * dir, one contiguous row per axis; the frame holds the (N, 3) transpose
    t_keep = t_best[keep]
    points = np.empty((3, len(keep)))
    for row, column, mount in zip(points, columns, (params.lidar_offset_x, 0.0, h)):
        np.take(column, keep, out=row)
        row *= t_keep
        row += mount
    return LidarFrame(points.T, intensity[keep])

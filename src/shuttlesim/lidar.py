"""Roof-mounted 16-beam LiDAR simulation by analytic ray casting.

Beams sit on 16 elevation rings from -15 to +15 degrees in 2 degree steps.
Every ray takes the first hit among ground plane, boxes, pedestrian cylinders
and sign rectangles. Only sign front faces return the retroreflective
intensity; everything else returns the background value. The cone under the
mount that no beam reaches is the sensor's blind spot, which emerges from the
geometry rather than any special casing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.world import SignSpec, WorldModel

RING_ELEVATIONS_DEG = tuple(range(-15, 16, 2))  # 16 beams


@dataclass(frozen=True)
class LidarConfig:
    azimuth_step_deg: float = 0.2
    max_range: float = 50.0
    min_range: float = 0.1
    background_intensity: float = 20.0
    range_jitter: float = 0.0  # Gaussian sigma on returned range, m

    def __post_init__(self):
        if not 0.01 <= self.azimuth_step_deg <= 10.0:
            raise ValueError("azimuth_step_deg out of range")
        if self.min_range < 0:
            raise ValueError("min_range must be >= 0")
        if self.max_range <= self.min_range:
            raise ValueError("max_range must exceed min_range")
        if self.range_jitter < 0:
            raise ValueError("range_jitter must be >= 0")


@dataclass(frozen=True)
class LidarFrame:
    """One sweep's hits in vehicle coordinates (x forward, y left, z up) and their intensities."""

    points: np.ndarray  # (N, 3)
    intensity: np.ndarray  # (N,)

    def __len__(self):
        return len(self.points)


@functools.lru_cache(maxsize=4)
def _ray_table(azimuth_step_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) unit ray directions in sensor frame, ring by ring, and one ring's azimuths."""
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
    return np.ascontiguousarray(dirs), azimuths


def _wedge(center, radius, origin, heading, azimuths, step) -> np.ndarray:
    """Indices of the rays aimed within two azimuth steps of the wedge that a
    circle on the ground subtends from the sensor; every ray when the sensor
    is inside the circle.

    Rays outside the wedge cannot reach anything inside the circle, so
    casting only these gives every ray the hit a cast of all rays gives it.
    """
    dx, dy = center[0] - origin[0], center[1] - origin[1]
    d = math.hypot(dx, dy)
    n_az = len(azimuths)
    if d <= radius:
        return np.arange(16 * n_az)
    half = math.asin(radius / d) + 2.0 * step
    offset = (azimuths - (math.atan2(dy, dx) - heading) + math.pi) % (2.0 * math.pi) - math.pi
    columns = np.flatnonzero(np.abs(offset) <= half)
    return (np.arange(0, 16 * n_az, n_az)[:, None] + columns).ravel()


def _update_hits(t_best, intensity_best, rows, t_new, hit_mask, intensity_new):
    """Keep the closer of each ray's best hit and its hit in ``t_new`` (given for ``rows``)."""
    closer = hit_mask & (t_new < t_best[rows])
    t_best[rows[closer]] = t_new[closer]
    intensity_best[rows[closer]] = intensity_new if np.isscalar(intensity_new) else intensity_new[closer]


def _sign_hits(sign: SignSpec, origin, dirs, denom, min_range):
    """Range and hit mask of the rays ``dirs`` on a sign, and which of them lie
    within rounding of the sign's edge.

    ``denom`` is ``dirs @ normal`` taken over the whole sweep. The face test's
    matrix products may round a row differently when it sits elsewhere in a
    smaller array, by far less than the edge slack.
    """
    normal = np.asarray(sign.normal)
    center = np.asarray(sign.center)
    valid = np.abs(denom) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t_pl = np.where(valid, (center - origin) @ normal / denom, np.inf)
    p = origin + np.where(valid, t_pl, 0.0)[:, None] * dirs
    u = np.cross([0.0, 0.0, 1.0], normal)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
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

    Each box, pedestrian and sign is cast only against the rays in the
    azimuth wedge of its bounding circle (``_wedge``); every ray gets the
    same range and intensity as when each object is cast against all rays.
    """
    dirs_sensor, azimuths = _ray_table(config.azimuth_step_deg)
    n = len(dirs_sensor)
    step = math.radians(config.azimuth_step_deg)

    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    rot = np.array([[cos_h, -sin_h, 0.0], [sin_h, cos_h, 0.0], [0.0, 0.0, 1.0]])
    dirs = dirs_sensor @ rot.T
    origin = np.array(
        [
            state.x + cos_h * params.lidar_offset_x,
            state.y + sin_h * params.lidar_offset_x,
            params.lidar_mount_height,
        ]
    )

    def wedge(center, radius):
        return _wedge(center, radius, origin, state.heading, azimuths, step)

    # ground plane z = 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < 0.0, -origin[2] / dz, np.inf)
    t_best = np.where(t_ground > config.min_range, t_ground, np.inf)
    intensity = np.full(n, config.background_intensity)

    for box in world.obstacles:
        rows = wedge(box.center, math.hypot(*box.size) / 2)
        ray = dirs[rows]
        lo = np.array([box.center[0] - box.size[0] / 2, box.center[1] - box.size[1] / 2, 0.0])
        hi = np.array([box.center[0] + box.size[0] / 2, box.center[1] + box.size[1] / 2, box.height])
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / ray
            t2 = (hi - origin) / ray
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (t_far >= t_near) & (t_near > config.min_range)
        _update_hits(t_best, intensity, rows, t_near, hit, config.background_intensity)

    for ped in world.pedestrians:
        rows = wedge(ped.position, ped.radius)
        ray = dirs[rows]
        ox, oy = origin[0] - ped.position[0], origin[1] - ped.position[1]
        a = ray[:, 0] ** 2 + ray[:, 1] ** 2
        b = 2.0 * (ox * ray[:, 0] + oy * ray[:, 1])
        c = ox * ox + oy * oy - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cyl = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
        z_hit = origin[2] + t_cyl * ray[:, 2]
        hit = (t_cyl > config.min_range) & (z_hit >= 0.0) & (z_hit <= ped.height)
        _update_hits(t_best, intensity, rows, t_cyl, hit, config.background_intensity)

    for sign in world.signs:
        denom = dirs @ np.asarray(sign.normal)
        rows = wedge(sign.center, math.hypot(sign.width, sign.height) / 2)
        t_pl, hit, edge = _sign_hits(sign, origin, dirs[rows], denom[rows], config.min_range)
        if edge.any():  # a ray on the edge: decide it with the whole sweep's rounding
            rows = np.arange(n)
            t_pl, hit, _ = _sign_hits(sign, origin, dirs, denom, config.min_range)
        # retroreflective sheeting only on the front face
        sign_intensity = np.where(denom[rows] < 0.0, sign.intensity, config.background_intensity)
        _update_hits(t_best, intensity, rows, t_pl, hit, sign_intensity)

    if config.range_jitter > 0.0:
        if rng is None:
            raise ValueError("range_jitter requires an rng")
        t_best = t_best + np.where(
            np.isfinite(t_best), rng.normal(0.0, config.range_jitter, n), 0.0
        )

    keep = np.isfinite(t_best) & (t_best <= config.max_range)
    pts_world = origin + t_best[keep][:, None] * np.compress(keep, dirs, axis=0)

    rel = pts_world - np.array([state.x, state.y, 0.0])
    pts_vehicle = rel @ rot  # world->vehicle is the transpose rotation
    return LidarFrame(pts_vehicle, intensity[keep])

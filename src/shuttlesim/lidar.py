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
from shuttlesim.world import WorldModel

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
def _ray_table(azimuth_step_deg: float) -> np.ndarray:
    """(N, 3) unit ray directions in sensor frame, ring by ring."""
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
    return np.ascontiguousarray(dirs)


def _update_hits(t_best, intensity_best, t_new, hit_mask, intensity_new):
    closer = hit_mask & (t_new < t_best)
    t_best[closer] = t_new[closer]
    if np.isscalar(intensity_new):
        intensity_best[closer] = intensity_new
    else:
        intensity_best[closer] = intensity_new[closer]
    return t_best, intensity_best


def scan(
    world: WorldModel,
    state: VehicleState,
    params: VehicleParams = VehicleParams(),
    config: LidarConfig = LidarConfig(),
    rng: np.random.Generator | None = None,
) -> LidarFrame:
    """Cast one full sweep and return the hits in vehicle coordinates."""
    dirs_sensor = _ray_table(config.azimuth_step_deg)
    n = len(dirs_sensor)

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

    t_best = np.full(n, np.inf)
    intensity = np.zeros(n)

    # ground plane z = 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < 0.0, -origin[2] / dz, np.inf)
    t_best, intensity = _update_hits(
        t_best, intensity, t_ground, t_ground > config.min_range, config.background_intensity
    )

    for box in world.obstacles:
        lo = np.array([box.center[0] - box.size[0] / 2, box.center[1] - box.size[1] / 2, 0.0])
        hi = np.array([box.center[0] + box.size[0] / 2, box.center[1] + box.size[1] / 2, box.height])
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (t_far >= t_near) & (t_near > config.min_range)
        t_best, intensity = _update_hits(t_best, intensity, t_near, hit, config.background_intensity)

    for ped in world.pedestrians:
        ox, oy = origin[0] - ped.position[0], origin[1] - ped.position[1]
        a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
        b = 2.0 * (ox * dirs[:, 0] + oy * dirs[:, 1])
        c = ox * ox + oy * oy - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cyl = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
        z_hit = origin[2] + t_cyl * dirs[:, 2]
        hit = (t_cyl > config.min_range) & (z_hit >= 0.0) & (z_hit <= ped.height)
        t_best, intensity = _update_hits(t_best, intensity, t_cyl, hit, config.background_intensity)

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
        hit = valid & on_face & (t_pl > config.min_range)
        # retroreflective sheeting only on the front face
        sign_intensity = np.where(denom < 0.0, sign.intensity, config.background_intensity)
        t_best, intensity = _update_hits(t_best, intensity, t_pl, hit, sign_intensity)

    if config.range_jitter > 0.0:
        if rng is None:
            raise ValueError("range_jitter requires an rng")
        t_best = t_best + np.where(
            np.isfinite(t_best), rng.normal(0.0, config.range_jitter, n), 0.0
        )

    keep = np.isfinite(t_best) & (t_best <= config.max_range)
    pts_world = origin + t_best[keep, None] * dirs[keep]

    rel = pts_world - np.array([state.x, state.y, 0.0])
    pts_vehicle = rel @ rot  # world->vehicle is the transpose rotation
    return LidarFrame(pts_vehicle, intensity[keep])

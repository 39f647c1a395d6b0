"""Roof-mounted 16-beam LiDAR simulation by analytic ray casting.

Beams sit on 16 elevation rings from -15 to +15 degrees in 2 degree steps.
Every ray takes the first hit among ground plane, boxes, pedestrians (solid
cylinders, top cap included) and sign rectangles. Only sign front faces
return the retroreflective intensity; everything else returns the background
value. The cone under the mount that no beam reaches is the sensor's blind
spot, which emerges from the geometry rather than any special casing.

A sweep is cast in the sensor frame, on one table computed per sensor setting
and mount height: each sweep moves the few objects into that frame and casts
each one only on the rays that can reach it, with elementwise arithmetic. The
rays are stored ring by ring, so those that return the ground are one block,
and a cast only lowers a range, so the few other rays that return lie before or
after it, among the rays the casts took. A ray is kept when its true range is
within ``max_range``, and only kept rays draw range jitter, mapped from uniform
draws through the normal's quantiles by arithmetic alike on every IEEE-754
machine. The points come out as ``mount + t * direction`` from slices of the
block and a short list of the others, one contiguous row per axis. A sweep
allocates the draw, which then holds the block's jittered ranges, and the
points, its scratch until placed; only a world with something to cast copies
the ranges, and only a sign that takes a ray copies the table's background row:
an unlit frame's intensity is a contiguous read-only view of it.
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
# AS241 (Wichura 1988), highest power first: numerator, denominator for |p - 0.5| <= 0.425, then for sqrt(-log p) <= 5
_AS241 = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
           1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e+0),
          (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
           5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0),
          (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e+0,
           3.64784832476320460504e+0, 5.76949722146069140550e+0, 4.63033784615654529590e+0, 1.42343711074968357734e+0),
          (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
           6.89767334985100004550e-1, 1.67638483018380384940e+0, 2.05319162663775882187e+0, 1.0))


def _lower_quantiles(p: np.ndarray) -> np.ndarray:
    """The standard normal's quantiles at ``p`` in [1e-11, 0.5), by inv_cdf's steps: polyval's Horner sum, libm's log."""
    r, tail = 0.180625 - (q := p - 0.5) * q, np.sqrt(-np.array([math.log(x) for x in p])) - 1.6
    return np.where(q >= -0.425, np.polyval(_AS241[0], r) * q / np.polyval(_AS241[1], r),
                    -(np.polyval(_AS241[2], tail) / np.polyval(_AS241[3], tail)))


_LOWER = _lower_quantiles((np.arange(2048) + 0.5) / 4097)
_QUANTILES = np.concatenate((_LOWER, [0.0], np.negative(_LOWER[::-1])))  # range jitter's law: odd, so of mean 0
_SLOPES = np.diff(_QUANTILES)


@dataclass(frozen=True)
class LidarConfig:
    azimuth_step_deg: Annotated[float, Bound(0.01, 10.0, "within [0.01, 10]")] = 0.2
    max_range: Positive = 50.0
    min_range: NonNegative = 0.1
    background_intensity: Intensity = 20.0
    range_jitter: Annotated[NonNegative, LIMIT] = 0.0  # m, times a normal draw cut at 3.67 on each returned range

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
def _ray_table(config: LidarConfig, mount_height: float) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
    """What a sweep derives from the sensor's settings: its rays' unit directions,
    ring by ring from azimuth 0, as a contiguous (3, N) array of x, y and z rows;
    their ground ranges (``inf`` where a ray never reaches the ground, or only
    within ``min_range``); the block ``[start, cut)`` of the rays whose ground
    range is within ``max_range`` (they rise); and a row of N background
    intensities. The arrays are read-only: every sweep with these settings shares them.
    """
    azimuths = np.deg2rad(np.arange(0.0, 360.0, config.azimuth_step_deg))
    elevations = np.deg2rad(np.asarray(RING_ELEVATIONS_DEG, dtype=float))
    cos_e = np.cos(elevations)[:, None]
    sin_e = np.sin(elevations)[:, None]
    columns = np.stack([np.broadcast_to(c, (16, len(azimuths))).ravel()
                        for c in (cos_e * np.cos(azimuths), cos_e * np.sin(azimuths), sin_e)])
    dz = columns[2]
    with np.errstate(divide="ignore"):
        ground = np.where(dz < 0.0, mount_height / -dz, np.inf)
    ground[ground <= config.min_range] = np.inf
    start = len(ground) // 2 - np.count_nonzero(np.isfinite(ground))
    cut = start + int(np.searchsorted(ground[start:], config.max_range, side="right"))
    background = np.full(len(ground), config.background_intensity)
    for table in (columns, ground, background):
        table.flags.writeable = False
    return columns, ground, start, cut, background


def _wedge(center, radius, n_az, step, rings=16) -> np.ndarray:
    """Indices of the rays of the first ``rings`` rings aimed within two
    azimuth steps of the wedge that a circle on the ground, centred at
    ``center`` in the sensor frame, subtends from the sensor; every ray of
    those rings when the sensor is inside the circle.

    Rays outside the wedge cannot reach anything inside the circle, so
    casting only these gives every ray the hit a cast of all rays gives it.
    """
    d = math.hypot(center[0], center[1])
    if d <= radius:
        return np.arange(rings * n_az)
    bearing = math.atan2(center[1], center[0])
    half = math.asin(radius / d) + 2.0 * step
    # the azimuths k * step in [bearing - half, bearing + half] modulo a turn;
    # the wedge is narrower than a turn, so no azimuth is listed twice
    columns = np.concatenate([
        np.arange(max(0, math.ceil((bearing - half + turn) / step)),
                  min(n_az, math.floor((bearing + half + turn) / step) + 1))
        for turn in (0.0, 2.0 * math.pi)
    ])
    return (np.arange(0, rings * n_az, n_az)[:, None] + columns).ravel()


def _update_hits(t_best, rows, t_new, hit_mask) -> tuple[np.ndarray, np.ndarray]:
    """Keep the closer of each ray's best hit and its hit in ``t_new`` (given
    for ``rows``); return the rays ``t_new`` took and their mask over ``rows``."""
    closer = hit_mask & (t_new < t_best[rows])
    taken = rows[closer]
    t_best[taken] = t_new[closer]
    return taken, closer


def _sign_hits(sign: SignSpec, center, normal, dx, dy, dz, min_range):
    """Range, hit mask and ray-normal product of the rays ``(dx, dy, dz)`` on
    a sign whose ``center`` and ``normal`` are given, as tuples of floats, in
    the sensor frame. Every dot product is written out elementwise, so a ray's
    result does not depend on which other rays are cast with it."""
    (cx, cy, cz), (nx, ny, nz) = center, normal
    denom = dx * nx + dy * ny + dz * nz
    valid = np.abs(denom) > 1e-12
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_pl = np.where(valid, (cx * nx + cy * ny + cz * nz) / denom, np.inf)
    s = np.where(valid, t_pl, 0.0)
    rx, ry, rz = s * dx - cx, s * dy - cy, s * dz - cz
    horizontal = math.hypot(nx, ny)
    ux, uy = -ny / horizontal, nx / horizontal  # horizontal, along the face
    vx, vy, vz = -nz * uy, nz * ux, nx * uy - ny * ux  # normal x u, up the face
    across, up = np.abs(rx * ux + ry * uy), np.abs(rx * vx + ry * vy + rz * vz)
    return t_pl, valid & (t_pl > min_range) & (across <= sign.width / 2) & (up <= sign.height / 2), denom


def scan(
    world: WorldModel,
    state: VehicleState,
    params: VehicleParams = VehicleParams(),
    config: LidarConfig = LidarConfig(),
    rng: np.random.Generator | None = None,
    positions: np.ndarray | None = None,
) -> LidarFrame:
    """Cast one full sweep and return the hits in vehicle coordinates.

    Each box, pedestrian and sign is cast only against the rays in the azimuth
    wedge of its bounding circle (``_wedge``), and a box or pedestrian whose
    top is below the mount only against that wedge's 8 downward rings, since
    an upward ray stays above the mount. The casts are elementwise, so a ray's
    bits do not depend on the rays cast with it. A ray is kept when its
    un-jittered range is within ``max_range``: the kept rays are the block's
    leading run, taken by slices, and the rays the casts took on either side,
    sorted once. One jitter draw, mapped through the quantile table, is added to
    them in ray order, so the frame is the returns the sensor can reach, each
    with one noise sample. The pedestrians stand at ``positions``, (P, 2) in
    ``world.pedestrians`` order, or at their starts when it is None. Only the
    sensor's table (``_ray_table``) outlives a call; an unlit frame's intensity
    is a view of its read-only background row.
    """
    if config.range_jitter > 0.0 and rng is None:
        raise ValueError("range_jitter requires an rng")
    h = params.lidar_mount_height
    columns, ground, start, cut, background = _ray_table(config, h)
    step = math.radians(config.azimuth_step_deg)
    cos_h, sin_h = math.cos(state.heading), math.sin(state.heading)
    # the sensor's world position on the ground plane
    sx = state.x + cos_h * params.lidar_offset_x
    sy = state.y + sin_h * params.lidar_offset_x

    def to_sensor(x, y):
        """Turn a horizontal world-frame vector into the sensor frame."""
        return cos_h * x + sin_h * y, cos_h * y - sin_h * x

    def wedge(center, radius, top=math.inf):
        """The wedge's rows, and their x, y and z direction components; only
        the downward rings (the first 8) for an object whose top is below the mount."""
        rows = _wedge(center, radius, len(ground) // 16, step, 8 if top < h else 16)
        return rows, *(column[rows] for column in columns)

    t_best = ground.copy() if world.obstacles or world.pedestrians or world.signs else ground
    taken = [np.empty(0, dtype=int)]  # the rays each box and pedestrian cast took

    for box in world.obstacles:
        rows, x, y, z = wedge(to_sensor(box.center[0] - sx, box.center[1] - sy), math.hypot(*box.size) / 2,
                              box.height)
        # the box stays axis-aligned in the world: turn its rays there instead
        (bx, by), (wx, wy) = box.center, (box.size[0] / 2, box.size[1] / 2)
        slabs = ((cos_h * x - sin_h * y, bx - wx - sx, bx + wx - sx),
                 (sin_h * x + cos_h * y, by - wy - sy, by + wy - sy),
                 (z, -h, box.height - h))
        # a ray component that is 0 or subnormal puts that slab at +-inf, or at
        # NaN for 0 / 0, which fmax and fmin skip
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t1, t2 = zip(*((lo / ray, hi / ray) for ray, lo, hi in slabs))
        t_near = functools.reduce(np.fmax, map(np.minimum, t1, t2))
        t_far = functools.reduce(np.fmin, map(np.maximum, t1, t2))
        hit = (t_far >= t_near) & (t_near > config.min_range)
        taken.append(_update_hits(t_best, rows, t_near, hit)[0])

    walked = [ped.position for ped in world.pedestrians] if positions is None else positions.tolist()
    for ped, (px, py) in zip(world.pedestrians, walked, strict=True):
        px, py = to_sensor(px - sx, py - sy)
        rows, x, y, z = wedge((px, py), ped.radius, ped.height)
        # near root of the side surface
        a = x**2 + y**2
        b = -2.0 * (px * x + py * y)
        c = px * px + py * py - ped.radius**2
        disc = b * b - 4.0 * a * c
        with np.errstate(divide="ignore", invalid="ignore"):
            t_side = np.where(disc >= 0, (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a), np.inf)
            t_top = (ped.height - h) / z
        z_side = h + t_side * z
        side = (t_side > config.min_range) & (z_side >= 0.0) & (z_side <= ped.height)
        # the top cap, entered from above
        ex, ey = t_top * x - px, t_top * y - py
        top = (z < 0.0) & (t_top > config.min_range) & (ex * ex + ey * ey <= ped.radius**2)
        t_cyl = np.minimum(np.where(side, t_side, np.inf), np.where(top, t_top, np.inf))
        taken.append(_update_hits(t_best, rows, t_cyl, side | top)[0])

    # intensity differs from the background only where a sign takes a ray;
    # no box or pedestrian is cast after a sign, so no later hit hides one
    lit = []
    for sign in world.signs:
        cx, cy = to_sensor(sign.center[0] - sx, sign.center[1] - sy)
        normal = (*to_sensor(sign.normal[0], sign.normal[1]), sign.normal[2])
        rows, x, y, z = wedge((cx, cy), math.hypot(sign.width, sign.height) / 2)
        t_pl, hit, denom = _sign_hits(sign, (cx, cy, sign.center[2] - h), normal, x, y, z, config.min_range)
        # a hit beyond max_range is dropped, and it can only hide one farther still
        won, mask = _update_hits(t_best, rows, t_pl, hit & (t_pl <= config.max_range))
        # retroreflective sheeting only on the front face
        lit.append((won, np.where(denom[mask] < 0.0, sign.intensity, config.background_intensity)))

    # the kept rays: the block up to ``cut`` (its ground ranges rise, and a cast
    # only lowers one) and the sorted list ``rest`` of the others within max_range,
    # which only a cast can bring that near, so are among the rays the casts took
    rest, head = np.concatenate(taken + [rows for rows, _ in lit]), 0
    if len(rest):  # when no cast took a ray, the kept rays are the block's run alone
        rest = np.sort(rest[((rest < start) | (rest >= cut)) & (t_best[rest] <= config.max_range)])
        rest = np.concatenate((rest[:1], rest[1:][rest[1:] != rest[:-1]]))  # a ray two casts took, once
        head = np.searchsorted(rest, start)
    block = t_best[start:cut]  # the block's kept ranges
    # mount + t * dir, one contiguous row per axis; the frame holds the (N, 3) transpose
    points = np.empty((3, len(rest) + cut - start))
    if config.range_jitter > 0.0:  # one draw over the kept rays, added in ray order
        noise = rng.random(len(rest) + cut - start)  # u, linear between quantiles floor(4096 u) and the next
        noise *= len(_SLOPES)
        index = points[1].view(np.int64)  # the points' rows are scratch until placed
        np.copyto(index, np.floor(noise, out=points[0]), casting="unsafe")
        noise -= points[0]
        noise *= _SLOPES.take(index, out=points[0], mode="clip")
        noise += _QUANTILES.take(index, out=points[0], mode="clip")
        noise *= config.range_jitter
        block = np.add(block, noise[head:head + cut - start], out=noise[head:head + cut - start])  # into the draw
        if len(rest):
            t_best[rest[:head]] += noise[:head]
            t_best[rest[head:]] += noise[head + cut - start:]

    def place(rows):  # the frame columns of the kept rays ``rows``
        return np.searchsorted(rest, rows) + np.maximum(np.minimum(rows, cut) - start, 0)
    np.multiply(columns[:, start:cut], block, out=points[:, head:head + cut - start])
    if len(rest):
        points[:, place(rest)] = np.take(columns, rest, axis=1) * t_best[rest]
    points += np.array([[params.lidar_offset_x], [0.0], [h]])
    intensity = background[:points.shape[1]]  # a view of the shared read-only row
    if any(len(rows) for rows, _ in lit):  # a sign took a ray: the frame gets a row of its own
        intensity = intensity.copy()
        for rows, value in lit:  # in cast order: a later sign overrides
            intensity[place(rows)] = value
    return LidarFrame(points.T, intensity)

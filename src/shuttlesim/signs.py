"""Retroreflective sign detection from LiDAR sweeps.

Five filter stages run in order: minimum-intensity threshold, field-of-view
crop, radius outlier removal, statistical outlier removal, and RANSAC plane
segmentation with a facing check on the plane normal. The threshold and the
crop are per-point masks, so they commute; thresholding first leaves the crop
the few bright returns of a sweep instead of all its ground. The two outlier
filters share one KD-tree, unbalanced as it builds faster on a sign's few
hundred points, and one k-nearest query over the cropped cloud; SOR
queries again only when ROR has dropped points. RANSAC scores its triples in
draw order, a chunk at a time, and stops after the first chunk with a plane
that takes every point, since no later triple can beat it. A detected sign
yields a stop command whose deceleration limit is v^2 / (2 d) for the speed
and distance at detection; ``SignStopLogic`` latches that command and holds it
until the cart has stopped and dwelt.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from shuttlesim.bounds import Bound, Count, Fraction, Intensity, Natural, NonNegative, Positive, check_bounds
from shuttlesim.lidar import LidarFrame
from shuttlesim.twist import TwistCommand

STOP_SPEED = 0.05  # below this the cart counts as stopped
MIN_SIGN_TRIGGER_SPEED = 0.5  # don't latch a sign stop while at crawl speed
# distance-matrix entries scored at a time; a block's 128 KB temporaries stay under glibc's
# trim threshold, where 1 << 16 had each call hand its pages back and fault them in again
_RANSAC_BLOCK = 1 << 14
_COLLINEAR = 1e-12  # a triple whose cross product is shorter spans no plane


@dataclass(frozen=True)
class FilterParams:
    fov_side: Positive = 10.0  # lateral half-extent kept by the FOV crop, m
    min_intensity: Intensity = 85.0
    ror_radius: Positive = 0.5
    ror_min_neighbors: Count = 3
    sor_k: Count = 8
    sor_stddev_mult: Positive = 1.0
    plane_dist_tol: Positive = 0.05
    normal_min_a: Fraction = 0.9  # required x-component of the facing normal
    min_sign_points: Count = 10
    ransac_iters: Annotated[int, Bound(1, 100_000, "within [1, 100000]")] = 200  # triples drawn in one call
    ransac_seed: Natural = 0

    __post_init__ = check_bounds


@dataclass(frozen=True)
class SignDetection:
    plane: tuple[float, float, float, float]  # ax + by + cz + d = 0, unit (a, b, c)
    distance: float  # range from the sensor to the nearest inlier, m
    point_count: int


def fov_filter(frame: LidarFrame, fov_side: float = FilterParams.fov_side) -> LidarFrame:
    """Stage 2: drop everything behind the vehicle or outside the side band."""
    mask = (frame.points[:, 0] > 0.0) & (np.abs(frame.points[:, 1]) <= fov_side)
    return LidarFrame(frame.points[mask], frame.intensity[mask])


def intensity_filter(frame: LidarFrame, min_intensity: float = FilterParams.min_intensity) -> LidarFrame:
    """Stage 1: keep only returns bright enough to be retroreflective."""
    bright = np.flatnonzero(frame.intensity >= min_intensity)  # gathered by index: faster than a mask of the rows
    return LidarFrame(frame.points[bright], frame.intensity[bright])


def _neighbors(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the distances to each point's ``k`` nearest points (fewer
    when there are fewer points), itself first, and those points' indices."""
    from scipy.spatial import cKDTree  # at the first tree: a world without a sign never builds one

    dists, idx = cKDTree(points, balanced_tree=False, compact_nodes=False).query(points, k=min(k, len(points)))
    return dists.reshape(len(points), -1), idx.reshape(len(points), -1)


def radius_outlier_removal(
    points: np.ndarray, radius: float = FilterParams.ror_radius, min_neighbors: int = FilterParams.ror_min_neighbors,
    neighbors: tuple | None = None,
) -> np.ndarray:
    """Stage 3: keep points with at least ``min_neighbors`` others inside ``radius``.

    ``neighbors`` is ``_neighbors(points, k)`` for some ``k > min_neighbors``,
    when the caller has it. A point is kept when its ``min_neighbors``-th
    other neighbour is inside ``radius``: their squared distance, summed as
    ``(dx*dx + dy*dy) + dz*dz`` like the tree's own, is at most ``radius**2``.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return points
    _, idx = _neighbors(points, min_neighbors + 1) if neighbors is None else neighbors
    if idx.shape[1] <= min_neighbors:  # fewer other points than it needs
        return points[:0]
    d = points - points.take(idx[:, min_neighbors], axis=0)  # column 0 is the point itself
    return points[(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2] <= radius * radius]


def statistical_outlier_removal(
    points: np.ndarray, k: int = FilterParams.sor_k, stddev_mult: float = FilterParams.sor_stddev_mult,
    neighbors: tuple | None = None,
) -> np.ndarray:
    """Stage 4: drop points whose mean kNN distance exceeds mu + mult * sigma.

    ``neighbors`` is ``_neighbors(points, j)`` for some ``j > k``, when the
    caller has it.
    """
    points = np.asarray(points, dtype=float)
    if len(points) <= k:
        return points
    dists, _ = _neighbors(points, k + 1) if neighbors is None else neighbors
    mean_dist = dists[:, 1:k + 1].mean(axis=1)  # first neighbour is the point itself
    threshold = mean_dist.mean() + stddev_mult * mean_dist.std()
    return points[mean_dist <= threshold]


def _fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1] / np.sqrt(vt[-1].dot(vt[-1]))  # np.linalg.norm's formula
    return normal, float(-normal @ centroid)


def _plane_distances(points: np.ndarray, a, b, c, d) -> np.ndarray:
    """``|x a + y b + z c + d|`` of each point, elementwise on the point
    columns; the plane is scalars or (K, 1) columns, one plane per row."""
    return np.abs(points[:, 0] * a + points[:, 1] * b + points[:, 2] * c + d)


def _distinct_triples(draws: np.ndarray) -> np.ndarray:
    """Map draws from [0, m) x [0, m-1) x [0, m-2), one to one, onto ordered
    triples of distinct indices in [0, m).

    The second index skips the first, and the third skips the smaller and
    then the larger of the first two.
    """
    triples = draws.copy()
    triples[:, 1] += triples[:, 1] >= triples[:, 0]
    lo, hi = np.minimum(triples[:, 0], triples[:, 1]), np.maximum(triples[:, 0], triples[:, 1])
    triples[:, 2] += triples[:, 2] >= lo
    triples[:, 2] += triples[:, 2] >= hi
    return triples


def _best_triple(points: np.ndarray, triples: np.ndarray, tol: float) -> tuple[int, np.ndarray] | None:
    """Index of the first triple whose plane has the most inliers, and its
    inlier mask; None if all are collinear.

    Scores the triples in order with one (chunk x points) distance matrix per
    chunk; chunks start at 16 triples and double up to ``_RANSAC_BLOCK``
    entries. A triple's plane passes through its first point, normal to the
    cross product of its edges from there. Every step is elementwise
    arithmetic, so a triple's count and mask do not depend on the chunk it
    is scored in. Scoring stops after a chunk whose best plane takes every
    point, since no later triple can have more inliers.
    """
    cap = max(1, _RANSAC_BLOCK // len(points))
    best, best_count, start, size = None, -1, 0, min(16, cap)
    while start < len(triples) and best_count < len(points):
        # corner, axis, triple: each coordinate a (chunk, 1) column
        p0, p1, p2 = points[triples[start:start + size].T].transpose(0, 2, 1)[..., None]
        (ax, ay, az), (bx, by, bz), (x0, y0, z0) = p1 - p0, p2 - p0, p0
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        norm = np.sqrt(nx * nx + ny * ny + nz * nz)
        usable = norm >= _COLLINEAR
        norm = np.where(usable, norm, 1.0)
        ux, uy, uz = nx / norm, ny / norm, nz / norm
        inliers = _plane_distances(points, ux, uy, uz, -(x0 * ux + y0 * uy + z0 * uz)) <= tol
        counts = np.where(usable[:, 0], inliers.sum(axis=1), -1)
        k = int(counts.argmax())
        if counts[k] > best_count:  # a tie keeps the earlier triple
            best, best_count = (start + k, inliers[k]), counts[k]
        start, size = start + size, min(2 * size, cap)
    return best


def plane_segment(
    points: np.ndarray,
    params: FilterParams = FilterParams(),
    sensor_origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> SignDetection | None:
    """Stage 5: RANSAC plane fit with a facing check on the recovered normal.

    Runs a fixed-seed RANSAC that draws every iteration's triple of distinct
    points in one call, refines the winning plane on its inliers, flips the
    normal so its x-component is non-negative, and accepts the plane only
    when that component reaches the facing threshold with enough support.
    When several planes exist the nearest accepted one wins. Each call seeds
    its own ``default_rng(params.ransac_seed)``, so a fit depends only on its
    arguments; at about 9 us a seed, the 132 fits of the demo pay 1.2 ms.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(params.ransac_seed)
    origin = np.asarray(sensor_origin, dtype=float)
    remaining = points
    accepted: list[SignDetection] = []

    for _ in range(3):  # at most a few plane extractions per frame
        if len(remaining) < max(3, params.min_sign_points):  # a plane needs three points
            break
        # every iteration's triple in one draw, collinear triples included
        m = len(remaining)
        triples = _distinct_triples(rng.integers(0, [m, m - 1, m - 2], size=(params.ransac_iters, 3)))
        best = _best_triple(remaining, triples, params.plane_dist_tol)
        if best is None or best[1].sum() < 3:
            break

        normal, offset = _fit_plane(remaining[best[1]])
        inliers = _plane_distances(remaining, *normal, offset) <= params.plane_dist_tol
        if normal[0] < 0.0:
            normal, offset = -normal, -offset

        support = remaining[inliers]
        if len(support) >= params.min_sign_points and normal[0] >= params.normal_min_a:
            offsets = support - origin  # sqrt is monotone: the root of the least square is the least range
            accepted.append(
                SignDetection(
                    plane=(float(normal[0]), float(normal[1]), float(normal[2]), offset),
                    distance=float(np.sqrt((offsets * offsets).sum(axis=1).min())),
                    point_count=int(len(support)),
                )
            )
        remaining = remaining[~inliers]

    if not accepted:
        return None
    return min(accepted, key=lambda d: d.distance)


class SignDetector:
    """Runs the five-stage pipeline on vehicle-frame sweeps. It keeps no state between them (each RANSAC fit
    seeds its own generator), so a detection depends only on its frame."""

    def __init__(self, params: FilterParams = FilterParams(),
                 sensor_origin: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        self.params = params
        self.sensor_origin = sensor_origin
        importlib.import_module("scipy.spatial")  # at set-up, not in the first tick with a bright cloud

    def detect(self, frame: LidarFrame) -> SignDetection | None:
        p = self.params
        stage = intensity_filter(frame, p.min_intensity)
        stage = fov_filter(stage, p.fov_side)
        pts = stage.points
        # one tree and one k-nearest table for both filters
        neighbors = _neighbors(pts, max(p.ror_min_neighbors, p.sor_k) + 1) if len(pts) else None
        kept = radius_outlier_removal(pts, p.ror_radius, p.ror_min_neighbors, neighbors)
        # the table is the survivors' own only when ROR dropped nothing
        pts = statistical_outlier_removal(kept, p.sor_k, p.sor_stddev_mult,
                                          neighbors if len(kept) == len(pts) else None)
        if len(pts) < p.min_sign_points:
            return None
        return plane_segment(pts, p, self.sensor_origin)


def sign_speed_command(
    detection: SignDetection,
    v_at_detection: float,
    accel_limit: float,
) -> TwistCommand:
    """Stop command decelerating at v^2 / (2 d) from the detection point."""
    if detection.distance <= 0.0:
        raise ValueError("detection distance must be positive")
    decel = v_at_detection**2 / (2.0 * detection.distance)
    return TwistCommand(0.0, 0.0, accel_limit, max(decel, 1e-9))


@dataclass(frozen=True)
class SignStopParams:
    latch_distance: Positive = 1.5  # hold the stop once the sign is this close, m
    dwell: NonNegative = 2.0  # time held at standstill before resuming, s
    clear_ticks: Count = 50  # detection-free ticks before re-arming

    __post_init__ = check_bounds


class SignStopLogic:
    """Latched stop behaviour for detected signs.

    On detection the stop command of ``sign_speed_command`` is frozen from the
    speed and distance at that moment. The stop is committed: it runs to
    standstill even if the sign drops out of view on final approach (the
    sensor typically passes the sign plane before the cart halts). After a
    dwell the sign source goes quiet until the sign has been out of view long
    enough to re-arm, so the cart can drive on past it.
    """

    ARMED, BRAKING, DWELLING, RESUME = range(4)

    def __init__(self, params: SignStopParams, accel_limit: float):
        self.params = params
        self.accel_limit = accel_limit
        self.phase = self.ARMED
        self.hold: TwistCommand | None = None  # the latched stop command
        self.hold_distance: float | None = None  # detection distance it latched on
        self.stopped_at = None
        self.missing_ticks = 0

    def update(self, detection: SignDetection | None, v_meas: float, t: float) -> TwistCommand | None:
        self.missing_ticks = 0 if detection is not None else self.missing_ticks + 1

        if self.phase == self.ARMED:
            if detection is not None and v_meas >= MIN_SIGN_TRIGGER_SPEED:
                self.hold = sign_speed_command(detection, v_meas, self.accel_limit)
                self.hold_distance = detection.distance
                self.phase = self.BRAKING
        if self.phase == self.BRAKING:
            if v_meas < STOP_SPEED:
                self.phase = self.DWELLING
                self.stopped_at = t
            return self.hold
        if self.phase == self.DWELLING:
            if t - self.stopped_at >= self.params.dwell:
                self.phase = self.RESUME
                return None
            return self.hold
        if self.phase == self.RESUME:
            # a sign right at the bumper keeps the cart held
            if detection is not None and detection.distance < self.params.latch_distance:
                return self.hold
            if self.missing_ticks > self.params.clear_ticks:
                self.phase = self.ARMED
        return None

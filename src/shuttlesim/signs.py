"""Retroreflective sign detection from LiDAR sweeps.

Five filter stages run in order: minimum-intensity threshold, field-of-view
crop, radius outlier removal, statistical outlier removal, and RANSAC plane
segmentation with a facing check on the plane normal. The threshold and the
crop are per-point masks, so they commute; thresholding first leaves the crop
the few bright returns of a sweep instead of all its ground. A detected sign
yields a stop command whose deceleration limit is v^2 / (2 d) for the speed
and distance at detection; ``SignStopLogic`` latches that command and holds
it until the cart has stopped and dwelt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np
from scipy.spatial import cKDTree

from shuttlesim.bounds import Bound, Count, Fraction, Intensity, Natural, NonNegative, Positive, check_bounds
from shuttlesim.lidar import LidarFrame
from shuttlesim.twist import TwistCommand

STOP_SPEED = 0.05  # below this the cart counts as stopped
MIN_SIGN_TRIGGER_SPEED = 0.5  # don't latch a sign stop while at crawl speed
_RANSAC_BLOCK = 1 << 16  # distance-matrix entries scored at a time
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
    inlier_points: np.ndarray
    distance: float  # range from the sensor to the nearest inlier, m
    point_count: int


def fov_filter(frame: LidarFrame, fov_side: float = 10.0) -> LidarFrame:
    """Stage 2: drop everything behind the vehicle or outside the side band."""
    mask = (frame.points[:, 0] > 0.0) & (np.abs(frame.points[:, 1]) <= fov_side)
    return LidarFrame(frame.points[mask], frame.intensity[mask])


def intensity_filter(frame: LidarFrame, min_intensity: float = 85.0) -> LidarFrame:
    """Stage 1: keep only returns bright enough to be retroreflective."""
    mask = frame.intensity >= min_intensity
    return LidarFrame(frame.points[mask], frame.intensity[mask])


def radius_outlier_removal(
    points: np.ndarray, radius: float = 0.5, min_neighbors: int = 3
) -> np.ndarray:
    """Stage 3: keep points with at least ``min_neighbors`` others inside ``radius``."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return points
    tree = cKDTree(points)
    # counts include the query point itself
    neighbor_counts = tree.query_ball_point(points, r=radius, return_length=True)
    return points[neighbor_counts - 1 >= min_neighbors]


def statistical_outlier_removal(
    points: np.ndarray, k: int = 8, stddev_mult: float = 1.0
) -> np.ndarray:
    """Stage 4: drop points whose mean kNN distance exceeds mu + mult * sigma."""
    points = np.asarray(points, dtype=float)
    if len(points) <= k:
        return points
    tree = cKDTree(points)
    dists, _ = tree.query(points, k=k + 1)  # first neighbour is the point itself
    mean_dist = dists[:, 1:].mean(axis=1)
    threshold = mean_dist.mean() + stddev_mult * mean_dist.std()
    return points[mean_dist <= threshold]


def _fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1] / np.linalg.norm(vt[-1])
    return normal, float(-normal @ centroid)


def _plane_inliers(points: np.ndarray, triple: np.ndarray, tol: float) -> np.ndarray | None:
    """Inlier mask of the plane through three of the points; None when they are collinear."""
    p0, p1, p2 = points[triple]
    normal = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(normal)
    if norm < _COLLINEAR:
        return None
    return np.abs((points - p0) @ (normal / norm)) <= tol


def _distinct_triples(draws: np.ndarray) -> np.ndarray:
    """Map draws from [0, m) x [0, m-1) x [0, m-2), one to one, onto ordered
    triples of distinct indices in [0, m).

    The second index skips the first, and the third skips the smaller and
    then the larger of the first two.
    """
    triples = draws.copy()
    triples[:, 1] += triples[:, 1] >= triples[:, 0]
    lo, hi = np.sort(triples[:, :2], axis=1).T
    triples[:, 2] += triples[:, 2] >= lo
    triples[:, 2] += triples[:, 2] >= hi
    return triples


def _best_triple(points: np.ndarray, triples: np.ndarray, tol: float) -> int | None:
    """Index of the first triple whose plane has the most inliers; None if all are collinear.

    Scores every candidate with one (points x triples) distance matrix, in
    blocks of rows. A batched count can differ from ``_plane_inliers``' only
    for a triple within rounding of the collinearity cut or a point within
    rounding of ``tol``; such candidates are recounted with ``_plane_inliers``,
    so the winner is the one a candidate-by-candidate loop would keep.
    """
    p0 = points[triples[:, 0]]
    a = points[triples[:, 1]] - p0
    b = points[triples[:, 2]] - p0
    # the components np.cross computes, for all triples at once
    normal = np.stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                       a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                       a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]], axis=1)
    norm = np.sqrt(np.einsum("ij,ij->i", normal, normal))
    usable = norm >= _COLLINEAR
    unsure = np.abs(norm - _COLLINEAR) <= 1e-9 * _COLLINEAR
    unit = normal / np.where(usable, norm, 1.0)[:, None]
    offset = np.einsum("ij,ij->i", p0, unit)
    # rounding of either distance formula stays far below this
    slack = 1e-9 * (1.0 + np.abs(points).max())
    counts = np.zeros(len(triples), dtype=np.int64)
    rows = max(1, _RANSAC_BLOCK // len(triples))
    for start in range(0, len(points), rows):
        dist = np.abs(points[start:start + rows] @ unit.T - offset)
        counts += np.count_nonzero(dist <= tol, axis=0)
        unsure |= (np.abs(dist - tol) <= slack).any(axis=0)
    counts[~usable] = -1
    for k in np.flatnonzero(unsure):
        inliers = _plane_inliers(points, triples[k], tol)
        counts[k] = -1 if inliers is None else np.count_nonzero(inliers)
    best = int(np.argmax(counts))
    return best if counts[best] >= 0 else None


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
    When several planes exist the nearest accepted one wins.
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
        if best is None:
            break
        best_inliers = _plane_inliers(remaining, triples[best], params.plane_dist_tol)
        if best_inliers.sum() < 3:
            break

        normal, offset = _fit_plane(remaining[best_inliers])
        dist = np.abs(remaining @ normal + offset)
        inliers = dist <= params.plane_dist_tol
        if normal[0] < 0.0:
            normal, offset = -normal, -offset

        support = remaining[inliers]
        if len(support) >= params.min_sign_points and normal[0] >= params.normal_min_a:
            ranges = np.linalg.norm(support - origin, axis=1)
            accepted.append(
                SignDetection(
                    plane=(float(normal[0]), float(normal[1]), float(normal[2]), offset),
                    inlier_points=support,
                    distance=float(ranges.min()),
                    point_count=int(len(support)),
                )
            )
        remaining = remaining[~inliers]

    if not accepted:
        return None
    return min(accepted, key=lambda d: d.distance)


class SignDetector:
    """Runs the five-stage pipeline on vehicle-frame sweeps."""

    def __init__(self, params: FilterParams = FilterParams(),
                 sensor_origin: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        self.params = params
        self.sensor_origin = sensor_origin

    def detect(self, frame: LidarFrame) -> SignDetection | None:
        p = self.params
        stage = intensity_filter(frame, p.min_intensity)
        stage = fov_filter(stage, p.fov_side)
        pts = radius_outlier_removal(stage.points, p.ror_radius, p.ror_min_neighbors)
        pts = statistical_outlier_removal(pts, p.sor_k, p.sor_stddev_mult)
        if len(pts) < p.min_sign_points:
            return None
        return plane_segment(pts, p, self.sensor_origin)


def sign_speed_command(
    detection: SignDetection,
    v_at_detection: float,
    accel_limit: float = 1.0,
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

    def __init__(self, params: SignStopParams = SignStopParams(), accel_limit: float = 1.0):
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

import itertools
import math

import numpy as np
import pytest

from shuttlesim.lidar import LidarConfig, LidarFrame, scan
from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.signs import (
    MIN_SIGN_TRIGGER_SPEED,
    STOP_SPEED,
    FilterParams,
    SignDetection,
    SignDetector,
    SignStopLogic,
    SignStopParams,
    _distinct_triples,
    fov_filter,
    intensity_filter,
    plane_segment,
    radius_outlier_removal,
    sign_speed_command,
    statistical_outlier_removal,
)
from shuttlesim.world import SignSpec, WorldModel
from tests.conftest import brute_ror, brute_sor, reference_plane_segment

PARAMS = VehicleParams()
SENSOR = (PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height)


def make_frame(points, intensity):
    pts = np.asarray(points, dtype=float)
    return LidarFrame(points=pts, intensity=np.asarray(intensity, dtype=float))


def test_fov_filter():
    frame = make_frame([[-1.0, 0.0, 1.0], [5.0, 11.0, 1.0], [5.0, 0.0, 1.0]], [90, 90, 90])
    out = fov_filter(frame)
    assert len(out) == 1
    assert out.points[0, 0] == 5.0


def test_intensity_filter_threshold():
    frame = make_frame([[1, 0, 0], [2, 0, 0], [3, 0, 0]], [84.0, 85.0, 200.0])
    out = intensity_filter(frame)
    assert len(out) == 2
    assert np.all(out.intensity >= 85.0)


def test_intensity_filter_empty_and_background():
    empty = make_frame(np.empty((0, 3)), [])
    assert len(intensity_filter(empty)) == 0
    ground = make_frame([[3, 0, 0]] * 5, [20.0] * 5)
    assert len(intensity_filter(ground)) == 0


def test_ror_isolated_point_removed():
    pts = np.array([[0, 0, 0.0], [10, 10, 10.0], [0.1, 0, 0], [0, 0.1, 0], [0.1, 0.1, 0]])
    out = radius_outlier_removal(pts)
    assert len(out) == 4
    assert not any(np.allclose(p, [10, 10, 10]) for p in out)


def test_ror_tight_cluster_kept():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.1, 0.1, size=(5, 3))
    out = radius_outlier_removal(pts)
    assert len(out) == 5


def test_ror_exactly_two_neighbors_removed():
    pts = np.array([[0, 0, 0.0], [0.1, 0, 0], [0.2, 0, 0]])
    # every point has exactly 2 neighbours within 0.5 m -> fewer than 3
    out = radius_outlier_removal(pts)
    assert len(out) == 0


def test_ror_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(50):
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 40)), 3))
        got = radius_outlier_removal(pts)
        want = brute_ror(pts)
        np.testing.assert_array_equal(got, want)


def test_sor_identical_statistics_untouched():
    # evenly spaced collinear points: every mean-kNN distance is exactly 1.0,
    # the spread is zero, and nothing crosses the threshold
    line = np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)])
    out = statistical_outlier_removal(line, k=1, stddev_mult=1.0)
    assert len(out) == len(line)


def test_sor_straggler_removed():
    g = np.mgrid[0:4, 0:4, 0:1].reshape(3, -1).T.astype(float)
    pts = np.vstack([g, [[40.0, 40.0, 0.0]]])
    out = statistical_outlier_removal(pts, k=4, stddev_mult=1.0)
    assert not any(np.allclose(p, [40, 40, 0]) for p in out)
    assert len(out) == len(g)


def test_sor_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pts = rng.normal(0, 1, size=(int(rng.integers(10, 50)), 3))
        got = statistical_outlier_removal(pts, k=8, stddev_mult=1.0)
        want = brute_sor(pts, k=8, stddev_mult=1.0)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_sor_passthrough_when_too_few():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    out = statistical_outlier_removal(pts, k=8)
    np.testing.assert_array_equal(out, pts)


def plane_points(n=50, a=1.0, seed=0, offset=10.0):
    # vertical plane x = offset facing the vehicle, or tilted for small a
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.4, 0.4, n)
    z = rng.uniform(1.6, 2.4, n)
    if a >= 0.999:
        x = np.full(n, offset)
        return np.column_stack([x, y, z])
    # rotate the plane about the z-axis so the normal x-component equals a
    tilt = math.acos(a)
    x = offset + y * math.tan(tilt)
    return np.column_stack([x, y, z])


def test_plane_recovers_facing_normal():
    pts = plane_points()
    det = plane_segment(pts, FilterParams(), SENSOR)
    assert det is not None
    a, b, c, _ = det.plane
    angle = math.degrees(math.acos(min(1.0, abs(a))))
    assert angle < 2.0
    assert det.point_count == 50
    assert det.distance == pytest.approx(np.linalg.norm(pts - np.array(SENSOR), axis=1).min(), rel=1e-9)


def test_oblique_plane_rejected():
    pts = plane_points(a=0.5)
    det = plane_segment(pts, FilterParams(), SENSOR)
    assert det is None


def test_below_min_support_rejected():
    pts = plane_points(n=5)
    assert plane_segment(pts, FilterParams(), SENSOR) is None


def test_two_points_give_no_plane():
    # min_sign_points and ror_min_neighbors low enough to let two points through
    params = FilterParams(min_sign_points=2, ror_min_neighbors=1)
    pts = np.array([[5.0, 0.0, 1.0], [5.0, 0.1, 1.0]])
    assert plane_segment(pts, params, SENSOR) is None
    assert reference_plane_segment(pts, params, SENSOR) is None
    assert SignDetector(params, SENSOR).detect(make_frame(pts, [200.0, 200.0])) is None


def test_plane_deterministic():
    pts = plane_points(seed=3)
    d1 = plane_segment(pts, FilterParams(), SENSOR)
    d2 = plane_segment(pts, FilterParams(), SENSOR)
    assert d1.plane == d2.plane
    assert d1.distance == d2.distance


def test_stages_are_subsets():
    world = WorldModel(signs=(SignSpec(center=(11.6, 0.0, 2.0), normal=(-1, 0, 0)),))
    frame = scan(world, VehicleState(), PARAMS, LidarConfig())
    s1 = fov_filter(frame)
    assert len(s1) <= len(frame)
    s2 = intensity_filter(s1)
    assert len(s2) <= len(s1)
    s3 = radius_outlier_removal(s2.points)
    assert len(s3) <= len(s2)
    s4 = statistical_outlier_removal(s3)
    assert len(s4) <= len(s3)


def full_pipeline_world(distance, lateral=-1.6):
    x = PARAMS.lidar_offset_x + math.sqrt(distance**2 - lateral**2)
    return WorldModel(signs=(SignSpec(center=(x, lateral, 2.0), normal=(-1.0, 0.0, 0.0)),))


def test_full_pipeline_detects_sign_at_10m():
    detector = SignDetector(FilterParams(), SENSOR)
    config = LidarConfig(range_jitter=0.01)
    rng = np.random.default_rng(12)
    hits = 0
    frames = 40
    for _ in range(frames):
        frame = scan(full_pipeline_world(10.0), VehicleState(), PARAMS, config, rng=rng)
        det = detector.detect(frame)
        if det is not None and abs(det.distance - 10.0) <= 0.3:
            hits += 1
    assert hits / frames >= 0.95


def test_pipeline_point_count_monotone():
    detector = SignDetector(FilterParams(), SENSOR)
    n7 = detector.detect(scan(full_pipeline_world(7.0), VehicleState(), PARAMS, LidarConfig()))
    n10 = detector.detect(scan(full_pipeline_world(10.0), VehicleState(), PARAMS, LidarConfig()))
    assert n7 is not None and n10 is not None
    assert n7.point_count > n10.point_count


def test_no_sign_no_detection():
    detector = SignDetector(FilterParams(), SENSOR)
    frame = scan(WorldModel(), VehicleState(), PARAMS, LidarConfig())
    assert detector.detect(frame) is None


def test_pipeline_throughput_measured_not_asserted():
    # full five-stage pipeline on a ~30k-point sweep; informational only,
    # the 20 ms tick budget is checked by eye on representative hardware
    import time

    detector = SignDetector(FilterParams(), SENSOR)
    frame = scan(full_pipeline_world(10.0), VehicleState(), PARAMS, LidarConfig())
    detector.detect(frame)  # warm up
    t0 = time.perf_counter()
    runs = 10
    for _ in range(runs):
        det = detector.detect(frame)
    per_frame_ms = (time.perf_counter() - t0) / runs * 1000.0
    print(f"\nsign pipeline: {len(frame)} points -> {per_frame_ms:.2f} ms/frame")
    assert det is not None  # the measurement at least has to be of a working pipeline


def test_sign_speed_command_law():
    # distance is the nearest-inlier range, so pin it via a synthetic detection
    det = SignDetection(plane=(1, 0, 0, -10), inlier_points=np.zeros((1, 3)), distance=10.0, point_count=40)
    cmd = sign_speed_command(det, 3.0)
    assert cmd.linear_v == 0.0
    assert cmd.decel_limit == pytest.approx(0.45)

    det5 = SignDetection(plane=(1, 0, 0, -5), inlier_points=np.zeros((1, 3)), distance=5.0, point_count=40)
    assert sign_speed_command(det5, 3.0).decel_limit == pytest.approx(0.9)
    # zero approach speed asks for (effectively) no deceleration
    assert sign_speed_command(det, 0.0).decel_limit <= 1e-9

    bad = SignDetection(plane=(1, 0, 0, 0), inlier_points=np.zeros((1, 3)), distance=0.0, point_count=40)
    with pytest.raises(ValueError):
        sign_speed_command(bad, 3.0)


def detection_at(distance):
    return SignDetection(plane=(1, 0, 0, -distance), inlier_points=np.zeros((1, 3)),
                         distance=distance, point_count=40)


STOP_PARAMS = SignStopParams(latch_distance=1.5, dwell=2.0, clear_ticks=5)


def braked_to_standstill(t_stop=4.0):
    logic = SignStopLogic(STOP_PARAMS, accel_limit=0.8)
    logic.update(detection_at(10.0), 3.0, 0.0)
    logic.update(None, 0.0, t_stop)
    return logic


def test_sign_stop_latches_sign_speed_command():
    logic = SignStopLogic(STOP_PARAMS, accel_limit=0.8)
    cmd = logic.update(detection_at(10.0), 3.0, 0.0)
    assert cmd == sign_speed_command(detection_at(10.0), 3.0, 0.8)
    assert cmd.decel_limit == sign_speed_command(detection_at(10.0), 3.0).decel_limit


def test_sign_stop_needs_trigger_speed():
    logic = SignStopLogic(STOP_PARAMS)
    assert logic.update(detection_at(10.0), MIN_SIGN_TRIGGER_SPEED - 0.01, 0.0) is None
    assert logic.phase == SignStopLogic.ARMED
    assert logic.update(detection_at(10.0), MIN_SIGN_TRIGGER_SPEED, 0.02) is not None


def test_sign_stop_holds_without_detection():
    logic = SignStopLogic(STOP_PARAMS)
    latched = logic.update(detection_at(10.0), 3.0, 0.0)
    # the sign leaves the view, or reappears closer: the frozen stop stays
    assert logic.update(None, 2.0, 1.0) == latched
    assert logic.update(detection_at(4.0), 1.5, 2.0) == latched
    assert logic.update(None, STOP_SPEED, 3.0) == latched


def test_sign_stop_dwell_then_release():
    logic = braked_to_standstill(t_stop=4.0)
    held = logic.hold
    assert logic.phase == SignStopLogic.DWELLING
    assert logic.update(None, 0.0, 4.0 + STOP_PARAMS.dwell - 0.02) == held
    assert logic.update(None, 0.0, 4.0 + STOP_PARAMS.dwell) is None
    # released, but a sign right at the bumper keeps the cart held
    t = 4.0 + STOP_PARAMS.dwell + 0.02
    assert logic.update(detection_at(STOP_PARAMS.latch_distance - 0.1), 0.0, t) == held
    assert logic.update(detection_at(STOP_PARAMS.latch_distance + 0.5), 0.0, t + 0.02) is None


def test_sign_stop_rearms_after_clear_ticks():
    logic = braked_to_standstill(t_stop=4.0)
    t = 4.0 + STOP_PARAMS.dwell
    logic.update(None, 0.0, t)
    # still in view past the latch distance: no new stop, and no re-arm
    assert logic.update(detection_at(8.0), 1.0, t + 0.02) is None
    for k in range(STOP_PARAMS.clear_ticks):
        assert logic.update(None, 1.0, t + 0.04 + 0.02 * k) is None
    assert logic.phase == SignStopLogic.RESUME
    logic.update(None, 1.0, t + 1.0)
    assert logic.phase == SignStopLogic.ARMED
    assert logic.update(detection_at(8.0), 2.0, t + 1.02) == sign_speed_command(detection_at(8.0), 2.0, 0.8)


def random_cloud(rng, kind):
    """A sign-like cloud; kinds 2-4 make collinear, repeated or exactly-at-tolerance points."""
    def patch(n, x, noise):
        yz = rng.uniform(-0.4, 0.4, (n, 2))
        return np.column_stack([x + rng.normal(0.0, noise, n) + 0.1 * yz[:, 0], yz])
    outliers = rng.uniform([5.0, -2.0, -1.0], [15.0, 2.0, 1.0], (rng.integers(0, 15), 3))
    if kind == 0:
        parts = [patch(rng.integers(10, 150), rng.uniform(6, 14), rng.choice([0.0, 0.005, 0.02]))]
    elif kind == 1:
        parts = [patch(rng.integers(10, 80), 8.0, 0.005), patch(rng.integers(10, 80), 12.0, 0.005)]
    elif kind == 2:  # a line, so most triples are collinear
        t = rng.uniform(0, 1, rng.integers(10, 60))
        parts = [np.outer(t, rng.normal(size=3)) + rng.uniform(5, 10, 3)]
        outliers = outliers[: rng.integers(0, 3)]
    elif kind == 3:  # a few points repeated, so triples share points
        parts = [np.repeat(patch(rng.integers(3, 6), 9.0, 0.01), rng.integers(3, 8), axis=0)]
    else:  # on a 1/16 grid: points exactly 1/16 off the plane x = 8
        grid = rng.integers(-6, 7, (rng.integers(15, 80), 2)) / 16.0
        parts = [np.column_stack([8.0 + rng.integers(-1, 2, len(grid)) / 16.0, grid])]
    return np.concatenate(parts + [outliers])


def test_plane_segment_matches_candidate_by_candidate_reference(monkeypatch):
    import shuttlesim.signs as signs
    calls = {"inliers": 0, "winners": 0}
    real_inliers, real_best = signs._plane_inliers, signs._best_triple

    def plane_inliers(*args):
        calls["inliers"] += 1
        return real_inliers(*args)

    def best_triple(*args):
        best = real_best(*args)
        calls["winners"] += best is not None
        return best

    monkeypatch.setattr(signs, "_plane_inliers", plane_inliers)
    monkeypatch.setattr(signs, "_best_triple", best_triple)
    rng = np.random.default_rng(11)
    found = 0
    for i in range(200):
        params = FilterParams(ransac_iters=int(rng.choice([10, 50, 200])),
                              ransac_seed=int(rng.integers(0, 1000)),
                              min_sign_points=int(rng.choice([3, 5, 10])),
                              normal_min_a=float(rng.choice([0.5, 0.9])),
                              plane_dist_tol=0.0625 if i % 5 == 4 else 0.05)
        points = random_cloud(rng, i % 5)
        got = plane_segment(points, params, SENSOR)
        want = reference_plane_segment(points, params, SENSOR)
        assert (got is None) == (want is None), i
        if want is not None:
            found += 1
            assert got.plane == want.plane
            assert np.array_equal(got.inlier_points, want.inlier_points)
            assert (got.distance, got.point_count) == (want.distance, want.point_count)
    assert 50 < found < 200
    # the grid clouds put points at exactly the tolerance, so some candidates
    # are recounted one by one besides each extraction's winner
    assert calls["inliers"] > calls["winners"]


@pytest.mark.parametrize("m", range(3, 8))
def test_distinct_triples_maps_every_draw_to_its_own_triple(m):
    draws = np.array(list(itertools.product(range(m), range(m - 1), range(m - 2))))
    triples = _distinct_triples(draws)
    distinct = set(itertools.permutations(range(m), 3))
    assert set(map(tuple, triples.tolist())) == distinct
    assert len(triples) == len(distinct)

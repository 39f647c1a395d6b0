import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shuttlesim.signs as signs
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
from tests.conftest import (
    brute_neighbors,
    brute_ror,
    brute_sor,
    reference_plane_distances,
    reference_plane_inliers,
    reference_plane_segment,
    tree_distances,
    two_tree_ror_sor,
)

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


def mask_intensity_filter(frame, min_intensity):
    """The threshold as a boolean mask of the frame's rows."""
    mask = frame.intensity >= min_intensity
    return LidarFrame(frame.points[mask], frame.intensity[mask])


@pytest.mark.parametrize("bright", ["none", "some", "all", "scanned"])
def test_intensity_filter_gathers_the_rows_a_mask_keeps(bright):
    rng = np.random.default_rng(5)
    if bright == "scanned":  # the (N, 3) transposed view scan returns, with a sign's returns among the ground's
        frame = scan(full_pipeline_world(10.0), VehicleState(), PARAMS, LidarConfig())
    else:
        intensity = rng.uniform(*{"none": (0.0, 84.9), "some": (0.0, 255.0), "all": (85.0, 255.0)}[bright], 500)
        if bright != "none":
            intensity[::7] = 85.0  # exactly at the threshold, which keeps them
        frame = LidarFrame(rng.uniform(-50.0, 50.0, (3, 500)).T, intensity)
    got, expected = intensity_filter(frame, 85.0), mask_intensity_filter(frame, 85.0)
    assert np.array_equal(got.points, expected.points) and np.array_equal(got.intensity, expected.intensity)
    assert len(got) == {"none": 0, "all": len(frame)}.get(bright, len(got))
    assert bright in ("none", "all") or 0 < len(got) < len(frame)


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


@st.composite
def outlier_clouds(draw):
    """(points, radius, min_neighbors, k) of a random, grid-tied, spherical, ulp-edged, repeated, tiny or
    straggling cloud."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "grid", "sphere", "ulp", "repeated", "tiny", "stragglers"]))
    radius = draw(st.sampled_from([0.5, 0.25, 0.375, 1.0]))  # a grid of them is exact
    min_neighbors, k = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    box = ([5.0, -1.0, 1.0], [7.0, 1.0, 3.0])
    if kind == "random":
        points = rng.uniform(*box, (rng.integers(1, 120), 3))
    elif kind == "grid":  # spacing equal to the radius: rows of exact ties
        points = 6.0 + radius * rng.integers(-3, 4, (rng.integers(1, 120), 3)).astype(float)
    elif kind == "sphere":  # points a radius from a few centres, within rounding of it
        radius = draw(st.sampled_from([0.3, 0.5, 0.1, 0.7]))
        centres = rng.uniform(*box, (rng.integers(1, 4), 3))
        u = rng.normal(size=(len(centres), rng.integers(1, 14), 3))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        points = np.concatenate([centres, (centres[:, None] + radius * u).reshape(-1, 3)])
    elif kind == "ulp":  # points a radius along an axis from a few centres, or one float nearer or farther
        centres = [6.0, 0.0, 2.0] + radius * rng.integers(-3, 4, (rng.integers(1, 6), 3)).astype(float)
        near = np.repeat(centres, rng.integers(1, 10, len(centres)), axis=0)
        rows, axis = np.arange(len(near)), rng.integers(0, 3, len(near))
        edge = near[rows, axis] + radius * rng.choice([-1.0, 1.0], len(near))  # exact: a grid of radii
        near[rows, axis] = np.nextafter(edge, edge + rng.integers(-1, 2, len(near)))
        points = np.concatenate([centres, near])
    elif kind == "repeated":
        points = np.repeat(rng.uniform(*box, (rng.integers(1, 20), 3)), rng.integers(1, 8), axis=0)
    elif kind == "tiny":  # no more points than either filter's count
        points = rng.uniform([5.0, -0.2, 1.8], [5.4, 0.2, 2.2], (rng.integers(1, min(min_neighbors, k) + 1), 3))
    else:  # a tight plate and points far from it, which ROR drops
        plate = rng.uniform([8.0, -0.4, 1.6], [8.05, 0.4, 2.4], (rng.integers(10, 200), 3))
        points = np.concatenate([plate, rng.uniform([5.0, -9.0, -2.0], [40.0, 9.0, 5.0], (rng.integers(1, 10), 3))])
    return rng.permutation(points), radius, min_neighbors, k


def detect_filtered(points, params):
    """The cloud ``SignDetector.detect`` hands RANSAC for bright points in view."""
    seen = [points[:0]]

    def spy(pts, *_):
        seen.append(pts)

    real, signs.plane_segment = signs.plane_segment, spy
    try:
        SignDetector(params, SENSOR).detect(make_frame(points, np.full(len(points), 200.0)))
    finally:
        signs.plane_segment = real
    return seen[-1]


@settings(max_examples=300, deadline=None)
@given(outlier_clouds(), st.sampled_from([0.5, 1.0, 2.0]))
def test_detect_outlier_filters_equal_two_trees_and_brute_force_bit_for_bit(cloud, mult):
    points, radius, min_neighbors, k = cloud
    params = FilterParams(ror_radius=radius, ror_min_neighbors=min_neighbors, sor_k=k,
                          sor_stddev_mult=mult, min_sign_points=1)
    got = detect_filtered(points, params)
    assert np.array_equal(got, two_tree_ror_sor(points, radius, min_neighbors, k, mult))
    assert np.array_equal(got, brute_sor(brute_ror(points, radius, min_neighbors), k, mult))


@settings(max_examples=200, deadline=None)
@given(outlier_clouds(), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([(0.0, 0.0, 0.0), SENSOR]))
def test_the_neighbor_table_equals_brute_force_and_the_trees_distances_bit_for_bit(cloud, mult, origin):
    points, radius, min_neighbors, k = cloud
    j = max(min_neighbors, k) + 1
    table = signs._neighbors(points, j, origin)
    assert table.tobytes() == brute_neighbors(points, j).tobytes()
    tree = tree_distances(points, j)
    assert tree is None or np.array_equal(np.sqrt(table), tree)
    assert np.array_equal(radius_outlier_removal(points, radius, min_neighbors, table),
                          brute_ror(points, radius, min_neighbors))
    assert np.array_equal(statistical_outlier_removal(points, k, mult, table), brute_sor(points, k, mult))


def scanned_sign(x, y, normal=(-1.0, 0.0, 0.0), **size):
    """The bright returns of one jittered sweep of a sign centred at (x, y) ahead of the sensor, at its height."""
    sign = SignSpec(center=(PARAMS.lidar_offset_x + x, y, PARAMS.lidar_mount_height), normal=normal, **size)
    frame = scan(WorldModel(signs=(sign,)), VehicleState(), PARAMS, LidarConfig(range_jitter=0.01),
                 np.random.default_rng(7))
    return intensity_filter(frame).points


SCANNED_SIGNS = {  # the demo's sign 2 m off the route at 3, 10 and 21 m, the farthest any ring reaches it
    "3 m": lambda: scanned_sign(math.sqrt(3.0**2 - 4.0), -2.0),
    "10 m": lambda: scanned_sign(math.sqrt(10.0**2 - 4.0), -2.0),
    "21 m": lambda: scanned_sign(math.sqrt(21.0**2 - 4.0), -2.0),
    "oblique, close": lambda: scanned_sign(0.6, -2.0),  # seen 73 degrees off its normal, 2 m away
    "across azimuth 0": lambda: scanned_sign(3.0, 0.0, width=1.5, height=1.0),
    "across the seam at 180 degrees": lambda: scanned_sign(-3.0, 0.0, (1.0, 0.0, 0.0), width=1.5, height=1.0),
    # returns straight above and below the sensor have no azimuth; beside the 3 m sign's rings
    "on the sensor's axis": lambda: np.concatenate([scanned_sign(math.sqrt(3.0**2 - 4.0), -2.0), np.add(
        SENSOR, np.outer(np.r_[-1.9:-0.1:20j, 0.1:1.9:20j], [0.0, 0.0, 1.0]))]),
}


@pytest.mark.parametrize("name", SCANNED_SIGNS)
def test_the_neighbor_table_of_a_scanned_cloud_equals_brute_force_bit_for_bit(name, monkeypatch):
    points = SCANNED_SIGNS[name]()
    every_pair = {}  # by k, the rows that took every point
    real = signs._pair_table
    for k in (2, 4, 9, 13, 30, len(points), len(points) + 5):
        monkeypatch.setattr(signs, "_pair_table", lambda X, rows, j: every_pair.setdefault(k, []).append(len(rows))
                            or real(X, rows, j))
        table = signs._neighbors(points, k, SENSOR)
        assert table.tobytes() == brute_neighbors(points, k).tobytes()
        tree = tree_distances(points, k)
        assert tree is None or np.array_equal(np.sqrt(table), tree)
    # where the cloud is one sign of a few hundred points, its rings prove nearly every row for SignDetector's k
    if name != "on the sensor's axis" and len(points) >= 200:
        assert sum(every_pair.get(9, [])) <= 0.05 * len(points)



@functools.cache
def scanned_once(name):
    return SCANNED_SIGNS[name]()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["3 m", "oblique, close"]), st.integers(1, 20))
def test_the_neighbor_table_of_a_thinned_and_cluttered_scan_equals_brute_force_bit_for_bit(seed, name, k):
    """A scan with returns dropped, repeated, moved along their rays (so kept on their ring) and strays added."""
    rng = np.random.default_rng(seed)
    scanned = scanned_once(name)
    kept = scanned[rng.random(len(scanned)) < rng.uniform(0.2, 1.0)]
    picks = [kept[rng.integers(0, len(kept), rng.integers(0, 12))] for _ in range(2)]
    along_ray = np.add(SENSOR, (picks[1] - SENSOR) * rng.uniform(0.8, 1.2, (len(picks[1]), 1)))
    strays = rng.uniform(kept.min(axis=0), kept.max(axis=0), (rng.integers(0, 6), 3))
    cloud = rng.permutation(np.concatenate([kept, picks[0], along_ray, strays]))
    table = signs._neighbors(cloud, k, SENSOR)
    assert table.tobytes() == brute_neighbors(cloud, k).tobytes()
    tree = tree_distances(cloud, k)
    assert tree is None or np.array_equal(np.sqrt(table), tree)

@pytest.mark.parametrize("cloud", ["scanned", "grid"])
def test_detect_builds_one_neighbor_table_for_both_filters(cloud, monkeypatch):
    if cloud == "scanned":
        frame = scan(full_pipeline_world(10.0), VehicleState(), PARAMS, LidarConfig())
        points = intensity_filter(frame).points
    else:  # every point's third neighbour exactly a radius away
        points = 6.0 + 0.5 * np.mgrid[0:3, 0:4, 0:5].reshape(3, -1).T
        frame = make_frame(points, np.full(len(points), 200.0))
    params = FilterParams()
    kept = radius_outlier_removal(points, params.ror_radius, params.ror_min_neighbors)
    assert len(kept) == len(points)
    assert np.array_equal(kept, brute_ror(points, params.ror_radius, params.ror_min_neighbors))
    reach = np.sort(np.linalg.norm(points[:, None] - points[None], axis=2), axis=1)[:, params.ror_min_neighbors]
    at_radius = np.count_nonzero(np.abs(reach - params.ror_radius) <= 1e-9 * params.ror_radius)
    assert at_radius == (0 if cloud == "scanned" else len(points))
    tables = []
    real = signs._neighbors
    monkeypatch.setattr(signs, "_neighbors", lambda pts, k, origin: tables.append((len(pts), k, origin))
                        or real(pts, k, origin))
    assert SignDetector(params, SENSOR).detect(frame) is not None
    assert tables == [(len(points), max(params.ror_min_neighbors, params.sor_k) + 1, SENSOR)]


def test_ror_decides_by_the_squared_sum_where_the_square_root_rounds_to_the_radius():
    # their squared distance is 0.25000000000000006, whose square root rounds to 0.5
    points = np.array([[6.0, 0.0, 2.0], [5.875188792770302, -0.47679741847250307, 1.9158193354277697]])
    d = points[0] - points[1]
    assert (d[0] * d[0] + d[1] * d[1]) + d[2] * d[2] > 0.5 * 0.5
    table = signs._neighbors(points, 2)
    assert np.all(table[:, 1] > 0.5 * 0.5) and np.all(np.sqrt(table[:, 1]) <= 0.5)
    try:  # a KD-tree's ball count decides by the squared sum too
        from scipy.spatial import cKDTree
    except ImportError:
        pass
    else:
        assert cKDTree(points).query_ball_point(points, r=0.5, return_length=True).tolist() == [1, 1]
    assert len(brute_ror(points, 0.5, 1)) == 0
    assert len(radius_outlier_removal(points, 0.5, 1)) == 0
    assert len(detect_filtered(points, FilterParams(ror_radius=0.5, ror_min_neighbors=1, min_sign_points=1))) == 0


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
    det = SignDetection(plane=(1, 0, 0, -10), distance=10.0, point_count=40)
    cmd = sign_speed_command(det, 3.0, 1.0)
    assert cmd.linear_v == 0.0
    assert cmd.decel_limit == pytest.approx(0.45)

    det5 = SignDetection(plane=(1, 0, 0, -5), distance=5.0, point_count=40)
    assert sign_speed_command(det5, 3.0, 1.0).decel_limit == pytest.approx(0.9)
    # zero approach speed asks for (effectively) no deceleration
    assert sign_speed_command(det, 0.0, 1.0).decel_limit <= 1e-9

    bad = SignDetection(plane=(1, 0, 0, 0), distance=0.0, point_count=40)
    with pytest.raises(ValueError):
        sign_speed_command(bad, 3.0, 1.0)


def detection_at(distance):
    return SignDetection(plane=(1, 0, 0, -distance), distance=distance, point_count=40)


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
    assert cmd.decel_limit == sign_speed_command(detection_at(10.0), 3.0, 1.0).decel_limit


def test_sign_stop_needs_trigger_speed():
    logic = SignStopLogic(STOP_PARAMS, accel_limit=1.0)
    assert logic.update(detection_at(10.0), MIN_SIGN_TRIGGER_SPEED - 0.01, 0.0) is None
    assert logic.phase == SignStopLogic.ARMED
    assert logic.update(detection_at(10.0), MIN_SIGN_TRIGGER_SPEED, 0.02) is not None


def test_sign_stop_holds_without_detection():
    logic = SignStopLogic(STOP_PARAMS, accel_limit=1.0)
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


def test_plane_segment_matches_candidate_by_candidate_reference():
    rng = np.random.default_rng(11)
    found = at_tol = 0
    for i in range(200):
        params = FilterParams(ransac_iters=int(rng.choice([10, 50, 200])),
                              ransac_seed=int(rng.integers(0, 1000)),
                              min_sign_points=int(rng.choice([3, 5, 10])),
                              normal_min_a=float(rng.choice([0.5, 0.9])),
                              plane_dist_tol=0.0625 if i % 5 == 4 else 0.05)
        points = random_cloud(rng, i % 5)
        # the grid clouds put points exactly the tolerance off the plane x = 8, which
        # their triples span, so those candidates' counts hinge on the last bit
        at_tol += (np.count_nonzero(points[:, 0] == 8.0) >= 3
                   and bool((np.abs(points[:, 0] - 8.0) == params.plane_dist_tol).any()))
        got = plane_segment(points, params, SENSOR)
        want = reference_plane_segment(points, params, SENSOR)
        assert (got is None) == (want is None), i
        if want is not None:
            want, remaining, support = want
            found += 1
            assert got.plane == want.plane
            # the inliers of the returned plane, among the points left at its extraction
            a, b, c, d = got.plane
            dist = np.abs(remaining[:, 0] * a + remaining[:, 1] * b + remaining[:, 2] * c + d)
            assert np.array_equal(remaining[dist <= params.plane_dist_tol], support)
            assert (got.distance, got.point_count) == (want.distance, want.point_count)
    assert 50 < found < 200
    assert at_tol == 40  # every grid cloud


def test_consecutive_detect_calls_draw_the_triples_of_a_freshly_seeded_generator(monkeypatch):
    # each fit seeds its own generator, so every call draws as a fresh one does
    params = FilterParams(ransac_seed=7)
    drawn = []  # (points left, triples) at each plane extraction of one call
    real = signs._best_triple
    monkeypatch.setattr(signs, "_best_triple",
                        lambda points, triples, tol: drawn.append((len(points), triples)) or real(points, triples, tol))
    detector = SignDetector(params, SENSOR)
    rng = np.random.default_rng(3)
    calls_with_two_draws = 0
    for i in range(16):
        frame = make_frame(points := random_cloud(rng, i % 2), np.full(len(points), 200.0))
        drawn.clear()
        got = detector.detect(frame)
        seeded = np.random.default_rng(params.ransac_seed)
        assert drawn and [triples.tolist() for _, triples in drawn] == [
            _distinct_triples(seeded.integers(0, [m, m - 1, m - 2], size=(params.ransac_iters, 3))).tolist()
            for m, _ in drawn], i
        calls_with_two_draws += len(drawn) > 1
        assert got == SignDetector(params, SENSOR).detect(frame), i
    assert calls_with_two_draws > 0  # where a call's second draw continues its first


def test_one_detector_gives_its_single_threaded_detections_from_two_threads():
    # the detector keeps no state between sweeps, so a detection is a function of its frame
    rng = np.random.default_rng(3)
    frames = [make_frame(points := random_cloud(rng, i % 2), np.full(len(points), 200.0)) for i in range(16)]
    detector = SignDetector(FilterParams(ransac_seed=7), SENSOR)
    alone = [detector.detect(frame) for frame in frames]
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(detector.detect, frames)) == alone
    assert all(alone)


@pytest.mark.parametrize("m", range(3, 8))
def test_distinct_triples_maps_every_draw_to_its_own_triple(m):
    draws = np.array(list(itertools.product(range(m), range(m - 1), range(m - 2))))
    triples = _distinct_triples(draws)
    distinct = set(itertools.permutations(range(m), 3))
    assert set(map(tuple, triples.tolist())) == distinct
    assert len(triples) == len(distinct)


def one_by_one_best(points, triples, tol):
    """The first triple with the most inliers, counted one triple at a time; None if all are collinear."""
    counts = [-1 if (inliers := reference_plane_inliers(points, t, tol)) is None else int(inliers.sum())
              for t in triples]
    best = int(np.argmax(counts))
    return best if counts[best] >= 0 else None


def best_triple(points, triples, tol):
    """``_best_triple``'s winning index, once its mask is checked against the oracle's for that triple."""
    best = signs._best_triple(points, triples, tol)
    if best is None:
        return None
    index, inliers = best
    assert np.array_equal(inliers, reference_plane_inliers(points, triples[index], tol))
    return index


def random_triples(rng, m, count):
    return _distinct_triples(rng.integers(0, [m, m - 1, m - 2], size=(count, 3)))


def test_plane_inliers_equals_the_np_cross_plane():
    rng = np.random.default_rng(5)
    for i in range(300):
        points = random_cloud(rng, i % 5)
        for triple in random_triples(rng, len(points), 5):
            p0, p1, p2 = points[triple]
            normal = np.cross(p1 - p0, p2 - p0)
            norm = np.linalg.norm(normal)
            got = reference_plane_inliers(points, triple, 0.05)
            if norm < signs._COLLINEAR:
                assert got is None
            else:
                assert np.array_equal(got, np.abs((points - p0) @ (normal / norm)) <= 0.05)


def grid_plane(rng, n):
    """``n`` distinct points of the plane x = 8 on a 1/16 grid: three points of
    one grid row are exactly collinear, and any other three span the plane exactly."""
    cells = rng.permutation(13 * 13)[:n]
    return np.column_stack([np.full(n, 8.0), (cells // 13 - 6) / 16.0, (cells % 13 - 6) / 16.0])


def collinear_triples(rng, points, count):
    """``count`` triples of three distinct points on one grid row (equal z)."""
    rows = [np.flatnonzero(points[:, 2] == z) for z in np.unique(points[:, 2])]
    rows = [row for row in rows if len(row) >= 3]
    return np.array([rng.permutation(rows[rng.integers(len(rows))])[:3] for _ in range(count)])


@pytest.mark.parametrize("first_full", [0, 5, 15, 16, 40, 47, 48, 111, 199, None])
def test_best_triple_stops_at_the_first_plane_that_takes_every_point(first_full):
    rng = np.random.default_rng(first_full or 0)
    for n in (20, 150, 169):
        points = grid_plane(rng, n)
        if first_full is None:  # one point off the plane: no triple takes every point
            points = np.vstack([points, [9.0, 0.03, 0.01]])
            triples = random_triples(rng, len(points), 200)
        else:
            triples = collinear_triples(rng, points, 200)
            # collinear triples before, any triples after
            triples[first_full:] = random_triples(rng, n, 200 - first_full)
            while one_by_one_best(points, triples[first_full:first_full + 1], 0.05) is None:
                triples[first_full] = random_triples(rng, n, 1)[0]
        want = one_by_one_best(points, triples, 0.05)
        assert best_triple(points, triples, 0.05) == want
        if first_full is not None:
            assert want == first_full


def test_best_triple_does_not_stop_at_a_plane_that_misses_a_point_just_beyond_tol():
    # triple 0 spans x = 8: every point lies within tol = 1/16 + 1e-9 of it,
    # but the last one lies 2^-31 beyond 1/16, so it takes all but one point;
    # triple 40 spans x = 8 + 2^-30 and takes every point
    tol = 1 / 16
    grid = grid_plane(np.random.default_rng(3), 60)
    lifted = grid[:3] + [2.0**-30, 0.0, 0.0]
    points = np.vstack([grid, lifted, [8.0 + tol + 2.0**-31, 0.0, 0.0]])
    triples = collinear_triples(np.random.default_rng(4), grid, 200)
    triples[0] = next(t for t in random_triples(np.random.default_rng(5), 60, 50)
                      if one_by_one_best(points, [t], tol) is not None)
    triples[40] = [60, 61, 62]
    assert np.count_nonzero(reference_plane_inliers(points, triples[0], tol)) == len(points) - 1
    assert np.count_nonzero(reference_plane_inliers(points, triples[0], tol + 1e-9)) == len(points)
    assert np.count_nonzero(reference_plane_inliers(points, triples[40], tol)) == len(points)
    assert one_by_one_best(points, triples, tol) == 40
    assert best_triple(points, triples, tol) == 40


def test_best_triple_matches_one_triple_at_a_time_on_random_clouds():
    rng = np.random.default_rng(17)
    stopped_early = 0
    for i in range(300):
        points = random_cloud(rng, i % 5)
        if i % 7 == 0:  # a clean plane, which the first triples already span
            points = grid_plane(rng, int(rng.integers(10, 170)))
        tol = 0.0625 if i % 5 == 4 else 0.05
        triples = random_triples(rng, len(points), int(rng.choice([1, 10, 16, 17, 50, 200])))
        want = one_by_one_best(points, triples, tol)
        assert best_triple(points, triples, tol) == want, i
        stopped_early += want is not None and want < len(triples) - 1 and np.count_nonzero(
            reference_plane_inliers(points, triples[want], tol)) == len(points)
    assert stopped_early >= 40  # most clean planes, and some random clouds


def test_a_point_exactly_at_tol_is_counted_alike_in_every_chunk_and_by_the_oracle(monkeypatch):
    scored = []  # the distance matrix of each chunk, in scoring order
    real = signs._plane_distances

    def spy(points, *plane):
        scored.append(real(points, *plane))
        return scored[-1]

    monkeypatch.setattr(signs, "_plane_distances", spy)
    rng = np.random.default_rng(29)
    rows = 0
    for i in range(400):
        points = random_cloud(rng, i % 5)
        triples = random_triples(rng, len(points), 50)
        dists = [d for t in triples if (d := reference_plane_distances(points, t)) is not None]
        if not dists:
            continue
        # one plane's distance to its median point, so that counts hinge on the last bit
        tol = float(np.sort(dists[rng.integers(len(dists))])[len(points) // 2])
        scored.clear()
        assert best_triple(points, triples, tol) == one_by_one_best(points, triples, tol), i
        for k, row in enumerate(np.vstack(scored)):
            want = reference_plane_inliers(points, triples[k], tol)
            alone = signs._best_triple(points, triples[k:k + 1], tol)
            assert (alone is None) == (want is None), (i, k)
            if want is not None:
                assert np.array_equal(row <= tol, want) and np.array_equal(alone[1], want), (i, k)
                rows += 1
    assert rows > 10_000


def test_a_clean_plane_is_scored_with_fewer_than_ransac_iters_triples(monkeypatch):
    rows_read = set()

    class RowSpy(np.ndarray):
        """Triples that note which of their rows are read."""

        def __getitem__(self, key):
            rows = key[0] if isinstance(key, tuple) else key
            rows_read.update(np.arange(len(self))[rows].ravel().tolist())
            return np.asarray(self)[key]

    real = signs._best_triple
    monkeypatch.setattr(signs, "_best_triple", lambda points, triples, tol: real(points, triples.view(RowSpy), tol))
    params = FilterParams()
    frame = scan(full_pipeline_world(10.0), VehicleState(), PARAMS, LidarConfig(range_jitter=0.01),
                 rng=np.random.default_rng(12))
    for points in (plane_points(200), detect_filtered(intensity_filter(frame).points, params)):
        rows_read.clear()
        got = plane_segment(points, params, SENSOR)
        assert got is not None and got.point_count == len(points)
        assert got == reference_plane_segment(points, params, SENSOR)[0]
        assert 0 < len(rows_read) < params.ransac_iters

"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest result.
"""

import math
import time

import numpy as np

from shuttlesim.harness import Simulation, record_trace
from shuttlesim.lidar import LidarConfig, scan
from shuttlesim.obstacles import required_side_clearance, speed_limit_for_distance
from shuttlesim.plant import VehicleParams, VehicleState, simulate_full_stop
from shuttlesim.scenario import DriveSegment, ScenarioConfig, StartPose
from shuttlesim.signs import (
    FilterParams,
    SignDetector,
    radius_outlier_removal,
    statistical_outlier_removal,
)
from shuttlesim.waypoints import (
    RecordedTrace,
    Route,
    compile_path,
    cross_track_error,
    from_local,
    save_waypoints,
    to_local,
    turn_radius,
)
from shuttlesim.world import Pedestrian, SignSpec, WorldModel
from tests.conftest import brute_force_cte, brute_ror, brute_sor, straight_path

PARAMS = VehicleParams()
ORIGIN = (30.615, -96.34)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_braking_calibration():
    t0 = time.perf_counter()
    distance, stop_time = simulate_full_stop(3.0, PARAMS, dt=0.02)
    runtime = time.perf_counter() - t0
    ok = abs(distance - 1.6) <= 0.15 and abs(stop_time - 0.8) <= 0.1 and runtime < 1.0
    report(1, ok, f"full-brake stop from 3 m/s: {distance:.3f} m, {stop_time:.3f} s "
                  f"(target 1.6±0.15 m, 0.8±0.1 s), runtime {runtime:.2f} s")


def figure8_waypoints(tmp_path):
    circle_t = 2 * math.pi * 10.0 / 2.5
    script = (
        DriveSegment(duration=4.0, speed=2.5, yaw_rate=0.0, blend=1.0),
        DriveSegment(duration=circle_t, speed=2.5, yaw_rate=0.25, blend=1.5),
        DriveSegment(duration=circle_t, speed=2.5, yaw_rate=-0.25, blend=1.5),
        DriveSegment(duration=3.0, speed=2.5, yaw_rate=0.0, blend=1.0),
    )
    trace = record_trace(ScenarioConfig(duration=1.0, drive_script=script, origin=ORIGIN))
    route = compile_path(trace, 3.0)
    path = tmp_path / "figure8_3mps.waypoints"
    save_waypoints(route, path)
    return str(path)


def test_criterion_02_figure8_tracking(tmp_path):
    waypoints = figure8_waypoints(tmp_path)
    sc = ScenarioConfig(duration=72.0, waypoints=waypoints, origin=ORIGIN)
    t0 = time.perf_counter()
    metrics, _ = Simulation(sc).run()
    runtime = time.perf_counter() - t0
    ok = metrics.peak_cte <= 0.25 and metrics.mean_cte <= 0.12 and runtime < 10.0
    report(2, ok, f"figure-8 at 3 m/s: peak cte {metrics.peak_cte:.3f} m (<=0.25), "
                  f"mean {metrics.mean_cte:.3f} m (<=0.12), runtime {runtime:.1f} s (<10)")


def random_consistent_trace(rng, n=120):
    # integrate a random speed / yaw-rate profile into a kinematically
    # consistent position-and-twist recording
    dt = 0.25
    v = np.clip(rng.normal(2.0, 0.8), 0.3, 4.0)
    heading = rng.uniform(-math.pi, math.pi)
    x = y = 0.0
    lat = np.empty(n)
    lon = np.empty(n)
    vs = np.empty(n)
    ws = np.empty(n)
    ts = np.empty(n)
    omega = 0.0
    for i in range(n):
        if i % 12 == 0:
            omega = rng.uniform(-0.6, 0.6)
            v = np.clip(v + rng.normal(0.0, 0.4), 0.3, 4.0)
        heading += omega * dt
        x += v * math.cos(heading) * dt
        y += v * math.sin(heading) * dt
        lat[i], lon[i] = from_local(ORIGIN, x, y)
        vs[i] = v
        ws[i] = omega
        ts[i] = i * dt
    return RecordedTrace(lat=lat, lon=lon, v=vs, omega=ws, t=ts)


def test_criterion_03_curvature_speed_limiting():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        trace = random_consistent_trace(rng)
        target = float(rng.uniform(0.5, 5.0))
        route = compile_path(trace, target)
        # recover the recorded curvature at each waypoint: resample the raw
        # trace at the same metre marks the compiler used
        raw_xy = np.asarray(
            [to_local(route.origin, la, lo) for la, lo in zip(trace.lat, trace.lon)]
        )
        raw_s = np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(raw_xy, axis=0).T))))
        marks = np.arange(0.0, raw_s[-1], 1.0)
        if raw_s[-1] - marks[-1] > 1e-9:
            marks = np.append(marks, raw_s[-1])
        v_rec = np.interp(marks, raw_s, trace.v)
        w_rec = np.interp(marks, raw_s, trace.omega)
        assert len(marks) == len(route.speed)
        for speed, vr, wr in zip(route.speed.tolist(), v_rec, w_rec):
            r = turn_radius(vr, wr)
            if math.isfinite(r):
                worst = max(worst, speed**2 / r)
            assert speed <= target + 1e-9
    ok = worst <= 0.5 + 1e-6
    report(3, ok, f"compiled speeds: worst lateral acceleration {worst:.9f} m/s^2 "
                  f"(<= 0.5 + 1e-6) over 100 random traces")


def test_criterion_04_obstacle_slowdown_law():
    checks = {
        10.0: 1.0,
        7.5: 0.5,
        5.0: 0.0,
    }
    ok = all(speed_limit_for_distance(d) == v for d, v in checks.items())
    ok = ok and speed_limit_for_distance(15.0001) is None
    ok = ok and speed_limit_for_distance(15.0) == 2.0
    report(4, ok, "slowdown law: v(10)=1.0, v(7.5)=0.5, v(5)=0, unchanged beyond 15 m (exact)")


def pedestrian_crossing_scenario(seed, waypoints):
    # a jaywalker cutting diagonally across the path at 1.4 m/s, timed so the
    # cart first sees them in its corridor roughly 7-8 m ahead of the bumper
    rng = np.random.default_rng(seed)
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    y0 = side * (2.0 + rng.uniform(0.0, 0.8))
    gap0 = 7.0 + rng.uniform(0.0, 0.5)
    v_lat = -side * 1.342
    v_fwd = -math.sqrt(1.4**2 - v_lat**2)  # angling slightly toward the cart
    t_entry = (abs(y0) - 1.6) / abs(v_lat)
    x0 = PARAMS.front_overhang + 3.0 * t_entry + gap0 - v_fwd * t_entry
    ped = Pedestrian(position=(x0, y0), velocity=(v_fwd, v_lat))
    return ScenarioConfig(
        seed=seed, duration=12.0, waypoints=waypoints, origin=ORIGIN,
        start=StartPose(speed=3.0), world=WorldModel(pedestrians=(ped,)),
        lidar=LidarConfig(range_jitter=0.01),
    ), ped


def test_criterion_05_pedestrian_stop(tmp_path):
    waypoints = tmp_path / "straight.waypoints"
    save_waypoints(straight_path(origin=ORIGIN), waypoints)
    successes = 0
    min_gap_all = math.inf
    min_trigger = math.inf
    for seed in range(20):
        sc, ped = pedestrian_crossing_scenario(seed, str(waypoints))
        metrics, rows = Simulation(sc).run()
        triggers = [r.obstacle_d for r in rows if r.obstacle_d is not None]
        stopped = any(e.source == "obstacle" for e in metrics.stop_events)
        gaps = []
        for r in rows:
            px = ped.position[0] + ped.velocity[0] * r.t
            py = ped.position[1] + ped.velocity[1] * r.t
            bx = r.x + PARAMS.front_overhang * math.cos(r.heading)
            by = r.y + PARAMS.front_overhang * math.sin(r.heading)
            gaps.append(math.hypot(px - bx, py - by) - ped.radius)
        gap = min(gaps)
        if triggers:
            min_trigger = min(min_trigger, triggers[0])
        min_gap_all = min(min_gap_all, gap)
        if stopped and gap > 0.5 and triggers and triggers[0] >= 6.0:
            successes += 1
    ok = successes == 20
    report(5, ok, f"pedestrian crossing: {successes}/20 seeded runs stopped with gap > 0.5 m "
                  f"(min gap {min_gap_all:.2f} m, min trigger {min_trigger:.2f} m)")


def test_criterion_06_side_clearance():
    c3 = required_side_clearance(3.0, PARAMS)
    c5 = required_side_clearance(5.0, PARAMS)
    ok = 1.05 <= c3 <= 1.25 and 1.55 <= c5 <= 1.85
    report(6, ok, f"side clearance: {c3:.3f} m at 3 m/s (in [1.05,1.25]), "
                  f"{c5:.3f} m at 5 m/s (in [1.55,1.85])")


def sign_world(distance, lateral=-2.0):
    x = PARAMS.lidar_offset_x + math.sqrt(distance**2 - lateral**2)
    return WorldModel(signs=(SignSpec(center=(x, lateral, 2.0), normal=(-1.0, 0.0, 0.0)),))


def test_criterion_07_sign_detection_distance():
    detector = SignDetector(
        FilterParams(), (PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height)
    )
    config = LidarConfig(range_jitter=0.01)
    rng = np.random.default_rng(77)
    frames = 40
    hits = 0
    counts_10 = []
    for _ in range(frames):
        frame = scan(sign_world(10.0), VehicleState(), PARAMS, config, rng=rng)
        det = detector.detect(frame)
        if det is not None and abs(det.distance - 10.0) <= 0.3:
            hits += 1
            counts_10.append(det.point_count)
    det7 = detector.detect(scan(sign_world(7.0), VehicleState(), PARAMS, LidarConfig()))
    det10 = detector.detect(scan(sign_world(10.0), VehicleState(), PARAMS, LidarConfig()))
    n10 = det10.point_count if det10 else 0
    n7 = det7.point_count if det7 else 0
    rate = hits / frames
    ok = rate >= 0.95 and all(25 <= n <= 60 for n in counts_10) and n7 > n10 > 0
    report(7, ok, f"sign at 10 m: N={n10} (in [25,60]), detection rate {rate:.2f} (>=0.95), "
                  f"N(7 m)={n7} > N(10 m)={n10}")


def test_criterion_08_sign_stop_profile(tmp_path):
    waypoints = tmp_path / "straight.waypoints"
    save_waypoints(straight_path(origin=ORIGIN), waypoints)
    sc = ScenarioConfig(
        seed=3, duration=16.0, waypoints=str(waypoints), origin=ORIGIN,
        start=StartPose(speed=3.0), world=sign_world(10.0),
        lidar=LidarConfig(range_jitter=0.01),
    )
    metrics, rows = Simulation(sc).run()
    detections = [r for r in rows if r.sign_d is not None]
    assert detections, "sign never detected"
    t_det, v_det = detections[0].t, detections[0].v
    stop = next(r for r in rows if r.t > t_det and r.v < 0.05)
    mean_decel = v_det / (stop.t - t_det)
    sign_stopped = any(e.source == "sign" for e in metrics.stop_events)
    ok = 0.35 <= mean_decel <= 0.55 and sign_stopped
    report(8, ok, f"sign stop from {v_det:.2f} m/s at d={detections[0].sign_d:.2f} m: "
                  f"mean deceleration {mean_decel:.3f} m/s^2 (in [0.35,0.55])")


def test_criterion_09_pipeline_stage_oracles():
    rng = np.random.default_rng(90210)
    for _ in range(1000):
        n = int(rng.integers(1, 36))
        pts = rng.uniform(-1.5, 1.5, size=(n, 3))
        got = radius_outlier_removal(pts)
        np.testing.assert_array_equal(got, brute_ror(pts))
    for _ in range(1000):
        n = int(rng.integers(10, 40))
        pts = rng.normal(0.0, 1.0, size=(n, 3))
        got = statistical_outlier_removal(pts, k=8, stddev_mult=1.0)
        np.testing.assert_allclose(got, brute_sor(pts, k=8, stddev_mult=1.0), atol=0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        pts = rng.uniform(-30, 30, size=(n, 2))
        lat, lon = from_local(ORIGIN, pts[:, 0], pts[:, 1])
        route = Route.build(lat, lon, np.ones(n), ORIGIN)
        state = VehicleState(x=float(rng.uniform(-35, 35)), y=float(rng.uniform(-35, 35)))
        err = abs(cross_track_error(route, state) - brute_force_cte(route, state))
        worst = max(worst, err)
    ok = worst <= 1e-9
    report(9, ok, f"stage oracles: ROR and SOR exact on 1000 clouds each; "
                  f"cross-track error within {worst:.2e} m (<=1e-9) on 1000 paths")


def test_criterion_10_determinism(tmp_path):
    waypoints = tmp_path / "straight.waypoints"
    save_waypoints(straight_path(origin=ORIGIN), waypoints)
    world = WorldModel(
        pedestrians=(Pedestrian(position=(25.0, 4.0), velocity=(0.0, -1.0)),),
        signs=(SignSpec(center=(40.0, -2.0, 2.0), normal=(-1.0, 0.0, 0.0)),),
    )
    sc = ScenarioConfig(
        seed=99, duration=6.0, waypoints=str(waypoints), origin=ORIGIN,
        start=StartPose(speed=3.0), world=world, lidar=LidarConfig(range_jitter=0.01),
    )
    _, rows_a = Simulation(sc).run()
    _, rows_b = Simulation(sc).run()
    bytes_a = "\n".join(r.format() for r in rows_a).encode()
    bytes_b = "\n".join(r.format() for r in rows_b).encode()
    ok = bytes_a == bytes_b
    report(10, ok, f"two seeded runs produce byte-identical logs ({len(bytes_a)} bytes)")

import math

import numpy as np
import pytest

from shuttlesim.lidar import LidarConfig, scan
from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel, step_pedestrians

PARAMS = VehicleParams()
CONFIG = LidarConfig()


def test_pedestrians_advance_linearly():
    world = WorldModel(pedestrians=(Pedestrian(position=(0.0, 0.0), velocity=(1.4, 0.0)),))
    out = step_pedestrians(world, 1.0)
    assert out.pedestrians[0].position == (1.4, 0.0)

    world = WorldModel(pedestrians=(Pedestrian(position=(2.0, 3.0), velocity=(0.0, 0.0)),))
    assert step_pedestrians(world, 1.0).pedestrians[0].position == (2.0, 3.0)

    world = WorldModel(pedestrians=(Pedestrian(position=(0.0, 0.0), velocity=(0.0, -2.0)),))
    assert step_pedestrians(world, 0.5).pedestrians[0].position == (0.0, -1.0)


def test_empty_world_only_ground_returns():
    frame = scan(WorldModel(), VehicleState(), PARAMS, CONFIG)
    assert len(frame) > 0
    assert np.all(frame.intensity == CONFIG.background_intensity)
    assert np.all(np.abs(frame.points[:, 2]) < 1e-9)


def test_blind_spot_hides_low_box_near_bumper():
    # 1.2 m tall box with its face 0.9 m ahead of the front bumper: the lowest
    # beam passes just above it, so the sensor returns nothing on the box
    box_x = PARAMS.front_overhang + 0.9 + 0.2
    world = WorldModel(obstacles=(BoxObstacle(center=(box_x, 0.0), size=(0.4, 0.5), height=1.2),))
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    on_box = frame.points[:, 2] > 0.01
    assert not on_box.any()


def test_tall_box_is_seen():
    world = WorldModel(obstacles=(BoxObstacle(center=(6.0, 0.0), size=(1.0, 1.0), height=1.8),))
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    on_box = frame.points[:, 2] > 0.05
    assert on_box.sum() > 10


def test_no_return_inside_blind_spot_cone():
    world = WorldModel(
        obstacles=(BoxObstacle(center=(4.0, 0.0), size=(0.8, 0.8), height=2.0),),
        pedestrians=(Pedestrian(position=(3.0, 1.0)),),
    )
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    mount = np.array([PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height])
    rel = frame.points - mount
    horiz = np.hypot(rel[:, 0], rel[:, 1])
    # every return must sit on or above the lowest beam's cone surface
    assert np.all(rel[:, 2] >= -horiz * math.tan(math.radians(15.0)) - 1e-6)


def facing_sign_world(distance, lateral=0.0, z_center=None):
    z = PARAMS.lidar_mount_height if z_center is None else z_center
    x = PARAMS.lidar_offset_x + math.sqrt(distance**2 - lateral**2)
    return WorldModel(signs=(SignSpec(center=(x, lateral, z), normal=(-1.0, 0.0, 0.0)),))


def sign_points(frame):
    return frame.intensity >= 85.0


def test_sign_point_count_at_10m():
    frame = scan(facing_sign_world(10.0), VehicleState(), PARAMS, CONFIG)
    n = int(sign_points(frame).sum())
    assert 25 <= n <= 55


def test_sign_points_monotone_with_distance():
    counts = []
    for d in (7.0, 10.0, 13.0, 16.0):
        frame = scan(facing_sign_world(d), VehicleState(), PARAMS, CONFIG)
        counts.append(int(sign_points(frame).sum()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[1]


def test_sign_back_face_is_not_retroreflective():
    world = WorldModel(signs=(SignSpec(center=(10.0, 0.0, 2.0), normal=(1.0, 0.0, 0.0)),))
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    assert not sign_points(frame).any()


def test_scan_deterministic_and_jitter_needs_rng():
    world = facing_sign_world(10.0)
    f1 = scan(world, VehicleState(), PARAMS, CONFIG)
    f2 = scan(world, VehicleState(), PARAMS, CONFIG)
    np.testing.assert_array_equal(f1.points, f2.points)
    np.testing.assert_array_equal(f1.intensity, f2.intensity)

    jittered = LidarConfig(range_jitter=0.01)
    with pytest.raises(ValueError):
        scan(world, VehicleState(), PARAMS, jittered)
    rng = np.random.default_rng(0)
    f3 = scan(world, VehicleState(), PARAMS, jittered, rng=rng)
    assert len(f3) > 0


def test_scan_respects_vehicle_pose():
    # vehicle rotated 90 deg left: a sign due north lands dead ahead in vehicle frame
    world = WorldModel(signs=(SignSpec(center=(0.0, 11.6, 2.0), normal=(0.0, -1.0, 0.0)),))
    state = VehicleState(heading=math.pi / 2)
    frame = scan(world, state, PARAMS, CONFIG)
    pts = frame.points[sign_points(frame)]
    assert len(pts) > 10
    assert np.all(np.abs(pts[:, 1]) < 0.5)
    assert np.all(pts[:, 0] > 9.0)


def test_pedestrian_returns_present():
    world = WorldModel(pedestrians=(Pedestrian(position=(6.0, 0.5)),))
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    above_ground = frame.points[:, 2] > 0.05
    assert above_ground.sum() > 20


def test_validation():
    with pytest.raises(ValueError):
        SignSpec(center=(0, 0, 2), normal=(0, 0, 0))
    with pytest.raises(ValueError):
        SignSpec(center=(0, 0, 2), normal=(0, 0, 1))
    with pytest.raises(ValueError):
        SignSpec(center=(0, 0, 2), normal=(1, 0, 0), intensity=300.0)
    with pytest.raises(ValueError):
        Pedestrian(position=(0, 0), height=-1.0)
    with pytest.raises(ValueError):
        BoxObstacle(center=(0, 0), size=(1, 1), height=0.0)
    with pytest.raises(ValueError):
        step_pedestrians(WorldModel(), 0.0)

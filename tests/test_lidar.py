import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuttlesim import lidar
from shuttlesim.lidar import LidarConfig, scan
from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.scenario import load_scenario
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel, step_pedestrians
from tests.conftest import NORMAL_QUANTILES, REPO_ROOT, SCENARIO_DIR, reference_scan, reference_scan_world

PARAMS = VehicleParams()
CONFIG = LidarConfig()
DIRS = lidar._ray_table(CONFIG, PARAMS.lidar_mount_height)[0].T


def test_pedestrians_advance_linearly():
    def step(position, velocity, dt):
        return tuple(step_pedestrians(np.array([position]), np.array([velocity]), dt)[0].tolist())

    assert step((0.0, 0.0), (1.4, 0.0), 1.0) == (1.4, 0.0)
    assert step((2.0, 3.0), (0.0, 0.0), 1.0) == (2.0, 3.0)
    assert step((0.0, 0.0), (0.0, -2.0), 0.5) == (0.0, -1.0)


COMPONENT = st.floats(-1e8, 1e8)  # a scenario's bound on a start or velocity component


@settings(max_examples=100, deadline=None)
@given(peds=st.lists(st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT), max_size=30),
       tick_rate=st.floats(10.0, 200.0), k=st.integers(1, 20))
def test_array_steps_equal_per_pedestrian_tuple_steps_bit_for_bit(peds, tick_rate, k):
    dt = 1.0 / tick_rate
    positions = np.array([p[:2] for p in peds], dtype=float).reshape(-1, 2)
    velocities = np.array([p[2:] for p in peds], dtype=float).reshape(-1, 2)
    expected = [p[:2] for p in peds]
    for _ in range(k):
        positions = step_pedestrians(positions, velocities, dt)
        # the oracle: each pedestrian's position tuple advanced on its own
        expected = [(x + vx * dt, y + vy * dt) for (x, y), (_, _, vx, vy) in zip(expected, peds)]
    assert positions.shape == (len(peds), 2)
    assert np.array_equal(positions.view(np.uint64), np.array(expected, dtype=float).reshape(-1, 2).view(np.uint64))


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


def test_objects_beyond_max_range_change_neither_the_frame_nor_the_generator():
    # each reaches an upward ring, whose rays return nothing in an empty world
    far = WorldModel(obstacles=(BoxObstacle(center=(80.0, 5.0), size=(1.0, 1.0), height=6.0),),
                     pedestrians=(Pedestrian(position=(-55.0, 10.0), height=3.0),),
                     signs=(SignSpec(center=(57.0, 0.0, 2.0), normal=(-1.0, 0.0, 0.0), height=2.0),))
    reach = scan(far, VehicleState(), PARAMS, LidarConfig(max_range=150.0))
    above = reach.points[reach.points[:, 2] > PARAMS.lidar_mount_height]
    for x, y in ((80.0, 5.0), (-55.0, 10.0), (57.0, 0.0)):
        assert (np.hypot(above[:, 0] - x, above[:, 1] - y) < 2.0).any()

    config = LidarConfig(range_jitter=0.01)
    empty_rng, far_rng = np.random.default_rng(4), np.random.default_rng(4)
    empty_frame = scan(WorldModel(), VehicleState(), PARAMS, config, empty_rng)
    far_frame = scan(far, VehicleState(), PARAMS, config, far_rng)
    assert np.array_equal(far_frame.points, empty_frame.points)
    assert np.array_equal(far_frame.intensity, empty_frame.intensity)
    assert far_rng.random() == empty_rng.random()


@pytest.mark.parametrize("config", [LidarConfig(range_jitter=0.01),
                                    LidarConfig(min_range=9.0, max_range=30.0, range_jitter=0.01)])
def test_a_sweep_whose_casts_take_no_ray_matches_the_reference(config, monkeypatch):
    # with no ray taken there is no list of other rays to sort, and the jitter goes to the block alone
    taken = []
    update_hits = lidar._update_hits

    def counted(*args):
        taken.append(len((result := update_hits(*args))[0]))
        return result

    monkeypatch.setattr(lidar, "_update_hits", counted)
    beyond = WorldModel(signs=(SignSpec(center=(60.0, 0.0, 2.0), normal=(-1.0, 0.0, 0.0), height=2.0),))
    for seed, world in enumerate((WorldModel(), beyond)):
        assert_scan_matches_reference(world, VehicleState(x=1.0, heading=0.3), config, seed)
    assert taken == [0]  # the sign's cast, beyond max_range

    # a world with nothing to cast reads the sensor's shared table without writing it, and its unlit
    # frame's intensity is a contiguous read-only view of the table's background row; a frame that a
    # sign lights writes a copy of that row, so the table stays as it was built
    lit_world = facing_sign_world(10.0)
    for seed, jitter in enumerate((0.0, 0.01, 0.3)):
        state, bare = VehicleState(x=-3.0, heading=-2.0), replace(config, range_jitter=jitter)
        columns, ground, _, _, background = lidar._ray_table(bare, PARAMS.lidar_mount_height)
        table = (columns, ground, background)
        before = [np.copy(part) for part in table]
        frame = assert_scan_matches_reference(WorldModel(), state, bare, seed)
        points, intensity = reference_scan(WorldModel(), state, PARAMS, bare, rng=np.random.default_rng(seed))
        assert np.ascontiguousarray(frame.points).tobytes() == points.tobytes()  # bit for bit, a zero's sign too
        assert frame.intensity.tobytes() == intensity.tobytes()
        assert frame.intensity.flags.c_contiguous and not frame.intensity.flags.writeable
        lit = assert_scan_matches_reference(lit_world, VehicleState(), bare, seed)
        assert (lit.intensity == lit_world.signs[0].intensity).any() and lit.intensity.flags.writeable
        for part, copy in zip(table, before):
            assert not part.flags.writeable and part.tobytes() == copy.tobytes()

    # the background row is the config's own: configs that differ in it alone each get theirs
    for background in (config.background_intensity, 3.5):
        own = replace(config, background_intensity=background)
        for world in (WorldModel(), lit_world):
            frame = assert_scan_matches_reference(world, VehicleState(), own, seed=1)
            assert (frame.intensity == background).any()


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
        step_pedestrians(np.empty((0, 2)), np.empty((0, 2)), 0.0)


def test_min_range_must_be_non_negative():
    with pytest.raises(ValueError):
        LidarConfig(min_range=-0.1)


# --- the azimuth-culled cast against casting every object on every ray ---


def random_box(rng, center):
    return BoxObstacle(center=tuple(center), size=tuple(rng.uniform(0.2, 3.0, 2)),
                       height=float(rng.uniform(0.3, 3.0)))


def random_pedestrian(rng, center):
    return Pedestrian(position=tuple(center), radius=float(rng.uniform(0.2, 0.6)),
                      height=float(rng.uniform(1.0, 2.5)))


def random_sign(rng, center):
    bearing, tilt = rng.uniform(-math.pi, math.pi), rng.uniform(-0.6, 0.6)
    normal = (math.cos(bearing) * math.cos(tilt), math.sin(bearing) * math.cos(tilt), math.sin(tilt))
    return SignSpec(center=(*center, float(rng.uniform(0.5, 3.0))), normal=normal,
                    width=float(rng.uniform(0.3, 1.5)), height=float(rng.uniform(0.3, 1.5)))


def assert_scan_matches_reference(world, state, config, seed=0):
    fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    frame = scan(world, state, PARAMS, config, rng=fast_rng)
    points, intensity = reference_scan(world, state, PARAMS, config, rng=reference_rng)
    assert np.array_equal(frame.points, points)
    assert np.array_equal(frame.intensity, intensity)
    assert fast_rng.random() == reference_rng.random()  # both leave the generator at the same point
    return frame


def random_worlds():
    """300 random worlds, sensor poses and configs. In three of every four an
    extra object sits around the sensor or across an azimuth seam. Yields
    (i, world, state, config, extra), with ``extra`` None where none was placed."""
    rng = np.random.default_rng(2024)
    makers = (random_box, random_pedestrian, random_sign)
    for i in range(300):
        state = VehicleState(x=float(rng.uniform(-15, 15)), y=float(rng.uniform(-15, 15)),
                             heading=float(rng.uniform(-math.pi, math.pi)))
        config = LidarConfig(azimuth_step_deg=float(rng.choice([0.2, 0.45, 0.7, 1.3])),
                             min_range=float(rng.choice([0.1, 0.5])),
                             max_range=float(rng.choice([30.0, 50.0])),
                             range_jitter=float(rng.choice([0.0, 0.01])))
        world = WorldModel(
            obstacles=tuple(random_box(rng, rng.uniform(-25, 25, 2)) for _ in range(rng.integers(0, 4))),
            pedestrians=tuple(random_pedestrian(rng, rng.uniform(-25, 25, 2))
                              for _ in range(rng.integers(0, 4))),
            signs=tuple(random_sign(rng, rng.uniform(-25, 25, 2)) for _ in range(rng.integers(0, 3))),
        )
        sensor = np.array([state.x + math.cos(state.heading) * PARAMS.lidar_offset_x,
                           state.y + math.sin(state.heading) * PARAMS.lidar_offset_x])
        if i % 4 == 1:  # the sensor inside the object's bounding circle
            extra = makers[i // 4 % 3](rng, sensor + rng.uniform(-0.15, 0.15, 2))
        elif i % 4 == 2:  # straddles world azimuth +-pi: due west of the sensor
            extra = makers[i // 4 % 2](rng, sensor + (-rng.uniform(8, 15), rng.uniform(-0.3, 0.3)))
        elif i % 4 == 3:  # straddles the sweep's first and last azimuth: dead ahead
            ahead = rng.uniform(8, 15) * np.array([math.cos(state.heading), math.sin(state.heading)])
            extra = makers[i // 4 % 2](rng, sensor + ahead)
        else:
            extra = None
        if extra is not None:
            world = replace(world, **{field_of(extra): getattr(world, field_of(extra)) + (extra,)})
        yield i, world, state, config, extra


def field_of(obj):
    return {BoxObstacle: "obstacles", Pedestrian: "pedestrians", SignSpec: "signs"}[type(obj)]


def test_scan_matches_all_rays_reference_on_random_worlds():
    seen = 0
    for i, world, state, config, extra in random_worlds():
        assert_scan_matches_reference(world, state, config, seed=i)
        if i % 4 in (2, 3):
            alone = scan(replace(WorldModel(), **{field_of(extra): (extra,)}), state, PARAMS,
                         replace(config, range_jitter=0.0))
            seen += bool((alone.points[:, 2] > 1e-6).any())
    assert seen == 150  # every object placed across a seam was in view (beyond the blind spot)


def ahead(x, y, intensity=200.0, normal=(-1.0, 0.0, 0.0)):
    """A sign ``x`` m ahead of the sensor and ``y`` m to its left, at mount height."""
    return SignSpec(center=(PARAMS.lidar_offset_x + x, y, PARAMS.lidar_mount_height), normal=normal,
                    intensity=intensity)


# ``scan`` gives intensity only to the rays it keeps, from the rays each sign
# took. In each case another cast takes some of a sign's rays: (world, config,
# the intensities the frame shows, the sign partly hidden or None).
TAKEN_RAYS = {
    "the later of two overlapping signs is nearer": (
        WorldModel(signs=(ahead(12.0, 0.0, 200.0), ahead(11.9, 0.4, 150.0))), CONFIG, {20.0, 150.0, 200.0}, 0),
    "the later of two overlapping signs is farther": (
        WorldModel(signs=(ahead(11.9, 0.4, 150.0), ahead(12.0, 0.0, 200.0))), CONFIG, {20.0, 150.0, 200.0}, 1),
    "a nearer sign's back over a sign's front": (
        WorldModel(signs=(ahead(12.0, 0.0, 200.0), ahead(11.9, 0.4, 150.0, normal=(1.0, 0.0, 0.0)))), CONFIG,
        {20.0, 200.0}, 0),
    "a box in front of a sign": (
        WorldModel(obstacles=(BoxObstacle(center=(PARAMS.lidar_offset_x + 8.0, 0.2), size=(0.3, 0.3),
                                          height=3.0),),
                   signs=(ahead(12.0, 0.0),)), CONFIG, {20.0, 200.0}, 0),
    "a sign seen from behind": (WorldModel(signs=(ahead(10.0, 0.0, normal=(1.0, 0.0, 0.0)),)), CONFIG, {20.0}, None),
    "a sign at the maximum range": (WorldModel(signs=(ahead(12.0, 0.0),)), replace(CONFIG, max_range=12.004),
                                    {20.0, 200.0}, None),
}


@pytest.mark.parametrize("jitter", [0.0, 0.01])
@pytest.mark.parametrize("name", TAKEN_RAYS)
def test_scan_intensity_of_rays_another_cast_takes_matches_reference(name, jitter):
    world, config, shown, hidden = TAKEN_RAYS[name]
    config = replace(config, range_jitter=jitter)
    for seed in range(3):
        frame = assert_scan_matches_reference(world, VehicleState(), config, seed=seed)
        assert set(frame.intensity.tolist()) == shown
    if hidden is not None:
        sign = world.signs[hidden]
        alone = scan(WorldModel(signs=(sign,)), VehicleState(), PARAMS, replace(config, range_jitter=0.0))
        frame = scan(world, VehicleState(), PARAMS, replace(config, range_jitter=0.0))
        assert 0 < np.count_nonzero(frame.intensity == sign.intensity) < np.count_nonzero(
            alone.intensity == sign.intensity)


NARROW = LidarConfig(min_range=9.0, max_range=30.0)  # no ground on rings -15 and -13, nor on -3 (38.2 m) and -1


def rings_of(points):
    """The elevation ring, in degrees, that each point was returned on."""
    ray = points - (PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height)
    return np.rint(np.degrees(np.arcsin(ray[:, 2] / np.linalg.norm(ray, axis=1)))).astype(int)


# Worlds whose returns under ``NARROW`` are not one run of ground rays: (world,
# the rings that must return, the rings a sign must light). Ring -13 lies before
# the ground block, -3 and -1 in it but past ``max_range``, and +1 and +3 after it.
SCATTERED_RETURNS = {
    "a box and a pedestrian taller than the mount": (
        WorldModel(obstacles=(BoxObstacle(center=(PARAMS.lidar_offset_x + 15.0, 2.0), size=(1.0, 1.0),
                                          height=3.0),),
                   pedestrians=(Pedestrian(position=(PARAMS.lidar_offset_x + 12.0, -2.0), height=2.5),)),
        {-3, -1, 1, 3}, set()),
    "a sign that dips below the ground": (
        WorldModel(signs=(SignSpec(center=(PARAMS.lidar_offset_x + 9.5, 0.0, 0.5), normal=(-1.0, 0.0, 0.0),
                                   width=1.0, height=1.5),)),
        {-13}, {-13}),
    "a sign lit inside the ground block and after it": (
        WorldModel(signs=(SignSpec(center=(PARAMS.lidar_offset_x + 12.0, 0.0, 1.5), normal=(-1.0, 0.0, 0.0),
                                   width=1.0, height=2.0),)),
        {-5, -1, 1}, {-5, -1, 1}),
}


@pytest.mark.parametrize("jitter", [0.0, 0.01])
@pytest.mark.parametrize("name", SCATTERED_RETURNS)
def test_scan_matches_reference_where_the_returns_are_not_one_block(name, jitter):
    world, returning, lit = SCATTERED_RETURNS[name]
    config = replace(NARROW, range_jitter=jitter)
    for seed in range(3):
        frame = assert_scan_matches_reference(world, VehicleState(), config, seed=seed)
        rings = rings_of(frame.points)
        assert returning <= set(rings.tolist())
        assert lit <= set(rings[frame.intensity == 200.0].tolist())
    ground = rings_of(scan(WorldModel(), VehicleState(), PARAMS, NARROW).points)
    assert set(ground.tolist()) == {-11, -9, -7, -5}


def test_successive_scans_share_no_memory():
    world, config, _, _ = TAKEN_RAYS["a box in front of a sign"]
    config = replace(config, range_jitter=0.01)
    rng = np.random.default_rng(3)
    first = scan(world, VehicleState(), PARAMS, config, rng)
    kept = first.points.copy(), first.intensity.copy()
    second = scan(world, VehicleState(x=0.5), PARAMS, config, rng)
    for a in (first.points, first.intensity):
        for b in (second.points, second.intensity):
            assert not np.shares_memory(a, b)
    assert np.array_equal(first.points, kept[0]) and np.array_equal(first.intensity, kept[1])


def test_threads_scanning_at_once_get_the_sequential_frames_bit_for_bit():
    """Four threads, each scanning its own world and pose 25 times with its
    own generators, get the frames a sequential scan gives, bit for bit."""
    config = replace(CONFIG, range_jitter=0.01)
    rng = np.random.default_rng(11)
    scenes = [(WorldModel(obstacles=(random_box(rng, rng.uniform(-15, 15, 2)),),
                          pedestrians=(random_pedestrian(rng, rng.uniform(-15, 15, 2)),),
                          signs=(random_sign(rng, rng.uniform(-15, 15, 2)),)),
               VehicleState(x=float(rng.uniform(-5, 5)), y=float(rng.uniform(-5, 5)),
                            heading=float(rng.uniform(-math.pi, math.pi))))
              for _ in range(4)]

    def sweeps(world, state):
        return [scan(world, state, PARAMS, config, np.random.default_rng(seed)) for seed in range(25)]

    expected = [sweeps(*scene) for scene in scenes]
    start = threading.Barrier(len(scenes), timeout=60)

    def together(scene):
        start.wait()
        return sweeps(*scene)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' sweeps finely
    try:
        with ThreadPoolExecutor(max_workers=len(scenes)) as pool:
            got = list(pool.map(together, scenes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for frames, wanted in zip(got, expected):
        for frame, want in zip(frames, wanted, strict=True):
            assert np.array_equal(frame.points, want.points)
            assert np.array_equal(frame.intensity, want.intensity)


def test_sensor_frame_cast_matches_world_frame_cast_on_random_worlds():
    for _, world, state, config, _ in random_worlds():
        config = replace(config, range_jitter=0.0)
        frame = scan(world, state, PARAMS, config)
        points, intensity = reference_scan_world(world, state, PARAMS, config)
        assert frame.points.shape == points.shape
        assert np.array_equal(frame.intensity, intensity)
        assert np.abs(frame.points - points).max(initial=0.0) <= 1e-9


def test_scan_at_walked_positions_equals_scan_of_the_world_rebuilt_there():
    rng = np.random.default_rng(5)
    walked = 0
    for i, world, state, config, _ in random_worlds():
        peds = world.pedestrians
        positions = np.array([p.position for p in peds], dtype=float).reshape(-1, 2)
        velocities = rng.uniform(-3.0, 3.0, positions.shape)
        for _ in range(rng.integers(1, 50)):
            positions = step_pedestrians(positions, velocities, 0.02)
        rebuilt = replace(world, pedestrians=tuple(replace(p, position=tuple(xy))
                                                   for p, xy in zip(peds, positions.tolist())))
        frame = scan(world, state, PARAMS, config, rng=np.random.default_rng(i), positions=positions)
        expected = scan(rebuilt, state, PARAMS, config, rng=np.random.default_rng(i))
        assert np.array_equal(frame.points, expected.points)
        assert np.array_equal(frame.intensity, expected.intensity)
        walked += bool(peds)
    assert walked > 100


def test_wedge_keeps_the_rays_tangent_to_its_circle():
    # circles whose tangent from the sensor runs exactly along a ray's azimuth
    # k * step, where rounding of the wedge's bounds falls either side of k
    rng = np.random.default_rng(11)
    n_az = len(DIRS) // 16
    step = math.radians(CONFIG.azimuth_step_deg)
    for _ in range(400):
        k, side = int(rng.integers(0, n_az)), float(rng.choice([-1.0, 1.0]))
        half, d = float(rng.uniform(0.5, 30.0)) * step, float(rng.uniform(1.0, 40.0))
        bearing = k * step - side * half
        center, radius = (d * math.cos(bearing), d * math.sin(bearing)), d * math.sin(half)
        columns = set((lidar._wedge(center, radius, n_az, step) % n_az).tolist())
        for column in range(k - 3, k + 4):
            ux, uy = float(DIRS[column % n_az, 0]), float(DIRS[column % n_az, 1])
            norm = math.hypot(ux, uy)
            along = (center[0] * ux + center[1] * uy) / norm
            across = abs(center[0] * uy - center[1] * ux) / norm
            if along > 0.0 and across <= radius:
                assert column % n_az in columns


def sign_hits_on(rows, sign, center, normal, columns):
    return lidar._sign_hits(sign, center, normal, *(column[rows] for column in columns), CONFIG.min_range)


@pytest.mark.parametrize("step_deg", [0.2, 0.1, 0.25, 1.0, 3.3])
def test_sign_cast_on_wedge_rows_equals_the_whole_sweeps_rows_bit_for_bit(step_deg):
    # scan casts a sign on its wedge rows alone, so every row's range, hit and
    # ray-normal product must come out as in a cast of the whole sweep
    columns = lidar._ray_table(replace(CONFIG, azimuth_step_deg=step_deg), PARAMS.lidar_mount_height)[0]
    n_az, step = columns.shape[1] // 16, math.radians(step_deg)
    every = np.arange(columns.shape[1])
    rng = np.random.default_rng(int(step_deg * 10))
    hits = 0
    for _ in range(200):
        facing, tilt = rng.uniform(-math.pi, math.pi), rng.uniform(-0.6, 0.6) * rng.integers(0, 2)
        # half of them vertical, as a sign's usually is
        sign = SignSpec(center=(0.0, 0.0, 0.0), width=rng.uniform(0.3, 1.5), height=rng.uniform(0.3, 1.5),
                        normal=(math.cos(facing) * math.cos(tilt), math.sin(facing) * math.cos(tilt), math.sin(tilt)))
        d, bearing = rng.uniform(0.5, 60.0), rng.uniform(-math.pi, math.pi)
        center = (d * math.cos(bearing), d * math.sin(bearing), rng.uniform(-1.5, 1.5))
        rows = lidar._wedge(center[:2], math.hypot(sign.width, sign.height) / 2, n_az, step)
        whole = sign_hits_on(every, sign, center, sign.normal, columns)
        for part, full in zip(sign_hits_on(rows, sign, center, sign.normal, columns), whole):
            assert part.tobytes() == full[rows].tobytes()
        hits += int(whole[1].any())
    assert hits > 20


def test_sign_ray_on_the_edge_gets_the_same_hit_in_its_wedge_as_in_the_whole_sweep():
    # a sign whose top edge passes through the +1 degree ring's ray dead ahead
    d = 10.0
    ray_z = PARAMS.lidar_mount_height + d * math.tan(math.radians(1.0))
    center_z = 2.5
    sign = SignSpec(center=(PARAMS.lidar_offset_x + d, 0.0, center_z), normal=(-1.0, 0.0, 0.0),
                    height=2 * abs(ray_z - center_z) + 1e-13)
    frame = assert_scan_matches_reference(WorldModel(signs=(sign,)), VehicleState(), CONFIG)
    assert (frame.intensity == sign.intensity).any()
    n_az = len(DIRS) // 16
    edge_ray = 8 * n_az  # the +1 degree ring at azimuth 0
    center = (d, 0.0, center_z - PARAMS.lidar_mount_height)
    rows = lidar._wedge(center[:2], math.hypot(sign.width, sign.height) / 2, n_az,
                        math.radians(CONFIG.azimuth_step_deg))
    assert edge_ray in rows
    columns = DIRS.T
    t_pl, hit, _ = sign_hits_on(rows, sign, center, (-1.0, 0.0, 0.0), columns)
    whole_t, whole_hit, _ = sign_hits_on(np.arange(len(DIRS)), sign, center, (-1.0, 0.0, 0.0), columns)
    at = np.flatnonzero(rows == edge_ray)[0]
    # the ray passes within rounding of the edge: the face test decides it, the same way both times
    rel_z = t_pl[at] * DIRS[edge_ray, 2] - center[2]
    assert abs(abs(rel_z) - sign.height / 2) < 1e-12
    assert (t_pl[at], hit[at]) == (whole_t[edge_ray], whole_hit[edge_ray])
    assert np.array_equal(hit, whole_hit[rows]) and np.array_equal(t_pl, whole_t[rows])


# --- the elevation cull: a box or pedestrian below the mount gets only the downward rings ---

MOUNT_H = PARAMS.lidar_mount_height
BELOW = math.nextafter(MOUNT_H, 0.0)


def box_at(x, y, height):
    return BoxObstacle(center=(PARAMS.lidar_offset_x + x, y), size=(0.8, 0.6), height=height)


def pedestrian_at(x, y, height):
    return Pedestrian(position=(PARAMS.lidar_offset_x + x, y), height=height, radius=0.4)


@pytest.mark.parametrize("height, rings", [(MOUNT_H, 16), (BELOW, 8), (MOUNT_H + 1e-9, 16), (1.0, 8)])
@pytest.mark.parametrize("kind", ["obstacles", "pedestrians"])
def test_elevation_cull_lists_the_upward_rings_only_for_a_top_at_or_above_the_mount(monkeypatch, kind, height,
                                                                                      rings):
    make = box_at if kind == "obstacles" else pedestrian_at
    listed = []
    real = lidar._wedge
    monkeypatch.setattr(lidar, "_wedge", lambda *a: listed.append(a[4]) or real(*a))
    # near and far, to either side, across the first and last azimuth, and around the sensor
    spots = [(3.0, 0.0), (9.0, 2.5), (-6.0, -4.0), (25.0, -0.3), (0.0, 0.1)]
    world = replace(WorldModel(), **{kind: tuple(make(x, y, height) for x, y in spots)})
    for heading in (0.0, 0.7):
        for jitter in (0.0, 0.01):
            config = replace(CONFIG, range_jitter=jitter)
            frame = assert_scan_matches_reference(world, VehicleState(heading=heading), config)
            assert (frame.points[:, 2] > 0.5).any()
    assert listed == [rings] * (4 * len(spots))


# --- the rays outside the ground block ---


def recording_takes(monkeypatch):
    """A list of the rays that each cast in ``scan`` took, in cast order."""
    taken = []
    real = lidar._update_hits

    def recording(*args):
        rays, mask = real(*args)
        taken.append(rays.tolist())
        return rays, mask

    monkeypatch.setattr(lidar, "_update_hits", recording)
    return taken


def straddling(taken, config):
    """Whether the rays one cast took lie both before and after the sweep's ``cut``, which
    must end the table's block where the ground ranges rise past ``max_range``."""
    _, ground, start, cut, _ = lidar._ray_table(config, PARAMS.lidar_mount_height)
    assert cut == start + int(np.searchsorted(ground[start:], config.max_range, side="right"))
    return min(taken) < cut <= max(taken)


# Layouts whose kept rays outside the ground block come from more than one
# cast, or lie on both sides of it: (world, config, what the casts' rays show).
OFF_BLOCK = {
    "a pedestrian against a box, both taller than the mount, take the same upward rays": (
        WorldModel(obstacles=(box_at(10.0, 0.0, 3.0),), pedestrians=(pedestrian_at(9.3, 0.2, 2.6),)), CONFIG,
        lambda taken, config: any(ray >= len(DIRS) // 2 for ray in set(taken[0]) & set(taken[1]))),
    "a sign across the cut, lit on ground rays within max_range and on rays past them": (
        WorldModel(signs=(SignSpec(center=(PARAMS.lidar_offset_x + 12.0, 0.0, 1.6), normal=(-1.0, 0.0, 0.0),
                                   width=1.0, height=1.0),)), CONFIG,
        lambda taken, config: straddling(taken[0], config)),
    "a sign below the ground on rings that min_range drops": (
        SCATTERED_RETURNS["a sign that dips below the ground"][0], NARROW,
        lambda taken, config: min(taken[0]) < lidar._ray_table(config, MOUNT_H)[2]),
}


@pytest.mark.parametrize("jitter", [0.0, 0.01])
@pytest.mark.parametrize("name", OFF_BLOCK)
def test_scan_takes_the_rays_outside_the_ground_block_from_the_casts_as_reference_keeps_them(monkeypatch, name,
                                                                                             jitter):
    world, config, shows = OFF_BLOCK[name]
    config = replace(config, range_jitter=jitter)
    taken = recording_takes(monkeypatch)
    for seed in range(3):
        taken.clear()
        frame = assert_scan_matches_reference(world, VehicleState(), config, seed=seed)
        assert shows(taken, config)
        # every ray returns at most one point
        assert len(np.unique(frame.points, axis=0)) == len(frame)


# --- per-primitive ray-hit oracles: march each ray in 1 cm steps through the solid ---

STEP = 0.01
MOUNT = np.array([PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height])


def march(direction, max_range):
    s = np.arange(0.0, max_range + STEP / 2, STEP)
    return s, MOUNT + s[:, None] * direction


def in_box(q, box, shrink=0.0):
    lo = np.array([box.center[0] - box.size[0] / 2, box.center[1] - box.size[1] / 2, 0.0]) + shrink
    hi = np.array([box.center[0] + box.size[0] / 2, box.center[1] + box.size[1] / 2, box.height]) - shrink
    return np.all((q >= lo) & (q <= hi), axis=-1)


def in_cylinder(q, ped, shrink=0.0):
    rho = np.hypot(q[..., 0] - ped.position[0], q[..., 1] - ped.position[1])
    return (rho <= ped.radius - shrink) & (q[..., 2] >= shrink) & (q[..., 2] <= ped.height - shrink)


def sign_frame(sign):
    n = np.asarray(sign.normal)
    across = np.array([-n[1], n[0], 0.0]) / math.hypot(n[0], n[1])
    return n, across, np.cross(n, across)


def in_sign(q, sign, shrink=0.0):
    """The sign face thickened to one step, its edges pulled in by ``shrink``."""
    n, across, up = sign_frame(sign)
    rel = q - np.asarray(sign.center)
    return ((np.abs(rel @ n) <= STEP / 2) & (np.abs(rel @ across) <= sign.width / 2 - shrink)
            & (np.abs(rel @ up) <= sign.height / 2 - shrink))


def on_surface(p, world, tol=1e-6):
    """Whether a returned point lies on the single object's surface."""
    if world.obstacles:
        box = world.obstacles[0]
        return in_box(p, box, -tol) & ~in_box(p, box, tol)
    if world.pedestrians:
        ped = world.pedestrians[0]
        rho = np.hypot(p[:, 0] - ped.position[0], p[:, 1] - ped.position[1])
        side = (np.abs(rho - ped.radius) <= tol) & (p[:, 2] >= 0.0) & (p[:, 2] <= ped.height)
        return side | ((np.abs(p[:, 2] - ped.height) <= tol) & (rho <= ped.radius + tol))
    sign = world.signs[0]
    n, across, up = sign_frame(sign)
    rel = p - np.asarray(sign.center)
    return ((np.abs(rel @ n) <= tol) & (np.abs(rel @ across) <= sign.width / 2 + tol)
            & (np.abs(rel @ up) <= sign.height / 2 + tol))


def away_from_edges(p, direction, world):
    """Whether a returned point lies two steps inside its face, on a ray that
    stays in the solid for at least two steps (so a step lands inside it)."""
    if world.obstacles:
        box = world.obstacles[0]
        lo = np.array([box.center[0] - box.size[0] / 2, box.center[1] - box.size[1] / 2, 0.0])
        hi = np.array([box.center[0] + box.size[0] / 2, box.center[1] + box.size[1] / 2, box.height])
        gap = np.minimum(p - lo, hi - p)  # the face's own axis has gap ~0
        return np.sort(gap)[1] >= 2 * STEP
    if world.pedestrians:
        ped = world.pedestrians[0]
        if abs(p[2] - ped.height) <= 1e-6:  # on the top cap: the ray heads down into the solid
            return math.dist(p[:2], ped.position) <= ped.radius - 2 * STEP
        outward = (p[:2] - ped.position) / ped.radius
        chord = -2 * ped.radius * (outward @ direction[:2]) / np.linalg.norm(direction[:2])
        return chord >= 2 * STEP and 2 * STEP <= p[2] <= ped.height - 2 * STEP
    return in_sign(p, world.signs[0], 2 * STEP)


SINGLE_OBJECT_WORLDS = {
    "box": WorldModel(obstacles=(BoxObstacle(center=(9.0, 1.5), size=(1.2, 2.0), height=1.4),)),
    # taller than the mount: every ray enters through the side
    "pedestrian": WorldModel(pedestrians=(Pedestrian(position=(7.0, -1.0), height=2.4, radius=0.4),)),
    # 2 m ahead of the 2.0 m mount: rays that pass over the 1.7 m rim enter through the top cap
    "default-height pedestrian": WorldModel(pedestrians=(Pedestrian(position=(3.6, 0.0)),)),
    "facing sign": WorldModel(signs=(SignSpec(center=(11.0, 1.0, 2.2), normal=(-0.9, -0.3, 0.1),
                                              width=1.0, height=0.9),)),
    "back-facing sign": WorldModel(signs=(SignSpec(center=(9.0, -2.0, 1.6), normal=(0.9, 0.2, -0.1),
                                                   width=1.2, height=1.0),)),
}


@pytest.mark.parametrize("name", SINGLE_OBJECT_WORLDS)
def test_scan_hits_agree_with_marching_along_the_ray(name):
    world = SINGLE_OBJECT_WORLDS[name]
    rng = np.random.default_rng(7)
    frame = scan(world, VehicleState(), PARAMS, CONFIG)
    if world.obstacles:
        inside = lambda q, shrink=0.0: in_box(q, world.obstacles[0], shrink)
    elif world.pedestrians:
        inside = lambda q, shrink=0.0: in_cylinder(q, world.pedestrians[0], shrink)
    else:
        inside = lambda q, shrink=0.0: in_sign(q, world.signs[0], shrink)

    on_object = np.abs(frame.points[:, 2]) > 1e-9  # ground returns sit at z = 0
    hits = frame.points[on_object]
    assert len(hits) > 30
    assert on_surface(hits, world).all()
    if world.signs:
        facing = name == "facing sign"
        expected = world.signs[0].intensity if facing else CONFIG.background_intensity
        assert np.all(frame.intensity[on_object] == expected)

    checked = 0
    for p in hits[rng.permutation(len(hits))]:
        rel = p - MOUNT
        r = np.linalg.norm(rel)
        if not away_from_edges(p, rel / r, world):
            continue
        s, q = march(rel / r, CONFIG.max_range)
        first = s[np.argmax(inside(q))]
        assert inside(q).any() and abs(first - r) <= STEP, (p, r, first)
        checked += 1
        if checked == 40:
            break
    assert checked == 40

    # rays aimed near the object that returned no point on it
    hit_dirs = (hits - MOUNT) / np.linalg.norm(hits - MOUNT, axis=1)[:, None]
    returned = np.isclose(DIRS @ hit_dirs.T, 1.0, rtol=0.0, atol=1e-9).any(axis=1)
    centre = hits.mean(axis=0) - MOUNT
    near = DIRS @ (centre / np.linalg.norm(centre)) > math.cos(math.radians(12.0))
    missed = np.flatnonzero(near & ~returned)
    assert len(missed) > 100
    for k in rng.choice(missed, size=100, replace=False):
        _, q = march(DIRS[k], CONFIG.max_range)
        assert not inside(q, 2 * STEP if world.signs else 0.0).any(), DIRS[k]


@pytest.mark.parametrize("kind", ["obstacles", "pedestrians"])
def test_upward_rays_the_cull_drops_never_enter_the_solid_when_marched(kind):
    # tops a rounding step below the mount, close by and straddling the sensor's side
    make, inside = (box_at, in_box) if kind == "obstacles" else (pedestrian_at, in_cylinder)
    objects = [make(1.5, 0.0, BELOW), make(4.0, -1.0, BELOW), make(0.0, 0.45, BELOW)]
    n_az, step = len(DIRS) // 16, math.radians(CONFIG.azimuth_step_deg)
    marched = 0
    for obj in objects:
        if kind == "obstacles":
            center, radius = np.subtract(obj.center, MOUNT[:2]), math.hypot(*obj.size) / 2
        else:
            center, radius = np.subtract(obj.position, MOUNT[:2]), obj.radius
        every = lidar._wedge(center, radius, n_az, step)
        dropped = np.setdiff1d(every, lidar._wedge(center, radius, n_az, step, 8))
        assert len(dropped) and (DIRS[dropped, 2] > 0.0).all()
        for k in dropped[:: max(1, len(dropped) // 40)]:
            _, q = march(DIRS[k], 5.0)
            assert not inside(q, obj).any(), DIRS[k]
            marched += 1
        frame = scan(replace(WorldModel(), **{kind: (obj,)}), VehicleState(), PARAMS, CONFIG)
        assert (frame.points[:, 2] <= BELOW).all() and (frame.points[:, 2] > 0.5).any()
    assert marched > 100


# sha256 of the quantile table that range jitter interpolates in; its upper half is the lower negated
QUANTILES_SHA256 = "bda49a7d2cc00a9f4c38657f9c1a4958e8bc3f97bacc5a829bcd3c57257fc2d6"
# glibc's tunables that turn off its FMA and AVX2 libm variants, which a CPU without FMA would run
NO_FMA_LIBM = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable,-AVX512F,-AVX512F_Usable"


def test_the_jitter_table_is_the_normals_odd_rising_quantile_table():
    table = lidar._QUANTILES
    assert hashlib.sha256(table.tobytes()).hexdigest() == QUANTILES_SHA256
    assert len(table) == 4097 and np.array_equal(table[::-1], -table) and table[2048] == 0.0
    assert (np.diff(table) > 0.0).all() and table[-1] == 3.668391709746632
    assert lidar._SLOPES.tobytes() == np.diff(table).tobytes()
    assert NORMAL_QUANTILES.tobytes() == table.tobytes()  # the oracle's own construction


def test_jitter_draws_have_the_tables_mean_and_standard_deviation():
    # the law: a uniform u, linear between quantiles i and i + 1 at u * 4096 = i + f; its variance
    # is the mean over the 4096 pieces of the integral of (q_i + f * s_i) ** 2 over f in [0, 1)
    q, s = lidar._QUANTILES[:-1], lidar._SLOPES
    law_std = math.sqrt(np.mean(q * q + q * s + s * s / 3.0))
    assert round(law_std, 5) == 0.99831
    config = LidarConfig(range_jitter=1.0)  # the nearest ground return is 7.7 m, beyond the 3.67 m cut
    _, ground, start, cut, _ = lidar._ray_table(config, PARAMS.lidar_mount_height)
    mount = np.array([PARAMS.lidar_offset_x, 0.0, PARAMS.lidar_mount_height])
    rng = np.random.default_rng(11)
    draws = []
    while sum(map(len, draws)) < 10**6:  # bare ground: the kept rays are the block, in ray order
        frame = scan(WorldModel(), VehicleState(), PARAMS, config, rng)
        draws.append(np.linalg.norm(frame.points - mount, axis=1) - ground[start:cut])
    draws = np.concatenate(draws)
    assert abs(draws.mean()) < 0.005 and abs(draws.std() - law_std) < 0.005
    assert np.abs(draws).max() <= lidar._QUANTILES[-1] + 1e-9


def test_a_jittered_sweep_allocates_the_draw_and_the_points_only():
    config = LidarConfig(range_jitter=0.01)
    rng = np.random.default_rng(2)
    n = len(scan(WorldModel(), VehicleState(), PARAMS, config, rng))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        frame = scan(WorldModel(), VehicleState(), PARAMS, config, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(frame) == n
    # the draw and the three rows of points, each n floats wide: the table indices live in the points
    assert 4 * 8 * n <= peak < 4 * 8 * n + 8192


def jittered_frames():
    """Three jittered sweeps of the demo's sensor at its start pose: on bare ground, in the demo
    world, and in the demo world at min_range 9 m and max_range 30 m."""
    demo = load_scenario(SCENARIO_DIR / "demo.yaml")
    state = VehicleState(x=demo.start.x, y=demo.start.y, heading=demo.start.heading)
    narrow = replace(demo.lidar, min_range=9.0, max_range=30.0)
    return {name: scan(world, state, demo.vehicle, config, np.random.default_rng(seed))
            for name, world, config, seed in (("bare", WorldModel(), demo.lidar, 1),
                                              ("demo", demo.world, demo.lidar, 2),
                                              ("narrow", demo.world, narrow, 3))}


def test_jittered_frames_write_their_recorded_bytes():
    # the raw points see every bit of the draw, which the empty world's log and grid dump cannot:
    # on bare ground no cell is ever occupied. Like the shipped pins, these bytes also depend on
    # the libm that computes the ray table's sines and cosines
    assert {name: hashlib.sha256(frame.points.tobytes()).hexdigest()
            for name, frame in jittered_frames().items()} == {
        "bare": "f7aaf0f1fd8b6d0442941fe5d9ce2b70b1e7a6d49c0f69efc84b2a15711faee3",
        "demo": "7446217cea444a28cf6efbf0bad4630b9519602d46efc75687313100fe5c62d9",
        "narrow": "873c94b87ccdde01555f0ff0080a7d6de382f121d7166d7c747456e04712b738"}


def test_the_jitter_table_does_not_change_with_the_libm_variant(tmp_path):
    # statistics.NormalDist builds the table's tails with math.log and math.sqrt; glibc picks FMA and
    # AVX2 variants of some libm functions by the CPU, and the tunables turn them off in the child only
    azimuths = np.deg2rad(np.arange(0.0, 360.0, CONFIG.azimuth_step_deg))
    code = "\n".join(["import hashlib, json", "import numpy as np", "from shuttlesim import lidar",
                      f"azimuths = np.deg2rad(np.arange(0.0, 360.0, {CONFIG.azimuth_step_deg!r}))",
                      "print(json.dumps([hashlib.sha256(lidar._QUANTILES.tobytes()).hexdigest(),",
                      "                  hashlib.sha256(np.sin(azimuths).tobytes()).hexdigest()]))"])
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path, GLIBC_TUNABLES=NO_FMA_LIBM))
    assert done.returncode == 0, done.stderr
    table, sines = json.loads(done.stdout.splitlines()[-1])
    assert table == QUANTILES_SHA256
    if sines == hashlib.sha256(np.sin(azimuths).tobytes()).hexdigest():
        pytest.skip(f"GLIBC_TUNABLES={NO_FMA_LIBM} left np.sin on this process's libm variant")


import math
from dataclasses import replace

import numpy as np
import pytest

from shuttlesim import lidar
from shuttlesim.lidar import LidarConfig, scan
from shuttlesim.plant import VehicleParams, VehicleState
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel, step_pedestrians
from tests.conftest import reference_scan, reference_scan_world

PARAMS = VehicleParams()
CONFIG = LidarConfig()
DIRS = lidar._ray_table(CONFIG.azimuth_step_deg, PARAMS.lidar_mount_height, CONFIG.min_range)[0]


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
    frame = scan(world, state, PARAMS, config, rng=np.random.default_rng(seed))
    points, intensity = reference_scan(world, state, PARAMS, config, rng=np.random.default_rng(seed))
    assert np.array_equal(frame.points, points)
    assert np.array_equal(frame.intensity, intensity)
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


def test_sensor_frame_cast_matches_world_frame_cast_on_random_worlds():
    for _, world, state, config, _ in random_worlds():
        config = replace(config, range_jitter=0.0)
        frame = scan(world, state, PARAMS, config)
        points, intensity = reference_scan_world(world, state, PARAMS, config)
        assert frame.points.shape == points.shape
        assert np.array_equal(frame.intensity, intensity)
        assert np.abs(frame.points - points).max(initial=0.0) <= 1e-9


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


def test_scan_sign_ray_on_the_edge_recast_on_whole_sweep(monkeypatch):
    # a sign whose top edge passes through the +1 degree ring's ray dead ahead
    d = 10.0
    ray_z = PARAMS.lidar_mount_height + d * math.tan(math.radians(1.0))
    center_z = 2.5
    sign = SignSpec(center=(PARAMS.lidar_offset_x + d, 0.0, center_z), normal=(-1.0, 0.0, 0.0),
                    height=2 * abs(ray_z - center_z) + 1e-13)
    calls = []
    real = lidar._sign_hits
    monkeypatch.setattr(lidar, "_sign_hits", lambda *a: calls.append(len(a[3])) or real(*a))
    frame = assert_scan_matches_reference(WorldModel(signs=(sign,)), VehicleState(), CONFIG)
    assert calls[-1] == len(DIRS) and len(calls) == 2
    assert (frame.intensity == sign.intensity).any()


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

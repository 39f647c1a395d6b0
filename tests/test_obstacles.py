import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim.lidar import LidarConfig, LidarFrame, scan
from shuttlesim.obstacles import (
    MAX_GRID_CELLS,
    Corridor,
    CorridorParams,
    GridParams,
    build_grid,
    closest_in_corridor,
    corridor_from_steering,
    corridor_membership,
    modify_speed,
    required_side_clearance,
    speed_limit_for_distance,
)
from shuttlesim.plant import VehicleParams, VehicleState, step_plant
from shuttlesim.twist import TwistCommand
from shuttlesim.world import BoxObstacle, WorldModel
from tests.conftest import SMALL_WORLDS, reference_grid

PARAMS = VehicleParams()
GRID = GridParams()


def frame_from_points(points, intensity=None):
    pts = np.asarray(points, dtype=float)
    if intensity is None:
        intensity = np.full(len(pts), 20.0)
    return LidarFrame(points=pts, intensity=np.asarray(intensity, dtype=float))


def test_flat_ground_unoccupied():
    frame = scan(WorldModel(), VehicleState(), PARAMS, LidarConfig())
    grid = build_grid(frame, GRID)
    assert not grid.occupied.any()


def test_height_spread_marks_occupied():
    frame = frame_from_points([[5.01, 0.01, 0.0], [5.02, 0.02, 0.08]])
    grid = build_grid(frame, GRID)
    assert grid.occupied.sum() == 1


def test_spread_below_threshold_not_occupied():
    frame = frame_from_points([[5.01, 0.01, 0.0], [5.02, 0.02, 0.06]])
    grid = build_grid(frame, GRID)
    assert not grid.occupied.any()


def test_overhead_points_removed():
    # bridge deck at 3 m over ground returns
    frame = frame_from_points([[5.01, 0.01, 0.0], [5.02, 0.02, 3.0]])
    grid = build_grid(frame, GRID)
    assert not grid.occupied.any()


def test_single_point_cells_unoccupied():
    # a flat-topped obstacle whose sparse returns land one per cell is missed
    pts = [[4.0 + 0.3 * k, 0.0, 1.0] for k in range(6)]
    grid = build_grid(frame_from_points(pts), GRID)
    assert not grid.occupied.any()


def test_straight_corridor():
    c = corridor_from_steering(0.0, PARAMS)
    assert c.radius is None
    assert c.length == 15.0
    assert c.half_width == pytest.approx(1.15)
    pts = np.array([[5.0, 0.5], [5.0, -1.1], [17.0, 0.0], [5.0, 1.3], [-1.0, 0.0]])
    inside, _ = corridor_membership(c, pts)
    assert inside.tolist() == [True, True, True, False, False]
    # beyond the overhang + length the corridor ends
    assert not corridor_membership(c, np.array([[PARAMS.front_overhang + 15.5, 0.0]]))[0][0]


def test_arc_corridor_radius():
    delta = math.atan(PARAMS.wheelbase / 10.0)
    c = corridor_from_steering(delta, PARAMS)
    assert c.radius == pytest.approx(10.0)
    # steering past the limit is rejected
    with pytest.raises(ValueError):
        corridor_from_steering(1.0, PARAMS)


@pytest.mark.parametrize("radius_sign", [1.0, -1.0])
def test_corridor_contains_simulated_rollout(radius_sign):
    # the corridor must cover the plant's future track under constant steering
    radius = 12.0 * radius_sign
    delta = math.atan(PARAMS.wheelbase / radius)
    corridor = corridor_from_steering(delta, PARAMS)
    state = VehicleState(speed=2.0)
    travelled = 0.0
    pts = []
    while travelled < corridor.front_overhang + corridor.length - 0.5:
        prev = (state.x, state.y)
        state = step_plant(state, PARAMS, throttle=0.016, brake=0.0, steer_cmd=delta, dt=0.02)
        travelled += math.hypot(state.x - prev[0], state.y - prev[1])
        pts.append((state.x, state.y))
    inside, _ = corridor_membership(corridor, np.asarray(pts))
    assert inside.all()


def test_slowdown_law_exact_points():
    assert speed_limit_for_distance(10.0) == pytest.approx(1.0)
    assert speed_limit_for_distance(7.5) == pytest.approx(0.5)
    assert speed_limit_for_distance(5.0) == 0.0
    assert speed_limit_for_distance(15.0) == pytest.approx(2.0)
    assert speed_limit_for_distance(15.0001) is None


def test_slowdown_law_continuous_at_stop_threshold():
    assert 5.0 / 5.0 - 1.0 == 0.0
    eps = 1e-9
    assert speed_limit_for_distance(5.0 + eps) == pytest.approx(0.0, abs=1e-9)


def grid_with_cell_at(x, y):
    frame = frame_from_points([[x, y, 0.0], [x, y, 0.5]])
    return build_grid(frame, GRID)


def test_modify_speed_applies_law():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.1)
    # cell centre ~10.6 m ahead of the bumper
    x = PARAMS.front_overhang + 10.6
    out, report = modify_speed(cmd, grid_with_cell_at(x, 0.0), corridor)
    assert report.present
    assert out.linear_v == pytest.approx(report.closest_distance / 5 - 1, abs=1e-9)
    assert out.angular_w == cmd.angular_w  # only the speed is modified


def test_modify_speed_stop_inside_5m():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0)
    out, report = modify_speed(cmd, grid_with_cell_at(PARAMS.front_overhang + 4.0, 0.0), corridor)
    assert report.present and report.closest_distance <= 5.0
    assert out.linear_v == 0.0
    assert out.decel_limit == PARAMS.max_decel


def test_modify_speed_no_obstacle_unchanged():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.2)
    empty = build_grid(frame_from_points(np.empty((0, 3))), GRID)
    out, report = modify_speed(cmd, empty, corridor)
    assert out == cmd
    assert not report.present


def test_modify_speed_outside_corridor_unchanged():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0)
    out, report = modify_speed(cmd, grid_with_cell_at(8.0, 3.0), corridor)
    assert out == cmd
    assert not report.present


def test_modify_never_increases_speed_and_monotone_in_distance():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0)
    prev_v = -1.0
    for d in np.arange(5.5, 14.5, 0.5):
        out, _ = modify_speed(cmd, grid_with_cell_at(PARAMS.front_overhang + d, 0.0), corridor)
        assert out.linear_v <= cmd.linear_v
        assert out.linear_v >= prev_v - 1e-9
        prev_v = out.linear_v


def test_closest_cell_selected():
    corridor = corridor_from_steering(0.0, PARAMS)
    frame = frame_from_points(
        [[6.0, 0.0, 0.0], [6.0, 0.0, 0.5], [9.0, 0.3, 0.0], [9.0, 0.3, 0.5]]
    )
    report = closest_in_corridor(build_grid(frame, GRID), corridor)
    assert report.present
    # the nearer cell, centred at x = 6.125, wins
    assert report.closest_distance == pytest.approx(6.125 - PARAMS.front_overhang)


def test_required_side_clearance_bands():
    assert required_side_clearance(3.0, PARAMS) == pytest.approx(1.15, abs=0.1)
    assert required_side_clearance(5.0, PARAMS) == pytest.approx(1.7, abs=0.15)
    # clearance vanishes with speed (stop time quantises to the sim step)
    assert required_side_clearance(0.01, PARAMS) < 0.1
    with pytest.raises(ValueError):
        required_side_clearance(0.0, PARAMS)


def test_grid_dump_stats():
    grid = grid_with_cell_at(6.0, 0.0)
    assert grid.centers.tolist() == [[6.125, 0.125]]
    assert grid.min_z.tolist() == [0.0] and grid.max_z.tolist() == [0.5]


# a cloud is a list of vertical columns of points, so that cells fill up;
# the offsets put columns exactly on cell edges, and the bases reach both
# ends of the extent and beyond it
COORD = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([-25.0, -20.0, -19.75, 0.0, 5.0, 19.75, 20.0]),
    st.sampled_from([0.0, 0.1, 0.25]) | st.floats(-0.3, 0.3),
)
HEIGHT = st.sampled_from([0.0, 0.07, 2.1, 2.2]) | st.floats(-0.5, 3.0)
CLOUD = st.lists(
    st.builds(lambda x, y, zs: [(x, y, z) for z in zs], COORD, COORD, st.lists(HEIGHT, max_size=4)),
    max_size=10,
).map(lambda columns: [p for column in columns for p in column])


GRIDS = st.builds(
    GridParams,
    cell_size=st.sampled_from([0.25, 0.3, 1.0, 2 * GRID.extent / MAX_GRID_CELLS]),
    height_threshold=st.sampled_from([0.0, 0.07]),
    min_cell_points=st.sampled_from([1, 2, 3]),
)


def assert_grid_matches_reference(frame, params):
    grid = build_grid(frame, params)
    occupied, centers, min_z, max_z = reference_grid(frame.points, params)
    assert np.array_equal(grid.occupied, occupied)
    assert np.array_equal(grid.centers, centers)
    assert np.array_equal(grid.min_z, min_z)
    assert np.array_equal(grid.max_z, max_z)


@settings(max_examples=50, deadline=None)
@given(points=CLOUD, params=GRIDS)
@example(points=[], params=GridParams())
@example(points=[(-20.0, 19.75, 0.0), (-20.0, 19.75, 0.5), (20.0, 0.0, 0.0), (20.0, 0.0, 0.5),
                 (5.0, 5.0, 0.0), (5.0, 5.0, 2.2)], params=GridParams())
# spreads from the sweep's lowest point of exactly the threshold (unoccupied) and just above it
@example(points=[(1.0, 1.0, 0.0), (1.0, 1.0, 0.07), (2.0, 2.0, 0.0), (2.0, 2.0, math.nextafter(0.07, 1.0))],
         params=GridParams())
# nothing above the ground, at threshold zero
@example(points=[(1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, -0.3), (2.0, 2.0, -0.3),
                 (3.0, 3.0, -0.2), (3.0, 3.0, 0.0)], params=GridParams(height_threshold=0.0))
def test_build_grid_matches_per_point_binning(points, params):
    assert_grid_matches_reference(frame_from_points(np.array(points).reshape(-1, 3)), params)


@settings(max_examples=25, deadline=None)
@given(world=SMALL_WORLDS, x=st.floats(-5.0, 40.0), heading=st.floats(-math.pi, math.pi),
       seed=st.integers(0, 2**32 - 1), jitter=st.sampled_from([0.01, 0.05]), params=GRIDS)
def test_build_grid_matches_per_point_binning_on_scanned_sweeps(world, x, heading, seed, jitter, params):
    frame = scan(world, VehicleState(x=x, heading=heading), PARAMS, LidarConfig(range_jitter=jitter),
                 rng=np.random.default_rng(seed))
    assert_grid_matches_reference(frame, params)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim import obstacles
from shuttlesim.lidar import LidarConfig, LidarFrame, scan
from shuttlesim.obstacles import (
    MAX_GRID_CELLS,
    Corridor,
    GridParams,
    ObstacleReport,
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
from shuttlesim.world import Pedestrian, WorldModel
from tests.conftest import SMALL_WORLDS, reference_grid, reference_report, replace_modify_speed

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
    cmd = TwistCommand(3.0, 0.1, 1.0, 1.2)
    # cell centre ~10.6 m ahead of the bumper
    x = PARAMS.front_overhang + 10.6
    out, report = modify_speed(cmd, grid_with_cell_at(x, 0.0), corridor)
    assert report.present
    assert out.linear_v == pytest.approx(report.closest_distance / 5 - 1, abs=1e-9)
    assert out.angular_w == cmd.angular_w  # only the speed is modified


def test_modify_speed_stop_inside_5m():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.0, 1.0, 1.2)
    out, report = modify_speed(cmd, grid_with_cell_at(PARAMS.front_overhang + 4.0, 0.0), corridor)
    assert report.present and report.closest_distance <= 5.0
    assert out.linear_v == 0.0
    assert out.decel_limit == PARAMS.max_decel


def test_modify_speed_no_obstacle_unchanged():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.2, 1.0, 1.2)
    empty = build_grid(frame_from_points(np.empty((0, 3))), GRID)
    out, report = modify_speed(cmd, empty, corridor)
    assert out == cmd
    assert not report.present


def test_modify_speed_outside_corridor_unchanged():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.0, 1.0, 1.2)
    out, report = modify_speed(cmd, grid_with_cell_at(8.0, 3.0), corridor)
    assert out == cmd
    assert not report.present


def test_modify_never_increases_speed_and_monotone_in_distance():
    corridor = corridor_from_steering(0.0, PARAMS)
    cmd = TwistCommand(3.0, 0.0, 1.0, 1.2)
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
# the sweep's lowest point outside the grid, which lifts a flat cell's points above the threshold
@example(points=[(-25.0, 0.0, -1.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.05), (2.0, 2.0, 0.0), (2.0, 2.0, 0.5)],
         params=GridParams())
# every point above the roof, the lowest one too
@example(points=[(1.0, 1.0, 2.2), (1.0, 1.0, 3.0), (2.0, 2.0, 2.5)], params=GridParams())
# tall cells in opposite corners, so the box around them spans the whole grid, and a flat cell between
@example(points=[(-20.0, -20.0, 0.0), (-20.0, -20.0, 0.5), (19.99, 19.99, 0.0), (19.99, 19.99, 0.5),
                 (0.0, 0.0, 0.0), (0.0, 0.0, 0.03)], params=GridParams(cell_size=2 * GRID.extent / MAX_GRID_CELLS))
# tall cells in opposite corners with a crowd between: tall columns and bare ground scattered over the
# rows and columns the corners' box spans, a tall point above the roof and ground just off the grid
@example(points=[(-20.0, -20.0, 0.0), (-20.0, -20.0, 0.5), (19.99, 19.99, 0.0), (19.99, 19.99, 0.5),
                 *((x, y, z) for x, y in ((-8.0, 3.0), (-2.5, -6.0), (0.0, 0.0), (4.2, 9.1), (11.0, -13.5),
                                          (11.1, 3.0), (-8.1, -13.4)) for z in (0.0, 0.9, 1.7)),
                 *((x, y, 0.02) for x in (-15.0, -8.05, 5.0, 11.05) for y in (-13.45, 0.1, 3.05, 15.0)),
                 (0.1, 0.1, 2.5), (-20.1, 0.0, 0.0), (0.0, 20.0, 0.0)], params=GridParams())
# a tall corner cell of the grid (row 0, last column) with its far corner; points just outside the
# grid; and in the next row and column, flat points on the box's half-cell margin and just across it
@example(points=[(-20.0, 19.75, 0.0), (-20.0, 19.75, 0.5),
                 (math.nextafter(-19.75, -1e9), math.nextafter(20.0, 0.0), 0.2),
                 (math.nextafter(-20.0, -1e9), 19.9, 0.9), (-19.9, 20.0, 0.9),
                 (-19.625, 19.9, 0.0), (math.nextafter(-19.625, 0.0), 19.9, 0.05),
                 (-19.9, 19.625, 0.0), (-19.9, math.nextafter(19.625, 0.0), 0.05)], params=GridParams())
# a point below a tall cell's lower edge that the cell formula rounds up into it
@example(points=[(-7.75, 0.0, 0.5), (-7.75, 0.0, 0.0), (-7.750000000000001, 0.0, -0.1)], params=GridParams())
# the only tall point above the roof, over a cell whose binned points stay flat
@example(points=[(1.0, 1.0, 0.0), (1.0, 1.0, 0.05), (1.0, 1.0, 2.5), (2.0, 2.0, 0.0)], params=GridParams())
# at threshold zero, the smallest spread counts, and equal heights above the lowest do not
@example(points=[(1.0, 1.0, 0.0), (1.0, 1.0, 5e-324), (2.0, 2.0, 0.3), (2.0, 2.0, 0.3), (3.0, 3.0, 0.0)],
         params=GridParams(height_threshold=0.0))
def test_build_grid_matches_per_point_binning(points, params):
    assert_grid_matches_reference(frame_from_points(np.array(points).reshape(-1, 3)), params)


@settings(max_examples=25, deadline=None)
@given(world=SMALL_WORLDS, x=st.floats(-5.0, 40.0), heading=st.floats(-math.pi, math.pi),
       seed=st.integers(0, 2**32 - 1), jitter=st.sampled_from([0.01, 0.05]), params=GRIDS)
def test_build_grid_matches_per_point_binning_on_scanned_sweeps(world, x, heading, seed, jitter, params):
    frame = scan(world, VehicleState(x=x, heading=heading), PARAMS, LidarConfig(range_jitter=jitter),
                 rng=np.random.default_rng(seed))
    assert_grid_matches_reference(frame, params)


LOWEST = st.sampled_from([0.0, -0.0, 1e8, -1e8, -0.07, -5e-324]) | st.floats(-1e8, 1e8)
THRESHOLD = (st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 0.07]) | st.floats(0.0, 2.2e-308)
             | st.floats(0.0, 10.0) | st.floats(0.0, 2e8))


@settings(max_examples=300, deadline=None)
@given(z_lo=LOWEST, threshold=THRESHOLD, above=st.lists(st.floats(0.0, 1.0) | st.floats(0.0, 2e8), max_size=8))
@example(z_lo=-0.07, threshold=0.07, above=[])  # the sum z_lo + threshold is 0
def test_tall_points_are_those_more_than_the_threshold_above_the_lowest(z_lo, threshold, above):
    # heights a few ulp around z_lo + threshold, and others above z_lo, each in a cell of its own
    # beside a point at z_lo, so a cell is occupied exactly when its height is more than the threshold above z_lo
    near = [z_lo + threshold]
    for _ in range(3):
        near = [math.nextafter(near[0], -math.inf), *near, math.nextafter(near[-1], math.inf)]
    z = np.array([*near, *(z_lo + a for a in above)])
    z = z[z >= z_lo]
    pairs = np.column_stack([np.full(len(z), z_lo), z]).ravel()
    x = np.repeat(np.arange(len(z)) * GRID.cell_size + 0.1, 2)
    frame = frame_from_points(np.column_stack([x, np.zeros(len(pairs)), pairs]))
    params = GridParams(height_threshold=threshold, roof_height=math.inf)
    assert_grid_matches_reference(frame, params)
    assert build_grid(frame, params).occupied.sum() == np.count_nonzero(z - z_lo > threshold)


def test_build_grid_bins_no_bare_ground_and_only_points_near_tall_ones(monkeypatch):
    binned = []
    cells = obstacles._cells

    def counting(x, y, z, which, params, n):
        binned.append(np.column_stack([x[which], y[which], z[which]]))
        return cells(x, y, z, which, params, n)

    monkeypatch.setattr(obstacles, "_cells", counting)
    config = LidarConfig(range_jitter=0.01)
    ground = scan(WorldModel(), VehicleState(), PARAMS, config, rng=np.random.default_rng(1))
    assert not build_grid(ground, GRID).occupied.any()
    assert sum(map(len, binned)) == 0

    binned.clear()
    ped = Pedestrian(position=(8.0, 1.0))
    frame = scan(WorldModel(pedestrians=(ped,)), VehicleState(), PARAMS, config, rng=np.random.default_rng(1))
    grid = build_grid(frame, GRID)
    assert np.array_equal(grid.centers, reference_grid(frame.points, GRID)[1]) and len(grid.centers) > 0
    tall, near = binned
    z = frame.points[:, 2]
    assert len(tall) == np.count_nonzero(z - z.min() > GRID.height_threshold)
    # within the box of the pedestrian's cells grown by half a cell
    assert np.all(np.abs(near[:, :2] - ped.position) <= ped.radius + 1.5 * GRID.cell_size)
    assert len(near) < len(frame) / 20


# columns of points in front of and around the cart, where corridors reach
NEAR_CLOUD = st.lists(
    st.builds(lambda x, y, zs: [(x, y, z) for z in zs], st.floats(-4.0, 20.0), st.floats(-6.0, 6.0),
              st.lists(st.sampled_from([0.0, 0.5, 1.5]) | st.floats(-0.2, 2.0), max_size=4)),
    max_size=12,
).map(lambda columns: [p for column in columns for p in column])
# straight corridors, both signs of radius, radii near and far beyond the steering limit
STEER = st.sampled_from([0.0, 0.005, -0.005, 0.3, -0.3, 0.55, -0.55]) | st.floats(-0.55, 0.55)
CORRIDORS = (st.builds(corridor_from_steering, STEER)
             | st.builds(Corridor, st.none() | st.sampled_from([-1.0, 1.0, -50.0, 1e3]) | st.floats(-200.0, 200.0),
                         st.sampled_from([15.0, 0.5]), st.sampled_from([1.15, 0.2]), st.sampled_from([3.2, 0.0])))


@settings(max_examples=60, deadline=None)
@given(points=NEAR_CLOUD | CLOUD, pool=st.lists(CORRIDORS, min_size=1, max_size=4), data=st.data())
def test_closest_in_corridor_matches_a_fresh_computation(points, pool, data):
    grid = build_grid(frame_from_points(np.array(points).reshape(-1, 3)), GRID)
    # repeats of each corridor, as the same object and as an equal copy
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    for corridor in picks + [Corridor(*c) for c in reversed(picks)]:
        report = closest_in_corridor(grid, corridor)
        assert report == reference_report(grid, corridor) and type(report) is ObstacleReport


@settings(max_examples=60, deadline=None)
@given(points=NEAR_CLOUD, corridor=CORRIDORS, v=st.sampled_from([0.0, 3.0]) | st.floats(0.0, 1e6),
       w=st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0), accel=st.floats(1e-3, 5.0),
       decel=st.floats(1e-3, 5.0), max_decel=st.sampled_from([5.0, 1e-3]))
@example(points=[(7.2, 0.0, 0.0), (7.2, 0.0, 0.5)], corridor=corridor_from_steering(0.0, PARAMS), v=3.0, w=-0.0,
         accel=1.0, decel=1.2, max_decel=5.0)  # a stop
@example(points=[(13.2, 0.0, 0.0), (13.2, 0.0, 0.5)], corridor=corridor_from_steering(0.0, PARAMS), v=3.0, w=0.3,
         accel=1.0, decel=1.2, max_decel=5.0)  # a slowdown
# the least distance past the stop distance: a cell centre 8.125 m ahead of the axle, the bumper placed
# exactly nextafter(5, inf) behind it, so the cap is 5.000000000000001 / 5 - 1 > 0, a slowdown and not a stop
@example(points=[(8.125, 0.0, 0.0), (8.125, 0.0, 0.5)],
         corridor=Corridor(None, 15.0, 1.15, 8.125 - math.nextafter(5.0, math.inf)), v=3.0, w=0.0,
         accel=1.0, decel=1.2, max_decel=5.0)
def test_modify_speed_matches_the_replace_form(points, corridor, v, w, accel, decel, max_decel):
    grid = build_grid(frame_from_points(np.array(points).reshape(-1, 3)), GRID)
    cmd = TwistCommand(v, w, accel, decel)
    for _ in range(2):  # the second call reads the grid's table
        out, report = modify_speed(cmd, grid, corridor, max_decel)
        want, want_report = replace_modify_speed(cmd, grid, corridor, max_decel)
        assert (out, report) == (want, want_report)
        assert repr(out) == repr(want)  # field by field, the sign of a zero too
        assert (type(out), type(report)) == (type(want), type(want_report)) == (TwistCommand, ObstacleReport)


@pytest.mark.parametrize("max_decel", [0.0, -1.0])
def test_modify_speed_still_rejects_a_command_the_twist_check_rejects(max_decel):
    grid = grid_with_cell_at(PARAMS.front_overhang + 2.0, 0.0)
    corridor = corridor_from_steering(0.0, PARAMS)
    for modify in (modify_speed, replace_modify_speed):
        with pytest.raises(ValueError, match="acceleration limits must be positive"):
            modify(TwistCommand(3.0, 0.0, 1.0, 1.2), grid, corridor, max_decel)


def test_corridor_membership_runs_once_per_grid_and_corridor(monkeypatch):
    seen = []
    membership = obstacles.corridor_membership

    def counting(corridor, points):
        seen.append(corridor)
        return membership(corridor, points)

    monkeypatch.setattr(obstacles, "corridor_membership", counting)
    straight, left, right = (corridor_from_steering(a, PARAMS) for a in (0.0, 0.2, -0.2))
    asked = (straight, left, straight, right, left, corridor_from_steering(0.0, PARAMS), Corridor(*right))
    for grid in (grid_with_cell_at(PARAMS.front_overhang + 8.0, 0.0) for _ in range(2)):
        reports = [modify_speed(TwistCommand(3.0, 0.0, 1.0, 1.2), grid, c)[1] for c in asked]
        assert reports == [reference_report(grid, c) for c in asked]
        assert reports[0].present and not reports[1].present
        assert set(grid.reports) == {straight, left, right}
        assert {type(c) for c in grid.reports} == {Corridor}  # a plain tuple would hash and compare the same
    # reference_report holds its own name for corridor_membership, so only the table's misses count
    assert seen == [straight, left, right] * 2
    # a grid made from another by ``replace`` starts with an empty table
    assert replace(grid).reports == {}

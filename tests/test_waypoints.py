import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuttlesim import waypoints
from shuttlesim.harness import Simulation, record_trace
from shuttlesim.plant import VehicleState, normalize_angle
from shuttlesim.scenario import ScenarioConfig, load_scenario
from shuttlesim.twist import TwistCommand
from shuttlesim.waypoints import (
    CTE_CELL,
    EARTH_RADIUS,
    FollowerParams,
    RecordedTrace,
    Route,
    RowError,
    compile_path,
    cross_track_error,
    follow_step,
    from_local,
    load_trace,
    load_waypoints,
    save_waypoints,
    to_local,
    turn_radius,
    waypoint_filename,
)
from tests.conftest import SCENARIO_DIR, brute_force_cte, reference_xy

ORIGIN = (30.615, -96.34)


def straight_route(n=30, spacing=1.0, speed=3.0):
    lat, lon = from_local(ORIGIN, np.arange(n) * spacing, np.zeros(n))
    return Route.build(lat, lon, np.full(n, speed), ORIGIN)


def test_to_local_identity():
    assert to_local(ORIGIN, *ORIGIN) == (0.0, 0.0)


def test_to_local_small_lat_step():
    x, y = to_local((0.0, 0.0), 1e-5, 0.0)
    assert x == 0.0
    assert y == pytest.approx(EARTH_RADIUS * math.radians(1e-5), rel=1e-12)
    assert y == pytest.approx(1.113, abs=0.001)


def test_round_trip_within_1mm_over_10km():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.uniform(-10_000, 10_000))
        y = float(rng.uniform(-10_000, 10_000))
        lat, lon = from_local(ORIGIN, x, y)
        x2, y2 = to_local(ORIGIN, lat, lon)
        assert math.hypot(x2 - x, y2 - y) < 1e-3


def test_follow_heading_at_target_gives_zero_omega():
    route = straight_route()
    state = VehicleState(x=0.0, y=0.0, heading=0.0)
    cmd, _, _ = follow_step(route, 0, False, state)
    assert cmd.angular_w == pytest.approx(0.0, abs=1e-9)
    assert cmd.linear_v == 3.0


def test_target_advances_inside_switch_radius():
    route = straight_route()
    # 1.9 m from the current target -> it is skipped
    state = VehicleState(x=-1.9, y=0.0)
    _, idx, _ = follow_step(route, 0, False, state)
    assert idx == 1
    # the skip loop keeps advancing past every stale near point
    state = VehicleState(x=0.5, y=0.0)
    _, idx, _ = follow_step(route, 0, False, state)
    assert idx == 3


def test_proportional_omega():
    params = FollowerParams(kp=1.5)
    route = straight_route()
    # target resolves to the waypoint at x=3, dead ahead of the vehicle
    state = VehicleState(x=0.5, y=0.0, heading=-0.2)
    cmd, idx, _ = follow_step(route, 0, False, state, params)
    assert idx == 3
    assert cmd.angular_w == pytest.approx(1.5 * 0.2, abs=1e-6)
    assert cmd.angular_w > 0  # steering back toward the path heading


def test_omega_sign_matches_heading_error_and_is_bounded():
    rng = np.random.default_rng(5)
    route = straight_route()
    for _ in range(100):
        state = VehicleState(
            x=float(rng.uniform(0, 20)),
            y=float(rng.uniform(-3, 3)),
            heading=float(rng.uniform(-math.pi, math.pi)),
        )
        cmd, idx, _ = follow_step(route, 0, False, state)
        xy = route.xy[idx]
        bearing = math.atan2(xy[1] - state.y, xy[0] - state.x)
        err = math.remainder(bearing - state.heading, 2 * math.pi)
        if abs(err) > 1e-9:
            assert math.copysign(1, cmd.angular_w) == math.copysign(1, err)
        assert abs(cmd.angular_w) <= 1.5 * math.pi + 1e-9


def test_end_of_list_commands_zero():
    route = straight_route(n=5)
    state = VehicleState(x=3.5, y=0.0)
    cmd, idx, finished = follow_step(route, 3, False, state)
    assert (idx, finished) == (4, True)
    assert cmd.linear_v == 0.0
    # latched: the stop holds wherever the vehicle goes next
    cmd, idx, finished = follow_step(route, idx, finished, VehicleState(x=-10.0, y=5.0))
    assert (idx, finished, cmd.linear_v, cmd.angular_w) == (4, True, 0.0, 0.0)


def test_route_build_rejects_fewer_than_two_waypoints():
    route = straight_route(n=2)
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"at least two waypoints, got {n}"):
            Route.build(route.lat[:n], route.lon[:n], route.speed[:n], ORIGIN)


def test_target_index_non_decreasing():
    route = straight_route()
    idx, finished = 0, False
    for x in np.linspace(0, 25, 120):
        _, new_idx, finished = follow_step(route, idx, finished, VehicleState(x=float(x)), FollowerParams())
        assert new_idx >= idx
        idx = new_idx


def circle_trace(radius=10.0, v=2.0, n=400):
    # a full circle driven at constant speed
    omega = v / radius
    tt = np.linspace(0.0, 2 * math.pi * radius / v, n)
    ang = v * tt / radius
    xs = radius * np.sin(ang)
    ys = radius * (1 - np.cos(ang))
    lat, lon = np.empty(n), np.empty(n)
    for i, (x, y) in enumerate(zip(xs, ys)):
        lat[i], lon[i] = from_local(ORIGIN, float(x), float(y))
    return RecordedTrace(lat=lat, lon=lon, v=np.full(n, v), omega=np.full(n, omega), t=tt)


def test_turn_radius():
    assert turn_radius(2.0, 0.2) == pytest.approx(10.0)
    assert math.isinf(turn_radius(3.0, 1e-6))


def test_compile_straight_keeps_target_speed():
    n = 50
    lat = np.empty(n)
    lon = np.empty(n)
    for i in range(n):
        lat[i], lon[i] = from_local(ORIGIN, i * 0.8, 0.0)
    trace = RecordedTrace(lat=lat, lon=lon, v=np.full(n, 2.5), omega=np.zeros(n), t=np.arange(n, dtype=float))
    out = compile_path(trace, 3.0)
    assert np.all(out.speed == 3.0)


def test_compile_curvature_limits():
    # r = 4.5 m -> v_max = 1.5 m/s
    trace = circle_trace(radius=4.5, v=1.0)
    out = compile_path(trace, 3.0)
    assert out.speed[2] == pytest.approx(1.5, abs=1e-6)
    # r = 18 m -> v_max = 3.0, exactly at the boundary for a 3 m/s target
    trace = circle_trace(radius=18.0, v=1.5)
    out = compile_path(trace, 3.0)
    assert out.speed[3] == pytest.approx(3.0, abs=1e-9)


def test_compiled_speeds_respect_lateral_accel():
    rng = np.random.default_rng(23)
    for _ in range(100):
        radius = float(rng.uniform(2.0, 40.0))
        v = float(rng.uniform(0.5, 4.0))
        target = float(rng.uniform(0.5, 6.0))
        trace = circle_trace(radius=radius, v=v)
        out = compile_path(trace, target)
        assert np.all(out.speed <= target + 1e-9)
        assert np.all(out.speed**2 / radius <= 0.5 + 1e-6)


def test_resampled_spacing_one_metre():
    trace = circle_trace(radius=12.0, v=2.0)
    out = compile_path(trace, 3.0)
    xy = out.xy
    gaps = np.hypot(*np.diff(xy, axis=0).T)
    assert np.all(np.abs(gaps[:-1] - 1.0) <= 0.05)


def test_compile_rejects_degenerate_trace():
    lat, lon = ORIGIN
    trace = RecordedTrace(
        lat=np.array([lat, lat]),
        lon=np.array([lon, lon]),
        v=np.zeros(2),
        omega=np.zeros(2),
        t=np.array([0.0, 1.0]),
    )
    with pytest.raises(ValueError):
        compile_path(trace, 3.0)


def test_cross_track_on_segment_is_zero():
    route = straight_route()
    assert cross_track_error(route, VehicleState(x=3.3, y=0.0)) == pytest.approx(0.0, abs=1e-12)


def test_cross_track_offset_measured():
    route = straight_route()
    assert cross_track_error(route, VehicleState(x=5.0, y=0.12)) == pytest.approx(0.12, rel=1e-9)
    assert cross_track_error(route, VehicleState(x=5.0, y=-0.12)) == pytest.approx(0.12, rel=1e-9)


def reference_remaining(xy, idx):
    """Path length from waypoint idx to the last, summed on every call."""
    return float(np.sum(np.hypot(*np.diff(xy[idx:], axis=0).T)))


def reference_follow_step(route, target_index, finished, state, params=FollowerParams()):
    """follow_step with the route projected and the tail summed on every call.

    Returns (command, target index, finished).
    """
    stop = TwistCommand(0.0, 0.0, params.accel_limit, params.decel_limit)
    if finished:
        return stop, target_index, True
    xy = reference_xy(route)
    idx = target_index
    last = len(xy) - 1
    while idx < last and math.hypot(xy[idx, 0] - state.x, xy[idx, 1] - state.y) < params.switch_radius:
        idx += 1
    dist = math.hypot(xy[idx, 0] - state.x, xy[idx, 1] - state.y)
    if idx == last and dist < params.switch_radius:
        return stop, idx, True
    remaining = dist + reference_remaining(xy, idx)
    taper = math.sqrt(2.0 * params.decel_limit * max(remaining - params.switch_radius, 0.0)) + 0.15
    speed = min(float(route.speed[idx]), taper)
    bearing = math.atan2(xy[idx, 1] - state.y, xy[idx, 0] - state.x)
    omega = params.kp * normalize_angle(bearing - state.heading - params.heading_bias)
    return TwistCommand(speed, omega, params.accel_limit, params.decel_limit), idx, False


def random_route(rng, n):
    """n random waypoints within 30 m of the origin; about a fifth repeat their predecessor."""
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.2:
            rows.append(rows[-1])
            continue
        lat, lon = from_local(ORIGIN, *(float(c) for c in rng.uniform(-30, 30, size=2)))
        rows.append((lat, lon, float(rng.uniform(0.0, 4.0))))
    lat, lon, speed = np.array(rows).T
    return Route.build(lat, lon, speed, ORIGIN)


def test_follow_step_matches_per_call_projection():
    rng = np.random.default_rng(29)
    for _ in range(200):
        route = random_route(rng, int(rng.integers(2, 61)))
        params = FollowerParams(switch_radius=float(rng.uniform(0.5, 6.0)))
        xy = reference_xy(route)
        assert np.array_equal(route.xy, xy)
        for idx in range(len(xy)):
            assert route.remaining[idx] == pytest.approx(reference_remaining(xy, idx), abs=1e-9)
        idx, finished = int(rng.integers(0, len(xy))), False
        for _ in range(5):  # a few ticks, each starting from the previous one's state
            state = VehicleState(x=float(rng.uniform(-35, 35)), y=float(rng.uniform(-35, 35)),
                                 heading=float(rng.uniform(-math.pi, math.pi)))
            ref_cmd, ref_idx, ref_finished = reference_follow_step(route, idx, finished, state, params)
            cmd, idx, finished = follow_step(route, idx, finished, state, params)
            assert (idx, finished) == (ref_idx, ref_finished)
            # the taper's square root can stretch a last-bit difference in the
            # remaining length near the switch radius
            assert cmd._replace(linear_v=0.0) == ref_cmd._replace(linear_v=0.0)
            assert type(cmd) is TwistCommand
            assert cmd.linear_v == pytest.approx(ref_cmd.linear_v, abs=1e-6)
            assert cross_track_error(route, state) == pytest.approx(brute_force_cte(route, state), abs=1e-9)


def numpy_follow_step(route, target_index, finished, state, params=FollowerParams()):
    """``follow_step`` reading the route through numpy indexing and numpy scalars: its float reads must equal this."""
    xy = route.xy
    idx = target_index
    if not finished:
        last = len(xy) - 1
        while idx < last and math.hypot(xy[idx, 0] - state.x, xy[idx, 1] - state.y) < params.switch_radius:
            idx += 1
        tx, ty = xy[idx]
        dist = math.hypot(tx - state.x, ty - state.y)
        finished = idx == last and dist < params.switch_radius
    if finished:
        return TwistCommand(0.0, 0.0, params.accel_limit, params.decel_limit), idx, True
    remaining = dist + float(route.remaining[idx])
    taper = math.sqrt(2.0 * params.decel_limit * max(remaining - params.switch_radius, 0.0)) + 0.15
    speed = min(float(route.speed[idx]), taper)
    bearing = math.atan2(ty - state.y, tx - state.x)
    theta_error = normalize_angle(bearing - state.heading - params.heading_bias)
    return TwistCommand(speed, params.kp * theta_error, params.accel_limit, params.decel_limit), idx, False


def long_route_loop():
    """The benchmark's 5 km ``long_route`` loop at seed 1, one waypoint per metre."""
    from bench.workloads import campus_loop

    xs, ys, speeds = campus_loop(np.random.default_rng(1))
    return Route.build(*from_local(ORIGIN, xs, ys), speeds, ORIGIN)


def compiled_figure8():
    """The route ``compile-path --speed 3`` makes of the trace scenarios/figure8_record.yaml records."""
    return compile_path(record_trace(load_scenario(SCENARIO_DIR / "figure8_record.yaml")), 3.0)


@pytest.mark.parametrize("make_route, n_states", [(long_route_loop, 2000), (compiled_figure8, 1000)],
                         ids=["long_route", "figure8"])
def test_follow_step_equals_the_numpy_indexed_follower_bit_for_bit(make_route, n_states):
    route = make_route()
    rng = np.random.default_rng(41)
    last = len(route.xy) - 1
    # near every stretch of the route, the last waypoint included, with targets behind, at and past the
    # nearest waypoint, a few already finished, and switch radii from below the spacing to several metres
    near = np.concatenate((rng.integers(0, last + 1, n_states - 100), np.full(100, last)))
    moved = latched = tapered = 0
    for i in near.tolist():
        x, y = (route.xy[i] + rng.normal(0.0, 2.0, 2)).tolist()
        state = VehicleState(x=x, y=y, heading=float(rng.uniform(-math.pi, math.pi)))
        target = min(max(i + int(rng.integers(-6, 3)), 0), last)
        finished = bool(rng.random() < 0.02)
        params = FollowerParams(switch_radius=float(rng.choice([0.5, 2.0, rng.uniform(0.1, 6.0)])))
        cmd, idx, done = follow_step(route, target, finished, state, params)
        want, want_idx, want_done = numpy_follow_step(route, target, finished, state, params)
        assert (idx, done) == (want_idx, want_done) and type(idx) is int and type(done) is bool
        assert type(cmd) is TwistCommand and all(type(v) is float for v in cmd)
        assert repr(cmd) == repr(want)  # every field to the last bit, the sign of a zero too
        moved += idx > target
        latched += done and not finished
        tapered += not done and cmd.linear_v < route.speed[idx]
    assert min(moved, latched, tapered) > 0  # the switch radius, the end of the route and its taper all ran


def test_route_projected_once_per_simulation(monkeypatch, straight_waypoints):
    calls = []

    def counting_to_local(*args):
        calls.append(args)
        return to_local(*args)

    monkeypatch.setattr(waypoints, "to_local", counting_to_local)
    sim = Simulation(ScenarioConfig(duration=2.0, tick_rate=50.0, waypoints=straight_waypoints))
    _, rows = sim.run()
    assert len(rows) == 100
    assert len(calls) == 1  # one array call projects the whole route


def test_route_arrays_are_read_only():
    route = straight_route(n=10)
    for a in (route.lat, route.lon, route.speed, route.xy, route.remaining, route.segments):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(TypeError):  # the index's segment rows are tuples
        route.cte_index[3][0][0] = 1.0
    with pytest.raises(FrozenInstanceError):
        route.xy = np.zeros((10, 2))


def test_cross_track_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        pts = rng.uniform(-30, 30, size=(n, 2))
        lat, lon = from_local(ORIGIN, pts[:, 0], pts[:, 1])
        route = Route.build(lat, lon, np.ones(n), ORIGIN)
        state = VehicleState(x=float(rng.uniform(-35, 35)), y=float(rng.uniform(-35, 35)))
        assert cross_track_error(route, state) == pytest.approx(brute_force_cte(route, state), abs=1e-9)


def full_scan_cte(route, state):
    """The cross-track error over every segment, in the numpy expression ``_nearest`` equals on a cell's rows."""
    return float(waypoints._segment_distances(state.x, state.y, *route.segments).min())


def route_through(x, y):
    """A route through the points (x, y), m east/north of ORIGIN."""
    lat, lon = from_local(ORIGIN, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return Route.build(lat, lon, np.ones(len(lat)), ORIGIN)


def walk_route(steps):
    """A route from the origin along (length, heading) steps; a zero length repeats a waypoint."""
    x, y = [0.0], [0.0]
    for length, heading in steps:
        x.append(x[-1] + length * math.cos(heading))
        y.append(y[-1] + length * math.sin(heading))
    return route_through(x, y)


def figure8_route(scale, spacing):
    """A lemniscate of half-width ``scale`` m, which crosses itself at the origin, sampled about every ``spacing`` m."""
    t = np.linspace(0.0, 2.0 * math.pi, int(6.2 * scale / spacing) + 2)
    return route_through(scale * np.sin(t), scale * np.sin(t) * np.cos(t))


# steps of up to 9 m, so segments may be longer than a cell, and some of length 0
STEPS = st.tuples(st.just(0.0) | st.floats(0.05, 9.0), st.floats(-math.pi, math.pi))
ROUTES = (st.builds(walk_route, st.lists(STEPS, min_size=1, max_size=60))
          | st.builds(figure8_route, st.floats(5.0, 60.0), st.floats(0.5, 6.0)))


@st.composite
def query_points(draw, route):
    """A point in an indexed cell (on its edges and corners too), near the route, just over half a cell
    to the side of a segment, around or beyond the grid."""
    (x0, y0), (nx, ny), cells, _ = route.cte_index
    kind = draw(st.sampled_from(["cell", "near", "beyond", "around", "far"]))
    if kind == "cell":
        i, j = divmod(draw(st.sampled_from(sorted(cells))), ny)
        u, v = (draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for _ in range(2))
        x, y = x0 + (i + u) * CTE_CELL, y0 + (j + v) * CTE_CELL
        nudge = draw(st.sampled_from([-math.inf, 0.0, math.inf]))  # one ulp either way off an edge
        return float(np.nextafter(x, x + nudge)) if nudge else x, y
    if kind == "near":
        wx, wy = route.xy[draw(st.integers(0, len(route.xy) - 1))]
        return float(wx) + draw(st.floats(-6.0, 6.0)), float(wy) + draw(st.floats(-6.0, 6.0))
    if kind == "beyond":  # so the nearest listed segment may lie past the half-cell check, and another be nearer
        ax, ay, dx, dy, len2 = route.segments[:, draw(st.integers(0, len(route.segments[0]) - 1))].tolist()
        u, off = draw(st.floats(0.0, 1.0)), (CTE_CELL / 2 + draw(st.floats(0.0, 1.0))) * draw(st.sampled_from([-1.0, 1.0]))
        length = math.sqrt(len2)
        return (ax + u * dx - off * dy / length, ay + u * dy + off * dx / length) if length else (ax, ay + off)
    if kind == "around":
        return (draw(st.floats(x0 - 20.0, x0 + nx * CTE_CELL + 20.0)),
                draw(st.floats(y0 - 20.0, y0 + ny * CTE_CELL + 20.0)))
    return draw(st.tuples(*[st.sampled_from([-1e6, 1e6, math.inf, -math.inf, math.nan]) | st.floats(-100, 100)] * 2))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), route=ROUTES)
def test_indexed_cross_track_equals_full_scan_bit_for_bit(data, route):
    assert route.cte_index[2], "a route of steps up to 9 m is indexed"
    for x, y in data.draw(st.lists(query_points(route), min_size=1, max_size=12)):
        state = VehicleState(x=x, y=y)
        with np.errstate(invalid="ignore"):  # inf - inf at a point at infinity
            got, want = cross_track_error(route, state), full_scan_cte(route, state)
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, y)


def reference_cte_cells(route):
    """{cell id: ids of its segments}, from the definition, segment by segment in scalar math.

    A cell lists every segment whose box, grown by half a cell and 1e-6 m on
    every side, overlaps it. The grid is the index's own, and it holds every grown box.
    """
    (x0, y0), (nx, ny), _, _ = route.cte_index
    grow = CTE_CELL / 2 + 1e-6
    cells = {}
    for s, (ax, ay, dx, dy, _) in enumerate(route.segments.T.tolist()):
        for i in range(math.floor((min(ax, ax + dx) - grow - x0) / CTE_CELL), math.floor((max(ax, ax + dx) + grow - x0) / CTE_CELL) + 1):
            for j in range(math.floor((min(ay, ay + dy) - grow - y0) / CTE_CELL), math.floor((max(ay, ay + dy) + grow - y0) / CTE_CELL) + 1):
                assert 0 <= i < nx and 0 <= j < ny
                cells.setdefault(i * ny + j, []).append(s)
    return cells


@settings(max_examples=60, deadline=None)
@given(route=ROUTES)
def test_cte_index_holds_what_its_definition_says(route):
    _, _, cells, rows = route.cte_index
    segment = {id(row): s for s, row in enumerate(rows)}
    reference = reference_cte_cells(route)
    assert sorted(cells) == sorted(reference)
    for cell, listed in cells.items():
        assert sorted(segment[id(row)] for row in listed) == reference[cell]
    assert [list(row) for row in rows] == route.segments.T.tolist()  # one row per segment, holding its floats


@settings(max_examples=30, deadline=None)
@given(route=ROUTES)
def test_every_cell_listing_a_segment_holds_its_one_shared_row(route):
    # copying each row into every cell that lists it took 13 % more peak memory on the 5 km benchmark loop
    _, _, cells, rows = route.cte_index
    shared = {id(row) for row in rows}
    assert len(shared) == len(rows)
    assert all(id(row) in shared for listed in cells.values() for row in listed)
    assert all(type(row) is tuple and all(type(v) is float for v in row) for row in rows)


def test_nearest_listed_segment_beyond_half_a_cell_sends_the_query_to_a_full_scan():
    # the point is 2.5 m above the listed y = 3.4 leg and 2.2 m below the y = 8.1 leg,
    # whose grown box stops 0.1 m short of the point's cell
    route = route_through([40.0, 40.0, -20.0, -20.0, 20.0], [-10.0, 3.4, 3.4, 8.1, 8.1])
    (x0, y0), (nx, ny), cells, rows = route.cte_index
    state = VehicleState(x=1.0, y=5.9)
    listed = cells[int((state.x - x0) / CTE_CELL) * ny + int((state.y - y0) / CTE_CELL)]
    assert len(listed) == 1 and listed[0] is rows[1]
    assert waypoints._nearest(state.x, state.y, listed) == pytest.approx(2.5)
    assert cross_track_error(route, state) == full_scan_cte(route, state) == pytest.approx(2.2)


def divide_and_clip_distances(x, y, ax, ay, dx, dy, len2):
    """``_segment_distances`` with its segment parameter written as np.divide(where=len2 > 0) and np.clip."""
    dot = (x - ax) * dx + (y - ay) * dy
    t = np.divide(dot, len2, out=np.zeros_like(dot), where=len2 > 0)
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(x - (ax + t * dx), y - (ay + t * dy))


def adversarial_segments():
    """Points and segments, one of each per index: finite values whose products neither overflow nor underflow,
    with segments of length 0 and signed zeros."""
    rng = np.random.default_rng(13)
    n = 6000
    x, y, ax, ay, dx, dy = rng.choice([-1.0, 1.0], (6, n)) * 10.0 ** rng.uniform(-6.0, 4.0, (6, n))
    dx[:2000] = dy[:2000] = 0.0
    dx[1000:3000:2] *= -0.0
    dy[1000:3000:3] *= -0.0
    ax[::5], ay[::5] = x[::5], y[::5]  # the point on the start, where the dot product is a zero
    ax[1::7] *= 0.0
    x[2::9] *= -0.0
    return x, y, ax, ay, dx, dy, dx * dx + dy * dy


def test_segment_distances_equal_the_divide_and_clip_form_bit_for_bit():
    x, y, ax, ay, dx, dy, len2 = adversarial_segments()
    n = len(x)
    got = waypoints._segment_distances(x, y, ax, ay, dx, dy, len2)
    want = divide_and_clip_distances(x, y, ax, ay, dx, dy, len2)
    assert got.tobytes() == want.tobytes()
    for k in range(0, n, 97):  # and with a scalar point, as cross_track_error calls it
        one = waypoints._segment_distances(x[k], y[k], ax, ay, dx, dy, len2)
        assert one.tobytes() == divide_and_clip_distances(x[k], y[k], ax, ay, dx, dy, len2).tobytes()


def underflowing_segments():
    """Points and segments, one of each per index, whose squared length underflows to 0 while the dot product is
    positive, negative or 0: |d| is near 1e-170 with the point 1e18 |d| away, or near 1e-162 with the point a few |d|
    away, where the segment's two ends lie at different distances from the point."""
    rng = np.random.default_rng(14)
    n = 3000
    scale = np.where(np.arange(n) % 2, 1e-170, 1e-162)
    dx, dy = rng.uniform(-1.0, 1.0, (2, n)) * scale
    px, py = rng.uniform(-8.0, 8.0, (2, n)) * np.where(np.arange(n) % 2, 1e18, 1.0) * scale
    px[::3], py[::3] = dy[::3], -dx[::3]  # square to the segment, so the dot product is 0 or nearly
    ax, ay = rng.choice([0.0, -0.0, 1e-160, 3.0], (2, n))
    return ax + px, ay + py, ax, ay, dx, dy, dx * dx + dy * dy


@pytest.mark.parametrize("segments", [adversarial_segments, underflowing_segments])
def test_nearest_equals_segment_distances_bit_for_bit(segments):
    x, y, ax, ay, dx, dy, len2 = segments()
    rows = list(map(tuple, np.stack((ax, ay, dx, dy, len2)).T.tolist()))
    want = waypoints._segment_distances(x, y, ax, ay, dx, dy, len2)
    got = [waypoints._nearest(x[k], y[k], [row]) for k, row in enumerate(rows)]
    assert np.array(got).tobytes() == want.tobytes()
    for k in range(0, len(x), 7):  # the least of a cell's rows, for a point near one of them
        cell = rows[k:k + 9]
        one = waypoints._segment_distances(x[k], y[k], *np.transpose(cell)).min()
        assert np.float64(waypoints._nearest(x[k], y[k], cell)).tobytes() == one.tobytes()
    assert waypoints._nearest(x[0], y[0], ()) == math.inf
    if segments is underflowing_segments:  # numpy's dot / 0 is then +inf, -inf and nan, taken to 1, 0 and 0
        dot = (x - ax) * dx + (y - ay) * dy
        assert (len2 == 0).all() and all(case.any() for case in (dot > 0, dot < 0, dot == 0))


def test_indexed_cross_track_on_a_long_route_reads_few_segments():
    rng = np.random.default_rng(12)
    route = walk_route(zip(np.ones(3000), np.cumsum(rng.normal(0.0, 0.2, 3000))))
    (x0, y0), (nx, ny), cells, rows = route.cte_index
    sizes = [len(listed) for listed in cells.values()]
    assert len(rows) == 3000 and max(sizes) <= 40
    near = route.xy[rng.integers(0, len(route.xy), 2000)] + rng.uniform(-1.0, 1.0, (2000, 2))
    indexed = 0
    for x, y in near.tolist():
        state = VehicleState(x=x, y=y)
        assert cross_track_error(route, state) == full_scan_cte(route, state)
        indexed += int((x - x0) / CTE_CELL) * ny + int((y - y0) / CTE_CELL) in cells
    assert indexed >= 0.95 * len(near)


def test_route_with_boxes_too_large_to_index_scans_every_segment():
    route = walk_route([(3000.0, 0.7), (3000.0, 2.0)])
    assert route.cte_index[2] == {}
    for x, y in [(0.0, 0.0), (100.0, 50.0), (2000.0, 2000.0)]:
        state = VehicleState(x=x, y=y)
        assert cross_track_error(route, state) == full_scan_cte(route, state)


def test_waypoint_file_round_trip(tmp_path):
    route = straight_route(n=8)
    path = tmp_path / waypoint_filename("test", 3.0)
    assert path.name == "test_3mps.waypoints"
    save_waypoints(route, path)
    loaded = load_waypoints(path)
    assert len(loaded.speed) == 8
    assert route.lat == pytest.approx(loaded.lat, abs=1e-8)
    assert route.lon == pytest.approx(loaded.lon, abs=1e-8)
    assert np.array_equal(route.speed, loaded.speed)


def test_waypoint_file_error_reports_line(tmp_path):
    bad = tmp_path / "bad.waypoints"
    bad.write_text("30.0,-96.0,3.0\nnot,a_number,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.waypoints:2"):
        load_waypoints(bad)


def test_waypoint_validation(tmp_path):
    bad = tmp_path / "bad.waypoints"
    for row, message in [
        ((91.0, 0.0, 1.0), "latitude out of range: 91.0"),
        ((0.0, 181.0, 1.0), "longitude out of range: 181.0"),
        ((0.0, 0.0, -1.0), "waypoint speed must be finite and non-negative, got -1.0"),
        ((0.0, 0.0, math.nan), "waypoint speed must be finite and non-negative, got nan"),
        ((0.0, 0.0, math.inf), "waypoint speed must be finite and non-negative, got inf"),
    ]:
        lat, lon, speed = np.array([(0.0, 0.0, 1.0), row, (0.0, 1e-4, 1.0)]).T
        with pytest.raises(RowError) as info:
            Route.build(lat, lon, speed, (0.0, 0.0))
        assert (info.value.row, str(info.value)) == (1, message)
        # in a file, the error names the row's line; no row file reads a non-finite number
        bad.write_text("# lat,lon,speed\n0.0,0.0,1.0\n" + ",".join(map(repr, row)) + "\n0.0,0.0001,1.0\n")
        with pytest.raises(ValueError) as info:
            load_waypoints(bad)
        read = message if math.isfinite(row[2]) else f"speed: non-finite value '{row[2]!r}'"
        assert str(info.value) == f"{bad}:3: {read}"


def test_route_reports_first_bad_row_and_its_first_bad_value():
    lat, lon, speed = np.array([(0.0, 0.0, 1.0), (0.0, 200.0, -1.0), (95.0, 0.0, 1.0)]).T
    with pytest.raises(RowError) as info:
        Route.build(lat, lon, speed, (0.0, 0.0))
    assert (info.value.row, str(info.value)) == (1, "longitude out of range: 200.0")


@pytest.mark.parametrize("speed", ["nan", "inf"])
def test_waypoint_file_rejects_non_finite_speed(tmp_path, speed):
    bad = tmp_path / "bad.waypoints"
    bad.write_text(f"30.0,-96.0,3.0\n30.0001,-96.0,{speed}\n")
    with pytest.raises(ValueError, match=rf"bad\.waypoints:2: speed: non-finite value '{speed}'$"):
        load_waypoints(bad)


@pytest.mark.parametrize("kind", ["waypoints", "trace"])
@pytest.mark.parametrize("spelled", ["30.6_15", "\u0663\u0660.\u0666\u0661\u0665"])  # 30.615 in Arabic-Indic digits
def test_row_files_reject_a_number_with_underscores_or_non_ascii_digits(tmp_path, kind, spelled):
    assert float(spelled) == 30.615  # float() reads both
    first, second, load = {"waypoints": ("30.6149,-96.34,3.0", "{},-96.34,3.0", load_waypoints),
                           "trace": ("0.0,30.6149,-96.34,1.0,0.0", "1.0,{},-96.34,1.0,0.0", load_trace)}[kind]
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(f"# two rows\n{first}\n{second.format(spelled)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(bad)
    assert str(info.value) == f"{bad}:3: lat: {spelled!a} is not a plain ASCII number"


@pytest.mark.parametrize("stray", ["t,1,2,3,4", "t,lat,lon,v", "t,lat,lon,v,omega,x", "T,lat,lon,v,omega"])
def test_trace_file_skips_only_comments_and_the_header_it_is_saved_with(tmp_path, stray):
    rows = ["0.0,30.0,-96.0,1.0,0.0", "1.0,30.00001,-96.0,1.0,0.0", "2.0,30.00002,-96.0,1.0,0.0"]
    good = tmp_path / "good.trace"
    good.write_text("\n".join(["# recorded", "t,lat,lon,v,omega", *rows]) + "\n")
    assert len(load_trace(good)) == 3
    bad = tmp_path / "bad.trace"
    bad.write_text("\n".join(["t,lat,lon,v,omega", rows[0], stray, *rows[1:]]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:3: "):
        load_trace(bad)


@pytest.mark.parametrize("column, value", [(0, "inf"), (1, "nan"), (2, "inf"), (3, "-inf"), (4, "nan")])
def test_trace_file_rejects_non_finite_values(tmp_path, column, value):
    rows = [["0.0", "30.0", "-96.0", "1.0", "0.0"], ["1.0", "30.00001", "-96.0", "1.0", "0.0"]]
    rows[1][column] = value
    bad = tmp_path / "bad.trace"
    bad.write_text("t,lat,lon,v,omega\n" + "\n".join(",".join(r) for r in rows) + "\n")
    name = "t,lat,lon,v,omega".split(",")[column]
    with pytest.raises(ValueError, match=rf"bad\.trace:3: {name}: non-finite value '{value}'$"):
        load_trace(bad)

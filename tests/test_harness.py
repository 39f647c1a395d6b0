import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim.arbiter import Message, Source
from shuttlesim.harness import (
    LogRow,
    Simulation,
    metrics_from_rows,
    read_log,
    record_trace,
    write_log,
)
from shuttlesim.lidar import LidarConfig
from shuttlesim.scenario import (
    DriveSegment,
    ManualStop,
    ScenarioConfig,
    StartPose,
    load_scenario,
    scenario_from_dict,
)
from shuttlesim.waypoints import compile_path, load_trace, save_trace, save_waypoints
from shuttlesim.world import BoxObstacle, Pedestrian, SignSpec, WorldModel
from tests.conftest import HARNESS_ORACLES, SCENARIO_DIR, SMALL_WORLDS


BOX_AND_SIGN = WorldModel(
    obstacles=(BoxObstacle(center=(10.0, 0.0), size=(0.6, 0.6), height=1.5),),
    signs=(SignSpec(center=(14.0, -2.0, 2.0), normal=(-1, 0, 0)),),
)


def straight_scenario(straight_waypoints, **kw):
    defaults = dict(duration=6.0, waypoints=straight_waypoints, start=StartPose(speed=3.0))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_run_requires_waypoints():
    with pytest.raises(ValueError):
        Simulation(ScenarioConfig(duration=1.0))


def test_deterministic_logs_same_seed(straight_waypoints):
    world = WorldModel(pedestrians=(Pedestrian(position=(30.0, 2.0), velocity=(0.0, -1.0)),))
    sc = straight_scenario(
        straight_waypoints, duration=5.0, seed=11, world=world,
        lidar=LidarConfig(range_jitter=0.01),
    )
    _, rows_a = Simulation(sc).run()
    _, rows_b = Simulation(sc).run()
    text_a = "\n".join(r.format() for r in rows_a)
    text_b = "\n".join(r.format() for r in rows_b)
    assert text_a == text_b


@pytest.mark.parametrize("name, duration", [
    # 30 s still holds the pedestrian crossing and the sign stop
    ("demo.yaml", 30.0),
    # every RANSAC fit on the demo takes its whole cloud, whatever triples are drawn; here the
    # draws decide the fits, so a fit that did not seed its own generator would change the log
    # and the sign log from 15.6 s on
    ("signs.yaml", 19.0),
], ids=["demo", "signs"])
def test_demo_on_the_oracles_writes_the_fast_runs_log_sign_log_and_grid_dump(monkeypatch, name, duration):
    from dataclasses import replace

    import shuttlesim.harness as harness

    scenario = replace(load_scenario(SCENARIO_DIR / name), duration=duration)

    def outputs():
        sign_log, grid_dump = [], []
        _, rows = Simulation(scenario, sign_log, grid_dump).run()
        return "\n".join(row.format() for row in rows), "\n".join(sign_log), "\n".join(grid_dump)

    fast = outputs()
    assert all(fast)
    for name, oracle in HARNESS_ORACLES.items():
        monkeypatch.setattr(harness, name, oracle)
    assert outputs() == fast


def test_different_seed_changes_log(straight_waypoints):
    from dataclasses import replace

    world = WorldModel(signs=(SignSpec(center=(14.0, -2.0, 2.0), normal=(-1, 0, 0)),))
    sc = straight_scenario(
        straight_waypoints, duration=2.0, seed=1, world=world,
        lidar=LidarConfig(range_jitter=0.02),
    )
    _, rows_a = Simulation(sc).run()
    _, rows_b = Simulation(replace(sc, seed=2)).run()
    # the jittered sign range is logged at full precision
    assert any(a.format() != b.format() for a, b in zip(rows_a, rows_b))


def test_log_roundtrip_reproduces_metrics(tmp_path, straight_waypoints):
    sc = straight_scenario(straight_waypoints, duration=4.0)
    metrics, rows = Simulation(sc).run()
    log = tmp_path / "run.log"
    write_log(rows, log)
    rows_back = read_log(log)
    metrics_back = metrics_from_rows(rows_back)
    assert metrics_back == metrics


FINITE = st.floats(allow_nan=False, allow_infinity=False)
OPTIONAL = st.none() | FINITE
EXTREMES = dict(t=-0.0, x=5e-324, y=-5e-324, heading=1e308, v=-1e308, omega=2.2250738585072014e-308,
                throttle=0.1, brake=1 / 3, steer=-0.0, cte=1e-300)


@given(st.builds(
    LogRow,
    **{name: FINITE for name in EXTREMES},
    obstacle_d=OPTIONAL, sign_d=OPTIONAL, sign_n=st.integers(),
    display=st.sampled_from([m.value for m in Message]),
    source=st.sampled_from(Source), sign_stop_d=OPTIONAL,
))
@example(LogRow(**EXTREMES, obstacle_d=None, sign_d=None, sign_n=-7, display="STOPPED",
                source=Source.MANUAL_STOP, sign_stop_d=None))
@example(LogRow(**EXTREMES, obstacle_d=-0.0, sign_d=1e308, sign_n=2**70, display="MOVING",
                source=Source.SIGN, sign_stop_d=5e-324))
def test_log_row_format_roundtrip(row):
    assert LogRow.parse(row.format()) == row


def test_log_row_rejects_unknown_source_code():
    line = "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,,,0,MOVING,4,"
    with pytest.raises(ValueError, match="source code 4"):
        LogRow.parse(line)


@pytest.mark.parametrize("column, value", [("cte", "inf"), ("v", "nan"), ("sign_stop_d", "-inf")])
def test_non_finite_log_value_rejected(tmp_path, straight_waypoints, capsys, column, value):
    from shuttlesim.cli import main

    _, rows = Simulation(straight_scenario(straight_waypoints, duration=0.1)).run()
    log = tmp_path / "run.log"
    write_log(rows, log)
    lines = log.read_text().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(fields)
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"run\.log:3: non-finite value '{value}'"):
        read_log(log)
    assert main(["replay", str(log)]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_log_parses_as_numbers_when_every_source_wins(tmp_path, straight_waypoints):
    # the benchmark reads every column but display as a float, which is why
    # the source column holds a number, not the source's name
    from bench.checks import parse_log

    world = WorldModel(
        obstacles=(BoxObstacle(center=(12.0, 0.0), size=(0.6, 0.6), height=1.5),),
        signs=(SignSpec(center=(16.0, -2.0, 2.0), normal=(-1, 0, 0)),),
    )
    # perception fires only from tick 5, so the waypoint source wins until then
    sc = straight_scenario(straight_waypoints, duration=2.5, world=world, perception_latency_ticks=5,
                           manual_stops=(ManualStop(t=2.0, duration=0.5),))
    _, rows = Simulation(sc).run()
    assert {r.source for r in rows} == set(Source)
    log = tmp_path / "run.log"
    write_log(rows, log)
    columns = parse_log(log.read_text())
    assert sorted(set(columns["source"])) == [0.0, 1.0, 2.0, 3.0]
    assert read_log(log) == rows


@pytest.fixture(scope="module")
def box_and_sign_log(straight_waypoints, tmp_path_factory):
    """The path and lines of a log the harness wrote, with every optional column filled on some row."""
    sc = straight_scenario(straight_waypoints, duration=2.5, world=BOX_AND_SIGN, perception_latency_ticks=5,
                           manual_stops=(ManualStop(t=2.0, duration=0.5),))
    log = tmp_path_factory.mktemp("respelled") / "run.log"
    write_log(Simulation(sc).run()[1], log)
    return log, log.read_text().splitlines()


def respellings(text):
    """Spellings of a logged number that read as the same value, or in Python but no input as ``float`` and ``int``
    read it: a ``+`` sign, a trailing ``0`` after the decimals, or a ``_`` between two digits."""
    out = [] if text.startswith("-") or not text else ["+" + text]
    if "." in text and "e" not in text:
        out.append(text + "0")
    out += [text[:i] + "_" + text[i:] for i in range(1, len(text)) if text[i - 1:i + 1].isdigit()]
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_log_rejects_a_number_respelled_at_the_same_value(box_and_sign_log, data):
    log, lines = box_and_sign_log
    header = lines[0].split(",")
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    fields = lines[lineno - 1].split(",")
    column = data.draw(st.sampled_from([k for k, name in enumerate(header) if name != "display" and fields[k]]),
                       label="column")
    fields[column] = data.draw(st.sampled_from(respellings(fields[column])), label="spelling")
    respelled = ",".join(fields)
    path = log.with_name("respelled.log")
    path.write_text("\n".join(lines[:lineno - 1] + [respelled] + lines[lineno:]) + "\n")
    if "_" in fields[column]:  # bounds.number reads no "_"
        message = re.escape(f"{fields[column]!r} is not a plain ASCII number")
        with pytest.raises(ValueError, match=f"^{message}$"):
            LogRow.parse(respelled)
    else:
        assert LogRow.parse(respelled) == LogRow.parse(lines[lineno - 1])
        message = f"{header[column]} "
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: {message}"):
        read_log(path)


@settings(max_examples=25, deadline=None)
@given(world=SMALL_WORLDS, seed=st.integers(0, 2**32 - 1), duration=st.floats(1.0, 2.0),
       jitter=st.sampled_from([0.0, 0.01]))
def test_closed_loop_on_random_small_worlds(straight_waypoints, tmp_path_factory, world, seed, duration, jitter):
    sc = straight_scenario(straight_waypoints, duration=duration, seed=seed, world=world,
                           lidar=LidarConfig(range_jitter=jitter))
    log = tmp_path_factory.mktemp("loop") / "run.log"
    _, rows = Simulation(sc).run()
    write_log(rows, log)
    text = log.read_text()
    lines = text.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, cell in zip(header, line.split(","), strict=True):
            assert name == "display" or cell == "" or math.isfinite(float(cell)), (name, line)
    assert read_log(log) == rows
    _, again = Simulation(sc).run()
    write_log(again, log)
    assert log.read_text() == text


def test_pipeline_stage_order(straight_waypoints, monkeypatch):
    import shuttlesim.harness as harness
    from shuttlesim.signs import SignStopLogic
    from shuttlesim.twist import TwistController

    calls = []

    def recorded(stage, fn):
        def wrapper(*args, **kwargs):
            calls.append(stage)
            return fn(*args, **kwargs)
        return wrapper

    for stage, name in (("waypoint", "follow_step"), ("obstacle", "modify_speed"),
                        ("select", "select"), ("plant", "step_plant"), ("walk", "step_pedestrians")):
        monkeypatch.setattr(harness, name, recorded(stage, getattr(harness, name)))
    monkeypatch.setattr(SignStopLogic, "update", recorded("sign", SignStopLogic.update))
    monkeypatch.setattr(TwistController, "step", recorded("control", TwistController.step))
    # a box taller than the mount in the corridor ahead, a sign and a pedestrian: every stage has
    # something to work on in every tick, the first included
    world = WorldModel(obstacles=(BoxObstacle(center=(10.0, 0.0), size=(0.6, 0.6), height=2.5),),
                       pedestrians=(Pedestrian(position=(30.0, 5.0), velocity=(0.0, -1.0)),),
                       signs=(SignSpec(center=(14.0, -2.0, 2.0), normal=(-1, 0, 0)),))
    _, rows = Simulation(straight_scenario(straight_waypoints, duration=0.5, world=world)).run()
    assert {stage: calls.count(stage) for stage in set(calls)} == dict.fromkeys(
        ("waypoint", "obstacle", "sign", "select", "control", "plant", "walk"), len(rows))
    stages = calls[: calls.index("plant") + 1]
    # the waypoint command is created before perception modifies it, and the
    # plant steps last
    assert stages.index("waypoint") < stages.index("obstacle") < stages.index("select")
    assert stages.index("sign") < stages.index("select") < stages.index("control")
    assert stages[-1] == "plant"
    assert calls[len(stages)] == "walk"  # then the pedestrians, before the next tick's waypoint


def test_run_builds_no_pedestrian_or_world_and_keeps_no_world(straight_waypoints, monkeypatch):
    world = WorldModel(pedestrians=(Pedestrian(position=(30.0, 2.0), velocity=(0.0, -1.0)),
                                    Pedestrian(position=(20.0, -3.0), velocity=(0.5, 1.0))))
    sim = Simulation(straight_scenario(straight_waypoints, duration=1.0, world=world))
    built = []

    def counted(cls):
        init = cls.__init__
        return lambda self, *args, **kwargs: built.append(cls) or init(self, *args, **kwargs)

    for cls in (Pedestrian, WorldModel):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    sim.run()
    assert built == []
    assert not hasattr(sim, "world")
    np.testing.assert_allclose(sim.positions, [[30.0, 1.0], [20.5, -2.0]])
    Pedestrian(position=(0.0, 0.0))  # the count sees a pedestrian built
    assert built == [Pedestrian]


def test_a_pedestrian_may_walk_past_the_start_bound(straight_waypoints):
    # starts within 1e8 m and walks 1e8 m further each second: the run neither fails nor overflows
    ped = {"position": [1e8, -1e8], "velocity": [1e8, -1e8]}
    sc = scenario_from_dict({"duration": 2.0, "waypoints": straight_waypoints, "world": {"pedestrians": [ped]}})
    sim = Simulation(sc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rows = sim.run()
    assert len(rows) == 100
    assert sim.positions[0, 0] > 2.9e8 and sim.positions[0, 1] < -2.9e8


def test_side_logs_only_for_given_sinks(straight_waypoints):
    sc = straight_scenario(straight_waypoints, duration=2.0, world=BOX_AND_SIGN)
    _, rows = Simulation(sc).run()

    sign_log, grid_dump = [], []
    _, rows_logged = Simulation(sc, sign_log=sign_log, grid_dump=grid_dump).run()
    assert [r.format() for r in rows_logged] == [r.format() for r in rows]
    sign_ticks = [r.t for r in rows if r.sign_d is not None]
    assert sign_ticks and [float(line.split(",")[0]) for line in sign_log] == sign_ticks
    assert grid_dump and all(len(line.split(",")) == 5 for line in grid_dump)


def test_bench_layers_resolve():
    # the benchmark wraps these entry points by name; a refactor that moves
    # one would silently drop it from the per-layer metrics
    from bench.spans import LAYERS, resolve

    missing = [layer.name for layer in LAYERS if resolve(layer.module, layer.attr) is None]
    assert missing == []


def test_bench_layer_counts_read_results(straight_waypoints, monkeypatch):
    # the tracer records {} when a layer's count cannot read the call's
    # arguments or result, which silently zeroes that per-layer metric
    from bench.spans import LAYERS, Tracer, resolve

    for layer in LAYERS:  # let monkeypatch put back what the tracer replaces
        monkeypatch.setattr(*resolve(layer.module, layer.attr))
    tracer = Tracer()
    tracer.install()
    Simulation(straight_scenario(straight_waypoints, duration=2.0, world=BOX_AND_SIGN)).run()
    counted = [layer.name for layer in LAYERS if layer.count is not None]
    assert {name: len(tracer.counts[name]) > 0 for name in counted} == dict.fromkeys(counted, True)
    assert {name: tracer.counts[name].count({}) for name in counted} == dict.fromkeys(counted, 0)


def test_traced_demo_run_records_both_outlier_filters_on_every_detect(monkeypatch):
    # ROR and SOR share one neighbour table inside detect, yet each is still
    # reached by its name in the signs module, where the benchmark wraps it
    from bench.spans import LAYERS, Tracer, resolve

    layers = [layer for layer in LAYERS if layer.module == "shuttlesim.signs"]
    for layer in layers:
        monkeypatch.setattr(*resolve(layer.module, layer.attr))
    tracer = Tracer()
    tracer.install(layers)
    Simulation(load_scenario(SCENARIO_DIR / "demo.yaml")).run()
    calls = {layer.name: len(tracer.counts[layer.name]) for layer in layers}
    assert calls["signs.detect"] > 0
    assert calls["signs.radius_outlier_removal"] == calls["signs.statistical_outlier_removal"] == calls["signs.detect"]
    assert any(c["points_out"] > 0 for c in tracer.counts["signs.statistical_outlier_removal"])


def test_obstacle_standoff_at_static_wall(straight_waypoints):
    # a wall across the path: the slowdown law walks the cart down to a
    # standoff around the 5 m stop threshold, then it halts
    world = WorldModel(obstacles=(BoxObstacle(center=(25.0, 0.0), size=(0.8, 3.0), height=1.6),))
    sc = straight_scenario(straight_waypoints, duration=30.0, world=world)
    metrics, rows = Simulation(sc).run()
    assert any(e.source == "obstacle" for e in metrics.stop_events)
    assert rows[-1].v < 0.05
    # cart holds well clear of the wall face at x = 24.6
    assert rows[-1].x + 3.2 < 24.6 - 4.0


def test_manual_stop_window(straight_waypoints):
    sc = straight_scenario(
        straight_waypoints, duration=14.0,
        manual_stops=(ManualStop(t=3.0, duration=3.0),),
    )
    metrics, rows = Simulation(sc).run()
    vmin = min(r.v for r in rows if 3.0 <= r.t <= 7.5)
    assert vmin < 0.05
    assert [e.source for e in metrics.stop_events] == ["manual-stop"]
    assert rows[-1].v > 2.0  # resumes after the window


def test_sign_stop_and_resume(straight_waypoints):
    lateral = -2.0
    x_sign = 1.6 + math.sqrt(10.0**2 - lateral**2)
    world = WorldModel(signs=(SignSpec(center=(x_sign, lateral, 2.0), normal=(-1, 0, 0)),))
    sc = straight_scenario(
        straight_waypoints, duration=16.0, seed=5, world=world,
        lidar=LidarConfig(range_jitter=0.01),
    )
    metrics, rows = Simulation(sc).run()
    assert any(e.source == "sign" for e in metrics.stop_events)
    assert rows[-1].v > 2.0
    assert metrics.sign_detection_ticks > 0
    first = next(r for r in rows if r.sign_d is not None)
    assert first.sign_d == pytest.approx(10.0, abs=0.3)
    assert first.sign_n >= 10


def test_sign_stop_trigger_is_latched_distance(straight_waypoints):
    # the stop latches on the first sighting, 15 m out; the sign is last seen
    # a couple of metres before the cart halts
    lateral = -2.0
    x_sign = 1.6 + math.sqrt(15.0**2 - lateral**2)
    world = WorldModel(signs=(SignSpec(center=(x_sign, lateral, 2.0), normal=(-1, 0, 0)),))
    sc = straight_scenario(straight_waypoints, duration=11.0, world=world)
    metrics, rows = Simulation(sc).run()
    stop = next(e for e in metrics.stop_events if e.source == "sign")
    i = next(i for i, r in enumerate(rows) if r.t == stop.t)
    while i > 0 and rows[i - 1].sign_stop_d is not None:
        i -= 1
    assert stop.trigger_distance == rows[i].sign_stop_d == rows[i].sign_d
    assert stop.trigger_distance > 10.0


def test_display_column_tracks_motion(straight_waypoints):
    sc = straight_scenario(straight_waypoints, duration=4.0, start=StartPose(speed=0.0))
    _, rows = Simulation(sc).run()
    assert rows[0].display == "STOPPED"
    assert rows[-1].display == "MOVING"


def test_perception_latency_delays_detection(straight_waypoints):
    lateral = -2.0
    x_sign = 1.6 + math.sqrt(12.0**2 - lateral**2)
    world = WorldModel(signs=(SignSpec(center=(x_sign, lateral, 2.0), normal=(-1, 0, 0)),))
    base = straight_scenario(straight_waypoints, duration=2.0, world=world)
    from dataclasses import replace

    _, rows_now = Simulation(base).run()
    first_now = next(r.t for r in rows_now if r.sign_d is not None)
    # at 45 ticks nine sweeps are taken before the first one is usable
    for latency in (20, 45):
        _, rows_lag = Simulation(replace(base, perception_latency_ticks=latency)).run()
        first_lag = next((r.t for r in rows_lag if r.sign_d is not None), None)
        assert first_lag is not None, f"latency {latency}: perception never fired"
        assert first_lag >= first_now + latency * base.dt - 0.1


@pytest.mark.parametrize("period, latency", [(5, 0), (5, 7), (1, 3), (5, 45)])
def test_each_sweep_is_perceived_exactly_latency_ticks_after_its_scan(
        straight_waypoints, monkeypatch, period, latency):
    import shuttlesim.harness as harness
    from shuttlesim.signs import SignDetector

    follow_step, scan, build_grid, detect = (
        harness.follow_step, harness.scan, harness.build_grid, SignDetector.detect)
    tick = -1  # counted at the loop's first per-tick call, as the benchmark's tick probe does
    frames = []  # (sweep, tick it was scanned at); held so that sweeps stay distinct objects
    grids, detections = [], []  # (tick, scan tick of the sweep handed on)

    def scan_tick(frame):
        return next(t for f, t in frames if f is frame)

    def ticking(*args, **kwargs):
        nonlocal tick
        tick += 1
        return follow_step(*args, **kwargs)

    def scanning(*args, **kwargs):
        frames.append((scan(*args, **kwargs), tick))
        return frames[-1][0]

    def gridding(frame, *args, **kwargs):
        grids.append((tick, scan_tick(frame)))
        return build_grid(frame, *args, **kwargs)

    def detecting(self, frame):
        detections.append((tick, scan_tick(frame)))
        return detect(self, frame)

    for name, fn in (("follow_step", ticking), ("scan", scanning), ("build_grid", gridding)):
        monkeypatch.setattr(harness, name, fn)
    monkeypatch.setattr(SignDetector, "detect", detecting)
    # a sign far down the route, so that every sweep also reaches the detector
    world = WorldModel(signs=(SignSpec(center=(70.0, -2.0, 2.0), normal=(-1.0, 0.0, 0.0)),))
    sc = straight_scenario(straight_waypoints, duration=2.0, lidar_period_ticks=period,
                           perception_latency_ticks=latency, world=world)
    Simulation(sc).run()
    assert tick == 99
    assert [t for _, t in frames] == list(range(0, 100, period))
    expected = [(s + latency, s) for s in range(0, 100 - latency, period)]
    assert grids == expected
    assert detections == expected


@settings(max_examples=15, deadline=None)
@given(world=SMALL_WORLDS.map(lambda w: WorldModel(w.obstacles, w.pedestrians)))
def test_a_sign_free_world_skips_detection_and_logs_what_detecting_every_sweep_logs(straight_waypoints, world):
    from shuttlesim.signs import SignDetector

    sc = straight_scenario(straight_waypoints, duration=2.0, world=world, lidar=LidarConfig(range_jitter=0.01))
    skipping = Simulation(sc)
    assert skipping.detector is None
    detecting = Simulation(sc)
    detecting.detector = SignDetector(sc.sign_filter, (sc.vehicle.lidar_offset_x, 0.0, sc.vehicle.lidar_mount_height))
    assert skipping.run()[1] == detecting.run()[1]


def test_record_circle_trace():
    sc = ScenarioConfig(
        duration=1.0,
        drive_script=(DriveSegment(duration=40.0, speed=2.0, yaw_rate=0.2, blend=2.0),),
    )
    trace = record_trace(sc)
    assert len(trace) > 50
    # steady-state yaw rate matches v/r = 0.2
    mid = slice(len(trace) // 2, -5)
    assert np.median(trace.omega[mid]) == pytest.approx(0.2, abs=0.02)
    assert np.median(trace.v[mid]) == pytest.approx(2.0, abs=0.05)


def test_record_requires_script():
    with pytest.raises(ValueError):
        record_trace(ScenarioConfig(duration=1.0))


def test_headon_closing_speed_measured_not_asserted(straight_waypoints):
    # oncoming traffic straight down the corridor: report the highest closing
    # speed the stack still stops for with margin. Informational; no fixed
    # threshold is asserted beyond walking pace being safe.
    results = {}
    for oncoming in (1.0, 2.0, 3.0, 4.0):
        world = WorldModel(
            pedestrians=(Pedestrian(position=(38.0, 0.0), velocity=(-oncoming, 0.0)),)
        )
        sc = straight_scenario(straight_waypoints, duration=12.0, world=world)
        _, rows = Simulation(sc).run()
        # margin left when the cart reaches standstill; afterwards the walker
        # closing on a parked cart is not the cart's doing
        moving = [r for r in rows if r.v >= 0.05]
        gap_while_moving = min(
            math.hypot(38.0 - oncoming * r.t - (r.x + 3.2 * math.cos(r.heading)), r.y)
            for r in moving
        ) - 0.3
        stopped = any(r.v < 0.05 for r in rows)
        results[oncoming] = (stopped, gap_while_moving)
    print("\nhead-on stopping margins:", {
        k: f"stopped={s}, gap at standstill {g:.2f} m" for k, (s, g) in results.items()
    })
    assert results[1.0][0] and results[1.0][1] > 0.5


def test_figure8_trace_compiles_with_curvature_limits():
    circle_t = 2 * math.pi * 10.0 / 2.5
    sc = ScenarioConfig(
        duration=1.0,
        drive_script=(
            DriveSegment(duration=4.0, speed=2.5, yaw_rate=0.0, blend=1.0),
            DriveSegment(duration=circle_t, speed=2.5, yaw_rate=0.25, blend=1.5),
            DriveSegment(duration=circle_t, speed=2.5, yaw_rate=-0.25, blend=1.5),
        ),
    )
    trace = record_trace(sc)
    route = compile_path(trace, 3.0)
    limited = route.speed < 3.0 - 1e-9
    # two lobes of curvature-limited waypoints separated by faster sections
    runs = np.flatnonzero(np.diff(limited.astype(int)) == 1)
    assert len(runs) >= 2
    assert route.speed.min() > 2.0  # r = 10 m allows sqrt(5) = 2.24 m/s


# sha256 of the log of a 60 s drive of the figure-8 scenarios/figure8_record.yaml records, compiled at 3 m/s and
# passed through the files `shuttlesim record`, `compile-path` and `run` write; recorded with the versions CI
# pins. The shipped demo's route is straight; this one curves and crosses itself, where the CTE search is global.
FIG8_LOG_SHA256 = "d5a114c72e7b612fa5756fd538714ad24daa4803d366a293852a8903617ef9ff"


def drive_compiled_figure8(tmp_path):
    """Record, compile and drive the figure 8 in an empty world; its metrics and its log's sha256."""
    save_trace(record_trace(load_scenario(SCENARIO_DIR / "figure8_record.yaml")), tmp_path / "fig8.trace")
    save_waypoints(compile_path(load_trace(tmp_path / "fig8.trace"), 3.0), tmp_path / "fig8.waypoints")
    metrics, rows = Simulation(ScenarioConfig(duration=60.0, waypoints=tmp_path / "fig8.waypoints")).run()
    write_log(rows, tmp_path / "fig8.csv")
    return metrics, hashlib.sha256((tmp_path / "fig8.csv").read_bytes()).hexdigest()


def test_compiled_figure8_drive_writes_its_recorded_log(tmp_path):
    metrics, digest = drive_compiled_figure8(tmp_path)
    assert (metrics.ticks, round(metrics.peak_cte, 2)) == (3000, 0.17)
    assert digest == FIG8_LOG_SHA256


def test_an_empty_sign_free_world_runs_no_obstacle_sign_or_pedestrian_stage(tmp_path, monkeypatch):
    import shuttlesim.harness as harness
    from shuttlesim.signs import SignStopLogic

    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs))

    for owner, name in ((harness, "build_grid"), (harness, "corridor_from_steering"), (harness, "modify_speed"),
                        (SignStopLogic, "update"), (harness, "step_pedestrians")):
        counted(owner, name)
    _, digest = drive_compiled_figure8(tmp_path)
    # every sweep is perceived into a height map with no occupied cell, which caps nothing
    assert set(calls) == {"build_grid"} and len(calls) == 3000 // ScenarioConfig().lidar_period_ticks
    assert digest == FIG8_LOG_SHA256


def test_modify_speed_still_runs_every_perceived_tick_of_a_crossing(straight_waypoints, monkeypatch):
    import shuttlesim.harness as harness
    from shuttlesim import obstacles

    calls = {"modify_speed": 0, "corridor_membership": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "modify_speed")
    counted(obstacles, "corridor_membership")
    world = WorldModel(pedestrians=(Pedestrian(position=(16.0, 3.0), velocity=(0.0, -1.4)),))
    sc = straight_scenario(straight_waypoints, duration=5.0, world=world, perception_latency_ticks=2,
                           lidar=LidarConfig(range_jitter=0.01))
    _, rows = Simulation(sc).run()
    assert any(r.source is Source.OBSTACLE for r in rows)  # the crossing slows the cart
    # once a tick from the first perceived sweep on, since every sweep's height map holds the
    # pedestrian (a tick whose map has no occupied cell skips it), while the grid's table answers
    # the calls after the first of each sweep, since the cart drives straight
    assert calls["modify_speed"] == len(rows) - sc.perception_latency_ticks
    assert 0 < calls["corridor_membership"] <= math.ceil(calls["modify_speed"] / sc.lidar_period_ticks)

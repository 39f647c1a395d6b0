import contextlib
import ctypes
import hashlib
import inspect
import io
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from shuttlesim import cli
from shuttlesim.cli import main
from shuttlesim.harness import Simulation
from shuttlesim.scenario import load_scenario
from shuttlesim.waypoints import compile_path, load_trace, load_waypoints
from tests.conftest import REPO_ROOT, SCENARIO_DIR


def write_scenario(tmp_path, straight_waypoints, extra=""):
    text = (
        f"name: cli-test\nduration: 4.0\nseed: 3\n"
        f"waypoints: {straight_waypoints}\n"
        "start: {x: 0.0, y: 0.0, heading: 0.0, speed: 3.0}\n" + extra
    )
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


def test_run_writes_log_and_metrics(tmp_path, straight_waypoints, capsys):
    scenario = write_scenario(tmp_path, straight_waypoints)
    log = tmp_path / "run.log"
    metrics = tmp_path / "metrics.yaml"
    rc = main(["run", str(scenario), "--log", str(log), "--metrics", str(metrics)])
    assert rc == 0
    assert log.read_text().startswith("t,x,y,heading")
    data = yaml.safe_load(metrics.read_text())
    assert data["ticks"] == 200
    assert data["peak_cte"] < 0.1


def test_run_seed_override_deterministic(tmp_path, straight_waypoints):
    scenario = write_scenario(
        tmp_path, straight_waypoints,
        extra="world: {signs: [{center: [14.0, -2.0, 2.0], normal: [-1.0, 0.0, 0.0]}]}\n"
              "lidar: {range_jitter: 0.02}\n",
    )
    a, b, c = tmp_path / "a.log", tmp_path / "b.log", tmp_path / "c.log"
    assert main(["run", str(scenario), "--seed", "9", "--log", str(a)]) == 0
    assert main(["run", str(scenario), "--seed", "9", "--log", str(b)]) == 0
    assert main(["run", str(scenario), "--seed", "10", "--log", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_replay_matches_run_metrics(tmp_path, straight_waypoints):
    scenario = write_scenario(tmp_path, straight_waypoints)
    log = tmp_path / "run.log"
    m1 = tmp_path / "m1.yaml"
    m2 = tmp_path / "m2.yaml"
    assert main(["run", str(scenario), "--log", str(log), "--metrics", str(m1)]) == 0
    assert main(["replay", str(log), "--metrics", str(m2)]) == 0
    assert yaml.safe_load(m1.read_text()) == yaml.safe_load(m2.read_text())


def test_record_and_compile_path(tmp_path):
    trace = tmp_path / "fig8.trace"
    rc = main(["record", str(SCENARIO_DIR / "figure8_record.yaml"), "--out", str(trace)])
    assert rc == 0
    assert trace.exists()
    out = tmp_path / "fig8_3mps.waypoints"
    rc = main(["compile-path", str(trace), "--speed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) > 100
    speeds = [float(l.split(",")[2]) for l in lines]
    assert max(speeds) <= 3.0
    assert min(speeds) > 2.0


def test_compile_path_default_name_embeds_speed(tmp_path):
    trace = tmp_path / "loop.trace"
    main(["record", str(SCENARIO_DIR / "figure8_record.yaml"), "--out", str(trace)])
    rc = main(["compile-path", str(trace), "--speed", "1.5"])
    assert rc == 0
    assert (tmp_path / "loop_1.5mps.waypoints").exists()


def test_sign_and_grid_side_logs(tmp_path, straight_waypoints):
    scenario = write_scenario(
        tmp_path, straight_waypoints,
        extra=(
            "world:\n"
            "  signs: [{center: [14.0, -2.0, 2.0], normal: [-1.0, 0.0, 0.0]}]\n"
            "  obstacles: [{center: [10.0, 0.0], size: [0.6, 0.6], height: 1.5}]\n"
        ),
    )
    sign_log = tmp_path / "signs.csv"
    grid_dump = tmp_path / "grid.csv"
    rc = main([
        "run", str(scenario), "--sign-log", str(sign_log), "--grid-dump", str(grid_dump),
    ])
    assert rc == 0
    sign_lines = sign_log.read_text().splitlines()
    grid_lines = grid_dump.read_text().splitlines()
    assert sign_lines[0] == "t,d,n,a,b,c" and len(sign_lines) > 1
    assert grid_lines[0] == "t,x,y,min_z,max_z" and len(grid_lines) > 1


def test_invalid_scenario_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration: [broken\n")
    rc = main(["run", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_waypoint_file_exit_code(tmp_path, capsys):
    (tmp_path / "p.waypoints").write_text("garbage line\n")
    scenario = tmp_path / "s.yaml"
    scenario.write_text("duration: 1.0\nwaypoints: p.waypoints\n")
    rc = main(["run", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "p.waypoints:1" in err


def test_record_without_script_fails(tmp_path, straight_waypoints, capsys):
    scenario = write_scenario(tmp_path, straight_waypoints)
    rc = main(["record", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {scenario}: drive_script: record requires a non-empty drive_script\n"


def test_record_too_short_script_names_file(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("drive_script: [{duration: 1.0, speed: 0.0}]\n")
    assert main(["record", str(scenario)]) == 1
    assert capsys.readouterr().err == f"error: {scenario}: drive_script: too short to record a path\n"


def test_compile_path_rejects_non_finite_trace(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,30.00001,-96.0,nan,0.0\n")
    assert main(["compile-path", str(trace), "--speed", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {trace}:3: v: non-finite value 'nan'\n"
    assert not list(tmp_path.glob("*.waypoints"))


@pytest.mark.parametrize("lat_b, message", [
    ("30.0", "trace has zero length"),
    ("30.000000000000004", "a route needs at least two waypoints, got 1"),  # 4e-15 deg apart
])
def test_compile_path_error_names_trace(tmp_path, capsys, lat_b, message):
    trace = tmp_path / "short.trace"
    trace.write_text(f"t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,{lat_b},-96.0,1.0,0.0\n")
    assert main(["compile-path", str(trace), "--speed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {trace}: {message}\n"
    assert not list(tmp_path.glob("*.waypoints"))


def test_compile_path_rejects_samples_far_apart_naming_the_line(tmp_path, capsys):
    # one latitude set to 0 asked compile_path for a 6800 km route of 6.8 million waypoints
    trace = tmp_path / "far.trace"
    trace.write_text("t,lat,lon,v,omega\n0.0,30.615,-96.34,1.0,0.0\n1.0,0.0,-96.34,1.0,0.0\n2.0,30.615,-96.34,1.0,0.0\n")
    assert main(["compile-path", str(trace), "--speed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {trace}:3: sample is 3.41e+06 m from the one before, more than 100 m\n"
    assert not list(tmp_path.glob("*.waypoints"))


@pytest.mark.parametrize("samples, message", [
    (["0.0,30.0,-96.0,1.0,0.0"], "trace needs at least two samples"),
    (["0.0,30.0,-96.0,1.0,0.0"] * 2 + ["1.0,30.0001,-96.0,1.0,0.0"], "trace timestamps must be strictly increasing"),
])
def test_compile_path_error_names_trace_that_is_not_a_drive(tmp_path, capsys, samples, message):
    trace = tmp_path / "bad.trace"
    trace.write_text("\n".join(["t,lat,lon,v,omega", *samples]) + "\n")
    assert main(["compile-path", str(trace), "--speed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {trace}: {message}\n"


@pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf"])
def test_compile_path_rejects_bad_speed_naming_the_flag(tmp_path, capsys, speed):
    trace = tmp_path / "ok.trace"
    trace.write_text("t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,30.0001,-96.0,1.0,0.0\n")
    assert main(["compile-path", str(trace), "--speed", speed]) == 1
    assert capsys.readouterr().err == (f"error: --speed: non-finite value '{speed}'\n" if speed in ("nan", "inf") else
                                       f"error: --speed: must be a positive finite number, got {float(speed)}\n")
    assert not list(tmp_path.glob("*.waypoints"))


def test_run_rejects_a_negative_seed_naming_the_flag(tmp_path, straight_waypoints, capsys):
    scenario = write_scenario(tmp_path, straight_waypoints)
    log = tmp_path / "run.log"
    assert main(["run", str(scenario), "--seed", "-1", "--log", str(log)]) == 1
    assert capsys.readouterr().err == "error: --seed: seed must be >= 0, got -1\n"
    assert not log.exists()


BAD_SCENARIOS = [
    # (scenario text, the key path and message the error must show)
    ("duration: [broken", "invalid YAML (line 2)"),
    ("name: \x01", "invalid YAML: unacceptable character"),
    ("world: {obstacles: [5]}", "world.obstacles[0]: expected a mapping"),
    ("duration: .inf", "duration: could not convert string to float: '.inf'"),  # YAML 1.1's infinity
    ("grid: {cell_size: 1e-3}", "grid: cell_size 0.001 must be in"),
    ("seed: abc", "seed: could not convert string to float: 'abc'"),
    ("seed: -1", "seed must be >= 0"),
    ("manual_stops: {t: 1}", "manual_stops: expected a list"),
    ("lidar_period_ticks: 1.5", "lidar_period_ticks: expected int"),
    ("perception_latency_ticks: -3", "perception_latency_ticks must be within [0, 100], got -3"),
    ("perception_latency_ticks: 1000000000", "perception_latency_ticks must be within [0, 100], got 1000000000"),
    ("sign_stop: {latch_distance: 0}", "sign_stop: latch_distance must be positive"),
    ("sign_stop: {dwell: -1}", "sign_stop: dwell must be >= 0"),
    ("sign_stop: {clear_ticks: 0}", "sign_stop: clear_ticks must be >= 1"),
    ("follower: {kp: 0}", "follower: kp must be positive"),
    ("follower: {switch_radius: 0}", "follower: switch_radius must be positive"),
    ("follower: {accel_limit: -1}", "follower: accel_limit must be positive"),
    ("follower: {decel_limit: 0}", "follower: decel_limit must be positive"),
    ("vehicle: {max_steer: 3.0}", "vehicle: max_steer must be within (0, pi/2), got 3.0"),
    ("lidar: {range_jitter: -0.01}", "lidar: range_jitter must be >= 0"),
    ("world: {signs: [{center: [9, -2, 2], normal: [-1, 0, 0], width: .nan}]}",
     "world.signs[0].width: could not convert string to float: '.nan'"),
    ("waypoints: [a.waypoints]", "waypoints: expected str"),
    ("duration: 1.0", "waypoints: run requires a waypoints file"),
    ("waypoints: one.waypoints", "one.waypoints: a route needs at least two waypoints, got 1"),
    ("waypoints: nothere.waypoints", "nothere.waypoints: No such file or directory"),
    ("duration: 1e300", "duration: 1e+300 s at 50 Hz is more than 4320000 ticks"),
    ("drive_script: [{duration: 9e4, speed: 1}]", "drive_script: 90000 s at 50 Hz is more than"),
    # rounds to no tick, so the run would write no log row
    ("duration: 0.01", "duration: 0.01 s at 50 Hz is less than one tick"),
    ("origin: [95.0, -96.34]", "origin[0] must be within [-90, 90], got 95.0"),
    ("origin: [30.615, -181]", "origin[1] must be within [-180, 180], got -181.0"),
    ("start: {speed: -1}", "start: speed must be >= 0, got -1.0"),
    # unless rejected at load, each of these runs a broken cart or ends in a traceback
    ("gains: {throttle_filter_tau: -0.02}", "gains: throttle_filter_tau must be >= 0, got -0.02"),
    ("gains: {accel_filter_tau: -0.02}", "gains: accel_filter_tau must be >= 0, got -0.02"),
    ("gains: {v_floor: 0}", "gains: v_floor must be positive, got 0.0"),
    ("sign_filter: {ransac_seed: -1}", "sign_filter: ransac_seed must be >= 0, got -1"),
    ("lidar: {background_intensity: 300}", "lidar: background_intensity must be within [0, 255], got 300.0"),
    ("lidar: {background_intensity: 85}",
     "lidar: background_intensity must be below sign_filter.min_intensity (85.0), got 85.0"),
    ("vehicle: {panic_brake_pedal: 0}", "vehicle: panic_brake_pedal must be within (0, 1], got 0.0"),
    ("grid: {roof_height: -1}", "grid: roof_height must be positive, got -1.0"),
    # a corridor longer than the height map would never see the obstacles past the map's edge
    ("corridor: {length: 30}", "grid: extent must cover the corridor's reach (34.35), got 20.0"),
    ("grid: {extent: 19.3}", "grid: extent must cover the corridor's reach (19.35), got 19.3"),
    ("manual_stops: [{t: 0.1, duration: -5}]", "manual_stops[0]: duration must be positive, got -5.0"),
    # finite but huge: unless rejected at load, each overflows in lidar.scan
    ("start: {x: 1e300}", "start: x must be within [-1e8, 1e8], got 1e+300"),
    ("start: {y: -1e300}", "start: y must be within [-1e8, 1e8], got -1e+300"),
    ("world: {obstacles: [{center: [40, 4], size: [1e300, 1], height: 1.5}]}",
     "world.obstacles[0]: size[0] must be within [-1e8, 1e8], got 1e+300"),
    ("world: {pedestrians: [{position: [-1e300, 6]}]}", "world.pedestrians[0]: position[0] must be within [-1e8, 1e8], got -1e+300"),
    ("world: {pedestrians: [{position: [30, 6], velocity: [0.3, 1e300]}]}",
     "world.pedestrians[0]: velocity[1] must be within [-1e8, 1e8], got 1e+300"),
    ("world: {pedestrians: [{position: [30, 6], height: 1e300}]}",
     "world.pedestrians[0]: height must be within [-1e8, 1e8], got 1e+300"),
    ("world: {pedestrians: [{position: [30, 6], radius: 1e300}]}",
     "world.pedestrians[0]: radius must be within [-1e8, 1e8], got 1e+300"),
    ("lidar: {range_jitter: 1e300}", "lidar: range_jitter must be within [-1e8, 1e8], got 1e+300"),
    ("vehicle: {max_steer: 1.5, steering_ratio: 1.7e308}",
     "vehicle: steering_ratio must be within [-1e8, 1e8], got 1.7e+308"),
    # a normal that normalises to (0, 0, 0) crashes the sweep; one with a subnormal length comes out longer than 1
    ("world: {signs: [{center: [9, -2, 2], normal: [-1.7e308, -1.7e308, 0.0]}]}",
     "world.signs[0]: normal[0] must be within [-1e8, 1e8], got -1.7e+308"),
    ("world: {signs: [{center: [9, -2, 2], normal: [5e-324, 5e-324, 0.0]}]}",
     "world.signs[0]: normal must be at least 2.2250738585072014e-308 long, got 5e-324"),
    ("grid: {min_cell_points: 2.5}", "grid.min_cell_points: expected int, got '2.5'"),
    # an explicit tag would read 0x1F as 31 past bounds.number
    ("seed: !!int 0x1F", "invalid YAML (line 1): could not determine a constructor for the tag 'tag:yaml.org,2002:int'"),
    # PyYAML keeps the last of two equal keys; a sign given width twice loaded the second
    ("waypoints: nothere.waypoints\nwaypoints: one.waypoints", "invalid YAML (line 2): duplicate key 'waypoints'"),
    ("world: {signs: [{center: [9, -2, 2], normal: [-1, 0, 0], width: 0.75, width: 5}]}",
     "invalid YAML (line 1): duplicate key 'width'"),
]


@pytest.mark.parametrize("text, key", BAD_SCENARIOS)
def test_bad_scenario_one_line_error(tmp_path, capsys, text, key):
    (tmp_path / "one.waypoints").write_text("30.615,-96.34,3.0\n")
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    assert main(["run", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert err.count("\n") == 1
    assert err.startswith(f"error: {bad}: ") and key in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("args", [
    ["run", "nothere.yaml"], ["record", "nothere.yaml"], ["replay", "nothere.log"],
    ["compile-path", "nothere.trace", "--speed", "3"],
])
def test_missing_input_file_one_line_error_names_it(tmp_path, capsys, args):
    missing = tmp_path / args[1]
    assert main([args[0], str(missing), *args[2:]]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {missing}: No such file or directory\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["run", "compile-path"])
def test_a_respelled_waypoint_or_stray_trace_row_is_a_one_line_error_at_its_line(tmp_path, capsys, command):
    (tmp_path / "s.yaml").write_text("duration: 1.0\nwaypoints: p.waypoints\n")
    (tmp_path / "p.waypoints").write_text("30.615,-96.34,3.0\n30.6_15,-96.34,3.0\n30.6151,-96.34,3.0\n")
    (tmp_path / "t.trace").write_text("t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\nt,1,2,3,4\n"
                                      "1.0,30.0001,-96.0,1.0,0.0\n")
    args = ["run", str(tmp_path / "s.yaml")] if command == "run" else ["compile-path", str(tmp_path / "t.trace"),
                                                                        "--speed", "3"]
    assert main(args) == 1
    out, err = capsys.readouterr()
    named = (f"{tmp_path / 's.yaml'}: waypoints: {(tmp_path / 'p.waypoints').resolve()}:2: lat: '30.6_15' is not"
             " a plain ASCII number" if command == "run" else
             f"{tmp_path / 't.trace'}:3: t: could not convert string to float: 't'")
    assert (out, err) == ("", f"error: {named}\n")
    assert not list(tmp_path.glob("*mps.waypoints"))


# (a number's spelling, the value it reads as, or None where every reader must reject it)
SPELLINGS = [
    ("1_0", None), ("\u0663", None), ("1e400", None), ("nan", None), (".inf", None), ("0x1F", None), ("1:30", None),
    (" 3 ", 3), ("3e0", 3), ("017", 17), ("12345678901234567890", 12345678901234567890),
]


@pytest.mark.parametrize("spelling, value", SPELLINGS)
def test_every_reader_gives_a_number_spelling_the_same_verdict(tmp_path, capsys, monkeypatch, spelling, value):
    """Scenario keys, a waypoint row, a trace row and the flags each read the spelling as ``value``, or each reject
    it in one error that names the file and the line or key, or the flag."""
    files = {
        "seed.yaml": "seed: {}\n",
        "heading.yaml": "start: {{heading: {}}}\n",
        "p.waypoints": "30.615,-96.34,3.0\n30.6151,-96.34,{}\n",
        "t.trace": "t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,30.0001,-96.0,1.0,{}\n",
    }
    for name, text in files.items():  # YAML strips a plain scalar's blanks, so quote a spelling that has them
        quoted = name.endswith(".yaml") and spelling != spelling.strip()
        (tmp_path / name).write_text(text.format(repr(spelling) if quoted else spelling), encoding="utf-8")
    (tmp_path / "ok.trace").write_text(files["t.trace"].format("0.0"))
    (tmp_path / "ok.yaml").write_text(f"duration: 0.1\nwaypoints: {(tmp_path / 'ok.waypoints').resolve()}\n")
    (tmp_path / "ok.waypoints").write_text("30.615,-96.34,3.0\n30.6151,-96.34,3.0\n")
    given = []  # the seed each run and the speed each compile-path was given
    monkeypatch.setattr(cli, "Simulation", lambda sc, *sinks: given.append(sc.seed) or Simulation(sc, *sinks))
    monkeypatch.setattr(cli, "compile_path", lambda trace, speed: given.append(speed) or compile_path(trace, speed))

    def read(load, name, named):
        """``load(path)`` of file ``name``, or None where it raises a ValueError whose message starts ``named``."""
        try:
            return load(tmp_path / name)
        except ValueError as exc:
            assert str(exc).startswith(f"{tmp_path / name}{named}"), exc
            return None

    def flag(name, *args):
        given.clear()
        rc = main([*args, name, spelling])
        err = capsys.readouterr().err
        assert rc == 0 and err == "" or rc == 1 and err.count("\n") == 1 and err.startswith(f"error: {name}: "), err
        return given[0] if rc == 0 else None

    ints = {
        "seed": read(lambda path: load_scenario(path).seed, "seed.yaml", ": seed: "),
        "--seed": flag("--seed", "run", str(tmp_path / "ok.yaml")),
    }
    floats = {
        "start.heading": read(lambda path: load_scenario(path).start.heading, "heading.yaml", ": start.heading: "),
        "waypoint row": read(lambda path: load_waypoints(path).speed[1], "p.waypoints", ":2: "),
        "trace row": read(lambda path: load_trace(path).omega[1], "t.trace", ":3: "),
        "--speed": flag("--speed", "compile-path", str(tmp_path / "ok.trace"), "--out", str(tmp_path / "o.waypoints")),
    }
    assert ints == dict.fromkeys(ints, value) and all(type(v) is int for v in ints.values() if v is not None)
    assert floats == dict.fromkeys(floats, None if value is None else float(value))


@pytest.mark.parametrize("command, bad_file", [
    ("run", "s.yaml"), ("run", "p.waypoints"), ("compile-path", "t.trace"), ("replay", "r.log"),
])
def test_non_utf8_input_one_line_error_names_file(tmp_path, capsys, command, bad_file):
    files = {
        "s.yaml": "duration: 1.0\nwaypoints: p.waypoints\n",
        "p.waypoints": "30.615,-96.34,3.0\n30.6151,-96.34,3.0\n",
        "t.trace": "t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,30.0001,-96.0,1.0,0.0\n",
        "r.log": "",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode() + (b"# \xff\n" if name == bad_file else b""))
    given = {"run": "s.yaml", "compile-path": "t.trace", "replay": "r.log"}[command]
    args = [command, str(tmp_path / given)] + (["--speed", "3"] if command == "compile-path" else [])
    assert main(args) == 1
    out, err = capsys.readouterr()
    named = str(tmp_path / bad_file)
    if bad_file == "p.waypoints":  # read through the scenario that names it
        named = f"{tmp_path / 's.yaml'}: waypoints: {(tmp_path / bad_file).resolve()}"
    assert err.count("\n") == 1
    assert err.startswith(f"error: {named}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in out + err


def test_yaml_exponent_strings_load_as_numbers(tmp_path, straight_waypoints):
    # YAML 1.1 would read 3e0 as a string; the loader leaves every scalar one, for bounds.number to read
    scenario = write_scenario(tmp_path, straight_waypoints, extra="gains: {kp_speed: 3e0}\n")
    assert main(["run", str(scenario)]) == 0


def refuse_to_work(*args, **kwargs):
    raise AssertionError("the work started before the outputs were checked")


@pytest.mark.parametrize("command, flag, bad, reason", [
    ("run", "--log", "o", "Is a directory"), ("run", "--metrics", "o", "Is a directory"),
    ("run", "--sign-log", "o", "Is a directory"), ("run", "--grid-dump", "o", "Is a directory"),
    ("record", "--out", "o", "Is a directory"), ("compile-path", "--out", "o", "Is a directory"),
    ("run", "--log", "nothere/run.log", "No such file or directory"),
])
def test_unusable_output_fails_before_the_work_and_leaves_no_file(
        tmp_path, capsys, monkeypatch, straight_waypoints, command, flag, bad, reason):
    monkeypatch.setattr(Simulation, "run", refuse_to_work)
    monkeypatch.setattr(cli, "record_trace", refuse_to_work)
    monkeypatch.setattr(cli, "compile_path", refuse_to_work)
    trace = tmp_path / "t.trace"
    trace.write_text("t,lat,lon,v,omega\n0.0,30.0,-96.0,1.0,0.0\n1.0,30.0001,-96.0,1.0,0.0\n")
    args = {"run": ["run", str(write_scenario(tmp_path, straight_waypoints))],
            "record": ["record", str(SCENARIO_DIR / "figure8_record.yaml")],
            "compile-path": ["compile-path", str(trace), "--speed", "3"]}[command]
    (tmp_path / "o").mkdir()
    before = sorted(tmp_path.rglob("*"))
    for f in ["--log", "--metrics", "--sign-log", "--grid-dump"] if command == "run" else ["--out"]:
        args += [f, str(tmp_path / (bad if f == flag else f"{f[2:]}.out"))]  # the others can be written
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / bad}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with one of: a line dropped or duplicated, a cut, a flipped bit, bytes that are not UTF-8, or a number replaced."""
    kind = draw(st.sampled_from(["drop", "duplicate", "truncate", "flip", "not utf-8", "number"]))
    lines = data.split(b"\n")
    if kind in ("drop", "duplicate"):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k:k + 1] = [] if kind == "drop" else [lines[k]] * 2
        return b"\n".join(lines)
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
    if kind == "not utf-8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xfe\xfe"])) + data[at:]
    number = draw(st.sampled_from(list(NUMBER.finditer(data))))
    value = draw(st.sampled_from([b"1e300", b"-1e300", b"0", b"nan"]))
    return data[:number.start()] + value + data[number.end():]


@pytest.fixture(scope="module")
def shipped_inputs(tmp_path_factory):
    """{file name: bytes} of demo.yaml cut to 0.2 s, its route and its log, and a recorded figure8_record trace."""
    folder = tmp_path_factory.mktemp("shipped")
    # a flipped digit can make the cut demo at most 0.9 s long
    (folder / "demo.yaml").write_bytes((SCENARIO_DIR / "demo.yaml").read_bytes().replace(b"duration: 40.0", b"duration: .2"))
    (folder / "straight_3mps.waypoints").write_bytes((SCENARIO_DIR / "straight_3mps.waypoints").read_bytes())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(folder / "demo.yaml"), "--log", str(folder / "demo.log")]) == 0
        assert main(["record", str(SCENARIO_DIR / "figure8_record.yaml"), "--out", str(folder / "figure8.trace")]) == 0
    return {path.name: path.read_bytes() for path in folder.iterdir()}


# the command line that reads each file; the route is read through the scenario, which names it
READERS = {"demo.yaml": ["run", "demo.yaml"], "straight_3mps.waypoints": ["run", "demo.yaml"],
           "demo.log": ["replay", "demo.log"], "figure8.trace": ["compile-path", "figure8.trace", "--speed", "3"]}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(READERS)), data=st.data())
def test_cli_on_a_mutated_input_exits_cleanly_or_names_the_file(shipped_inputs, name, data):
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        for file, text in shipped_inputs.items():
            (folder / file).write_bytes(data.draw(mutated(text)) if file == name else text)
        verb, given_file, *options = READERS[name]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([verb, str(folder / given_file), *options])
        err = err.getvalue()
        named = f"error: {folder / given_file}" + (f": waypoints: {(folder / name).resolve()}" if given_file != name else "")
        named += ":"  # then the line number or the message
        assert rc == 0 and err == "" or rc == 1 and err.count("\n") == 1 and err.startswith(named), err


@pytest.mark.parametrize("column, value, message", [
    ("display", "BANANA", "display 'BANANA' is not one of MOVING, STOPPED"),
    ("display", "", "display '' is not one of MOVING, STOPPED"),
    ("sign_n", "-5", "sign_n must be >= 0, got -5"),
    ("v", "-0.5", "v must be >= 0, got -0.5"),
    ("cte", "-3.0", "cte must be >= 0, got -3.0"),
    ("t", "-7.0", "t must be >= 0, got -7.0"),
    ("t", "0.06", "t 0.06 does not rise past the previous row's 0.06"),  # the previous row's time
    # the harness clamps both pedals to [0, 1], never presses both, and logs only non-negative distances
    ("throttle", "-1.0", "throttle must be within [0, 1], got -1.0"),
    ("throttle", "1.5", "throttle must be within [0, 1], got 1.5"),
    ("brake", "7.0", "brake must be within [0, 1], got 7.0"),
    ("brake", "-0.25", "brake must be within [0, 1], got -0.25"),
    ("brake", "0.5", "throttle 0.12681941427917184 and brake 0.5 are both on"),  # the row's own throttle
    ("obstacle_d", "-2.0", "obstacle_d must be >= 0, got -2.0"),
    ("sign_d", "-1.5", "sign_d must be >= 0, got -1.5"),
    ("sign_stop_d", "-0.5", "sign_stop_d must be >= 0, got -0.5"),
    # a detection has both a distance and a point count; a stop's winner has the distance it triggered at
    ("sign_n", "5", "sign_n 5 with a blank sign_d"),
    ("sign_d", "21.27", "sign_n 0 with sign_d 21.27"),
    ("source", "1", "source obstacle with a blank obstacle_d"),
    ("source", "2", "source sign with a blank sign_stop_d"),
    # each reads as the value the harness wrote, in a spelling it never writes
    ("t", "0.080", "t '0.080' is not how the harness writes '0.08'"),
    ("sign_n", "+0", "sign_n '+0' is not how the harness writes '0'"),
    ("source", "0e0", "source '0e0' is not how the harness writes '0'"),
    # no input reads a number spelled with "_"
    ("source", "0_0", "source: '0_0' is not a plain ASCII number"),
    ("x", "", "x: could not convert string to float: ''"),
    # a whole line that starts as the header does but is not the header
    (None, "t,not,a,row", "log row has 4 fields, expected 16"),
])
def test_replay_rejects_a_row_the_harness_never_writes(shipped_inputs, tmp_path, capsys, column, value, message):
    lines = shipped_inputs["demo.log"].decode().splitlines()
    fields = lines[5].split(",")  # line 6, the fifth row, at t = 0.08
    if column is None:
        fields = [value]
    else:
        fields[lines[0].split(",").index(column)] = value
    lines[5] = ",".join(fields)
    log, metrics = tmp_path / "demo.log", tmp_path / "metrics.yaml"
    log.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(log), "--metrics", str(metrics)]) == 1
    assert capsys.readouterr().err == f"error: {log}:6: {message}\n"
    assert not metrics.exists()


def test_replay_accepts_the_extremes_the_harness_can_write(shipped_inputs, tmp_path):
    lines = shipped_inputs["demo.log"].decode().splitlines()
    header = lines[0].split(",")
    for k, (throttle, brake, distance, points) in enumerate(
            [("1.0", "0.0", "0.0", "1"), ("0.0", "1.0", "-0.0", "1"), ("0.0", "0.0", "", "0")], start=5):
        fields = lines[k].split(",")
        for column, value in (("throttle", throttle), ("brake", brake), ("obstacle_d", distance),
                              ("sign_d", distance), ("sign_n", points), ("sign_stop_d", distance)):
            fields[header.index(column)] = value
        lines[k] = ",".join(fields)
    log = tmp_path / "demo.log"
    log.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["replay", str(log)]) == 0


# sha256 of the shipped scenes' outputs, recorded with Python 3.11, numpy 2.4.6, scipy 1.17.1 and
# PyYAML 6.0.3 (the versions CI pins); numpy does not promise the same Generator draws across releases
SHIPPED_DIGESTS = {
    "demo.yaml": {
        "log": "84b5bad695abf6564e4196cd1555e14ad7f0ab374a4b921f7b09080524d54538",
        "sign-log": "be7956d3a50d4b46f9009f443cc64d7bcd3f3339ce8d63fa826b004a4b3efd05",
        "grid-dump": "e62baee4bc7ad4d387e8b1ed5a5b7649683d233cab09810c045fb7b67143145a",
    },
    # the sign log is not pinned: its plane components depend on the CPU's BLAS kernel
    "signs.yaml": {
        "log": "b62f0f75598abb5c4b5f4e73b1d5400f6e6bbdc0fce6d7d4756b95fc9b3f5c1c",
        "grid-dump": "98f39311713d7840ce6720f88c02fd44711beb355f4f5b1e3289feb30312ee69",
    },
}


def shipped_run(name, folder, flags):
    """The ``run`` arguments that write scene ``name``'s ``flags`` outputs into ``folder``, and their paths by flag."""
    outputs = {flag: folder / f"{Path(name).stem}.{flag}.csv" for flag in flags}
    options = [arg for flag, path in outputs.items() for arg in (f"--{flag}", str(path))]
    return ["run", str(SCENARIO_DIR / name), *options], outputs


def digests(outputs):
    return {flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in outputs.items()}


@pytest.mark.parametrize("name", SHIPPED_DIGESTS, ids=["demo", "signs"])
def test_shipped_demo_writes_its_recorded_bytes(tmp_path, capsys, name):
    argv, outputs = shipped_run(name, tmp_path, SHIPPED_DIGESTS[name])
    assert main(argv) == 0
    assert digests(outputs) == SHIPPED_DIGESTS[name]


def openblas_core_name() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs in this process, or None where that cannot be read."""
    try:
        lib = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):  # no bundled OpenBLAS, or one that does not name its kernel
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS core types are x86-64 kernels")
def test_shipped_scenes_write_their_pinned_log_and_grid_dump_on_the_oldest_blas_kernel(tmp_path):
    # no BLAS call feeds the log or the grid dump, so they must not change with the kernel OpenBLAS
    # picks for the CPU. Prescott is its oldest x86-64 kernel, so every x86-64 CPU can run it; never
    # force a newer one, which can kill the process on an illegal instruction. Only the child's
    # environment sets the variable; the last line the child prints names its kernel.
    runs = {name: shipped_run(name, tmp_path, ("log", "grid-dump")) for name in SHIPPED_DIGESTS}
    code = "\n".join(["import ctypes", "from pathlib import Path", "import numpy as np", "from shuttlesim.cli import main",
                      inspect.getsource(openblas_core_name),
                      f"for argv in {[argv for argv, _ in runs.values()]!r}:\n    assert main(argv) == 0",
                      "print(openblas_core_name())"])
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott"))
    assert done.returncode == 0, done.stderr
    for name, (_, outputs) in runs.items():
        assert digests(outputs) == {flag: SHIPPED_DIGESTS[name][flag] for flag in outputs}, name
    # a numpy on another BLAS ignores the variable, and a parent run under it already has the kernel
    child, parent = done.stdout.splitlines()[-1], openblas_core_name()
    if parent is None or child == "None":
        pytest.skip("numpy's bundled OpenBLAS does not name its kernel, so the child's kernel is unknown")
    if child == parent:
        pytest.skip(f"OPENBLAS_CORETYPE=Prescott left the child on this process's kernel, {parent}")


@pytest.mark.parametrize("lidar, recorded", [
    # rings -15 and -13 reach the ground inside min_range and -3 and -1 beyond max_range, so the
    # sweep's returns are not one run of rays
    ("lidar: {range_jitter: 0.01, min_range: 9.0, max_range: 30.0}",
     {"log": "9c3c3e3b166d02fadd2f1dc7ca4838c22f1a4d35d9b06b515e575d3c767914c6",
      "grid-dump": "4eddffdb8addf33025b15a4a0948dac69ad164200841391a554891cbd7913e42"}),
    # without jitter nothing is drawn, so cutting at max_range before the draw changes no byte
    ("lidar: {range_jitter: 0.0}",
     {"log": "7990f488842fe58520dcee9df5cf955580f353a3dc4ee62c5a48e2e594e87459",
      "grid-dump": "487590dc20f5454b16cf7d3aebc71357906b30bfb59011a44c75943dca507370"}),
], ids=["narrow", "jitter-free"])
def test_demo_at_a_narrow_lidar_range_writes_its_recorded_bytes(tmp_path, capsys, lidar, recorded):
    assert edited_demo_digests(tmp_path, [("^lidar: {range_jitter: 0.01}$", lidar)]) == recorded


def test_the_demo_route_in_an_empty_world_writes_its_recorded_bytes(tmp_path, capsys):
    # every sweep is bare ground, so no grid cell is ever occupied and neither output depends on the
    # jitter draw; test_lidar.py's test_jittered_frames_write_their_recorded_bytes pins the draw
    edits = [("^duration: 40.0$", "duration: 10.0"), (r"^world:\n(?:  .*\n)+", "world: {}\n")]
    assert edited_demo_digests(tmp_path, edits) == {
        "log": "746fcb9da5fa3919fc8cd78cba1c1ca3018bc98bd552e49758e25e173560d7c6",
        "grid-dump": "ce9e32ca62d2b34068aa77b60b65d8eb1db822ded2ffe640886a01476d10b0c7"}


def edited_demo_digests(tmp_path, edits):
    """The log and grid dump digests of the demo with each ``(pattern, line)`` edit made once. The sign
    log is not pinned: its plane components depend on the CPU's BLAS kernel."""
    text = (SCENARIO_DIR / "demo.yaml").read_text()
    for pattern, line in edits:
        text, count = re.subn(pattern, line, text, flags=re.M)
        assert count == 1, pattern
    (tmp_path / "demo.yaml").write_text(text)
    (tmp_path / "straight_3mps.waypoints").write_bytes((SCENARIO_DIR / "straight_3mps.waypoints").read_bytes())
    outputs = {"log": tmp_path / "demo.log", "grid-dump": tmp_path / "grid.csv"}
    options = [arg for flag, path in outputs.items() for arg in (f"--{flag}", str(path))]
    assert main(["run", str(tmp_path / "demo.yaml"), *options]) == 0
    return digests(outputs)

"""Tests of the benchmark itself: span arithmetic, inputs, outcome checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, run_id=0):
    return [name, start, end, parent, run_id]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.inner", 20, 30, 1),
        span("b", 50, 60, 0),
        span("c", 55, 70, 0),  # overlaps b: the covered part counts once
        span("root", 200, 210, -1, run_id=1),
    ]
    assert spans.self_times(tree) == [50, 20, 10, 10, 15, 10]


def test_layer_metrics_per_pass_and_shares():
    tree = [
        span("harness.Simulation.run", 0, 100, -1),
        span("lidar.scan", 10, 40, 0),
        span("lidar.scan", 50, 60, 0),
        span("harness.Simulation.run", 100, 200, -1, run_id=1),
        span("lidar.scan", 110, 150, 3, run_id=1),
    ]
    counts = {"lidar.scan": [{"points": 5}, {"points": 9}, {"points": 7}]}
    m = spans.layer_metrics(tree, counts, set(), passes=2, ticks=10)
    assert m["lidar.scan.calls"] == 1.5
    assert m["lidar.scan.self_ms_p50"] == 30 / 1e6
    assert m["lidar.scan.points_p50"] == 7
    assert m["lidar.scan.self_share"] == pytest.approx(80 / 200)
    assert m["harness.Simulation.run.self_ms_per_tick"] == pytest.approx(120 / 1e6 / 20)
    assert m["signs.plane_segment.calls"] == 0
    assert sum(v for k, v in m.items() if k.endswith("self_share")) == pytest.approx(1.0)


def test_missing_entry_point_is_reported_not_zero():
    fake = types.ModuleType("fake_layer_module")
    fake.work = lambda x: x + 1
    sys.modules[fake.__name__] = fake
    try:
        tracer = spans.Tracer()
        tracer.install((
            spans.Layer("lidar.scan", fake.__name__, "work", ("points_p50",),
                        lambda a, k, r: {"points": r}),
            spans.Layer("signs.detect", fake.__name__, "renamed_away"),
            spans.Layer("obstacles.build_grid", "no_such_module_here", "build_grid"),
        ))
        assert fake.work(2) == 3
    finally:
        del sys.modules[fake.__name__]
    assert tracer.missing == ["signs.detect", "obstacles.build_grid"]
    assert [s[0] for s in tracer.spans] == ["lidar.scan"]
    m = spans.layer_metrics(tracer.spans, tracer.counts, set(tracer.missing), 1, 1)
    assert m["lidar.scan.calls"] == 1 and m["lidar.scan.points_p50"] == 3
    assert m["signs.detect.calls"] is None and m["signs.detect.self_ms_p50"] is None
    assert m["obstacles.build_grid.self_share"] is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    def files(seed, out):
        workloads.generate(name, seed, out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = files(3, tmp_path / "a")
    assert first == files(3, tmp_path / "b")
    assert first != files(4, tmp_path / "c")


@pytest.mark.parametrize("seed", range(40))
def test_campus_loop_is_a_closed_5km_route(seed):
    x, y, v = workloads.campus_loop(np.random.default_rng(seed))
    step = np.hypot(np.diff(x), np.diff(y))
    assert len(x) == 5001
    assert step.sum() == pytest.approx(5000.0, abs=1.0)
    assert step.max() <= 1.0 + 1e-9 and step.min() > 0.99
    assert math.hypot(x[-1] - x[0], y[-1] - y[0]) < 1e-6
    assert (x[0], y[0]) == (0.0, 0.0) and abs(y[1]) < 1e-9 and x[1] > 0  # starts heading east
    assert v.max() == 3.0 and v.min() >= math.sqrt(0.5 * workloads.LOOP_MIN_RADIUS) - 1e-12
    heading = np.unwrap(np.arctan2(np.diff(y[:61]), np.diff(x[:61])))
    assert np.ptp(heading) > math.radians(1.0)  # the driven stretch bends


def test_route_file_has_one_waypoint_per_metre(tmp_path):
    workloads.generate("long_route", 1, tmp_path)
    lines = (tmp_path / "campus_loop_3mps.waypoints").read_text().splitlines()
    assert len(lines) == 5001 and all(len(ln.split(",")) == 3 for ln in lines)


def run_first_crossing(tmp_path):
    from shuttlesim.harness import Simulation, write_log
    from shuttlesim.scenario import load_scenario

    batch = workloads.generate("ped_sweep", 0, tmp_path)
    _, rows = Simulation(load_scenario(tmp_path / batch[0]["scenario"])).run()
    write_log(rows, tmp_path / "log.csv")
    return (tmp_path / "log.csv").read_text(), batch[0]


def doctor(text, column, change):
    lines = text.splitlines()
    header = lines[0].split(",")
    k = header.index(column)
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[k] = change(parts[k])
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def test_checker_flags_a_doctored_pedestrian_log(tmp_path):
    text, run_spec = run_first_crossing(tmp_path)
    assert checks.check_log(text, run_spec["ticks"], run_spec["check"]) == []

    no_stop = doctor(text, "v", lambda v: v if float(v) >= 0.1 else "0.5")
    assert any("no stop" in r for r in checks.check_log(no_stop, 600, run_spec["check"]))
    unseen = doctor(text, "obstacle_d", lambda d: "")
    assert checks.check_log(unseen, 600, run_spec["check"]) == [
        "pedestrian never seen in the corridor"]
    late = doctor(text, "obstacle_d", lambda d: d and "4.0")
    assert any("first trigger" in r for r in checks.check_log(late, 600, run_spec["check"]))
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_log(truncated, 600, run_spec["check"]) == ["599 log rows, expected 600"]


def test_checker_flags_stops_and_drift_on_a_clear_route():
    header = "t,v,cte,obstacle_d,sign_d"
    rows = [f"{i * 0.02!r},{v!r},{c!r},," for i, (v, c) in
            enumerate([(0.0, 0.0), (0.5, 0.1), (1.0, 0.1), (0.0, 0.3), (0.2, 0.1)])]
    flagged = checks.check_log("\n".join([header] + rows), 5, {"kind": "clear_route",
                                                              "max_cte": 0.25})
    assert flagged == ["1 stop(s), first at t=0.06 s",
                       "peak cross-track error 0.300 m (> 0.25 m)"]


def test_disagreeing_repetitions_count_as_failures():
    batch = [{"scenario": "a.yaml"}, {"scenario": "b.yaml"}]

    def one_pass(digest_b):
        return {"mode": "probe", "runs": [
            {"index": 0, "failures": [], "digest": "x"},
            {"index": 1, "failures": [], "digest": digest_b}]}

    assert run.outcomes([one_pass("y"), one_pass("y")], batch) == (4, 0, [])
    attempted, failed, reasons = run.outcomes([one_pass("y"), one_pass("z")], batch)
    assert (attempted, failed) == (4, 2)
    assert reasons == ["b.yaml: 2 different log digests"]
    crashed = {"mode": "probe", "error": "exit 1: boom"}
    assert run.outcomes([one_pass("y"), crashed], batch)[:2] == (4, 2)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.per_layer_metrics()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program to measure" in proc.stderr


def test_ticks_are_scaled_by_the_calibration_next_to_them(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_NS", 10)

    def one_pass(ticks, calibration):
        stamps = np.concatenate(([0], np.cumsum(ticks))).tolist()
        return {"mode": "probe", "runs": [{"index": 0, "stamps": stamps, "period": 2,
                                           "dt": 0.02, "calibration": calibration}]}

    # samples before ticks 0 and 2: ticks 0-1 take the mean of both, 2-4 the last alone
    steady = one_pass([1, 1, 2, 2, 3], [(0, 10), (2, 10)])
    slowed = one_pass([3, 3, 8, 8, 12], [(0, 20), (2, 40)])
    assert run.normalized_ticks(steady["runs"][0]).tolist() == [1, 1, 2, 2, 3]
    assert run.normalized_ticks(slowed["runs"][0]).tolist() == [1, 1, 2, 2, 3]
    stats = run.tick_stats([steady, slowed])
    assert stats["sim_rate"] == pytest.approx(5 * 0.02 / 9e-9)
    assert stats["sweep_tick_p50_ms"] == pytest.approx(2e-6)  # ticks 0, 2, 4
    assert stats["control_tick_p50_ms"] == pytest.approx(1.5e-6)  # ticks 1, 3
    assert stats["tick_p99_ms"] == pytest.approx(np.percentile([1, 1, 2, 2, 3], 99) / 1e6)


def test_tail_takes_each_tick_from_its_faster_first_two_repetitions(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_NS", 10)

    def one_pass(ticks):
        stamps = np.concatenate(([0], np.cumsum(ticks))).tolist()
        return {"mode": "probe", "runs": [{"index": 0, "stamps": stamps, "period": 2,
                                           "dt": 0.02, "calibration": [(0, 10)]}]}

    # a stall in each of the first two passes; the third pass is not used
    stats = run.tick_stats([one_pass([1, 9, 3, 1]), one_pass([8, 1, 3, 1]),
                            one_pass([1, 1, 1, 1])])
    assert stats["tick_p99_ms"] == pytest.approx(np.percentile([1, 1, 3, 1], 99) / 1e6)
    assert stats["tick_p99_repeats"] == 2


def test_setup_time_is_scaled_by_the_calibration_after_it(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_NS", 2_000_000)
    slowed = {"setup_ns": 900_000_000, "setup_calibration_ns": [3_000_000, 2_900_000, 9_000_000]}
    assert run.setup_seconds(slowed) == pytest.approx(0.6)

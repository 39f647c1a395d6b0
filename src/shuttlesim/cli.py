"""Command-line entry points: run, record, compile-path, replay."""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import yaml

from shuttlesim.bounds import number
from shuttlesim.harness import (
    GRID_DUMP_HEADER,
    SIGN_LOG_HEADER,
    Simulation,
    metrics_from_rows,
    read_log,
    record_trace,
    write_csv,
    write_log,
)
from shuttlesim.scenario import load_scenario
from shuttlesim.waypoints import (
    compile_path,
    load_trace,
    save_trace,
    save_waypoints,
    waypoint_filename,
)


def _print_metrics(metrics, path=None):
    """Write the metrics as YAML to ``path``, or to stdout without one."""
    with open(path, "w") if path else nullcontext(sys.stdout) as stream:
        yaml.safe_dump(metrics.summary_dict(), stream, sort_keys=False)


def _open_outputs(*paths):
    """Open every output file given before any work, so one that cannot be written fails first; leave none behind."""
    for path in filter(None, paths):
        new = not os.path.lexists(path)
        open(path, "a").close()  # appending leaves an existing file as it is
        if new:
            os.remove(path)


@contextmanager
def _naming(path):
    """Prefix the file or the flag to the errors of reading or using its input."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        with _naming("--seed"):
            scenario = replace(scenario, seed=number(args.seed, int))
    sign_log = [] if args.sign_log else None
    grid_dump = [] if args.grid_dump else None
    with _naming(args.scenario):
        sim = Simulation(scenario, sign_log, grid_dump)
    _open_outputs(args.log, args.metrics, args.sign_log, args.grid_dump)
    metrics, rows = sim.run()
    if args.log:
        write_log(rows, args.log)
    if args.sign_log:
        write_csv(args.sign_log, SIGN_LOG_HEADER, sign_log)
    if args.grid_dump:
        write_csv(args.grid_dump, GRID_DUMP_HEADER, grid_dump)
    _print_metrics(metrics, args.metrics)
    return 0


def cmd_record(args) -> int:
    scenario = load_scenario(args.scenario)
    out = args.out or Path(args.scenario).with_suffix(".trace")
    _open_outputs(out)
    with _naming(args.scenario):
        trace = record_trace(scenario)
    save_trace(trace, out)
    print(f"recorded {len(trace)} samples -> {out}")
    return 0


def cmd_compile_path(args) -> int:
    with _naming("--speed"):
        if not (speed := number(args.speed)) > 0:
            raise ValueError(f"must be a positive finite number, got {speed}")
    trace = load_trace(args.trace)
    out = args.out or Path(args.trace).parent / waypoint_filename(Path(args.trace).stem, speed)
    _open_outputs(out)
    with _naming(args.trace):
        route = compile_path(trace, speed)
    save_waypoints(route, out)
    print(f"compiled {len(route.speed)} waypoints -> {out}")
    return 0


def cmd_replay(args) -> int:
    _print_metrics(metrics_from_rows(read_log(args.log)), args.metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuttlesim",
        description="Deterministic desk-scale shuttle simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario closed loop")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", default=None, help="override the scenario seed")
    p_run.add_argument("--log", default=None, help="write the per-tick log here")
    p_run.add_argument("--metrics", default=None, help="write run metrics here (YAML)")
    p_run.add_argument("--sign-log", default=None, help="write per-tick sign detections here")
    p_run.add_argument("--grid-dump", default=None, help="write occupied grid cells per tick here")
    p_run.set_defaults(func=cmd_run)

    p_rec = sub.add_parser("record", help="drive the scenario's script and record a trace")
    p_rec.add_argument("scenario")
    p_rec.add_argument("--out", default=None, help="trace output path")
    p_rec.set_defaults(func=cmd_record)

    p_cmp = sub.add_parser("compile-path", help="turn a recorded trace into a waypoint file")
    p_cmp.add_argument("trace")
    p_cmp.add_argument("--speed", required=True, help="target speed, m/s")
    p_cmp.add_argument("--out", default=None, help="waypoint output path")
    p_cmp.set_defaults(func=cmd_compile_path)

    p_rep = sub.add_parser("replay", help="recompute metrics from a log file")
    p_rep.add_argument("log")
    p_rep.add_argument("--metrics", default=None, help="write metrics here instead of stdout")
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        path = getattr(exc, "filename", None)  # an output file that cannot be written
        print(f"error: {path}: {exc.strerror}" if path else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's layer entry points, and per-layer metrics.

The tracer wraps each public entry point under the name its caller looks it
up by (``shuttlesim.harness.scan``, not ``shuttlesim.lidar.scan``, because
the harness imported the name), so nothing under ``src/`` changes. Each call
records a span (name, start, end, parent, run id) in memory, plus a few
counts read from the call's arguments and result. An entry point that cannot
be found is reported as missing rather than as zero time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable


def _n_out(args, kwargs, result):
    return {"points_in": len(args[0]), "points_out": len(result)}


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix
    module: str  # module the caller looks the entry point up in
    attr: str  # dotted attribute path inside that module
    extras: tuple[str, ...] = ()  # extra metric names besides calls/self time
    count: Callable | None = None  # (args, kwargs, result) -> {count: value}


LAYERS = (
    Layer("lidar.scan", "shuttlesim.harness", "scan", ("points_p50",),
          lambda a, k, r: {"points": len(r)}),
    Layer("obstacles.build_grid", "shuttlesim.harness", "build_grid", ("occupied_p50",),
          lambda a, k, r: {"occupied": int(r.occupied.sum())}),
    Layer("obstacles.modify_speed", "shuttlesim.harness", "modify_speed", ("present",),
          lambda a, k, r: {"present": int(r[1].present)}),
    Layer("signs.detect", "shuttlesim.signs", "SignDetector.detect", ("hits",),
          lambda a, k, r: {"hits": int(r is not None)}),
    Layer("signs.fov_filter", "shuttlesim.signs", "fov_filter",
          ("points_in", "points_out"), _n_out),
    Layer("signs.intensity_filter", "shuttlesim.signs", "intensity_filter",
          ("points_in", "points_out"), _n_out),
    Layer("signs.radius_outlier_removal", "shuttlesim.signs", "radius_outlier_removal",
          ("points_in", "points_out"), _n_out),
    Layer("signs.statistical_outlier_removal", "shuttlesim.signs",
          "statistical_outlier_removal", ("points_in", "points_out"), _n_out),
    Layer("signs.plane_segment", "shuttlesim.signs", "plane_segment",
          ("points_in", "accepted"),
          lambda a, k, r: {"points_in": len(a[0]), "accepted": int(r is not None)}),
    Layer("waypoints.follow_step", "shuttlesim.harness", "follow_step"),
    Layer("waypoints.cross_track_error", "shuttlesim.harness", "cross_track_error"),
    Layer("twist.TwistController.step", "shuttlesim.twist", "TwistController.step"),
    Layer("plant.step_plant", "shuttlesim.harness", "step_plant"),
    Layer("world.step_pedestrians", "shuttlesim.harness", "step_pedestrians"),
    Layer("arbiter.select", "shuttlesim.harness", "select",
          ("wins.waypoint", "wins.obstacle", "wins.sign", "wins.manual-stop"),
          lambda a, k, r: {f"wins.{r.source.value}": 1}),
    Layer("harness.Simulation.run", "shuttlesim.harness", "Simulation.run",
          ("self_ms_per_tick",)),
    Layer("scenario.load_scenario", "shuttlesim.scenario", "load_scenario", ("ms",)),
    Layer("waypoints.load_waypoints", "shuttlesim.harness", "load_waypoints", ("ms",)),
    Layer("harness.Simulation.__init__", "shuttlesim.harness", "Simulation.__init__", ("ms",)),
)

OVERHEAD_METRICS = (
    # traced sim_rate over untraced sim_rate of the same run
    ("trace.sim_rate_ratio", "ratio", "higher"),
    # Simulation.run wall time with the tick probe over without it
    ("probe.run_time_ratio", "ratio", "lower"),
)

_UNITS = {"calls": "count", "self_ms_p50": "ms", "self_share": "fraction",
          "self_ms_per_tick": "ms", "ms": "ms"}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every traced metric, in report order."""
    out = []
    for layer in LAYERS:
        for key in ("calls", "self_ms_p50", "self_share") + layer.extras:
            out.append((f"{layer.name}.{key}", _UNITS.get(key, "count"), "lower"))
    return out + list(OVERHEAD_METRICS)


def resolve(module: str, attr: str):
    """(owner, attribute name, current value) or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, last, None)
    return None if value is None else (owner, last, value)


class Tracer:
    """Installs span-recording wrappers; keeps spans and counts in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []  # [name, start_ns, end_ns, parent index, run id]
        self.counts: dict[str, list[dict]] = {}
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []

    def install(self, layers=LAYERS) -> None:
        for layer in layers:
            found = resolve(layer.module, layer.attr)
            if found is None:
                self.missing.append(layer.name)
                continue
            owner, last, fn = found
            setattr(owner, last, self._wrap(layer, fn))

    def _wrap(self, layer: Layer, fn):
        spans, stack, now = self.spans, self._stack, self.clock
        counts = self.counts.setdefault(layer.name, [])
        name = layer.name

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if layer.count is not None:
                try:
                    counts.append(layer.count(args, kwargs, result))
                except Exception:  # a changed signature must not end the run
                    counts.append({})
            return result

        return traced


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered = 0
        cursor = start
        for s, e in sorted(kids):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts: dict, missing, passes: int, ticks: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` batch passes of ``ticks`` ticks each.

    Counts of work and outcomes are per pass, so they repeat exactly for a
    seed. A missing entry point gets None for every metric.
    """
    selfs = self_times(spans)
    total = sum(selfs) or 1
    by_name: dict[str, list[int]] = {}
    whole: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[0], []).append(own)
        whole[span[0]] = whole.get(span[0], 0) + span[2] - span[1]

    out: dict[str, float | None] = {}
    for layer in LAYERS:
        keys = ("calls", "self_ms_p50", "self_share") + layer.extras
        if layer.name in missing:
            out.update({f"{layer.name}.{k}": None for k in keys})
            continue
        own = by_name.get(layer.name, [])
        calls = counts.get(layer.name, [])
        values = {
            "calls": len(own) / passes,
            "self_ms_p50": statistics.median(own) / 1e6 if own else 0.0,
            "self_share": sum(own) / total,
            "self_ms_per_tick": sum(own) / 1e6 / (passes * ticks),
            "ms": whole.get(layer.name, 0) / 1e6 / passes,
        }
        for key in layer.extras:
            if key.endswith("_p50"):
                series = [c[key[:-4]] for c in calls if key[:-4] in c]
                values[key] = statistics.median(series) if series else 0
            elif key not in values:
                values[key] = sum(c.get(key, 0) for c in calls) / passes
        out.update({f"{layer.name}.{k}": values[k] for k in keys})
    return out

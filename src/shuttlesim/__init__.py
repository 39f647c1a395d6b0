"""Desk-scale simulator and control stack for a low-speed campus shuttle."""

from shuttlesim.harness import (
    LogRow,
    RunMetrics,
    Simulation,
    metrics_from_rows,
    read_log,
    record_trace,
    write_log,
)
from shuttlesim.scenario import ScenarioConfig, ScenarioError, load_scenario
from shuttlesim.waypoints import compile_path, load_waypoints, save_waypoints

__all__ = [
    "LogRow", "RunMetrics", "ScenarioConfig", "ScenarioError", "Simulation",
    "compile_path", "load_scenario", "load_waypoints", "metrics_from_rows",
    "read_log", "record_trace", "save_waypoints", "write_log",
]

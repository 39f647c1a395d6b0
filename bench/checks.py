"""Outcome checks on a run's log text.

The checks read the program's CSV log by column name and decide from the
rows alone, without the program's own metrics code, whether a run did what
its workload requires. Each returns a list of reasons; an empty list passes.
"""

from __future__ import annotations

import math

STOP_SPEED = 0.05  # m/s: below this the cart is standing still
RESUME_SPEED = 0.1  # m/s: the cart counts as moving once it reaches this


def parse_log(text: str) -> dict[str, list]:
    """Columns of a log by header name; empty optional fields become None."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty log")
    header = lines[0].split(",")
    columns: dict[str, list] = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"log line {lineno}: {len(parts)} fields, expected {len(header)}")
        for name, value in zip(header, parts):
            if name == "display":
                columns[name].append(value)
            else:
                columns[name].append(float(value) if value else None)
    return columns


def stop_rows(v: list[float]) -> list[int]:
    """Row indices where the cart comes to a standstill after having moved."""
    starts = []
    moved = stopped = False
    for i, speed in enumerate(v):
        if stopped:
            if speed >= RESUME_SPEED:
                stopped = False
        elif moved and speed < STOP_SPEED:
            stopped = True
            starts.append(i)
        if speed >= RESUME_SPEED:
            moved = True
    return starts


def check_pedestrian_stop(cols: dict, spec: dict) -> list[str]:
    """Criterion 5: an obstacle stop, a gap over 0.5 m, first trigger at >= 6 m."""
    reasons = []
    triggers = [(i, d) for i, d in enumerate(cols["obstacle_d"]) if d is not None]
    if not triggers:
        return ["pedestrian never seen in the corridor"]
    if triggers[0][1] < 6.0:
        reasons.append(f"first trigger at {triggers[0][1]:.2f} m (< 6 m)")
    if not any(i >= triggers[0][0] for i in stop_rows(cols["v"])):
        reasons.append("no stop after the pedestrian was seen")
    (px, py), (vx, vy) = spec["position"], spec["velocity"]
    gap = min(
        math.hypot(px + vx * t - (x + spec["front_overhang"] * math.cos(h)),
                   py + vy * t - (y + spec["front_overhang"] * math.sin(h)))
        for t, x, y, h in zip(cols["t"], cols["x"], cols["y"], cols["heading"])
    ) - spec["radius"]
    if gap <= 0.5:
        reasons.append(f"closest gap {gap:.2f} m (<= 0.5 m)")
    return reasons


def check_sign_stop(cols: dict, spec: dict) -> list[str]:
    """The cart stands still after a sign sighting, with no obstacle in the way."""
    signs = [i for i, d in enumerate(cols["sign_d"]) if d is not None]
    if not signs:
        return ["sign never detected"]
    for i in stop_rows(cols["v"]):
        if i >= signs[0] and cols["obstacle_d"][i] is None:
            return []
    return ["no stop after the sign was detected"]


def check_clear_route(cols: dict, spec: dict) -> list[str]:
    """An empty route: the cart never stops and stays on the path."""
    reasons = []
    stops = stop_rows(cols["v"])
    if stops:
        reasons.append(f"{len(stops)} stop(s), first at t={cols['t'][stops[0]]:.2f} s")
    peak = max(cols["cte"])
    if peak > spec["max_cte"]:
        reasons.append(f"peak cross-track error {peak:.3f} m (> {spec['max_cte']} m)")
    return reasons


CHECKS = {
    "pedestrian_stop": check_pedestrian_stop,
    "sign_stop": check_sign_stop,
    "clear_route": check_clear_route,
}


def check_log(text: str, ticks: int, check: dict) -> list[str]:
    """Reasons the log fails its workload's outcome check; empty when it passes."""
    cols = parse_log(text)
    rows = len(cols["t"])
    if rows != ticks:
        return [f"{rows} log rows, expected {ticks}"]
    return CHECKS[check["kind"]](cols, check)

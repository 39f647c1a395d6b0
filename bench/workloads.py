"""Seeded inputs for the shuttlesim benchmark workloads.

Every workload is a closed batch: its scenarios run back to back as fast as
the host allows, with no arrival rate. A workload turns the benchmark seed
into scenario and waypoint files in a work directory, plus a ``batch.json``
that lists the scenarios and what each run's log must show. The program only
ever receives the scenario and waypoint files. The same seed always gives
byte-identical files.

This module is self-contained on purpose (its own projection, file writer
and vehicle constant): inputs must stay byte-identical across commits of the
program, so that log digests can be compared with the parent commit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
ORIGIN = (30.615, -96.34)
EARTH_RADIUS = 6378137.0  # the program's equirectangular projection radius
FRONT_OVERHANG = 3.2  # default bumper distance ahead of the rear axle, m
LATERAL_ACCEL_LIMIT = 0.5  # m/s^2, the program's curvature speed law

PED_SWEEP_BATCH = 5  # crossings per batch pass
LOOP_LENGTH = 5000.0  # m
LOOP_CORNERS = 200  # a bend every 25 m on average
LOOP_LEAD = 5.0  # m of straight before the first bend
LOOP_MIN_RADIUS = 10.0  # m


def from_local(x: float, y: float) -> tuple[float, float]:
    lat0, lon0 = ORIGIN
    lat = lat0 + math.degrees(y / EARTH_RADIUS)
    lon = lon0 + math.degrees(x / (EARTH_RADIUS * math.cos(math.radians(lat0))))
    return lat, lon


def write_waypoints(path: Path, xs, ys, speeds) -> None:
    """The program's waypoint format: one ``lat,lon,speed`` line per point."""
    lines = []
    for x, y, v in zip(xs, ys, speeds):
        lat, lon = from_local(float(x), float(y))
        lines.append(f"{lat:.8f},{lon:.8f},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def write_scenario(path: Path, data: dict) -> None:
    path.write_text(yaml.safe_dump(data, sort_keys=True))


def straight_route(out: Path) -> str:
    """The 81-waypoint, 80 m straight at 3 m/s used by criteria 5, 8 and 10."""
    name = "straight_3mps.waypoints"
    xs = np.arange(81, dtype=float)
    write_waypoints(out / name, xs, np.zeros_like(xs), np.full_like(xs, 3.0))
    return name


# ---------------------------------------------------------------- demo


def generate_demo(seed: int, out: Path) -> list[dict]:
    """The shipped demo scenario with its seed replaced by the workload seed."""
    data = yaml.safe_load((ROOT / "scenarios" / "demo.yaml").read_text())
    data["seed"] = seed
    data["waypoints"] = straight_route(out)
    write_scenario(out / "demo.yaml", data)
    ticks = int(round(data["duration"] * data.get("tick_rate", 50)))
    return [{"scenario": "demo.yaml", "ticks": ticks, "check": {"kind": "sign_stop"}}]


# ---------------------------------------------------------------- ped_sweep


def crossing(seed: int) -> dict:
    """Criterion 5's jaywalker: a diagonal crossing at 1.4 m/s, timed so the
    cart first sees the pedestrian in its corridor 7-7.5 m ahead of the bumper."""
    rng = np.random.default_rng(seed)
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    y0 = side * (2.0 + rng.uniform(0.0, 0.8))
    gap0 = 7.0 + rng.uniform(0.0, 0.5)
    v_lat = -side * 1.342
    v_fwd = -math.sqrt(1.4**2 - v_lat**2)
    t_entry = (abs(y0) - 1.6) / abs(v_lat)
    x0 = FRONT_OVERHANG + 3.0 * t_entry + gap0 - v_fwd * t_entry
    return {"position": [float(x0), float(y0)], "velocity": [float(v_fwd), float(v_lat)]}


def generate_ped_sweep(seed: int, out: Path) -> list[dict]:
    """Scenario seeds ``seed*B .. seed*B+B-1``: workload seed 0 replays the
    first crossings of criterion 5."""
    route = straight_route(out)
    runs = []
    for k in range(PED_SWEEP_BATCH):
        s = seed * PED_SWEEP_BATCH + k
        ped = crossing(s)
        name = f"ped_{s}.yaml"
        write_scenario(out / name, {
            "name": f"ped-crossing-{s}",
            "seed": s,
            "duration": 12.0,
            "waypoints": route,
            "origin": list(ORIGIN),
            "start": {"x": 0.0, "y": 0.0, "heading": 0.0, "speed": 3.0},
            "world": {"pedestrians": [ped]},
            "lidar": {"range_jitter": 0.01},
        })
        runs.append({
            "scenario": name,
            "ticks": 600,
            "check": {"kind": "pedestrian_stop", "radius": 0.3,
                      "front_overhang": FRONT_OVERHANG, **ped},
        })
    return runs


# ---------------------------------------------------------------- long_route


def campus_loop(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A closed loop of straights and arcs, sampled every metre.

    Corners sit at increasing polar angles around a wobbly circle, so the
    polygon is star-shaped and never crosses itself. Each corner is rounded
    by an arc of radius >= LOOP_MIN_RADIUS tangent to both edges. The polygon
    is scaled so the rounded loop is exactly LOOP_LENGTH long, then sampled
    at 1 m from just before the first arc, rotated to start heading east at
    the origin. Speeds are 3 m/s, capped on arcs at sqrt(0.5 r).
    Returns x, y and speed of LOOP_LENGTH + 1 points; the last closes the loop.
    """
    k = LOOP_CORNERS
    theta = 2.0 * math.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) / k
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    rho = (1.0 + 0.15 * np.sin(2 * theta + phase[0]) + 0.08 * np.sin(3 * theta + phase[1])
           + 0.05 * np.sin(5 * theta + phase[2]) + rng.uniform(-0.004, 0.004, k))
    corners = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
    edges = np.roll(corners, -1, axis=0) - corners  # edge i runs corner i -> i+1
    edge_len = np.hypot(edges[:, 0], edges[:, 1])
    heading = np.arctan2(edges[:, 1], edges[:, 0])
    turn = (heading - np.roll(heading, 1) + math.pi) % (2 * math.pi) - math.pi  # at corner i
    # each arc may use at most 40 % of either neighbouring edge
    room = 0.4 * (LOOP_LENGTH / edge_len.sum()) * np.minimum(edge_len, np.roll(edge_len, 1))
    radius = np.minimum(rng.uniform(LOOP_MIN_RADIUS, 3.0 * LOOP_MIN_RADIUS, k),
                        room / np.tan(np.abs(turn) / 2))
    if radius.min() < LOOP_MIN_RADIUS:
        raise ValueError("a corner is too sharp for the minimum arc radius")
    tangent = radius * np.tan(np.abs(turn) / 2)
    # the rounded length is linear in the polygon scale: solve for LOOP_LENGTH
    shortcut = np.sum(2 * tangent - radius * np.abs(turn))
    scale = (LOOP_LENGTH + shortcut) / edge_len.sum()
    straight = scale * edge_len - tangent - np.roll(tangent, -1)

    # primitives (length, start xy, start heading, curvature), starting on
    # edge 0 a few metres before the first arc so the driven stretch bends
    lead = min(LOOP_LEAD, straight[0] / 2)
    direction = np.stack([np.cos(heading), np.sin(heading)], axis=1)
    pos = scale * corners[1] - (tangent[1] + lead) * direction[0]
    prims = []
    for i in range(k):
        j = (i + 1) % k
        length = lead if i == 0 else straight[i]
        prims.append((length, pos, heading[i], 0.0))
        kappa = math.copysign(1.0 / radius[j], turn[j])
        prims.append((radius[j] * abs(turn[j]), pos + length * direction[i], heading[i], kappa))
        pos = scale * corners[j] + tangent[j] * direction[j]
    prims.append((straight[0] - lead, pos, heading[0], 0.0))

    lengths = np.array([p[0] for p in prims])
    starts = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    s = np.arange(int(LOOP_LENGTH) + 1, dtype=float)
    which = np.minimum(np.searchsorted(starts, s, side="right") - 1, len(prims) - 1)
    xs = np.empty_like(s)
    ys = np.empty_like(s)
    speeds = np.empty_like(s)
    for n, (si, w) in enumerate(zip(s, which)):
        length, p0, h0, kappa = prims[w]
        u = si - starts[w]
        if kappa == 0.0:
            xs[n], ys[n] = p0[0] + u * math.cos(h0), p0[1] + u * math.sin(h0)
            speeds[n] = 3.0
        else:
            h = h0 + kappa * u
            xs[n] = p0[0] + (math.sin(h) - math.sin(h0)) / kappa
            ys[n] = p0[1] - (math.cos(h) - math.cos(h0)) / kappa
            speeds[n] = min(3.0, math.sqrt(LATERAL_ACCEL_LIMIT / abs(kappa)))
    # start at the origin heading east
    c, sn = math.cos(-heading[0]), math.sin(-heading[0])
    dx, dy = xs - xs[0], ys - ys[0]
    return c * dx - sn * dy, sn * dx + c * dy, speeds


def generate_long_route(seed: int, out: Path) -> list[dict]:
    xs, ys, speeds = campus_loop(np.random.default_rng(seed))
    write_waypoints(out / "campus_loop_3mps.waypoints", xs, ys, speeds)
    write_scenario(out / "long_route.yaml", {
        "name": "campus-loop",
        "seed": seed,
        "duration": 20.0,
        "waypoints": "campus_loop_3mps.waypoints",
        "origin": list(ORIGIN),
        "start": {"x": 0.0, "y": 0.0, "heading": 0.0, "speed": 0.0},
        "lidar": {"range_jitter": 0.01},
    })
    return [{"scenario": "long_route.yaml", "ticks": 1000,
             "check": {"kind": "clear_route", "max_cte": 0.25}}]


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, Path], list[dict]]


WORKLOADS = {
    w.name: w
    for w in (
        # 40 s simulated (2000 ticks, 400 sweeps) with a box, a walking
        # pedestrian and a sign: the one shipped scenario, and the only
        # workload where the whole sign pipeline runs, RANSAC included.
        # RANSAC sweeps make up its tick tail.
        Workload("demo", "the shipped scenario; the only workload that runs the whole sign "
                         "pipeline, RANSAC included, which sets its tick tail", generate_demo),
        # Criterion 5's crossings, 12 s each at 3 m/s on the 81-waypoint
        # straight: most of Tier-1's time. Loads lidar.scan (one close
        # cylinder) and build_grid/modify_speed but not the sign stages, and
        # builds one Simulation per crossing, so work moved into set-up is
        # paid many times.
        Workload("ped_sweep", "criterion-5 pedestrian crossings: scan and height map without "
                              "RANSAC, one Simulation per crossing", generate_ped_sweep),
        # A 5 km closed loop of straights and arcs with curvature-limited
        # speeds and an empty world, 20 s simulated. The per-tick route cost
        # is O(N) in waypoints, so the waypoints layer does most of the work
        # while perception only casts ground returns. It is the "same layer,
        # different use" partner of ped_sweep: precomputing the route pays
        # off here but costs set-up on every ped_sweep crossing.
        Workload("long_route", "5000-waypoint loop in an empty world: per-tick route cost "
                               "dominates, perception casts only ground", generate_long_route),
    )
}


def generate(name: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's inputs under ``out`` and return its batch."""
    out.mkdir(parents=True, exist_ok=True)
    runs = WORKLOADS[name].generate(seed, out)
    (out / "batch.json").write_text(json.dumps(runs, indent=1, sort_keys=True))
    return runs

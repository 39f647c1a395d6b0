import math
from pathlib import Path

import numpy as np
import pytest

from shuttlesim.scenario import DEFAULT_ORIGIN
from shuttlesim.waypoints import Route, Waypoint, from_local, save_waypoints, to_local

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def straight_path(length_m=80, speed=3.0, origin=DEFAULT_ORIGIN):
    wps = []
    for i in range(length_m + 1):
        lat, lon = from_local(origin, float(i), 0.0)
        wps.append(Waypoint(lat, lon, speed))
    return Route.build(tuple(wps), origin)


@pytest.fixture(scope="session")
def straight_waypoints(tmp_path_factory):
    path = tmp_path_factory.mktemp("paths") / "straight_3mps.waypoints"
    save_waypoints(straight_path(), path)
    return str(path)


# Brute-force oracles that the unit tests and the acceptance criteria compare against.


def brute_ror(points, radius=0.5, min_neighbors=3):
    keep = []
    for i, p in enumerate(points):
        n = 0
        for j, q in enumerate(points):
            if i != j and np.linalg.norm(p - q) <= radius:
                n += 1
        if n >= min_neighbors:
            keep.append(i)
    return points[keep]


def brute_sor(points, k=8, stddev_mult=1.0):
    if len(points) <= k:
        return points
    means = []
    for i, p in enumerate(points):
        d = np.sort(np.linalg.norm(points - p, axis=1))
        means.append(d[1 : k + 1].mean())  # skip self
    means = np.asarray(means)
    thresh = means.mean() + stddev_mult * means.std()
    return points[means <= thresh]


def reference_xy(route):
    """The route projected on every call, one to_local per waypoint."""
    return np.asarray([to_local(route.origin, w.lat, w.lon) for w in route.waypoints], dtype=float)


def brute_force_cte(route, state):
    xy = reference_xy(route)
    best = math.inf
    p = (state.x, state.y)
    for (ax, ay), (bx, by) in zip(xy[:-1], xy[1:]):
        abx, aby = bx - ax, by - ay
        denom = abx * abx + aby * aby
        if denom == 0:
            t = 0.0
        else:
            t = max(0.0, min(1.0, ((p[0] - ax) * abx + (p[1] - ay) * aby) / denom))
        cx, cy = ax + t * abx, ay + t * aby
        best = min(best, math.hypot(p[0] - cx, p[1] - cy))
    return best


def reference_grid(points, params):
    """Bin each point into a dict of cell -> z values; return the grid's
    (occupied, centers, min_z, max_z) as ``build_grid`` lays them out."""
    n = int(round(2 * params.extent / params.cell_size))
    cells = {}
    for x, y, z in points:
        if z > params.roof_height:
            continue
        i = math.floor((x + params.extent) / params.cell_size)
        j = math.floor((y + params.extent) / params.cell_size)
        if 0 <= i < n and 0 <= j < n:
            cells.setdefault((i, j), []).append(z)
    kept = sorted(cell for cell, zs in cells.items()
                  if len(zs) >= params.min_cell_points and max(zs) - min(zs) > params.height_threshold)
    occupied = np.zeros((n, n), dtype=bool)
    for cell in kept:
        occupied[cell] = True
    centers = np.array([[(k + 0.5) * params.cell_size - params.extent for k in cell] for cell in kept])
    return (occupied, centers.reshape(-1, 2), np.array([min(cells[c]) for c in kept]),
            np.array([max(cells[c]) for c in kept]))

"""The static scene of boxes, pedestrians and signs; ``Simulation`` walks the pedestrians' positions as one (P, 2) array."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from shuttlesim.bounds import Coordinate, Intensity, Length, check_bounds


@dataclass(frozen=True)
class BoxObstacle:
    """Axis-aligned box sitting on the ground."""

    center: tuple[Coordinate, Coordinate]
    size: tuple[Length, Length]
    height: Length

    __post_init__ = check_bounds


@dataclass(frozen=True)
class Pedestrian:
    """Cylinder walking in a straight line at constant velocity from ``position``."""

    position: tuple[Coordinate, Coordinate]
    velocity: tuple[Coordinate, Coordinate] = (0.0, 0.0)
    height: Length = 1.7
    radius: Length = 0.3

    __post_init__ = check_bounds


@dataclass(frozen=True)
class SignSpec:
    """Flat rectangular sign; the front face returns the retroreflective intensity."""

    center: tuple[Coordinate, Coordinate, Coordinate]
    normal: tuple[Coordinate, Coordinate, Coordinate]  # scaled to unit length
    width: Length = 0.75
    height: Length = 0.75
    intensity: Intensity = 200.0

    def __post_init__(self):
        check_bounds(self)
        n = math.hypot(*self.normal)
        if n < sys.float_info.min:  # a subnormal length is rounded too coarsely to scale the normal to unit length
            raise ValueError(f"normal must be at least {sys.float_info.min!r} long, got {n!r}")
        object.__setattr__(self, "normal", tuple(c / n for c in self.normal))
        if abs(self.normal[2]) > 0.99:
            raise ValueError("sign must be close to vertical")


@dataclass(frozen=True)
class WorldModel:
    obstacles: tuple[BoxObstacle, ...] = ()
    pedestrians: tuple[Pedestrian, ...] = ()
    signs: tuple[SignSpec, ...] = ()


def step_pedestrians(positions: np.ndarray, velocities: np.ndarray, dt: float) -> np.ndarray:
    """Advance (P, 2) pedestrian positions in a straight line at their (P, 2) velocities."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return positions + velocities * dt

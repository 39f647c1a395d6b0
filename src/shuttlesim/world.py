"""Static world description: obstacles, pedestrians and retroreflective signs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """Cylinder walking in a straight line at constant velocity."""

    position: tuple[float, float]  # bounded where a scenario loads: walking may carry it past any bound
    velocity: tuple[Coordinate, Coordinate] = (0.0, 0.0)
    height: Length = 1.7
    radius: Length = 0.3

    __post_init__ = check_bounds


@dataclass(frozen=True)
class SignSpec:
    """Flat rectangular sign; the front face returns the retroreflective intensity."""

    center: tuple[Coordinate, Coordinate, Coordinate]
    normal: tuple[float, float, float]
    width: Length = 0.75
    height: Length = 0.75
    intensity: Intensity = 200.0

    def __post_init__(self):
        check_bounds(self)
        n = math.hypot(*self.normal)
        if n == 0:
            raise ValueError("sign normal must be non-zero")
        object.__setattr__(self, "normal", tuple(c / n for c in self.normal))
        if abs(self.normal[2]) > 0.99:
            raise ValueError("sign must be close to vertical")


@dataclass(frozen=True)
class WorldModel:
    obstacles: tuple[BoxObstacle, ...] = ()
    pedestrians: tuple[Pedestrian, ...] = ()
    signs: tuple[SignSpec, ...] = ()


def step_pedestrians(world: WorldModel, dt: float) -> WorldModel:
    """Advance every pedestrian in a straight line."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    moved = tuple(
        replace(p, position=(p.position[0] + p.velocity[0] * dt,
                             p.position[1] + p.velocity[1] * dt))
        for p in world.pedestrians
    )
    return replace(world, pedestrians=moved)

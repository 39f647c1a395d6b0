"""Static world description: obstacles, pedestrians and retroreflective signs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BoxObstacle:
    """Axis-aligned box sitting on the ground."""

    center: tuple[float, float]
    size: tuple[float, float]
    height: float

    def __post_init__(self):
        if self.height <= 0 or min(self.size) <= 0:
            raise ValueError("box dimensions must be positive")


@dataclass(frozen=True)
class Pedestrian:
    """Cylinder walking in a straight line at constant velocity."""

    position: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    height: float = 1.7
    radius: float = 0.3

    def __post_init__(self):
        if self.height <= 0 or self.radius <= 0:
            raise ValueError("pedestrian dimensions must be positive")


@dataclass(frozen=True)
class SignSpec:
    """Flat rectangular sign; the front face returns the retroreflective intensity."""

    center: tuple[float, float, float]
    normal: tuple[float, float, float]
    width: float = 0.75
    height: float = 0.75
    intensity: float = 200.0

    def __post_init__(self):
        n = math.hypot(*self.normal)
        if n == 0:
            raise ValueError("sign normal must be non-zero")
        object.__setattr__(self, "normal", tuple(c / n for c in self.normal))
        if abs(self.normal[2]) > 0.99:
            raise ValueError("sign must be close to vertical")
        if not 0.0 <= self.intensity <= 255.0:
            raise ValueError("sign intensity must be within [0, 255]")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sign dimensions must be positive")


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

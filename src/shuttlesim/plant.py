"""Kinematic bicycle plant with calibrated actuator behaviour."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated

from shuttlesim.bounds import LIMIT, TINY, Bound, Fraction, Length, Positive, check_bounds

# Open-loop brake pedal map fitted on the real cart: pedal = 0.28*ln(decel) + 0.90.
# The plant inverts it so commanded and realised deceleration agree in the
# comfort range (~0.04 to ~1.4 m/s^2).
BRAKE_CURVE_SLOPE = 0.28
BRAKE_CURVE_OFFSET = 0.90


def normalize_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class VehicleParams:
    """Geometry and actuator calibration of the shuttle."""

    wheelbase: Length = 2.57
    steering_ratio: Positive = 16.8
    max_steer: Annotated[float, Bound(TINY, math.nextafter(math.pi / 2, 0.0), "within (0, pi/2)")] = 0.55  # rad
    throttle_gain: Annotated[Positive, LIMIT] = 2.5  # m/s^2 at full throttle
    max_decel: Positive = 5.0  # mechanical limit reached at full pedal, m/s^2
    brake_slew: Positive = 10.0  # brake force build/release rate, m/s^3
    panic_brake_pedal: Fraction = 0.995  # pedal position treated as full mechanical braking
    half_width: Length = 0.75
    front_overhang: Length = 3.2  # front bumper ahead of the rear axle, m
    lidar_mount_height: Length = 2.0
    lidar_offset_x: Length = 1.6  # mount ahead of the rear axle, m

    __post_init__ = check_bounds


@dataclass(frozen=True)
class VehicleState:
    """Pose and motion state of the simulated shuttle.

    ``brake_force`` is the realised brake deceleration currently delivered by
    the actuator; it lags the pedal because brake pressure cannot step.
    """

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    yaw_rate: float = 0.0
    accel: float = 0.0
    steer_angle: float = 0.0
    brake_force: float = 0.0


def brake_decel(brake: float, params: VehicleParams = VehicleParams()) -> float:
    """Steady deceleration produced by a brake pedal value in [0, 1].

    Inverse of the open-loop pedal map in the comfort range; at full pedal the
    mechanical maximum applies instead (the pedal map was only ever fitted on
    gentle stops and tops out near 1.4 m/s^2, far below what the cart actually
    delivers in a panic stop).
    """
    pedal = min(max(brake, 0.0), 1.0)
    if pedal >= params.panic_brake_pedal:
        return params.max_decel
    curve = math.exp((pedal - BRAKE_CURVE_OFFSET) / BRAKE_CURVE_SLOPE)
    return min(curve, params.max_decel)


def step_plant(
    state: VehicleState,
    params: VehicleParams,
    throttle: float,
    brake: float,
    steer_cmd: float,
    dt: float,
) -> VehicleState:
    """Advance the plant one step under (throttle, brake, front-wheel angle).

    Kinematic bicycle update: heading integrates v/L*tan(delta), position
    integrates along the new heading, speed integrates the net acceleration
    and is clamped at zero.
    """
    inputs = (state.x, state.y, state.heading, state.speed, state.accel,
              state.brake_force, throttle, brake, steer_cmd, dt)
    if not all(math.isfinite(v) for v in inputs):
        raise ValueError("non-finite plant input")
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must be in (0, 0.1], got {dt}")
    throttle = min(max(throttle, 0.0), 1.0)
    brake = min(max(brake, 0.0), 1.0)
    if throttle > 0.0 and brake > 0.0:
        raise ValueError("throttle and brake commanded together")

    delta = min(max(steer_cmd, -params.max_steer), params.max_steer)

    target_brake = brake_decel(brake, params)
    step = max(-params.brake_slew * dt, min(params.brake_slew * dt, target_brake - state.brake_force))
    brake_force = state.brake_force + step
    accel_cmd = params.throttle_gain * throttle - brake_force

    if state.speed <= 0.0 and accel_cmd <= 0.0:
        # Parked: brakes hold the cart, nothing moves.
        return replace(state, heading=normalize_angle(state.heading), speed=0.0, yaw_rate=0.0,
                       accel=0.0, steer_angle=delta, brake_force=0.0)

    yaw_rate = state.speed / params.wheelbase * math.tan(delta)
    heading = normalize_angle(state.heading + yaw_rate * dt)
    x = state.x + state.speed * math.cos(heading) * dt
    y = state.y + state.speed * math.sin(heading) * dt
    speed = max(0.0, state.speed + accel_cmd * dt)
    realized_accel = (speed - state.speed) / dt

    return VehicleState(
        x=x,
        y=y,
        heading=heading,
        speed=speed,
        yaw_rate=yaw_rate,
        accel=realized_accel,
        steer_angle=delta,
        brake_force=brake_force,
    )


def simulate_full_stop(
    speed: float, params: VehicleParams = VehicleParams(), dt: float = 0.02
) -> tuple[float, float]:
    """Distance and time for a full-brake stop from a steady cruise.

    Returns (distance_m, time_s).
    """
    if speed < 0:
        raise ValueError("speed must be non-negative")
    state = VehicleState(speed=speed)
    distance = 0.0
    elapsed = 0.0
    while state.speed > 0.0:
        prev_x = state.x
        state = step_plant(state, params, throttle=0.0, brake=1.0, steer_cmd=0.0, dt=dt)
        distance += state.x - prev_x
        elapsed += dt
        if elapsed > 60.0:
            raise RuntimeError("full-brake stop did not converge")
    return distance, elapsed

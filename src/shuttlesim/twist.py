"""Twist controller: turns (v, omega) targets into throttle/brake/steering.

Speed control runs a proportional speed loop whose acceleration command is
limited for ride comfort. Positive acceleration error goes through a PI
throttle controller with a smoothing filter on the output; negative error
releases the throttle and, for deceleration commands, applies the open-loop
brake pedal map. Angular velocity maps to a front-wheel angle through the
bicycle model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from shuttlesim.bounds import NonNegative, Positive, check_bounds
from shuttlesim.plant import BRAKE_CURVE_OFFSET, BRAKE_CURVE_SLOPE, VehicleParams


@dataclass(frozen=True)
class TwistCommand:
    """Target linear/angular velocity with acceleration limits (magnitudes)."""

    linear_v: float
    angular_w: float = 0.0
    accel_limit: float = 1.0
    decel_limit: float = 1.2

    def __post_init__(self):
        if self.linear_v < 0:
            raise ValueError("linear_v must be non-negative")
        if self.accel_limit <= 0 or self.decel_limit <= 0:
            raise ValueError("acceleration limits must be positive")


@dataclass(frozen=True)
class ActuatorCommand:
    throttle: float
    brake: float
    steer: float  # steering-wheel angle, rad (wheel angle * steering ratio)

    def __post_init__(self):
        if self.throttle * self.brake != 0.0:
            raise ValueError("throttle and brake are mutually exclusive")


@dataclass(frozen=True)
class ControllerState:
    filtered_accel: float = 0.0
    throttle_integrator: float = 0.0
    throttle_filter_state: float = 0.0
    prev_accel_error: float = 0.0


@dataclass(frozen=True)
class ControllerGains:
    kp_speed: Positive = 3.0  # speed error -> acceleration command
    kp_throttle: NonNegative = 0.35
    ki_throttle: NonNegative = 0.9
    integrator_limit: NonNegative = 0.8  # anti-windup clamp on the integral term
    throttle_filter_tau: NonNegative = 0.25  # jerk smoothing on the throttle output, s
    accel_filter_tau: NonNegative = 2.0  # accelerometer noise filter, s
    v_floor: Positive = 0.5  # guards the v->0 steering singularity, m/s

    __post_init__ = check_bounds


def lowpass(state: float, raw: float, dt: float, tau: float) -> float:
    """One step of a first-order filter: y += dt/(tau+dt) * (u - y)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return state + dt / (tau + dt) * (raw - state)


def brake_pedal_for(decel: float) -> float:
    """Open-loop pedal value for a requested deceleration magnitude."""
    if decel <= 0.0:
        return 0.0
    return min(max(BRAKE_CURVE_SLOPE * math.log(decel) + BRAKE_CURVE_OFFSET, 0.0), 1.0)


def speed_step(
    cmd: TwistCommand,
    v_meas: float,
    a_meas: float,
    state: ControllerState,
    dt: float,
    gains: ControllerGains = ControllerGains(),
) -> tuple[float, float, ControllerState]:
    """One speed-control step. Returns (throttle, brake, next_state)."""
    if not all(math.isfinite(v) for v in (cmd.linear_v, v_meas, a_meas, dt)):
        raise ValueError("non-finite controller input")

    a_filt = lowpass(state.filtered_accel, a_meas, dt, gains.accel_filter_tau)
    a_cmd = min(max(gains.kp_speed * (cmd.linear_v - v_meas), -cmd.decel_limit), cmd.accel_limit)
    error = a_cmd - a_filt

    # a stop command never throttles, even while the lagging acceleration
    # estimate says the cart is decelerating harder than asked
    if cmd.linear_v > 0.0 and error >= 0.0:
        # PI throttle with trapezoidal integration and conditional anti-windup.
        integ = state.throttle_integrator + gains.ki_throttle * 0.5 * (error + state.prev_accel_error) * dt
        integ = min(max(integ, -gains.integrator_limit), gains.integrator_limit)
        raw = gains.kp_throttle * error + integ
        if raw > 1.0:
            integ = min(integ, state.throttle_integrator)  # stop winding past saturation
            raw = 1.0
        elif raw < 0.0:
            raw = 0.0
        throttle = lowpass(state.throttle_filter_state, raw, dt, gains.throttle_filter_tau)
        throttle = min(max(throttle, 0.0), 1.0)
        next_state = ControllerState(a_filt, integ, throttle, error)
        return throttle, 0.0, next_state

    # A stop or a negative acceleration error releases the throttle. The pedal
    # is 0 unless a deceleration is commanded.
    return 0.0, brake_pedal_for(-a_cmd), ControllerState(a_filt, 0.0, 0.0, error)


def steer_from_twist(
    angular_w: float,
    v: float,
    params: VehicleParams = VehicleParams(),
    v_floor: float = 0.5,
) -> float:
    """Front-wheel angle achieving ``angular_w`` at speed ``v`` (bicycle model)."""
    delta = math.atan(angular_w * params.wheelbase / max(v, v_floor))
    return min(max(delta, -params.max_steer), params.max_steer)


class TwistController:
    """Stateful wrapper used by the harness; the pure steps live above."""

    def __init__(self, params: VehicleParams = VehicleParams(), gains: ControllerGains = ControllerGains()):
        self.params = params
        self.gains = gains
        self.state = ControllerState()

    def step(self, cmd: TwistCommand, v_meas: float, a_meas: float, dt: float) -> ActuatorCommand:
        throttle, brake, self.state = speed_step(cmd, v_meas, a_meas, self.state, dt, self.gains)
        delta = steer_from_twist(cmd.angular_w, v_meas, self.params, self.gains.v_floor)
        return ActuatorCommand(throttle=throttle, brake=brake, steer=delta * self.params.steering_ratio)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim.arbiter import Source, SpeedCommand
from shuttlesim.obstacles import Corridor, ObstacleReport
from shuttlesim.plant import VehicleParams, VehicleState, step_plant
from shuttlesim.twist import (
    ActuatorCommand,
    ControllerGains,
    ControllerState,
    TwistCommand,
    TwistController,
    lowpass,
    speed_step,
    steer_from_twist,
)

PARAMS = VehicleParams()
DT = 0.02


def test_lowpass_zero():
    assert lowpass(0.0, 0.0, dt=0.02, tau=2.0) == 0.0


def test_lowpass_half_step():
    # dt/(tau+dt) = 0.5 when dt == tau
    assert lowpass(0.0, 1.0, dt=2.0, tau=2.0) == pytest.approx(0.5)


def test_lowpass_converges_within_5_tau():
    y = 0.0
    t = 0.0
    while t < 5 * 2.0:
        y = lowpass(y, 1.0, DT, 2.0)
        t += DT
    assert abs(y - 1.0) < 0.01


def test_zero_error_steady_state():
    state = ControllerState()
    throttle, brake, state = speed_step(TwistCommand(3.0, 0.0, 1.0, 1.2), v_meas=3.0, a_meas=0.0, state=state, dt=DT)
    assert throttle == pytest.approx(0.0, abs=1e-6)
    assert brake == pytest.approx(0.0, abs=1e-6)


def test_brake_pedal_for_unit_decel():
    # a_cmd = -1.0 -> pedal 0.90
    cmd = TwistCommand(0.0, 0.0, 1.0, 1.0)
    # force a_cmd to the decel limit with a large speed error; filtered accel 0
    throttle, brake, _ = speed_step(cmd, v_meas=5.0, a_meas=0.0, state=ControllerState(), dt=DT)
    assert throttle == 0.0
    assert brake == pytest.approx(0.90, abs=1e-9)


def test_brake_clamped_to_zero_for_tiny_decel():
    cmd = TwistCommand(0.0, 0.0, 1.0, 0.02)
    throttle, brake, _ = speed_step(cmd, v_meas=5.0, a_meas=0.0, state=ControllerState(), dt=DT)
    assert throttle == 0.0
    assert brake == 0.0  # 0.28*ln(0.02)+0.9 < 0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COMMAND = st.builds(TwistCommand, linear_v=st.floats(min_value=0.0, allow_infinity=False),
                    angular_w=FINITE, accel_limit=POSITIVE, decel_limit=POSITIVE)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(COMMAND, FINITE, FINITE), min_size=1, max_size=50))
def test_mutual_exclusion_random_sequences(steps):
    # steps of (command, measured speed, measured accel) through one controller
    controller = TwistController(PARAMS)
    for cmd, speed, accel in steps:
        act = controller.step(cmd, speed, accel, DT)
        assert min(act.throttle, act.brake) == 0.0
        assert 0.0 <= controller.state.throttle_filter_state <= 1.0


def test_actuator_command_invariant():
    with pytest.raises(ValueError):
        ActuatorCommand(throttle=0.5, brake=0.5, steer=0.0)


# a valid command, and one of its fields with a value the checks refuse (-0.0 and -inf among them)
VALID_TWIST = st.tuples(st.floats(min_value=0.0), FINITE, POSITIVE, POSITIVE)
BAD_TWIST_FIELD = (st.tuples(st.just("linear_v"), st.floats(max_value=0.0, exclude_max=True))
                   | st.tuples(st.sampled_from(["accel_limit", "decel_limit"]), st.floats(max_value=0.0)))


@given(valid=VALID_TWIST, bad=BAD_TWIST_FIELD)
def test_no_way_of_building_a_twist_command_skips_its_checks(valid, bad):
    # a NamedTuple's own ``_make``, and ``_replace`` through it, would build the tuple past ``__new__``
    good = TwistCommand(*valid)
    assert TwistCommand._make(valid) == good == good._replace() and type(good._replace()) is TwistCommand
    name, value = bad
    fields = tuple(value if field == name else v for field, v in zip(TwistCommand._fields, valid))
    for build in (lambda: TwistCommand(*fields), lambda: TwistCommand._make(fields),
                  lambda: good._replace(**{name: value})):
        with pytest.raises(ValueError):
            build()


@given(throttle=st.floats(), brake=st.floats(), steer=FINITE)
@example(throttle=0.5, brake=0.5, steer=0.0)
@example(throttle=math.inf, brake=0.0, steer=0.0)  # inf * 0 is nan, which is not 0
@example(throttle=1e-200, brake=1e-200, steer=0.0)  # two pedals on whose product underflows to 0
def test_no_way_of_building_an_actuator_command_skips_its_check(throttle, brake, steer):
    builds = (lambda: ActuatorCommand(throttle, brake, steer), lambda: ActuatorCommand._make((throttle, brake, steer)),
              lambda: ActuatorCommand(0.0, 0.0, steer)._replace(throttle=throttle, brake=brake))
    # a command has one pedal at zero and the other a finite number
    one_pedal = (throttle == 0.0 and math.isfinite(brake)) or (brake == 0.0 and math.isfinite(throttle))
    for build in builds:
        if not one_pedal:
            with pytest.raises(ValueError, match="mutually exclusive"):
                build()
        else:
            act = build()
            assert type(act) is ActuatorCommand and repr(tuple(act)) == repr((throttle, brake, steer))


PER_TICK_VALUES = (VehicleState(), TwistCommand(1.0, 0.0, 1.0, 1.2), ActuatorCommand(0.5, 0.0, 0.1), ControllerState(),
                   SpeedCommand(TwistCommand(1.0, 0.0, 1.0, 1.2), Source.WAYPOINT), Corridor(None, 15.0, 1.15, 3.2),
                   ObstacleReport(False))


@pytest.mark.parametrize("value", PER_TICK_VALUES, ids=lambda v: type(v).__name__)
def test_per_tick_values_are_immutable(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):  # and no instance dictionary to hold a new attribute
        value.extra = 1.0


def test_steer_zero():
    assert steer_from_twist(0.0, 3.0, PARAMS) == 0.0


def test_steer_closed_form():
    delta = steer_from_twist(0.3, 3.0, PARAMS)
    assert delta == pytest.approx(math.atan(0.3 * 2.57 / 3.0), rel=1e-12)
    assert delta == pytest.approx(0.252, abs=2e-3)


def test_steer_velocity_floor_and_clamp():
    delta = steer_from_twist(1.0, 0.0, PARAMS)
    assert delta == min(math.atan(1.0 * PARAMS.wheelbase / 0.5), PARAMS.max_steer)
    assert delta == PARAMS.max_steer  # atan(5.14) ~ 1.38 rad, clamped


def test_steer_monotone_in_omega():
    deltas = [steer_from_twist(w, 3.0, PARAMS) for w in np.linspace(-0.4, 0.4, 41)]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


def closed_loop_speed_profile(target, seconds, gains=ControllerGains()):
    controller = TwistController(PARAMS, gains)
    state = VehicleState()
    trace = []
    for _ in range(int(seconds / DT)):
        act = controller.step(TwistCommand(target, 0.0, 1.0, 1.2), state.speed, state.accel, DT)
        state = step_plant(state, PARAMS, act.throttle, act.brake, act.steer / PARAMS.steering_ratio, DT)
        trace.append(state.speed)
    return np.asarray(trace)


def test_step_response_tracking():
    # 0 -> 3 m/s step: settle within +-0.2 m/s in <= 8 s, overshoot <= 15 %
    trace = closed_loop_speed_profile(3.0, 12.0)
    assert trace.max() <= 3.0 * 1.15
    settled = np.abs(trace[int(8.0 / DT):] - 3.0) <= 0.2
    assert settled.all()


def test_braking_consistency_comfort_range():
    # Commanded decelerations in the pedal map's fitted range must be realised
    # within 5 % once the brake force has built up.
    for a in np.linspace(0.05, 1.35, 14):
        cmd = TwistCommand(0.0, 0.0, 1.0, float(a))
        controller = TwistController(PARAMS)
        state = VehicleState(speed=4.5)
        # run long enough for the pedal force to settle, then measure
        for _ in range(30):
            act = controller.step(cmd, state.speed, state.accel, DT)
            state = step_plant(state, PARAMS, act.throttle, act.brake, act.steer / PARAMS.steering_ratio, DT)
        v0 = state.speed
        n = 25
        for _ in range(n):
            act = controller.step(cmd, state.speed, state.accel, DT)
            state = step_plant(state, PARAMS, act.throttle, act.brake, act.steer / PARAMS.steering_ratio, DT)
        realized = (v0 - state.speed) / (n * DT)
        assert realized == pytest.approx(a, rel=0.05)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shuttlesim.plant import (
    VehicleParams,
    VehicleState,
    brake_decel,
    normalize_angle,
    simulate_full_stop,
    step_plant,
)

PARAMS = VehicleParams()
DT = 0.02


def test_equilibrium_state_unchanged():
    state = VehicleState()
    out = step_plant(state, PARAMS, throttle=0.0, brake=0.0, steer_cmd=0.0, dt=DT)
    assert out == state


def test_full_brake_stop_from_3mps():
    distance, elapsed = simulate_full_stop(3.0, PARAMS, dt=DT)
    assert distance == pytest.approx(1.6, abs=0.15)
    assert elapsed == pytest.approx(0.8, abs=0.1)


# throttle that exactly balances the rolling drag at pedal 0
HOLD_THROTTLE = brake_decel(0.0, PARAMS) / PARAMS.throttle_gain
CRUISE = brake_decel(0.0, PARAMS)


def test_circular_arc_oracle():
    # tan(delta) = L/10 gives a 10 m turn radius; after driving pi*10 m the
    # heading should have changed by pi and the path radius match within 1%.
    radius = 10.0
    delta = math.atan(PARAMS.wheelbase / radius)
    v = 3.0
    state = VehicleState(speed=v, brake_force=CRUISE)
    arc = math.pi * radius
    steps = int(round(arc / (v * DT)))
    xs, ys = [], []
    for _ in range(steps):
        state = step_plant(state, PARAMS, throttle=HOLD_THROTTLE, brake=0.0, steer_cmd=delta, dt=DT)
        xs.append(state.x)
        ys.append(state.y)
    assert state.speed == pytest.approx(v, abs=1e-9)
    assert abs(normalize_angle(state.heading - math.pi)) < 0.05
    # circle centre is at (0, radius) for a left turn started at the origin
    r_meas = np.hypot(np.array(xs), np.array(ys) - radius)
    assert np.all(np.abs(r_meas - radius) / radius < 0.01)


def test_full_circle_radius_within_one_percent():
    radius = 10.0
    delta = math.atan(PARAMS.wheelbase / radius)
    v = 2.0
    state = VehicleState(speed=v, brake_force=CRUISE)
    steps = int(round(2 * math.pi * radius / (v * DT)))
    pts = []
    for _ in range(steps):
        state = step_plant(state, PARAMS, throttle=HOLD_THROTTLE, brake=0.0, steer_cmd=delta, dt=DT)
        pts.append((state.x, state.y))
    pts = np.asarray(pts)
    r_meas = np.hypot(pts[:, 0], pts[:, 1] - radius)
    assert abs(np.mean(r_meas) - radius) / radius < 0.01


def test_brake_decel_pedal_map():
    assert brake_decel(0.90, PARAMS) == pytest.approx(1.0)
    assert brake_decel(0.0, PARAMS) == pytest.approx(math.exp(-0.9 / 0.28), rel=1e-9)
    assert brake_decel(0.0, PARAMS) == pytest.approx(0.040, abs=0.001)
    # full pedal engages the mechanical maximum
    assert brake_decel(1.0, PARAMS) == PARAMS.max_decel
    # comfort range stays on the fitted curve
    assert brake_decel(0.5, PARAMS) == pytest.approx(math.exp((0.5 - 0.9) / 0.28))


def test_brake_decel_clamps_input():
    assert brake_decel(-0.2, PARAMS) == brake_decel(0.0, PARAMS)
    assert brake_decel(1.7, PARAMS) == PARAMS.max_decel


def test_speed_non_increasing_without_throttle():
    rng = np.random.default_rng(7)
    state = VehicleState(speed=4.0)
    prev = state.speed
    for _ in range(300):
        brake = float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.5 else 0.0
        steer = float(rng.uniform(-0.5, 0.5))
        state = step_plant(state, PARAMS, throttle=0.0, brake=brake, steer_cmd=steer, dt=DT)
        assert state.speed <= prev + 1e-12
        prev = state.speed


def test_determinism_bit_identical():
    def run():
        state = VehicleState(speed=1.0)
        trail = []
        for k in range(200):
            state = step_plant(
                state, PARAMS,
                throttle=0.3 if k % 3 else 0.0,
                brake=0.0 if k % 3 else 0.4,
                steer_cmd=0.1 * math.sin(k / 10),
                dt=DT,
            )
            trail.append((state.x, state.y, state.heading, state.speed))
        return trail

    assert run() == run()


def test_rejects_bad_inputs():
    state = VehicleState()
    with pytest.raises(ValueError):
        step_plant(state, PARAMS, throttle=float("nan"), brake=0.0, steer_cmd=0.0, dt=DT)
    with pytest.raises(ValueError):
        step_plant(state, PARAMS, throttle=0.0, brake=0.0, steer_cmd=0.0, dt=0.0)
    with pytest.raises(ValueError):
        step_plant(state, PARAMS, throttle=0.0, brake=0.0, steer_cmd=0.0, dt=0.2)
    with pytest.raises(ValueError):
        step_plant(state, PARAMS, throttle=0.5, brake=0.5, steer_cmd=0.0, dt=DT)


def test_steering_clamped():
    state = VehicleState(speed=2.0)
    out = step_plant(state, PARAMS, throttle=0.0, brake=0.0, steer_cmd=2.0, dt=DT)
    assert out.steer_angle == PARAMS.max_steer


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(wheelbase=-1.0)


# far beyond any physical state, but not so large that one step overflows a float
LARGE = st.floats(-1e6, 1e6)
PEDAL = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@example(state=VehicleState(heading=4.0), pedals=(0.0, 0.0), steer=0.0, dt=DT)  # parked
@given(
    state=st.builds(VehicleState, x=LARGE, y=LARGE, speed=LARGE, yaw_rate=LARGE, accel=LARGE,
                    steer_angle=LARGE, brake_force=LARGE,
                    heading=st.floats(allow_nan=False, allow_infinity=False)),
    pedals=st.one_of(st.tuples(PEDAL, st.just(0.0)), st.tuples(st.just(0.0), PEDAL)),
    steer=st.floats(-PARAMS.max_steer, PARAMS.max_steer),
    dt=st.floats(0.0, 0.1, exclude_min=True),
)
def test_step_plant_keeps_state_finite_and_speed_non_negative(state, pedals, steer, dt):
    throttle, brake = pedals
    out = step_plant(state, PARAMS, throttle=throttle, brake=brake, steer_cmd=steer, dt=dt)
    assert math.isfinite(out.speed) and out.speed >= 0.0
    assert math.isfinite(out.x) and math.isfinite(out.y)
    assert -math.pi <= out.heading <= math.pi

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shuttlesim.arbiter import (
    DisplayTracker,
    Message,
    Source,
    SpeedCommand,
    display_message,
    select,
)
from shuttlesim.twist import TwistCommand
from tests.conftest import replace_select


def cmd(v, source, w=0.0, decel=1.2):
    return SpeedCommand(TwistCommand(v, w, 1.0, decel), source)


def test_select_minimum_speed():
    out = select([cmd(3.0, Source.WAYPOINT), cmd(1.5, Source.OBSTACLE), cmd(2.0, Source.SIGN)])
    assert out.source is Source.OBSTACLE
    assert out.twist.linear_v == 1.5


def test_select_tie_broken_by_decel():
    obstacle = cmd(0.0, Source.OBSTACLE, decel=5.0)
    sign = cmd(0.0, Source.SIGN, decel=0.45)
    out = select([sign, obstacle])
    assert out.source is Source.OBSTACLE
    assert out.twist.decel_limit == 5.0


def test_select_tie_broken_by_priority():
    a = cmd(0.0, Source.SIGN, decel=1.0)
    b = cmd(0.0, Source.MANUAL_STOP, decel=1.0)
    out = select([a, b])
    assert out.source is Source.MANUAL_STOP


def test_single_waypoint_passthrough():
    only = cmd(2.5, Source.WAYPOINT, w=0.3)
    assert select([only]) == only


def test_angular_velocity_always_from_waypoint():
    wp = cmd(3.0, Source.WAYPOINT, w=0.31)
    ob = cmd(1.0, Source.OBSTACLE, w=0.0)
    out = select([wp, ob])
    assert out.source is Source.OBSTACLE
    assert out.twist.angular_w == 0.31


def test_select_is_minimum_over_random_lists():
    rng = np.random.default_rng(8)
    sources = list(Source)
    for _ in range(200):
        cmds = [
            cmd(float(rng.uniform(0, 4)), sources[int(rng.integers(0, 4))],
                decel=float(rng.uniform(0.1, 5)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        out = select(cmds)
        assert out.twist.linear_v == min(c.twist.linear_v for c in cmds)


COMMANDS = st.lists(
    st.builds(
        cmd,
        v=st.floats(0.0, 1e6),
        source=st.sampled_from(list(Source)),
        w=st.floats(-1e6, 1e6),
        decel=st.floats(1e-3, 1e3),
    ),
    min_size=1,
    max_size=8,
)


@given(COMMANDS)
def test_select_takes_minimum_speed_and_waypoint_omega(cmds):
    out = select(cmds)
    assert out.twist.linear_v == min(c.twist.linear_v for c in cmds)
    assert out.source in {c.source for c in cmds if c.twist.linear_v == out.twist.linear_v}
    waypoint = next((c for c in cmds if c.source is Source.WAYPOINT), None)
    if waypoint is not None:
        assert out.twist.angular_w == waypoint.twist.angular_w


def test_select_empty_rejected():
    with pytest.raises(ValueError):
        select([])


def test_display_message_thresholds():
    assert display_message(0.0) is Message.STOPPED
    assert display_message(3.0) is Message.MOVING
    with pytest.raises(ValueError):
        display_message(-0.1)


def test_display_hysteresis_no_chatter():
    tracker = DisplayTracker()
    tracker.update(3.0)
    # oscillating between 0.12 and 0.08 must not toggle the message
    tracker.update(0.08)
    assert tracker.message is Message.STOPPED
    for k in range(20):
        assert tracker.update(0.12 if k % 2 else 0.08) is Message.STOPPED
    assert tracker.update(0.2) is Message.MOVING


def test_display_transitions_at_exact_thresholds():
    tracker = DisplayTracker()
    tracker.update(1.0)
    # ramp down: switches strictly below 0.1
    assert tracker.update(0.1) is Message.MOVING
    assert tracker.update(0.0999) is Message.STOPPED
    # ramp up: switches at 0.2
    assert tracker.update(0.1999) is Message.STOPPED
    assert tracker.update(0.2) is Message.MOVING


# every order of every set of sources, a lone command included; speeds and
# braking drawn from few values so that ties are common
ORDERED = st.permutations(list(Source)).flatmap(lambda order: st.integers(1, len(order)).map(lambda k: order[:k]))


def tied(source):
    return st.builds(
        cmd,
        v=st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e6),
        source=st.just(source),
        w=st.sampled_from([0.0, -0.0, 0.3]) | st.floats(-1e6, 1e6),
        decel=st.sampled_from([1.2, 5.0]) | st.floats(1e-3, 1e3),
    )


@given(sources=ORDERED, data=st.data())
def test_select_matches_the_replace_form(sources, data):
    cmds = [data.draw(tied(source)) for source in sources]
    out, want = select(cmds), replace_select(cmds)
    assert out == want
    assert repr(out) == repr(want)  # field by field, the sign of a zero too
    # tuples compare equal across types, so the types are checked on their own
    assert (type(out), type(out.twist)) == (type(want), type(want.twist)) == (SpeedCommand, TwistCommand)
    if len(cmds) == 1:
        assert out is cmds[0]


def test_select_still_rejects_a_winner_the_twist_check_rejects():
    bad = tuple.__new__(TwistCommand, (1.0, 0.0, 0.0, 1.2))  # past the checks in TwistCommand.__new__
    assert bad.accel_limit == 0.0
    cmds = [cmd(3.0, Source.WAYPOINT, w=0.2), SpeedCommand(bad, Source.OBSTACLE)]
    for arbitrate in (select, replace_select):
        with pytest.raises(ValueError, match="acceleration limits must be positive"):
            arbitrate(cmds)

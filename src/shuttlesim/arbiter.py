"""Speed arbitration and the pedestrian-facing display state.

The arbiter picks the lowest commanded linear velocity each cycle; ties go to
the strictest deceleration and then to a fixed source priority. Angular
velocity always comes from the waypoint follower since perception only
modifies speed.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from shuttlesim.twist import TwistCommand

STOPPED_BELOW = 0.1  # m/s
MOVING_ABOVE = 0.2  # hysteresis: re-enter MOVING at this speed


class Source(str, Enum):
    WAYPOINT = "waypoint"
    OBSTACLE = "obstacle"
    SIGN = "sign"
    MANUAL_STOP = "manual-stop"


# larger wins ties; safety interventions outrank the route
_PRIORITY = {
    Source.MANUAL_STOP: 3,
    Source.OBSTACLE: 2,
    Source.SIGN: 1,
    Source.WAYPOINT: 0,
}


class SpeedCommand(NamedTuple):
    twist: TwistCommand
    source: Source


def select(commands: list[SpeedCommand]) -> SpeedCommand:
    """Pick the winning command: lowest speed, then strongest braking, then priority."""
    if len(commands) == 1:
        return commands[0]
    if not commands:
        raise ValueError("arbiter needs at least one command")
    winner = min(
        commands,
        key=lambda c: (c.twist.linear_v, -c.twist.decel_limit, -_PRIORITY[c.source]),
    )
    waypoint = next((c for c in commands if c.source is Source.WAYPOINT), None)
    if waypoint is not None and winner is not waypoint:
        w = winner.twist  # built directly: ``_replace`` costs more than the constructor
        winner = SpeedCommand(TwistCommand(w.linear_v, waypoint.twist.angular_w, w.accel_limit, w.decel_limit),
                              winner.source)
    return winner


class Message(str, Enum):
    MOVING = "MOVING"
    STOPPED = "STOPPED"


def display_message(v_meas: float) -> Message:
    """Stateless classification used when no history exists."""
    if v_meas < 0:
        raise ValueError("speed must be non-negative")
    return Message.STOPPED if v_meas < STOPPED_BELOW else Message.MOVING


class DisplayTracker:
    """Hysteretic display state so the message does not chatter near zero speed."""

    def __init__(self):
        self.message: Message | None = None

    def update(self, v_meas: float) -> Message:
        if self.message is None:
            self.message = display_message(v_meas)
        elif self.message is Message.MOVING and v_meas < STOPPED_BELOW:
            self.message = Message.STOPPED
        elif self.message is Message.STOPPED and v_meas >= MOVING_ABOVE:
            self.message = Message.MOVING
        return self.message

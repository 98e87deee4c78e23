"""Planar kinematic model of the wheel loader.

The vehicle drives straight along its heading at a constant cruise speed
unless the brake is engaged; there is no engine or hydraulics model, so a
released brake restores cruise speed instantly (an external throttle
acceleration can be injected for emulation runs, see
:func:`step_vehicle`). The boom lift is a rate-limited actuator over a
normalized [0, 1] range. Integration is explicit Euler at a fixed caller
supplied timestep.

Heading convention: heading 0 points along +y and the x component grows
with sin(heading), i.e. a compass-style angle measured from the y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import flatcfg


class BrakeModel(Enum):
    """How an engaged brake decelerates the vehicle."""

    IDEAL = "ideal"
    TAPERED = "tapered"


@dataclass(frozen=True)
class TaperParams:
    """Smooth-brake parameters: pedal starts at ``initial_pedal`` on
    engagement and decays exponentially while held.

    The default time constant is chosen so the sustained braking impulse
    ``initial_pedal * ideal_decel * taper_time_constant`` comfortably
    exceeds the cruise speed, otherwise a held brake could never bring
    the vehicle to a stop.
    """

    initial_pedal: float = 0.6
    taper_time_constant: float = 2.5

    def __post_init__(self) -> None:
        flatcfg.check_fields(self, positive=("taper_time_constant",))
        if not (0.0 < self.initial_pedal <= 1.0):
            raise ValueError(f"initial_pedal must be in (0, 1], got {self.initial_pedal}")


@dataclass(frozen=True)
class VehicleParams:
    """Static properties of the simulated loader."""

    cruise_speed: float = 2.0       # m/s
    ideal_decel: float = 2.0        # m/s^2
    lift_rate: float = 0.15         # fraction of lift range per second
    lift_min: float = 0.0
    lift_max: float = 1.0
    taper: TaperParams = field(default_factory=TaperParams)

    def __post_init__(self) -> None:
        flatcfg.check_fields(self, positive=("cruise_speed", "ideal_decel", "lift_rate"))
        if not self.lift_min < self.lift_max:
            raise ValueError("lift_min must be < lift_max")


@dataclass(frozen=True)
class Controls:
    """The agent's two binary commands."""

    brake: int
    lift_up: int

    def __post_init__(self) -> None:
        if self.brake not in (0, 1):
            raise ValueError(f"brake must be 0 or 1, got {self.brake!r}")
        if self.lift_up not in (0, 1):
            raise ValueError(f"lift_up must be 0 or 1, got {self.lift_up!r}")


# The four controls, ``CONTROLS[brake][lift_up]``. Policies return these
# shared records rather than building and checking one per decision.
CONTROLS = ((Controls(0, 0), Controls(0, 1)), (Controls(1, 0), Controls(1, 1)))


@dataclass(frozen=True)
class VehicleState:
    """Pose, speed and actuator state at one instant.

    ``brake_pedal`` carries the tapered-brake pedal fraction between
    steps so :func:`step_vehicle` stays a pure state -> state map; it is
    0.0 whenever the brake is disengaged and under the ideal model.
    """

    x: float
    y: float
    heading: float
    speed: float
    lift: float
    elapsed: float = 0.0
    brake_pedal: float = 0.0

    def is_finite(self) -> bool:
        isfinite = math.isfinite
        return (
            isfinite(self.x) and isfinite(self.y) and isfinite(self.heading)
            and isfinite(self.speed) and isfinite(self.lift) and isfinite(self.elapsed)
            and isfinite(self.brake_pedal)
        )


def tapered_brake_decel(
    pedal_state: float, dt: float, taper: TaperParams, ideal_decel: float
) -> tuple[float, float]:
    """One engaged-brake step of the tapered pedal model.

    A pedal at rest (0) means this is the first engagement step, which
    sets it to ``initial_pedal``; a held pedal decays by
    ``exp(-dt / taper_time_constant)``. Returns ``(decel, new_pedal)``
    where ``decel = new_pedal * ideal_decel``. Disengagement is handled
    by the caller resetting the pedal to 0.
    """
    if pedal_state <= 0.0:
        pedal = taper.initial_pedal
    else:
        pedal = pedal_state * math.exp(-dt / taper.taper_time_constant)
    return pedal * ideal_decel, pedal


def step_vehicle(
    state: VehicleState,
    controls: Controls,
    dt: float,
    params: VehicleParams,
    brake_model: BrakeModel = BrakeModel.IDEAL,
    throttle_accel: float | None = None,
) -> VehicleState:
    """Advance the vehicle one explicit-Euler step.

    Position integrates the pre-step speed along the heading, then the
    speed updates: braking decelerates per the chosen model, otherwise
    the speed snaps to cruise (no engine model). When ``throttle_accel``
    is given, the snap is replaced by ``v += throttle_accel * dt`` so an
    external speed controller can shape acceleration. The lift
    integrates ``lift_rate * dt`` while ``lift_up`` is held, clamped to
    its range. Speed is clamped to [0, cruise_speed]. ValueError is
    raised for a ``dt`` that is not finite and positive, and for a
    non-finite ``throttle_accel`` or state field.
    """
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a finite positive number, got {dt!r}")
    # max(0.0, nan) is 0.0: a NaN throttle would silently stop the vehicle
    if throttle_accel is not None and not math.isfinite(throttle_accel):
        raise ValueError(f"throttle_accel must be finite, got {throttle_accel!r}")
    if not state.is_finite():
        raise ValueError(f"vehicle state has non-finite fields: {state}")

    x = state.x + state.speed * math.sin(state.heading) * dt
    y = state.y + state.speed * math.cos(state.heading) * dt

    if controls.brake:
        if brake_model is BrakeModel.TAPERED:
            decel, pedal = tapered_brake_decel(state.brake_pedal, dt, params.taper, params.ideal_decel)
        else:
            decel, pedal = params.ideal_decel, 0.0
        speed = max(0.0, state.speed - decel * dt)
    else:
        pedal = 0.0
        if throttle_accel is None:
            speed = params.cruise_speed
        else:
            speed = state.speed + throttle_accel * dt
    speed = min(params.cruise_speed, max(0.0, speed))

    if controls.lift_up:
        lift = min(params.lift_max, state.lift + params.lift_rate * dt)
    else:
        lift = state.lift
    lift = min(params.lift_max, max(params.lift_min, lift))

    return VehicleState(x, y, state.heading, speed, lift, state.elapsed + dt, pedal)

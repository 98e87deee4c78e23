"""Scripted reference policy and independent reward re-computation.

The scripted policy is optimal-by-construction for the default task:
lift until the goal fraction, brake once the remaining distance falls
inside the ideal stopping distance plus a margin. It serves as a test
oracle for the environment and as a performance ceiling for trained
agents. ``reward_oracle`` re-derives every per-step reward of a trace
from raw kinematic columns with a separate, deliberately plain
transcription of the reward rules, so the environment's bookkeeping is
checked end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .env import EnvConfig, Controls, Observation
from .sim import CONTROLS, VehicleParams
from .trace import EpisodeTrace


@dataclass(frozen=True)
class OracleConfig:
    brake_margin: float = 0.1  # m; absorbs one-step discrete overshoot
    env: EnvConfig = field(default_factory=EnvConfig)
    vehicle: VehicleParams = field(default_factory=VehicleParams)

    def __post_init__(self) -> None:
        if self.brake_margin < 0.0:
            raise ValueError(f"brake_margin must be >= 0, got {self.brake_margin}")

    @cached_property
    def rule(self) -> Callable[[Observation], Controls]:
        """The stateless optimal-by-construction policy, with this config's
        constants bound on first read: brake when the straight-line distance
        is at most the ideal stopping distance v^2/(2a) plus the margin;
        lift until the goal fraction."""
        two_decel = 2.0 * self.vehicle.ideal_decel
        margin, goal = self.brake_margin, self.env.lift_goal_frac
        hypot = math.hypot

        def decide(obs: Observation) -> Controls:
            rel_x, rel_y, speed, lift = obs
            brake = 1 if hypot(rel_x, rel_y) <= speed * speed / two_decel + margin else 0
            return CONTROLS[brake][1 if lift <= goal else 0]

        return decide


class LatchedBrakePolicy:
    """Scripted policy that holds the brake once it first engages.

    Under tapered braking or delayed sensing the stateless rule can
    release mid-stop (the observed distance drifts outside the trigger
    band while still moving) and the speed controller would then drive
    the vehicle away; latching turns the maneuver into a single
    brake-to-stop, which is what the overshoot comparisons measure.
    """

    def __init__(self, oracle: OracleConfig):
        self.rule = oracle.rule
        self.braking = False

    def __call__(self, obs: Observation) -> Controls:
        action = self.rule(obs)
        if action.brake:
            self.braking = True
        if self.braking:
            action = CONTROLS[1][action.lift_up]
        return action

    def reset(self) -> None:
        self.braking = False


def reward_oracle(trace: EpisodeTrace, config: EnvConfig) -> float:
    """Recompute the accumulated reward of a trace from raw columns.

    Works purely from per-row (x, y, rel_x, rel_y, speed, lift, step, t)
    plus the trace's initial distance/lift metadata; termination flags
    are re-derived, not read from the reward columns. Raises ValueError
    for rows that are malformed or missing, for a value it reads that is
    not finite, and for a distance too large to compute.
    """
    rows = trace.rows
    if not rows:
        raise ValueError("empty trace")
    needed = ("step", "t", "x", "y", "rel_x", "rel_y", "speed", "lift")
    if not set(needed).issubset(trace.columns):
        raise ValueError(f"trace lacks columns {sorted(set(needed) - set(trace.columns))}")

    goal = config.lift_goal_frac
    prev_distance = trace.initial_distance
    prev_lift = trace.initial_lift
    if not (math.isfinite(prev_distance) and math.isfinite(prev_lift)):
        raise ValueError(f"initial distance and lift must be finite, got "
                         f"{prev_distance!r} and {prev_lift!r}")
    total = 0.0
    for i, row in enumerate(rows):
        bad = {name: row[name] for name in needed if not math.isfinite(row[name])}
        if bad:
            raise ValueError(f"row {i}: values must be finite, got {bad}")
        try:
            distance = math.sqrt(row["rel_x"] ** 2 + row["rel_y"] ** 2)
            from_start = math.sqrt(row["x"] ** 2 + row["y"] ** 2)
        except OverflowError as e:
            raise ValueError(f"row {i}: distance out of range: {e}") from e
        out_of_range = from_start > config.out_of_range_radius
        timed_out = row["step"] * config.dt >= config.max_episode_time
        if out_of_range or timed_out:
            r = -1.0
        elif distance < config.vicinity and row["speed"] < config.speed_threshold and row["lift"] > goal:
            r = 1.0
        else:
            r = prev_distance - distance
            r += config.lift_reward_scale * (min(row["lift"], goal) - min(prev_lift, goal))
            r -= config.time_penalty_tc * row["step"]
        total += r
        prev_distance = distance
        prev_lift = row["lift"]
    return total


def max_reward_bound(config: EnvConfig) -> float:
    """Upper bound on an episode's accumulated reward with zero time
    penalty and the nominal starting lift.

    Distance shaping telescopes to at most the initial distance, lift
    shaping is capped at the goal, and a successful terminal step adds
    exactly +1.
    """
    return (
        config.target_distance
        + config.lift_reward_scale * (config.lift_goal_frac - config.lift_start_mean)
        + 1.0
    )

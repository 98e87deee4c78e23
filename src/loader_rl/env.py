"""Episodic approach-and-lift environment.

One episode: the loader starts at the origin with a random heading,
driving at cruise speed, boom at roughly half lift. A stopping point
sits a fixed distance straight ahead. The agent issues two binary
commands per step (brake, lift up) and earns shaped reward for closing
distance and raising the boom, +1 for stopping inside the vicinity at
low speed with the boom past the lift goal, and -1 for leaving the
valid range or running out the clock.

The observation gives the componentwise absolute offsets to the target,
so it is positive regardless of heading and does not distinguish being
short of the point from being past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import flatcfg
from .sim import BrakeModel, Controls, VehicleParams, VehicleState, step_vehicle


class Outcome(Enum):
    RUNNING = "Running"
    SUCCESS = "Success"
    OUT_OF_RANGE = "OutOfRange"
    TIMEOUT = "Timeout"


# the most plant steps an episode may last (the default episode lasts 750):
# an episode of max_episode_time / dt steps must end in bounded time
MAX_EPISODE_STEPS = 100_000


@dataclass(frozen=True)
class EnvConfig:
    target_distance: float = 5.0
    vicinity: float = 1.5
    speed_threshold: float = 0.1
    lift_goal_frac: float = 0.95
    out_of_range_radius: float = 10.0
    max_episode_time: float = 15.0
    time_penalty_tc: float = 1e-4
    # Default scale makes the total lift shaping over lift_start_mean ->
    # lift_goal_frac equal the total distance shaping over target_distance.
    lift_reward_scale: float = 5.0 / 0.45
    dt: float = 1.0 / 50.0
    lift_start_mean: float = 0.5
    lift_start_jitter: float = 0.03

    def __post_init__(self) -> None:
        flatcfg.check_fields(
            self, positive=("speed_threshold", "dt", "max_episode_time"),
            nonnegative=("lift_start_jitter", "time_penalty_tc", "lift_reward_scale"),
        )
        if not (self.vicinity < self.target_distance < self.out_of_range_radius):
            raise ValueError("need vicinity < target_distance < out_of_range_radius")
        if not (0.0 < self.lift_goal_frac < 1.0):
            raise ValueError(f"lift_goal_frac must be in (0, 1), got {self.lift_goal_frac}")
        steps = self.max_episode_time / self.dt
        if not 1.0 <= steps <= MAX_EPISODE_STEPS:
            raise ValueError(f"max_episode_time / dt must be 1 to {MAX_EPISODE_STEPS} plant "
                             f"steps, got {steps!r}")
        # the time penalty of step k is time_penalty_tc * k, summed over the
        # longest episode; the lift shaping is checked with the boom's range
        longest = math.floor(steps) + 1
        penalty = self.time_penalty_tc * (longest * (longest + 1) / 2)
        if not math.isfinite(penalty):
            raise ValueError(f"time_penalty_tc = {self.time_penalty_tc!r} sums to {penalty!r} "
                             f"over an episode of {longest} plant steps")


class Observation(NamedTuple):
    """Agent input: absolute target offsets, speed, normalized lift."""

    rel_x: float
    rel_y: float
    speed: float
    lift: float

    def to_array(self) -> np.ndarray:
        return np.array([self.rel_x, self.rel_y, self.speed, self.lift])


# An Observation from the tuple of its values, at about half the cost of the
# argument-parsing Observation(...); every env builds its observations so.
new_observation = partial(tuple.__new__, Observation)


class RewardBreakdown(NamedTuple):
    progress_term: float
    lift_term: float
    time_term: float
    terminal_term: float
    total: float
    done: bool
    outcome: Outcome


# the rewards of the three endings
_OUT_OF_RANGE = RewardBreakdown(0.0, 0.0, 0.0, -1.0, -1.0, True, Outcome.OUT_OF_RANGE)
_TIMEOUT = RewardBreakdown(0.0, 0.0, 0.0, -1.0, -1.0, True, Outcome.TIMEOUT)
_SUCCESS = RewardBreakdown(0.0, 0.0, 0.0, 1.0, 1.0, True, Outcome.SUCCESS)


@dataclass(frozen=True)
class EnvState:
    """One episode. The loader starts at the origin, and the lift before a
    step is ``vehicle.lift``, so neither is stored."""

    vehicle: VehicleState
    target_x: float
    target_y: float
    step_count: int
    prev_distance: float
    done: bool


def target_from_heading(start: tuple[float, float], heading: float, distance: float) -> tuple[float, float]:
    """Point ``distance`` metres straight ahead of ``start`` at ``heading``.

    Heading 0 faces +y; the x offset is ``distance * sin(heading)``.
    """
    if distance <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return (start[0] + distance * math.sin(heading), start[1] + distance * math.cos(heading))


def env_digest(config: EnvConfig, params: VehicleParams) -> str:
    """Digest of the environment a policy acts in: the ``env.`` and
    ``vehicle.`` entries of the flat run configuration."""
    return flatcfg.digest({**flatcfg.flatten(config, "env."), **flatcfg.flatten(params, "vehicle.")})


def build_observation(env: EnvState) -> Observation:
    v = env.vehicle
    return new_observation((abs(env.target_x - v.x), abs(env.target_y - v.y), v.speed, v.lift))


def compute_reward(
    prev_distance: float,
    curr_distance: float,
    prev_lift: float,
    curr_lift: float,
    speed: float,
    step_count: int,
    out_of_range: bool,
    timed_out: bool,
    config: EnvConfig,
) -> RewardBreakdown:
    """Per-step reward with three mutually exclusive branches.

    (1) either failure flag: -1 and done; (2) inside the vicinity, below
    the speed threshold, boom past the lift goal: +1 and done; (3)
    otherwise shaped reward = distance progress + lift progress capped at
    the goal - time penalty. Terminal totals are exactly +-1 with shaping
    zeroed.
    """
    isfinite = math.isfinite
    if not (isfinite(prev_distance) and isfinite(curr_distance) and isfinite(prev_lift)
            and isfinite(curr_lift) and isfinite(speed)):
        for name, v in (("prev_distance", prev_distance), ("curr_distance", curr_distance),
                        ("prev_lift", prev_lift), ("curr_lift", curr_lift), ("speed", speed)):
            if not isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
    if step_count < 1:
        raise ValueError(f"step_count must be >= 1, got {step_count}")

    if out_of_range:
        return _OUT_OF_RANGE
    if timed_out:
        return _TIMEOUT

    if (
        curr_distance < config.vicinity
        and speed < config.speed_threshold
        and curr_lift > config.lift_goal_frac
    ):
        return _SUCCESS

    progress = prev_distance - curr_distance
    goal = config.lift_goal_frac
    lift_term = config.lift_reward_scale * (min(curr_lift, goal) - min(prev_lift, goal))
    time_term = -config.time_penalty_tc * step_count
    total = progress + lift_term + time_term
    return RewardBreakdown(progress, lift_term, time_term, 0.0, total, False, Outcome.RUNNING)


def step(
    env: EnvState,
    action: Controls,
    config: EnvConfig,
    params: Optional[VehicleParams] = None,
    *,
    brake_model: BrakeModel = BrakeModel.IDEAL,
    throttle_accel: float | None = None,
) -> tuple[EnvState, Observation, RewardBreakdown, bool]:
    """Apply one action and return (state', observation, reward, done).

    ``brake_model`` and ``throttle_accel`` exist for deployment
    emulation; plain training episodes use the defaults (ideal brake,
    cruise-speed snap).
    """
    if env.done:
        raise RuntimeError("cannot step a finished episode; reset first")
    params = params or VehicleParams()

    vehicle = step_vehicle(env.vehicle, action, config.dt, params, brake_model, throttle_accel)
    curr_distance = math.hypot(env.target_x - vehicle.x, env.target_y - vehicle.y)
    out_of_range = math.hypot(vehicle.x, vehicle.y) > config.out_of_range_radius
    step_count = env.step_count + 1
    # nominal step_count * dt rather than the accumulated elapsed, so the
    # step at which the limit fires does not drift with float summation
    timed_out = step_count * config.dt >= config.max_episode_time

    breakdown = compute_reward(
        env.prev_distance,
        curr_distance,
        env.vehicle.lift,
        vehicle.lift,
        vehicle.speed,
        step_count,
        out_of_range,
        timed_out,
        config,
    )

    done = breakdown.done
    new_env = EnvState(vehicle, env.target_x, env.target_y, step_count, curr_distance, done)
    return new_env, build_observation(new_env), breakdown, done


class _Plant(NamedTuple):
    """What :meth:`ApproachEnv.hold` reads of the config and the vehicle
    parameters. Each product is the one :func:`step_vehicle` and
    :func:`compute_reward` compute per step, so it has the same bits."""

    dt: float
    dt_ok: bool
    cruise_speed: float
    ideal_decel: float
    ideal_dv: float  # ideal_decel * dt
    initial_pedal: float
    pedal_decay: float  # exp(-dt / taper_time_constant)
    lift_dv: float  # lift_rate * dt
    lift_min: float
    lift_max: float
    out_of_range_radius: float
    max_episode_time: float
    vicinity: float
    speed_threshold: float
    lift_goal_frac: float
    lift_reward_scale: float
    neg_time_penalty_tc: float


def _plant(config: EnvConfig, params: VehicleParams) -> _Plant:
    dt = config.dt
    return _Plant(
        dt, isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0.0,
        params.cruise_speed, params.ideal_decel, params.ideal_decel * dt,
        params.taper.initial_pedal, math.exp(-dt / params.taper.taper_time_constant),
        params.lift_rate * dt, params.lift_min, params.lift_max,
        config.out_of_range_radius, config.max_episode_time, config.vicinity,
        config.speed_threshold, config.lift_goal_frac, config.lift_reward_scale,
        -config.time_penalty_tc,
    )


class ApproachEnv:
    """Stateful episode over the plant of the functional :func:`step`.

    Holds config and vehicle parameters, both fixed once the env is built;
    each instance owns exactly one episode at a time. Instances are
    independent, so many can run concurrently with separate seeds.
    Evaluation runs its episodes in lanes that are shallow copies of one
    env (``copy.copy``), sharing everything but what ``reset`` assigns;
    so an env, and any subclass, keeps per-episode state only in
    attributes that ``reset`` sets.

    The episode lives only in plain attributes named like the fields of
    :class:`EnvState` and :class:`VehicleState`: ``x``, ``y``, ``heading``,
    ``speed``, ``lift``, ``elapsed``, ``brake_pedal``, ``target_x``,
    ``target_y``, ``step_count``, ``prev_distance`` and ``done`` (None
    before the first reset); ``sin_heading`` and ``cos_heading``, computed
    once per episode; ``reward_terms``, the latest step's
    :class:`RewardBreakdown` fields in order (None before the first step);
    and ``episode_reward``, the running return. The records ``state``,
    ``obs`` and ``breakdown`` are built from these attributes on each
    read. :class:`Observation` and :class:`RewardBreakdown` are named
    tuples, equal to the tuple of their values; :class:`EnvState` and
    :class:`VehicleState` are frozen dataclasses.

    :meth:`hold` is the one entry to the plant: :meth:`step` is a hold of
    one step and :meth:`play` a hold with ``decide``. So a subclass whose
    plant differs overrides ``hold`` alone, and its ``hold`` takes
    ``decide`` and plays the episode to its end, deciding on the
    subclass's own ``obs``.
    """

    extra_columns: tuple[str, ...] = ()  # trace columns beyond the base ones

    def __init__(self, config: Optional[EnvConfig] = None, params: Optional[VehicleParams] = None):
        self.config = config or EnvConfig()
        self.params = params or VehicleParams()
        config, params = self.config, self.params
        first_step = params.cruise_speed * config.dt
        if not first_step <= config.out_of_range_radius:
            raise ValueError(f"one plant step at vehicle.cruise_speed * env.dt = {first_step!r} m "
                             f"leaves env.out_of_range_radius = {config.out_of_range_radius!r} m")
        low = config.lift_start_mean - config.lift_start_jitter
        high = config.lift_start_mean + config.lift_start_jitter
        if not (params.lift_min <= low and high <= params.lift_max and math.isfinite(high - low)):
            raise ValueError(f"the start lift env.lift_start_mean +- env.lift_start_jitter = "
                             f"[{low!r}, {high!r}] leaves [vehicle.lift_min, vehicle.lift_max] = "
                             f"[{params.lift_min!r}, {params.lift_max!r}]")
        shaping = config.lift_reward_scale * (params.lift_max - params.lift_min)
        if not math.isfinite(shaping):
            raise ValueError(f"the lift shaping over the boom's range, env.lift_reward_scale * "
                             f"(vehicle.lift_max - vehicle.lift_min) = {shaping!r}, is not finite")
        self._plant = _plant(self.config, self.params)
        self.done = None
        self.reward_terms = None
        self.episode_reward = 0.0

    @property
    def state(self) -> Optional[EnvState]:
        """The episode as an :class:`EnvState`, None before reset.

        Assigning one writes every episode attribute from it, which is
        how tests set up an episode; the latest reward and the return stay
        as they were.
        """
        if self.done is None:
            return None
        vehicle = VehicleState(self.x, self.y, self.heading, self.speed, self.lift, self.elapsed,
                               self.brake_pedal)
        return EnvState(vehicle, self.target_x, self.target_y, self.step_count,
                        self.prev_distance, self.done)

    @state.setter
    def state(self, state: EnvState) -> None:
        v = state.vehicle
        self.x, self.y, self.heading, self.speed = v.x, v.y, v.heading, v.speed
        self.lift, self.elapsed, self.brake_pedal = v.lift, v.elapsed, v.brake_pedal
        self.target_x, self.target_y = state.target_x, state.target_y
        self.step_count, self.prev_distance, self.done = (
            state.step_count, state.prev_distance, state.done)
        # an infinite heading is reported by the state check, not by math.sin
        finite = math.isfinite(v.heading)
        self.sin_heading = math.sin(v.heading) if finite else math.nan
        self.cos_heading = math.cos(v.heading) if finite else math.nan

    @property
    def obs(self) -> Optional[Observation]:
        """The observation of the vehicle now, None before reset."""
        if self.done is None:
            return None
        return new_observation((abs(self.target_x - self.x), abs(self.target_y - self.y),
                                self.speed, self.lift))

    @property
    def breakdown(self) -> Optional[RewardBreakdown]:
        """The reward of the latest plant step, None before the first."""
        terms = self.reward_terms
        return None if terms is None else RewardBreakdown._make(terms)

    def reset(self, seed: int, *, heading: Optional[float] = None) -> Observation:
        """Start a fresh episode and return its first observation.

        The loader starts at the origin at cruise speed. The heading is
        uniform over [0, 2pi) and the boom starts near half lift with a
        small uniform jitter; both draws come from ``seed``, in that order,
        so the same seed reproduces the episode exactly. ``heading``
        overrides the drawn one for controlled sweeps and must be finite.
        ``seed`` must be an integer >= 0.
        """
        if not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        config = self.config
        rng = np.random.default_rng(seed)
        drawn_heading = float(rng.uniform(0.0, 2.0 * math.pi))
        if heading is None:
            heading = drawn_heading
        elif not math.isfinite(heading):
            raise ValueError(f"heading must be finite, got {heading!r}")
        j = config.lift_start_jitter
        lift = float(config.lift_start_mean + rng.uniform(-j, j))
        tx, ty = target_from_heading((0.0, 0.0), heading, config.target_distance)
        self.x = self.y = self.elapsed = self.brake_pedal = 0.0
        self.heading, self.speed, self.lift = heading, self.params.cruise_speed, lift
        self.sin_heading, self.cos_heading = math.sin(heading), math.cos(heading)
        self.target_x, self.target_y = tx, ty
        self.step_count, self.prev_distance, self.done = 0, config.target_distance, False
        self.reward_terms = None
        self.episode_reward = 0.0
        return new_observation((abs(tx), abs(ty), self.speed, lift))

    def step(self, action: Controls) -> tuple[Observation, RewardBreakdown, bool]:
        """One plant step: this env's own :meth:`hold` of one step."""
        self.hold(action, 1)
        return self.obs, self.breakdown, self.done

    def play(self, decide: Callable[[Observation], Controls], interval: int,
             on_step: Optional[Callable] = None) -> None:
        """Play the episode to its end, deciding every ``interval`` plant steps.

        Gives the bits of ``while not env.done: env.hold(decide(env.obs),
        interval, on_step)``, with the same ``on_step`` calls, in one call
        of this env's :meth:`hold` with ``decide``. The plant's kernel keeps
        the episode in its locals between decisions, and ``decide`` gets the
        :class:`Observation` built from them, so it must not read the env.
        The steps taken stand when ``decide`` or a check raises. A finished
        episode is left as it is; before the first reset this raises as
        :meth:`hold` does.
        """
        if self.done is None:
            raise RuntimeError("call reset before step")
        if not self.done:
            self.hold(decide(self.obs), interval, on_step, decide=decide)

    def trace_extra(self) -> tuple:
        """Values of :attr:`extra_columns` after the latest plant step."""
        return ()

    def hold(
        self,
        action: Controls,
        steps: int,
        on_step: Optional[Callable] = None,
        *,
        brake_model: BrakeModel = BrakeModel.IDEAL,
        throttle_accel: float | None = None,
        decide: Optional[Callable[[Observation], Controls]] = None,
    ) -> float:
        """Zero-order hold: apply ``action`` for up to ``steps`` plant steps.

        The one place the plant advances, for training, greedy evaluation
        and deployment emulation alike. Stops when the episode ends and
        returns the reward summed over the steps taken. Each step is the
        functional :func:`step` (``brake_model`` and ``throttle_accel`` as
        there), computed over plain floats with the same operations in the
        same order, so it gives the same bits and raises the same errors at
        the same plant step, though it checks the state only on entry. Each
        ``max(a, b)`` there is spelt ``b if b > a else a`` and each
        ``min(a, b)`` ``b if b < a else a``, the rule by which the builtins
        pick, so ``-0.0`` and NaN come out as there too. The episode
        attributes are written back once, at the end of the hold, or after
        every plant step when ``on_step`` is given: ``on_step(env, action)``
        then runs after each step. It may read the env but must not change
        its episode. A running step keeps its reward terms in locals, and
        the ``reward_terms`` tuple is built only at write-back. A hold builds
        no record; the records are built when read.

        With ``decide``, the hold goes on until the episode ends: after each
        ``steps`` plant steps it calls ``decide`` on the :class:`Observation`
        of its locals and holds the returned action for the next ``steps``.
        That is :meth:`play`; a plain hold runs its loop once. A subclass's
        ``hold`` takes ``decide`` with the same meaning.
        """
        if steps < 1:
            raise ValueError(f"a hold needs at least one plant step, got {steps}")
        if self.done is None:
            raise RuntimeError("call reset before step")
        if self.done:
            raise RuntimeError("cannot step a finished episode; reset first")
        (dt, dt_ok, cruise_speed, ideal_decel, ideal_dv, initial_pedal, pedal_decay, lift_dv,
         lift_min, lift_max, radius, max_time, vicinity, speed_threshold, goal, lift_scale,
         neg_tc) = self._plant
        x, y, heading, speed, lift, elapsed, pedal = (
            self.x, self.y, self.heading, self.speed, self.lift, self.elapsed, self.brake_pedal)
        # step_vehicle's checks, once: a finite sum of finite floats clears the state; any
        # other sum defers to it for the exact error. Later states are the kernel's: speed
        # and lift are clamped, the pedal is set or decays, and the position and the
        # elapsed time, which can overflow, pass each step's reward check.
        if not (dt_ok and (throttle_accel is None or math.isfinite(throttle_accel))
                and math.isfinite(x + y + heading + speed + lift + elapsed + pedal)):
            step_vehicle(VehicleState(x, y, heading, speed, lift, elapsed, pedal),
                         action, dt, self.params, brake_model, throttle_accel)
        throttle_dv = None if throttle_accel is None else throttle_accel * dt
        tapered = brake_model is BrakeModel.TAPERED
        brake, lift_up = action.brake, action.lift_up
        sin_h, cos_h = self.sin_heading, self.cos_heading
        tx, ty = self.target_x, self.target_y
        start_count = step_count = self.step_count
        prev_distance = self.prev_distance
        hypot, isfinite, observation = math.hypot, math.isfinite, new_observation
        episode_reward = self.episode_reward
        total = 0.0
        passes = range(steps)
        try:
            while True:
                for _ in passes:
                    new_x = x + speed * sin_h * dt
                    new_y = y + speed * cos_h * dt
                    if brake:
                        if tapered:
                            new_pedal = initial_pedal if pedal <= 0.0 else pedal * pedal_decay
                            new_speed = speed - new_pedal * ideal_decel * dt
                        else:
                            new_pedal = 0.0
                            new_speed = speed - ideal_dv
                    else:
                        new_pedal = 0.0
                        new_speed = cruise_speed if throttle_dv is None else speed + throttle_dv
                    # min(cruise_speed, max(0.0, new_speed)), spelt as the builtins decide
                    new_speed = new_speed if new_speed > 0.0 else 0.0
                    new_speed = new_speed if new_speed < cruise_speed else cruise_speed
                    new_lift = lift + lift_dv if lift_up else lift
                    new_lift = new_lift if new_lift > lift_min else lift_min
                    new_lift = new_lift if new_lift < lift_max else lift_max

                    distance = hypot(tx - new_x, ty - new_y)
                    out_of_range = hypot(new_x, new_y) > radius
                    new_count = step_count + 1
                    timed_out = new_count * dt >= max_time
                    if (not isfinite(prev_distance + distance + new_lift + new_speed + elapsed)
                            or new_count < 1):
                        step_vehicle(VehicleState(x, y, heading, speed, lift, elapsed, pedal),
                                     action, dt, self.params, brake_model, throttle_accel)
                        compute_reward(prev_distance, distance, lift, new_lift, new_speed,
                                       new_count, out_of_range, timed_out, self.config)
                    if out_of_range or timed_out or (distance < vicinity
                                                     and new_speed < speed_threshold
                                                     and new_lift > goal):
                        ending = (_OUT_OF_RANGE if out_of_range
                                  else _TIMEOUT if timed_out else _SUCCESS)
                        reward = ending[4]
                    else:
                        # the running reward stays in locals until it is written back
                        ending = None
                        progress = prev_distance - distance
                        lift_term = lift_scale * ((goal if goal < new_lift else new_lift)
                                                  - (goal if goal < lift else lift))
                        time_term = neg_tc * new_count
                        reward = progress + lift_term + time_term

                    x, y, speed, lift, pedal = new_x, new_y, new_speed, new_lift, new_pedal
                    elapsed += dt
                    step_count, prev_distance = new_count, distance
                    episode_reward += reward
                    total += reward
                    if on_step is not None:
                        self.x, self.y, self.speed, self.lift = x, y, speed, lift
                        self.elapsed, self.brake_pedal, self.step_count = elapsed, pedal, step_count
                        self.prev_distance, self.done = prev_distance, ending is not None
                        self.reward_terms = ending or (progress, lift_term, time_term, 0.0, reward,
                                                       False, Outcome.RUNNING)
                        self.episode_reward = episode_reward
                        on_step(self, action)
                    if ending is not None:
                        break
                # one decision per pass; a plain hold makes none
                if ending is not None or decide is None:
                    break
                action = decide(observation((abs(tx - x), abs(ty - y), speed, lift)))
                brake, lift_up = action.brake, action.lift_up
        finally:
            # also when a check raises mid-hold: the steps taken stand
            if on_step is None and step_count != start_count:
                self.x, self.y, self.speed, self.lift, self.elapsed = x, y, speed, lift, elapsed
                self.brake_pedal, self.step_count = pedal, step_count
                self.prev_distance, self.done = prev_distance, ending is not None
                self.reward_terms = ending or (progress, lift_term, time_term, 0.0, reward,
                                               False, Outcome.RUNNING)
                self.episode_reward = episode_reward
        return total

"""Real-vehicle deployment emulation.

Reproduces the deployment quirks around an otherwise unchanged episode:
the position sensor reports with a configurable delay, the controller
decides once every ``control_interval`` plant steps with actions
zero-order-held in between, a PID regulates the throttle toward cruise
speed instead of the simulator's instant-speed assumption, and braking
uses the smooth tapered pedal. With the delay at zero, a decision every
plant step, the ideal brake and no PID error, the emulated episode
reduces exactly to a plain environment episode. :class:`EmulatedEnv`
carries the quirks, so the episode drivers of plain environments run
emulated episodes unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import flatcfg
from .env import ApproachEnv, EnvConfig, Observation, new_observation, target_from_heading
from .evaluate import run_episode
from .sim import BrakeModel, Controls, VehicleParams
from .trace import EpisodeTrace


@dataclass(frozen=True)
class PidGains:
    kp: float = 0.8
    ki: float = 0.3
    kd: float = 0.0
    integral_limit: float = 2.0  # m/s * s of clamped accumulated error

    def __post_init__(self) -> None:
        flatcfg.check_fields(self, positive=("integral_limit",))


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0


@dataclass(frozen=True)
class EmulationConfig:
    position_delay: float = 3.0
    # plant steps per policy decision, as train.control_interval
    control_interval: int = 10
    pid: PidGains = field(default_factory=PidGains)
    brake_model: BrakeModel = BrakeModel.TAPERED
    utm_origin: tuple[float, float] = (0.0, 0.0)
    accel_limit: float = 1.0  # m/s^2 mapped to a full positive pid command
    start_from_standstill: bool = True

    def __post_init__(self) -> None:
        flatcfg.check_fields(self, positive=("accel_limit", "control_interval"),
                             nonnegative=("position_delay",))


class DelayBuffer:
    """Time-stamped position samples with delayed reads.

    ``read(now)`` returns the newest sample stamped at or before
    ``now - delay``; before the delay has elapsed it holds the first
    sample, matching a sensor that has not yet produced fresh data.
    """

    def __init__(self, delay: float):
        if delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay
        self._times: list[float] = []
        self._samples: list[tuple[float, float]] = []

    def append(self, t: float, sample: tuple[float, float]) -> None:
        if self._times and t <= self._times[-1]:
            raise ValueError(f"timestamps must be strictly increasing ({t} after {self._times[-1]})")
        self._times.append(t)
        self._samples.append(sample)

    def read(self, now: float) -> tuple[float, float]:
        if not self._times:
            raise ValueError("delay buffer is empty")
        idx = bisect_right(self._times, now - self.delay) - 1
        return self._samples[max(idx, 0)]


def pid_throttle(
    state: PidState, target_v: float, measured_v: float, dt: float, gains: PidGains
) -> tuple[float, PidState]:
    """Velocity PID with clamped integral; command in [-1, 1].

    Positive commands request throttle, negative ones request brake.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    error = target_v - measured_v
    integral = state.integral + error * dt
    integral = max(-gains.integral_limit, min(gains.integral_limit, integral))
    derivative = (error - state.prev_error) / dt
    command = gains.kp * error + gains.ki * integral + gains.kd * derivative
    command = max(-1.0, min(1.0, command))
    return command, PidState(integral=integral, prev_error=error)


class EmulatedEnv(ApproachEnv):
    """:class:`ApproachEnv` with the deployment quirks of ``emu``.

    ``obs`` is the delayed map-frame observation the policy decides on,
    built from the sensor buffer and the episode's map-frame stop point
    whenever it is read; the trace rows record the true position beside
    it. Each hold runs the PID once at its start and steps the plant with
    the configured brake model and the PID's throttle. The controller runs
    at the emulated rate: every hold is ``emu.control_interval`` plant
    steps, so callers pass that as their ``decision_interval``
    (``run_emulated_episode`` does), and any other hold length raises
    ValueError. ``step`` is this env's own hold of one step, so it needs
    ``emu.control_interval`` 1. ``run_episodes``, ``evaluate_policy`` and
    ``train`` take this env unchanged, and ``play`` reaches the emulated
    plant through :meth:`hold` and its ``decide``. The episode's map-frame
    stop point, sensor buffer, PID state and command are all set by
    ``reset``, never shared between evaluation lanes (shallow copies of one
    env), so ``state`` can be read but not assigned.
    """

    extra_columns = ("true_x", "true_y", "delayed_x", "delayed_y", "pid_command",
                     "pedal_fraction")

    def __init__(self, emu: EmulationConfig, env_config: Optional[EnvConfig] = None,
                 vehicle_params: Optional[VehicleParams] = None):
        super().__init__(env_config, vehicle_params)
        self.emu = emu

    def reset(self, seed: int, *, heading: Optional[float] = None) -> Observation:
        super().reset(seed, heading=heading)
        if self.emu.start_from_standstill:
            self.speed = 0.0
        # the stop point in the map frame, fixed for the episode
        self._utm_target = target_from_heading(self.emu.utm_origin, self.heading,
                                               self.config.target_distance)
        self._buffer = DelayBuffer(self.emu.position_delay)
        self._sense()
        self._pid = PidState()
        self.command = 0.0  # PID output of the running hold
        return self.obs

    def hold(self, action: Controls, steps: int, on_step: Optional[Callable] = None, *,
             decide: Optional[Callable[[Observation], Controls]] = None) -> float:
        """Hold ``action`` under a throttle the PID sets once, at the start,
        sensing the position after every plant step; returns the reward
        summed over the steps taken.

        With ``decide``, the holds go on until the episode ends: after each
        one, ``decide`` gets the delayed ``obs`` and its action is held next,
        PID and sensor included, and the return sums the holds' totals.
        """
        if steps != self.emu.control_interval:
            raise ValueError(f"an emulated hold is emu.control_interval="
                             f"{self.emu.control_interval} plant steps, got steps={steps}")
        if self.done is None:
            raise RuntimeError("call reset before step")
        if self.done:
            raise RuntimeError("cannot step a finished episode; reset first")

        def sense(env, action):
            self._sense()
            if on_step is not None:
                on_step(env, action)

        total = 0.0
        while True:
            self.command, self._pid = pid_throttle(self._pid, self.params.cruise_speed,
                                                   self.speed, steps * self.config.dt,
                                                   self.emu.pid)
            limit = self.emu.accel_limit if self.command >= 0.0 else self.params.ideal_decel
            total += super().hold(action, steps, sense, brake_model=self.emu.brake_model,
                                  throttle_accel=self.command * limit)
            if decide is None or self.done:
                return total
            action = decide(self.obs)

    @ApproachEnv.state.setter
    def state(self, state) -> None:
        raise TypeError("state cannot be assigned: reset sets the sensor, PID and stop point too")

    def trace_extra(self) -> tuple:
        return (*self._true_position, *self._buffer.read(self.elapsed), self.command,
                self.brake_pedal)

    def _sense(self) -> None:
        """Feed the delay buffer the map-frame position of the vehicle now."""
        origin = self.emu.utm_origin
        self._true_position = (origin[0] + self.x, origin[1] + self.y)
        self._buffer.append(self.elapsed, self._true_position)

    @property
    def obs(self) -> Optional[Observation]:
        """The delayed map-frame observation, None before reset."""
        if self.done is None:
            return None
        x, y = self._buffer.read(self.elapsed)
        tx, ty = self._utm_target
        return new_observation((abs(tx - x), abs(ty - y), self.speed, self.lift))


def run_emulated_episode(
    decide: Callable[[Observation], Controls],
    emu: EmulationConfig,
    seed: int,
    env_config: Optional[EnvConfig] = None,
    vehicle_params: Optional[VehicleParams] = None,
    *,
    heading: Optional[float] = None,
    config_digest: str = "",
) -> EpisodeTrace:
    """One emulated deployment episode; returns the extended trace.

    The policy decides every ``emu.control_interval`` plant steps.
    """
    env = EmulatedEnv(emu, env_config, vehicle_params)
    _, trace = run_episode(
        env, decide, seed, heading=heading, collect_trace=True,
        config_digest=config_digest, decision_interval=emu.control_interval,
    )
    return trace


def braking_onset_time(trace: EpisodeTrace) -> Optional[float]:
    """Time of the first step whose held action engaged the brake."""
    for brake, t in zip(trace.column("brake_action"), trace.column("t")):
        if brake:
            return t
    return None


def final_overshoot(trace: EpisodeTrace, config: EnvConfig) -> float:
    """How far past the stop point the vehicle ended, in metres.

    Motion is a straight line from the origin, so distance travelled
    minus the target distance measures penetration past the point.
    """
    if not trace.values:
        return 0.0
    last = dict(zip(trace.columns, trace.values[-1]))
    return max(0.0, math.hypot(last["x"], last["y"]) - config.target_distance)

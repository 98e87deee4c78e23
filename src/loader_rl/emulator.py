"""Real-vehicle deployment emulation.

Reproduces the deployment quirks around an otherwise unchanged episode:
the position sensor reports with a configurable delay, the controller
runs at a fraction of the plant rate with actions zero-order-held in
between, a PID regulates the throttle toward cruise speed instead of
the simulator's instant-speed assumption, and braking uses the smooth
tapered pedal. With the delay at zero, the rate scale at one, the ideal
brake and no PID error, the emulated episode reduces exactly to a plain
environment episode.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from . import flatcfg
from .checkpoint import PolicyCheckpoint
from .env import ApproachEnv, EnvConfig, Observation, env_digest, target_from_heading
from .evaluate import greedy_policy_fn
from .sim import BrakeModel, Controls, VehicleParams
from .trace import EMULATION_COLUMNS, EpisodeTrace


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
    rate_scale: float = 0.1  # control rate as a fraction of the plant rate
    pid: PidGains = field(default_factory=PidGains)
    brake_model: BrakeModel = BrakeModel.TAPERED
    utm_origin: tuple[float, float] = (0.0, 0.0)
    accel_limit: float = 1.0  # m/s^2 mapped to a full positive pid command
    start_from_standstill: bool = True

    def __post_init__(self) -> None:
        flatcfg.check_fields(self, positive=("accel_limit",), nonnegative=("position_delay",))
        if not (0.0 < self.rate_scale <= 1.0):
            raise ValueError(f"rate_scale must be in (0, 1], got {self.rate_scale}")

    @property
    def steps_per_decision(self) -> int:
        return max(1, round(1.0 / self.rate_scale))


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

    def __len__(self) -> int:
        return len(self._times)


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


def utm_relative_observation(
    current: tuple[float, float],
    start: tuple[float, float],
    heading: float,
    config: EnvConfig,
    speed: float,
    lift: float,
) -> Observation:
    """Observation from map-frame (easting, northing) positions.

    The stop point is target_distance metres ahead of the start along
    the heading; offsets are absolute per component, as in simulation.
    """
    if not all(math.isfinite(v) for v in (*current, *start, heading)):
        raise ValueError("poses must be finite")
    target = target_from_heading(start, heading, config.target_distance)
    return Observation(
        rel_x=abs(target[0] - current[0]),
        rel_y=abs(target[1] - current[1]),
        speed=speed,
        lift=lift,
    )


def run_emulated_episode(
    policy: Union[PolicyCheckpoint, Callable[[Observation], Controls]],
    emu: EmulationConfig,
    seed: int,
    env_config: Optional[EnvConfig] = None,
    vehicle_params: Optional[VehicleParams] = None,
    *,
    heading: Optional[float] = None,
    config_digest: str = "",
) -> EpisodeTrace:
    """One emulated deployment episode; returns the extended trace.

    ``policy`` is either a checkpoint (greedy decisions; its stored env
    config must match the one in use) or a plain observation -> action
    callable. The plant integrates at the environment timestep; the
    policy and the PID only act on decision ticks and their outputs are
    held in between by :meth:`ApproachEnv.hold`.
    """
    if isinstance(policy, PolicyCheckpoint):
        env_config = env_config or policy.env_config
        vehicle_params = vehicle_params or policy.vehicle_params
        ckpt_digest = env_digest(policy.env_config, policy.vehicle_params)
        if ckpt_digest != env_digest(env_config, vehicle_params):
            raise ValueError(
                "checkpoint environment config does not match the requested "
                f"environment (checkpoint digest {ckpt_digest})"
            )
        decide = greedy_policy_fn(policy.params)
    else:
        decide = policy
        env_config = env_config or EnvConfig()
        vehicle_params = vehicle_params or VehicleParams()
    if hasattr(decide, "reset"):
        decide.reset()

    env = ApproachEnv(env_config, vehicle_params)
    env.reset(seed, heading=heading)
    if emu.start_from_standstill:
        env.state.vehicle = replace(env.state.vehicle, speed=0.0)
    state = env.state
    ep_heading = state.vehicle.heading

    origin = emu.utm_origin
    start_utm = (origin[0] + state.start_x, origin[1] + state.start_y)
    buffer = DelayBuffer(emu.position_delay)
    buffer.append(state.vehicle.elapsed, (origin[0] + state.vehicle.x, origin[1] + state.vehicle.y))

    trace = EpisodeTrace(
        columns=list(EMULATION_COLUMNS),
        initial_distance=state.prev_distance,
        initial_lift=state.prev_lift,
        config_digest=config_digest,
    )

    def on_step(env: ApproachEnv, action: Controls) -> None:
        # ``command`` is the PID output of the running hold
        v = env.state.vehicle
        buffer.append(v.elapsed, (origin[0] + v.x, origin[1] + v.y))
        sensed_now = buffer.read(v.elapsed)
        trace.add_env_step(
            env, action,
            true_x=origin[0] + v.x, true_y=origin[1] + v.y,
            delayed_x=sensed_now[0], delayed_y=sensed_now[1],
            pid_command=command, pedal_fraction=v.brake_pedal,
        )

    # the policy and the PID act at the start of each hold
    pid_state = PidState()
    control_dt = emu.steps_per_decision * env_config.dt
    while not env.state.done:
        vehicle = env.state.vehicle
        sensed = buffer.read(vehicle.elapsed)
        obs = utm_relative_observation(
            sensed, start_utm, ep_heading, env_config, vehicle.speed, vehicle.lift
        )
        action = decide(obs)
        command, pid_state = pid_throttle(
            pid_state, vehicle_params.cruise_speed, vehicle.speed, control_dt, emu.pid
        )
        accel = command * (emu.accel_limit if command >= 0.0 else vehicle_params.ideal_decel)
        env.hold(
            action, emu.steps_per_decision, on_step,
            brake_model=emu.brake_model, throttle_accel=accel,
        )
    return trace


def braking_onset_time(trace: EpisodeTrace) -> Optional[float]:
    """Time of the first step whose held action engaged the brake."""
    for row in trace.rows:
        if row["brake_action"]:
            return row["t"]
    return None


def final_overshoot(trace: EpisodeTrace, config: EnvConfig) -> float:
    """How far past the stop point the vehicle ended, in metres.

    Motion is a straight line from the origin, so distance travelled
    minus the target distance measures penetration past the point.
    """
    if not trace.rows:
        return 0.0
    last = trace.rows[-1]
    return max(0.0, math.hypot(last["x"], last["y"]) - config.target_distance)

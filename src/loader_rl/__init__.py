"""Wheel-loader approach-task RL toolkit.

Simulate the straight-line approach-and-lift task, train a two-head
binary policy on it with clipped-surrogate policy optimization, check
it against a scripted oracle, and stress-test it under deployment
conditions (sensor delay, decimated control rate, PID throttle,
tapered braking).

Importing the package sets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 where unset, before numpy loads: the update's
small matrix products gain nothing from BLAS threads, and runs side by
side slow each other down through them.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .env import (
    ApproachEnv,
    EnvConfig,
    EnvState,
    Observation,
    Outcome,
    RewardBreakdown,
    build_observation,
    compute_reward,
    env_digest,
    step,
    target_from_heading,
)
from .sim import (
    BrakeModel,
    Controls,
    TaperParams,
    VehicleParams,
    VehicleState,
    step_vehicle,
    tapered_brake_decel,
)
from .oracle import (
    LatchedBrakePolicy,
    OracleConfig,
    max_reward_bound,
    reward_oracle,
)
from .policy import (
    ExplorationMode,
    ObsNormalizer,
    PolicyParams,
    greedy_action,
    init_policy,
    policy_forward,
    sample_action,
)
from .ppo import (
    RolloutBuffer,
    TrainConfig,
    UpdateStats,
    clipped_policy_loss,
    compute_gae,
    ppo_ratio,
)
from .checkpoint import (
    CheckpointFormatError,
    PolicyCheckpoint,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from .emulator import (
    DelayBuffer,
    EmulatedEnv,
    EmulationConfig,
    PidGains,
    PidState,
    pid_throttle,
    run_emulated_episode,
)
from .evaluate import EvalReport, evaluate_policy, greedy_policy_fn, run_episode, run_episodes
from .train import TrainResult
from .config import ConfigError, RunConfig, load_run_config
from .trace import EpisodeTrace, read_trace_csv, write_trace_csv

__version__ = "0.1.0"

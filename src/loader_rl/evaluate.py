"""Greedy episode rollouts and evaluation reports.

Evaluation buckets episodes by heading: headings whose sine or cosine
is near zero (one observation component starts near zero) are reported
separately, since they are a known hard case for policies that only see
absolute offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .env import ApproachEnv, Observation, Outcome
from .policy import (
    ExplorationMode,
    PolicyParams,
    greedy_action,
    policy_forward,
    threshold_greedy_action,
)
from .seeding import substream_seed
from .sim import Controls
from .trace import BASE_COLUMNS, EpisodeTrace

DEGENERATE_HEADING_TOL = 0.05

PolicyFn = Callable[[Observation], Controls]


def greedy_policy_fn(params: PolicyParams) -> PolicyFn:
    """Deterministic action choice from trained parameters; each decision
    runs the actor only."""

    def decide(obs: Observation) -> Controls:
        logits, _ = policy_forward(params, obs, value=False)
        if params.exploration_mode is ExplorationMode.CONTINUOUS_THRESHOLD:
            return threshold_greedy_action(logits)
        return greedy_action(logits)

    return decide


def is_degenerate_heading(heading: float, tol: float = DEGENERATE_HEADING_TOL) -> bool:
    return abs(math.sin(heading)) < tol or abs(math.cos(heading)) < tol


@dataclass
class EpisodeResult:
    reward: float
    length: int
    outcome: Outcome
    final_distance: float
    heading: float

    @property
    def success(self) -> bool:
        return self.outcome is Outcome.SUCCESS

    @property
    def degenerate(self) -> bool:
        return is_degenerate_heading(self.heading)


def run_episode(
    env: ApproachEnv,
    decide: PolicyFn,
    seed: int,
    *,
    heading: Optional[float] = None,
    collect_trace: bool = False,
    config_digest: str = "",
    decision_interval: int = 1,
) -> tuple[EpisodeResult, Optional[EpisodeTrace]]:
    """One full episode under a deterministic policy function.

    ``decision_interval`` replays the training-time control rate: the
    policy is consulted every that-many plant steps and its action held
    in between. A policy with a ``reset`` method is reset first. The
    trace carries the env's extra columns, if it has any.
    """
    if hasattr(decide, "reset"):
        decide.reset()
    env.reset(seed, heading=heading)
    trace = on_step = None
    if collect_trace:
        trace = EpisodeTrace(
            columns=BASE_COLUMNS + list(env.extra_columns),
            initial_distance=env.prev_distance,
            initial_lift=env.prev_lift,
            config_digest=config_digest,
        )
        on_step = trace.add_env_step
    while not env.done:
        env.hold(decide(env.obs), decision_interval, on_step)
    result = EpisodeResult(
        reward=env.episode_reward,
        length=env.step_count,
        outcome=env.breakdown.outcome,
        final_distance=env.prev_distance,  # set by the last step
        heading=env.heading,
    )
    return result, trace


@dataclass
class BucketStats:
    n: int = 0
    success_rate: float = float("nan")
    reward_mean: float = float("nan")
    reward_variance: float = float("nan")
    mean_stop_error: float = float("nan")

    @classmethod
    def from_results(cls, results: list[EpisodeResult]) -> "BucketStats":
        if not results:
            return cls()
        n = len(results)
        rewards = [r.reward for r in results]
        mean = sum(rewards) / n
        var = sum((r - mean) ** 2 for r in rewards) / n
        return cls(
            n=n,
            success_rate=sum(r.success for r in results) / n,
            reward_mean=mean,
            reward_variance=var,
            mean_stop_error=sum(r.final_distance for r in results) / n,
        )


@dataclass
class EvalReport:
    n_episodes: int
    overall: BucketStats
    main: BucketStats
    degenerate: BucketStats
    config_digest: str = ""
    notes: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"config_digest={self.config_digest}", f"n_episodes={self.n_episodes}"]
        for key, value in sorted(self.notes.items()):
            lines.append(f"note.{key}={value}")
        for name, bucket in (("overall", self.overall), ("main", self.main),
                             ("degenerate", self.degenerate)):
            lines.append(f"{name}.n={bucket.n}")
            lines.append(f"{name}.success_rate={bucket.success_rate!r}")
            lines.append(f"{name}.reward_mean={bucket.reward_mean!r}")
            lines.append(f"{name}.reward_variance={bucket.reward_variance!r}")
            lines.append(f"{name}.mean_stop_error={bucket.mean_stop_error!r}")
        return "\n".join(lines) + "\n"


def evaluate_policy(
    env: ApproachEnv,
    decide: PolicyFn,
    n_episodes: int,
    seed: int,
    *,
    config_digest: str = "",
    notes: Optional[dict] = None,
    decision_interval: int = 1,
) -> EvalReport:
    """Run seeded greedy episodes and aggregate both heading buckets."""
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    results = []
    for i in range(n_episodes):
        ep_seed = substream_seed(seed, "eval", i)
        result, _ = run_episode(env, decide, ep_seed, decision_interval=decision_interval)
        results.append(result)
    main = [r for r in results if not r.degenerate]
    degenerate = [r for r in results if r.degenerate]
    return EvalReport(
        n_episodes=n_episodes,
        overall=BucketStats.from_results(results),
        main=BucketStats.from_results(main),
        degenerate=BucketStats.from_results(degenerate),
        config_digest=config_digest,
        notes=notes or {},
    )

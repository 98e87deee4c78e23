"""Greedy episode rollouts and evaluation reports.

Evaluation buckets episodes by heading: headings whose sine or cosine
is near zero (one observation component starts near zero) are reported
separately, since they are a known hard case for policies that only see
absolute offsets.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .env import ApproachEnv, Observation, Outcome
from .policy import PolicyParams, _as_obs_array, finite_output, greedy_action, policy_forward
from .seeding import substream_seed
from .sim import CONTROLS, Controls
from .trace import BASE_COLUMNS, EpisodeTrace

DEGENERATE_HEADING_TOL = 0.05
# episodes evaluate_policy runs in lockstep at most, so its memory does not
# grow with the episode count
_BLOCK = 64

PolicyFn = Callable[[Observation], Controls]


def greedy_policy_fn(params: PolicyParams) -> PolicyFn:
    """Deterministic action choice from trained parameters; each decision
    runs the actor only, and a head fires iff its output is positive (in
    the continuous-threshold mode too, where that is the sign of the
    squashed mean ``tanh(mean)``).

    ``decide.batch(observations)`` decides a list of observations at once,
    with one stacked actor pass, and returns the controls that deciding
    them one by one returns. Both raise FloatingPointError if the actor
    output is not finite.
    """

    def decide(obs: Observation) -> Controls:
        logits, _ = policy_forward(params, obs, value=False)
        return greedy_action(finite_output(logits))

    def batch(observations: Sequence[Observation]) -> list[Controls]:
        x = np.array([(o.rel_x, o.rel_y, o.speed, o.lift) for o in observations])
        if x.shape[1:] != (params.obs_dim,) or not np.isfinite(x).all():
            for obs in observations:
                _as_obs_array(obs, params.obs_dim)  # raises the error of the first bad one
        out = finite_output(params.actor(params.obs_normalizer.normalize(x)))
        fire = (out > 0.0).tolist()
        return [CONTROLS[brake][lift_up] for brake, lift_up in fire]

    decide.batch = batch
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


def run_episodes(
    envs: Sequence[ApproachEnv],
    decide: PolicyFn,
    seeds: Sequence[int],
    *,
    headings: Optional[Sequence[Optional[float]]] = None,
    collect_trace: bool = False,
    decision_interval: int = 1,
) -> list[tuple[EpisodeResult, Optional[EpisodeTrace]]]:
    """One full episode per env under a deterministic policy function;
    returns (result, trace) per env, in order.

    Env ``i`` is reset with ``seeds[i]`` (and ``headings[i]``). Each
    decision is held for ``decision_interval`` plant steps, the
    training-time control rate. Each episode is one lane, a suspended
    hold of its env (``hold(..., lane=True)``), driven by
    :func:`_lockstep`. A policy with a ``batch`` method decides all
    running episodes in one call per round while more than one runs, so
    ``batch`` must return what deciding them one by one returns; the
    other episodes go on one after another, on decisions made one by one.
    A policy with a ``reset`` method gets a reset copy per episode. The
    envs are distinct objects and the episodes independent, so each gives
    what it gives when run alone. The trace carries the env's extra
    columns, if it has any.
    """
    n = len(envs)
    headings = [None] * n if headings is None else headings
    if len(set(map(id, envs))) != n or len(seeds) != n or len(headings) != n:
        raise ValueError(f"need {n} distinct envs and a seed and a heading for each")
    has_reset = hasattr(decide, "reset")
    lanes, traces = [], []
    for i, env in enumerate(envs):
        lane_decide = decide
        if has_reset:
            lane_decide = copy.copy(decide)
            lane_decide.reset()
        env.reset(seeds[i], heading=headings[i])
        trace = on_step = None
        if collect_trace:
            trace = EpisodeTrace(columns=BASE_COLUMNS + list(env.extra_columns),
                                 initial_distance=env.prev_distance,
                                 initial_lift=env.lift)
            on_step = trace.add_env_step
        traces.append(trace)
        lanes.append((env, lane_decide, on_step))
    _lockstep(lanes, getattr(decide, "batch", None) if n > 1 else None, decision_interval)
    # the final distance is the prev_distance the last step set
    return [(EpisodeResult(env.episode_reward, env.step_count, env.breakdown.outcome,
                           env.prev_distance, env.heading), trace)
            for env, trace in zip(envs, traces)]


def _lockstep(lanes, batch, interval: int) -> None:
    """Run each ``(env, decide, on_step)`` lane to its episode's end as its
    env's suspended hold (``lane=True``). Every lane gets its first action
    before any steps, from one ``batch`` call or, when ``batch`` is None,
    from its own ``decide``. While ``batch`` is given and more than one
    lane runs, each round steps every running lane and decides their next
    actions in one ``batch`` call; the lanes left then run one after
    another on their own ``decide``. Actions meet lanes through a strict
    ``zip``, so a ``batch`` that returns another number of actions raises
    ValueError. On any raise every lane is closed, which writes its
    episode back, so each env keeps the steps it took."""
    kernels = []
    try:
        observations = [env.obs for env, _, _ in lanes]
        actions = (batch(observations) if batch is not None
                   else [decide(obs) for (_, decide, _), obs in zip(lanes, observations)])
        for (env, _, on_step), action in zip(lanes, actions, strict=True):
            kernel = env.hold(action, interval, on_step, lane=True)
            if not isinstance(kernel, Generator):
                raise TypeError(f"{type(env).__name__}.hold(lane=True) returned {kernel!r}")
            kernels.append(kernel)
        running = [(kernel.send, lane[1]) for kernel, lane in zip(kernels, lanes)]
        actions = [None] * len(running)  # a kernel starts on the action it was given
        while batch is not None and len(running) > 1:
            live, observations = [], []
            for lane, action in zip(running, actions, strict=True):
                try:
                    observations.append(lane[0](action))
                    live.append(lane)
                except StopIteration:  # the episode ended
                    pass
            running = live
            actions = (batch(observations) if len(running) > 1
                       else [decide(obs) for (_, decide), obs in zip(running, observations)])
        for (send, decide), action in zip(running, actions):
            try:
                while True:
                    action = decide(send(action))
            except StopIteration:
                pass
    finally:
        for kernel in kernels:
            kernel.close()


def run_episode(
    env: ApproachEnv,
    decide: PolicyFn,
    seed: int,
    *,
    heading: Optional[float] = None,
    collect_trace: bool = False,
    decision_interval: int = 1,
) -> tuple[EpisodeResult, Optional[EpisodeTrace]]:
    """One full episode: :func:`run_episodes` over the one env."""
    return run_episodes([env], decide, [seed], headings=[heading], collect_trace=collect_trace,
                        decision_interval=decision_interval)[0]


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
        try:
            var = sum((r - mean) ** 2 for r in rewards) / n
        except OverflowError:  # finite rewards can spread past the largest float
            var = math.inf
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise FloatingPointError(f"reward_variance of {n} episodes is not finite "
                                     f"(reward_mean {mean!r})")
        return cls(
            n=n,
            success_rate=sum(r.success for r in results) / n,
            reward_mean=mean,
            reward_variance=var,
            mean_stop_error=sum(r.final_distance for r in results) / n,
        )


@dataclass
class EvalReport:
    overall: BucketStats
    main: BucketStats
    degenerate: BucketStats
    config_digest: str = ""
    notes: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"config_digest={self.config_digest}", f"n_episodes={self.overall.n}"]
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
    decision_interval: int = 1,
) -> EvalReport:
    """Run seeded greedy episodes and aggregate both heading buckets.

    Episode ``i`` starts from seed ``substream_seed(seed, "eval", i)``. The
    episodes run in lockstep (:func:`run_episodes`), in blocks of at most
    ``_BLOCK``, each in a shallow copy of ``env``; ``env`` itself is not
    stepped.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    lanes = [copy.copy(env) for _ in range(min(n_episodes, _BLOCK))]
    results = []
    for start in range(0, n_episodes, _BLOCK):
        block = range(start, min(start + _BLOCK, n_episodes))
        seeds = [substream_seed(seed, "eval", i) for i in block]
        results += [result for result, _ in run_episodes(
            lanes[:len(block)], decide, seeds, decision_interval=decision_interval)]
    main = [r for r in results if not r.degenerate]
    degenerate = [r for r in results if r.degenerate]
    return EvalReport(
        overall=BucketStats.from_results(results),
        main=BucketStats.from_results(main),
        degenerate=BucketStats.from_results(degenerate),
    )

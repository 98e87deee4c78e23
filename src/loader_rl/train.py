"""Training loop: alternate rollout collection and policy updates.

Single environment, fully seeded. Episode resets, action sampling,
minibatch shuffling and evaluation each draw from their own named
sub-stream of the master seed, so two runs with the same config produce
byte-identical metrics. A rolling window of finished episodes feeds the
per-update metrics row; a periodic greedy evaluation picks the
best-so-far checkpoint (success rate first, mean reward as tiebreak),
which is kept even if training later collapses.
"""

from __future__ import annotations

import logging
from collections import deque
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .checkpoint import PolicyCheckpoint, write_checkpoint
from .env import ApproachEnv, Observation, Outcome
from .policy import ExplorationMode, ThresholdSampler, init_policy, sample_action
from .ppo import PPOLearner, RolloutBuffer, TrainConfig, UpdateStats
from .evaluate import evaluate_policy, greedy_policy_fn
from .seeding import substream, substream_seed

logger = logging.getLogger(__name__)

METRICS_COLUMNS = [
    "timestep", "updates", "ep_reward_mean", "ep_len_mean", "success_rate",
    "policy_loss", "value_loss", "entropy", "clip_fraction", "ratio_mean",
]

EPISODE_WINDOW = 20


def format_metrics_row(row: dict) -> str:
    cells = []
    for c in METRICS_COLUMNS:
        v = row[c]
        cells.append(str(v) if isinstance(v, int) else repr(float(v)))
    return ",".join(cells)


@dataclass
class TrainResult:
    last: PolicyCheckpoint
    best: Optional[PolicyCheckpoint]
    metrics: list[dict]
    best_eval: Optional[tuple[float, float]] = None  # (success_rate, reward_mean)
    aborted_updates: int = 0


def train(
    env_factory: Callable[[], ApproachEnv],
    config: TrainConfig,
    *,
    out_dir: Optional[Path] = None,
    config_digest: str = "",
    stop_when: Optional[Callable[[TrainResult], bool]] = None,
) -> TrainResult:
    """Run PPO until ``config.total_timesteps`` environment steps.

    With ``out_dir`` set, writes metrics.csv incrementally plus periodic,
    best and last checkpoints. ``stop_when`` is consulted after each
    evaluation round for early stopping (used by experiment drivers).
    If the environment raises, the last checkpoint is persisted before
    the error propagates.
    """
    env = env_factory()
    obs_dim = len(Observation._fields)
    master = config.seed

    params = init_policy(obs_dim, substream(master, "policy_init"), config.exploration_mode)
    learner = PPOLearner(params, config)
    sampling_rng = substream(master, "sampling")
    shuffle_rng = substream(master, "shuffle")
    sampler = ThresholdSampler(config.noise_resample_every)

    buffer = RolloutBuffer(config.n_steps, obs_dim)
    window = deque(maxlen=EPISODE_WINDOW)  # (reward, length, success) of the latest episodes
    metrics: list[dict] = []
    metrics_file = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = open(out_dir / "metrics.csv", "w")
        metrics_file.write(f"# config_digest={config_digest}\n")
        metrics_file.write(",".join(METRICS_COLUMNS) + "\n")

    episode_index = 0
    env.reset(substream_seed(master, "env", episode_index))
    finished_steps = 0  # plant steps of the finished training episodes
    updates = aborted = 0
    best: Optional[PolicyCheckpoint] = None
    best_key: Optional[tuple[float, float]] = None

    def timesteps() -> int:
        # read off the env, so it stays right when the env raises mid-hold
        return finished_steps + env.step_count

    def make_ckpt() -> PolicyCheckpoint:
        return PolicyCheckpoint(deepcopy(params), config, env.config, env.params, timesteps())

    try:
        while timesteps() < config.total_timesteps:
            buffer.reset()
            for _ in range(config.n_steps):
                obs = env.obs
                params.obs_normalizer.update(obs)
                xn = params.obs_normalizer.normalize(obs.to_array())
                logits = params.actor(xn)
                value = float(params.critic(xn)[0])
                if config.exploration_mode is ExplorationMode.BERNOULLI:
                    action, log_prob, stored = sample_action(logits, sampling_rng)
                else:
                    action, log_prob, stored = sampler.sample(logits, params.log_std, sampling_rng)
                # one buffer entry per decision, its reward summed over the hold
                reward_sum = env.hold(action, config.control_interval)
                done = env.done
                buffer.add(xn, stored, log_prob, value, reward_sum, done)
                if done:
                    length = env.step_count
                    window.append((env.episode_reward, length,
                                   env.breakdown.outcome is Outcome.SUCCESS))
                    episode_index += 1
                    env.reset(substream_seed(master, "env", episode_index))
                    finished_steps += length

            raw = env.obs.to_array()
            xn = params.obs_normalizer.normalize(raw)
            buffer.bootstrap_value = float(params.critic(xn)[0])

            stats = learner.update(buffer, shuffle_rng)
            updates += 1
            if stats.aborted:
                aborted += 1
                logger.warning("update %d aborted: %s", updates, stats.abort_reason)
            _append_metrics(metrics, metrics_file, timesteps(), updates, window, stats)

            if updates % config.eval_every_updates == 0:
                report = evaluate_policy(
                    env_factory(), greedy_policy_fn(params), config.eval_episodes,
                    substream_seed(master, "eval", updates),
                    decision_interval=config.control_interval,
                )
                # rank by the non-degenerate-heading bucket: that is the
                # statistic evaluation reports, and the degenerate slice of a
                # 20-episode probe is too small to be informative
                bucket = report.main if report.main.n > 0 else report.overall
                key = (bucket.success_rate, bucket.reward_mean)
                if best_key is None or key > best_key:
                    best_key = key
                    best = make_ckpt()
                    if out_dir is not None:
                        write_checkpoint(best, out_dir / "best.ckpt")
                if stop_when is not None and stop_when(
                        TrainResult(make_ckpt(), best, metrics, best_key, aborted)):
                    logger.info("early stop requested at %d timesteps", timesteps())
                    break

            if out_dir is not None and updates % config.checkpoint_every_updates == 0:
                write_checkpoint(make_ckpt(), out_dir / f"ckpt_{timesteps():010d}.ckpt")
    except Exception:
        if out_dir is not None:
            write_checkpoint(make_ckpt(), out_dir / "last.ckpt")
        raise
    finally:
        if metrics_file is not None:
            metrics_file.close()

    last = make_ckpt()
    if out_dir is not None:
        write_checkpoint(last, out_dir / "last.ckpt")
    return TrainResult(last=last, best=best, metrics=metrics, best_eval=best_key,
                       aborted_updates=aborted)


def _append_metrics(metrics, metrics_file, timesteps, updates, window, stats: UpdateStats) -> None:
    if window:
        n = len(window)
        rewards, lengths, successes = zip(*window)
        r_mean, l_mean, s_rate = sum(rewards) / n, sum(lengths) / n, sum(successes) / n
    else:
        r_mean = l_mean = s_rate = float("nan")
    row = {
        "timestep": timesteps,
        "updates": updates,
        "ep_reward_mean": r_mean,
        "ep_len_mean": l_mean,
        "success_rate": s_rate,
        "policy_loss": stats.policy_loss,
        "value_loss": stats.value_loss,
        "entropy": stats.entropy,
        "clip_fraction": stats.clip_fraction,
        "ratio_mean": stats.ratio_mean,
    }
    metrics.append(row)
    if metrics_file is not None:
        metrics_file.write(format_metrics_row(row) + "\n")
        metrics_file.flush()

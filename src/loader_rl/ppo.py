"""Clipped-surrogate policy optimization with generalized advantage
estimation.

The update is written against explicit gradients (see nets.py), keeps
an adaptive-moment optimizer across calls, and aborts without touching
parameters if a loss goes non-finite. A minibatch's loss and its
gradient come from one function, which stops before the backward pass
on a non-finite loss. Advantages are normalized per minibatch; the
probability-ratio exponent is clamped before exponentiation to guard
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flatcfg
from .nets import Adam, clip_by_global_norm, flat_views
from .policy import (
    LOG_STD_MIN,
    ExplorationMode,
    PolicyParams,
    bernoulli_entropy,
    bernoulli_log_prob,
    gaussian_tanh_log_prob,
    sigmoid,
    tanh_correction,
)

RATIO_EXP_CLAMP = 30.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-5
    n_steps: int = 512
    batch_size: int = 128
    n_epochs: int = 20
    gamma: float = 0.99
    gae_lambda: float = 0.9
    clip_range: float = 0.4
    ent_coef: float = 0.0
    vf_coef: float = 0.5
    max_grad_norm: float = 0.5
    total_timesteps: int = 3_000_000
    seed: int = 0
    exploration_mode: ExplorationMode = ExplorationMode.BERNOULLI
    noise_resample_every: int = 4
    # plant steps per policy decision (zero-order hold in between, like the
    # deployed controller); 1 = decide every simulator step
    control_interval: int = 1
    eval_every_updates: int = 10
    eval_episodes: int = 20
    checkpoint_every_updates: int = 50

    def __post_init__(self) -> None:
        flatcfg.check_fields(
            self,
            positive=("learning_rate", "n_steps", "batch_size", "n_epochs", "clip_range",
                      "max_grad_norm", "total_timesteps", "noise_resample_every",
                      "control_interval", "eval_every_updates", "eval_episodes",
                      "checkpoint_every_updates"),
            nonnegative=("vf_coef", "seed"),
        )
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.n_steps % self.batch_size != 0:
            raise ValueError(f"batch_size ({self.batch_size}) must divide n_steps ({self.n_steps})")


class RolloutBuffer:
    """Fixed-length on-policy storage for one update's worth of steps.

    ``actions`` holds the binary pair in Bernoulli mode and the
    pre-squash Gaussian sample in continuous-threshold mode.
    Observations are stored as the (already normalized) vectors the
    policy actually consumed.
    """

    def __init__(self, n_steps: int, obs_dim: int):
        self.n_steps = n_steps
        self.observations = np.zeros((n_steps, obs_dim))
        self.actions = np.zeros((n_steps, 2))
        self.log_probs = np.zeros(n_steps)
        self.values = np.zeros(n_steps)
        self.rewards = np.zeros(n_steps)
        self.dones = np.zeros(n_steps)
        self.bootstrap_value = 0.0
        self.pos = 0

    def add(self, obs, action, log_prob, value, reward, done) -> None:
        if self.pos >= self.n_steps:
            raise ValueError("rollout buffer is full")
        i = self.pos
        self.observations[i] = obs
        self.actions[i] = action
        self.log_probs[i] = log_prob
        self.values[i] = value
        self.rewards[i] = reward
        self.dones[i] = 1.0 if done else 0.0
        self.pos += 1

    @property
    def full(self) -> bool:
        return self.pos == self.n_steps

    def reset(self) -> None:
        self.pos = 0
        self.bootstrap_value = 0.0


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: float,
    gamma: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advantages by the usual backward recursion over TD residuals.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t)
    A_t     = delta_t + gamma * lambda * (1 - done_t) * A_{t+1}

    ``bootstrap_value`` stands in for V(s_{t+1}) past the buffer end.
    Returns (advantages, returns) with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    n = len(rewards)
    if n < 1:
        raise ValueError("need at least one step")
    if len(values) != n or len(dones) != n:
        raise ValueError(
            f"length mismatch: rewards {n}, values {len(values)}, dones {len(dones)}"
        )
    advantages = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        next_value = bootstrap_value if t == n - 1 else values[t + 1]
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * gae_lambda * nonterminal * last
        advantages[t] = last
    return advantages, advantages + values


def ppo_ratio(log_prob_new, log_prob_old):
    """exp(new - old) with the exponent clamped to +-30."""
    diff = np.asarray(log_prob_new) - np.asarray(log_prob_old)
    out = np.exp(np.minimum(np.maximum(diff, -RATIO_EXP_CLAMP), RATIO_EXP_CLAMP))  # np.clip's bits
    return float(out) if out.ndim == 0 else out


def clipped_policy_loss(ratios: np.ndarray, advantages: np.ndarray, clip_range: float) -> float:
    """-mean(min(r*A, clip(r, 1-eps, 1+eps)*A)).

    Callers normalize advantages before this; the function itself takes
    them as given.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if ratios.size == 0:
        raise ValueError("empty batch")
    if ratios.shape != advantages.shape:
        raise ValueError(f"shape mismatch: {ratios.shape} vs {advantages.shape}")
    if clip_range <= 0.0:
        raise ValueError(f"clip_range must be > 0, got {clip_range}")
    return _clipped_surrogate(ratios, advantages, clip_range)[0]


def _clipped_surrogate(ratios, advantages, clip_range):
    """(loss, r*A, clip(r, 1-eps, 1+eps)*A): the loss and its two branches."""
    unclipped = ratios * advantages
    # np.clip's and np.mean's bits, without their Python-level wrappers
    clipped = np.minimum(np.maximum(ratios, 1.0 - clip_range), 1.0 + clip_range) * advantages
    return -float(np.minimum(unclipped, clipped).sum() / len(ratios)), unclipped, clipped


def normalize_advantages(advantages: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """``(a - a.mean()) / (a.std() + eps)``, spelt out as the reductions and
    operations numpy's ``mean`` and ``std`` run, in their order, so with
    their bits; the centred values are computed once."""
    n = len(advantages)
    centred = advantages - advantages.sum() / n
    return centred / (math.sqrt((centred * centred).sum() / n) + eps)


@dataclass
class UpdateStats:
    """Means over one update's minibatches. An aborted update keeps the
    NaN defaults, so its metrics row cannot pass for a real one."""

    policy_loss: float = math.nan
    value_loss: float = math.nan
    entropy: float = math.nan
    ratio_mean: float = math.nan
    clip_fraction: float = math.nan
    grad_norm: float = 0.0
    n_minibatches: int = 0
    aborted: bool = False
    abort_reason: str = ""


def _minibatch(
    params: PolicyParams,
    obs: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
    tanh_corr: np.ndarray | None = None,
    out: list[np.ndarray] | None = None,
) -> tuple[float, float, float, float, np.ndarray]:
    """(total, policy_loss, value_loss, entropy, ratios) of one minibatch. Given
    ``out``, aligned with params.trainable_arrays(), a finite total's gradient is
    written into it; a non-finite total leaves it as it was. ``tanh_corr`` is
    ``tanh_correction(actions)`` in continuous-threshold mode, which the update
    computes once for its whole buffer; None computes it here."""
    logits, actor_cache = params.actor.forward(obs)
    values, critic_cache = params.critic.forward(obs)
    v = values[:, 0]
    b = len(advantages)
    # each mean is np.mean's sum / count, without its Python-level wrapper
    if params.log_std is None:  # Bernoulli heads
        log_probs_new = bernoulli_log_prob(logits, actions)
        entropy = float(bernoulli_entropy(logits).sum() / b)
    else:
        log_probs_new = gaussian_tanh_log_prob(actions, logits, params.log_std, tanh_corr)
        entropy = float((params.log_std + 0.5 * (1.0 + math.log(2.0 * math.pi))).sum())
    ratios = ppo_ratio(log_probs_new, log_probs_old)
    policy_loss, unclipped, clipped = _clipped_surrogate(ratios, advantages, config.clip_range)
    err = v - returns
    value_loss = float((err * err).sum() / b)
    total = policy_loss + config.vf_coef * value_loss - config.ent_coef * entropy
    if out is None or not math.isfinite(total):
        return total, policy_loss, value_loss, entropy, ratios

    # d(total)/d(log_prob_new): only where the unclipped branch attains the
    # min and the ratio exponent is inside the clamp window.
    log_diff = np.log(np.maximum(ratios, 1e-300))  # == clamped (new - old)
    active = (unclipped <= clipped) & (np.abs(log_diff) < RATIO_EXP_CLAMP)
    g_logprob = np.where(active, -unclipped, 0.0) / b

    if params.log_std is None:  # Bernoulli heads
        p = sigmoid(logits)
        d_logits = g_logprob[:, None] * (actions - p)
        if config.ent_coef != 0.0:
            # -ent_coef * mean(H); dH/dz = -z * p * (1 - p)
            d_logits += config.ent_coef * logits * p * (1.0 - p) / b
    else:
        std = np.exp(params.log_std)
        zscore = (actions - logits) / std
        d_logits = g_logprob[:, None] * (zscore / std)
        log_std_grad = (g_logprob[:, None] * (zscore * zscore - 1.0)).sum(axis=0)
        if config.ent_coef != 0.0:
            log_std_grad = log_std_grad - config.ent_coef * np.ones_like(log_std_grad)
        out[-1][...] = log_std_grad  # log_std is the last trainable array

    n_actor = len(params.actor.params)
    params.actor.backward(actor_cache, d_logits, out[:n_actor])
    d_values = (config.vf_coef * 2.0 * err / b)[:, None]
    params.critic.backward(critic_cache, d_values, out[n_actor:])  # log_std stays last
    return total, policy_loss, value_loss, entropy, ratios


def ppo_total_loss(
    params: PolicyParams,
    obs: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
) -> float:
    """Scalar training loss of one minibatch (advantages as given)."""
    return _minibatch(params, obs, actions, log_probs_old, advantages, returns, config)[0]


class PPOLearner:
    """Holds the optimizer state so moments persist across updates.

    Every trainable array of ``params`` becomes a view into one flat vector
    ``theta``, kept here and not on PolicyParams, whose deepcopy (a checkpoint)
    must get arrays of its own. ``grad`` and the Adam moments share its layout,
    so the Adam step, the clip scale and the rollback are one vector op each."""

    def __init__(self, params: PolicyParams, config: TrainConfig):
        self.params = params
        self.config = config
        arrays = params.trainable_arrays()
        shapes = [a.shape for a in arrays]
        self.theta = np.concatenate([a.ravel() for a in arrays])
        views = flat_views(self.theta, shapes)
        n_actor, n_critic = len(params.actor.params), len(params.critic.params)
        params.actor.params = views[:n_actor]
        params.critic.params = views[n_actor:n_actor + n_critic]
        if params.log_std is not None:
            params.log_std = views[-1]
        self.grad = np.zeros_like(self.theta)
        self.grad_parts = flat_views(self.grad, shapes)
        self.optimizer = Adam(self.theta.size, lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer, rng: np.random.Generator) -> UpdateStats:
        """One full update pass: n_epochs of shuffled minibatches.

        On a non-finite loss the parameters and optimizer are rolled back
        to their pre-update snapshot and ``stats.aborted`` is set.
        """
        params, config, optimizer = self.params, self.config, self.optimizer
        batch_size = config.batch_size
        if not buffer.full:
            raise ValueError(f"rollout buffer not full ({buffer.pos}/{buffer.n_steps})")
        advantages, returns = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, buffer.bootstrap_value,
            config.gamma, config.gae_lambda,
        )

        snapshot = (self.theta.copy(), optimizer.m.copy(), optimizer.v.copy(), optimizer.t)

        sums = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                "ratio_mean": 0.0, "clip_fraction": 0.0, "grad_norm": 0.0}
        n_mb = 0
        n = buffer.n_steps
        # the stored actions' tanh correction depends on nothing the update moves
        tanh_corr = None if params.log_std is None else tanh_correction(buffer.actions)
        rows = (buffer.observations, buffer.actions, buffer.log_probs, advantages, returns)
        for _ in range(config.n_epochs):
            perm = rng.permutation(n)
            # one gather per array and epoch; each minibatch is a slice of it
            obs_e, acts_e, lp_e, adv_e, ret_e = (a[perm] for a in rows)
            corr_e = None if tanh_corr is None else tanh_corr[perm]
            for start in range(0, n, batch_size):
                mb = slice(start, start + batch_size)
                adv = normalize_advantages(adv_e[mb])

                total, policy_loss, value_loss, entropy, ratios = _minibatch(
                    params, obs_e[mb], acts_e[mb], lp_e[mb], adv, ret_e[mb], config,
                    None if corr_e is None else corr_e[mb], self.grad_parts)
                if not math.isfinite(total):
                    self.theta[:] = snapshot[0]
                    optimizer.m, optimizer.v, optimizer.t = snapshot[1:]
                    return UpdateStats(
                        aborted=True,
                        abort_reason=(
                            f"non-finite loss (policy={policy_loss!r}, "
                            f"value={value_loss!r}); parameters kept"
                        ),
                        n_minibatches=n_mb,
                    )
                norm = clip_by_global_norm(self.grad, self.grad_parts, config.max_grad_norm)
                optimizer.step(self.theta, self.grad)
                if params.log_std is not None:
                    np.maximum(params.log_std, LOG_STD_MIN, out=params.log_std)

                sums["policy_loss"] += policy_loss
                sums["value_loss"] += value_loss
                sums["entropy"] += entropy
                sums["ratio_mean"] += float(ratios.sum() / batch_size)
                clipped = np.abs(ratios - 1.0) > config.clip_range
                sums["clip_fraction"] += int(np.count_nonzero(clipped)) / batch_size
                sums["grad_norm"] += min(norm, config.max_grad_norm)
                n_mb += 1

        return UpdateStats(**{name: s / n_mb for name, s in sums.items()},
                           n_minibatches=n_mb)

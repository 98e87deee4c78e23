"""Actor-critic policy over the 4-element observation.

Two exploration modes share the same actor body:

* bernoulli (default): the two outputs are logits of independent
  Bernoulli heads, one per binary command.
* continuous-threshold: the two outputs are means of a diagonal
  Gaussian with a learned state-independent log-std; samples are
  tanh-squashed and thresholded at zero into binaries, with the
  exploration noise held for a fixed number of steps between resamples.

Observations are normalized by running mean/variance before entering
either network; the statistics update only while collecting rollouts
and travel with the parameters in checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .env import Observation
from .nets import MLP
from .sim import CONTROLS, Controls

HIDDEN = 64
N_ACTIONS = 2
LOG2PI = math.log(2.0 * math.pi)
# Floor for the learned exploration log-std in continuous-threshold mode.
# With nothing opposing it (entropy bonus defaults to zero) the std
# otherwise collapses and exploration dies long before the brake-to-stop
# behaviour is reliably discovered; thresholded decisions follow the mean
# sign, so a small noise floor does not disturb converged behaviour.
LOG_STD_MIN = -2.0


class ExplorationMode(Enum):
    BERNOULLI = "bernoulli"
    CONTINUOUS_THRESHOLD = "continuous_threshold"


class ObsNormalizer:
    """Running per-element mean/variance (Welford), with a variance floor.

    ``eps`` and ``clip`` are constants: checkpoints store only the
    statistics, so any other value would not survive a save and load."""

    eps = 1e-8  # variance floor
    clip = 10.0  # normalized values are clipped to [-clip, clip]

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self._refresh_std()

    def update(self, x) -> None:
        """One Welford step over the elements of ``x``, an :class:`Observation`
        or any sequence of ``dim`` floats, as plain floats with the operations
        and order of the array formulas ``delta = x - mean``, ``mean += delta /
        count``, ``m2 += delta * (x - mean)`` and ``std = sqrt(var + eps)``, so
        with their bits; ``mean``, ``m2`` and the std are stored as arrays."""
        self.count = count = self.count + 1
        eps = self.eps
        mean, m2, std = [], [], []
        for xi, mi, m2i in zip(x, self.mean.tolist(), self.m2.tolist(), strict=True):
            delta = xi - mi
            mi = mi + delta / count
            m2i = m2i + delta * (xi - mi)
            mean.append(mi)
            m2.append(m2i)
            std.append(math.sqrt((m2i / count if count >= 2 else 1.0) + eps))
        self.mean, self.m2, self._std = np.array(mean), np.array(m2), np.array(std)

    @property
    def var(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return self.m2 / self.count

    def _refresh_std(self) -> None:
        # normalize's denominator, recomputed only where the statistics change
        self._std = np.sqrt(self.var + self.eps)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.mean) / self._std
        return np.minimum(np.maximum(z, -self.clip, out=z), self.clip, out=z)  # np.clip's bits

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "mean": self.mean.copy(),
            "m2": self.m2.copy(),
            "count": np.array([float(self.count)]),
        }

    @classmethod
    def from_state_arrays(cls, arrays: dict[str, np.ndarray]) -> "ObsNormalizer":
        norm = cls(dim=len(arrays["mean"]))
        norm.mean = np.asarray(arrays["mean"], dtype=np.float64).copy()
        norm.m2 = np.asarray(arrays["m2"], dtype=np.float64).copy()
        norm.count = int(arrays["count"][0])
        norm._refresh_std()
        return norm


@dataclass
class PolicyParams:
    """Actor and critic networks plus observation statistics.

    ``log_std`` is present exactly in continuous-threshold mode, so it is
    what tells the modes apart: the parameters store no mode of their own.
    """

    actor: MLP
    critic: MLP
    obs_normalizer: ObsNormalizer
    log_std: np.ndarray | None = None

    @property
    def obs_dim(self) -> int:
        return self.actor.params[0].shape[0]

    def trainable_arrays(self) -> list[np.ndarray]:
        arrays = self.actor.params + self.critic.params
        if self.log_std is not None:
            arrays = arrays + [self.log_std]
        return arrays


def init_policy(
    obs_dim: int,
    rng: np.random.Generator,
    mode: ExplorationMode = ExplorationMode.BERNOULLI,
) -> PolicyParams:
    """Fresh seeded parameters: orthogonal layers, small final actor gain
    so initial action probabilities sit near 0.5."""
    actor = MLP([obs_dim, HIDDEN, HIDDEN, N_ACTIONS], rng, final_gain=0.01)
    critic = MLP([obs_dim, HIDDEN, HIDDEN, 1], rng, final_gain=1.0)
    log_std = np.zeros(N_ACTIONS) if mode is ExplorationMode.CONTINUOUS_THRESHOLD else None
    return PolicyParams(
        actor=actor,
        critic=critic,
        obs_normalizer=ObsNormalizer(obs_dim),
        log_std=log_std,
    )


def _as_obs_array(obs, dim: int) -> np.ndarray:
    if isinstance(obs, Observation):
        x = obs.to_array()
        # four scalar tests cost a fraction of np.isfinite on the array
        isfinite = math.isfinite
        finite = (isfinite(obs.rel_x) and isfinite(obs.rel_y) and isfinite(obs.speed)
                  and isfinite(obs.lift))
    else:
        x = np.asarray(obs, dtype=np.float64)
        finite = np.all(np.isfinite(x))
    if x.shape != (dim,):
        raise ValueError(f"observation shape {x.shape} does not match policy input ({dim},)")
    if not finite:
        raise ValueError(f"observation has non-finite values: {x}")
    return x


def policy_forward(params: PolicyParams, obs, value: bool = True) -> tuple[np.ndarray, float | None]:
    """Normalized forward pass: (two action logits/means, value estimate).

    With ``value=False`` only the actor runs and the value is None; a
    greedy decision needs no value. Pure: the normalizer statistics are
    used but not updated.
    """
    x = _as_obs_array(obs, params.obs_dim)
    xn = params.obs_normalizer.normalize(x)
    logits = params.actor(xn)
    if not value:
        return logits, None
    return logits, float(params.critic(xn)[0])


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def log_sigmoid(z: np.ndarray) -> np.ndarray:
    # -softplus(-z), stable for large |z|
    return -np.logaddexp(0.0, -z)


def bernoulli_log_prob(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Sum over the two heads of log P(action); supports batches."""
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    lp = actions * log_sigmoid(logits) + (1.0 - actions) * log_sigmoid(-logits)
    return lp.sum(axis=-1)


def bernoulli_entropy(logits: np.ndarray) -> np.ndarray:
    """Entropy of the two-head Bernoulli distribution, summed over heads."""
    logits = np.asarray(logits, dtype=np.float64)
    p = sigmoid(logits)
    h = np.logaddexp(0.0, logits) - logits * p  # softplus(z) - z*sigmoid(z)
    return h.sum(axis=-1)


def finite_output(out: np.ndarray) -> np.ndarray:
    """The actor output ``out``, one row or a batch, if all of it is finite;
    otherwise raises FloatingPointError naming it, or a batch's first bad
    row: such an output picks no action, and its sign tests would pick one
    silently."""
    finite = all(map(math.isfinite, out.tolist())) if out.ndim == 1 else np.isfinite(out).all()
    if not finite:
        bad = out if out.ndim == 1 else out[~np.isfinite(out).all(axis=1)][0]
        raise FloatingPointError(f"actor output is not finite: {bad}")
    return out


def sample_action(
    logits: np.ndarray, rng: np.random.Generator
) -> tuple[Controls, float, np.ndarray]:
    """Draw the two binary commands independently from their heads.
    Returns (binary action, log_prob, the 0/1 row it came from); raises
    FloatingPointError if a logit is not finite."""
    finite_output(logits)
    p = sigmoid(np.asarray(logits, dtype=np.float64))
    u = rng.random(N_ACTIONS)
    a = (u < p).astype(np.float64)
    log_prob = float(bernoulli_log_prob(logits, a))
    return CONTROLS[int(a[0])][int(a[1])], log_prob, a


def greedy_action(logits: np.ndarray) -> Controls:
    """Most likely action: a head fires iff its logit is positive. In the
    continuous-threshold mode the outputs are means, and a head fires iff
    ``tanh(mean) > 0``, the same sign test."""
    return CONTROLS[int(logits[0] > 0.0)][int(logits[1] > 0.0)]


class ThresholdSampler:
    """Continuous-threshold exploration with periodically held noise.

    Keeps the standard-normal noise vector fixed for
    ``resample_every`` decisions, mimicking state-dependent-exploration
    style smoothness; the pre-squash sample is what the optimizer sees.
    The held noise carries across episode ends.
    """

    def __init__(self, resample_every: int = 4):
        if resample_every < 1:
            raise ValueError(f"resample_every must be >= 1, got {resample_every}")
        self.resample_every = resample_every
        self._noise: np.ndarray | None = None
        self._age = 0

    def sample(
        self, mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator
    ) -> tuple[Controls, float, np.ndarray]:
        """Returns (binary action, log_prob, pre-squash sample u). Raises
        FloatingPointError if the mean, the actor output, is not finite.

        The log-probability is :func:`gaussian_tanh_log_prob` of the two
        heads, computed over plain floats with its operations in its order,
        so with its bits; ``np.tanh`` and ``np.log1p`` stay, as ``np.tanh``
        and ``math.tanh`` differ in the last bit on some inputs."""
        m0, m1 = finite_output(mean).tolist()
        if self._noise is None or self._age >= self.resample_every:
            self._noise = rng.standard_normal(N_ACTIONS)
            self._age = 0
        self._age += 1
        std = np.exp(log_std)
        u = mean + std * self._noise
        (u0, u1), (l0, l1), (s0, s1) = u.tolist(), log_std.tolist(), std.tolist()
        z0, z1 = (u0 - m0) / s0, (u1 - m1) / s1
        t0, t1 = float(np.tanh(u0)), float(np.tanh(u1))
        corr0 = float(np.log1p(-(t0 * t0) + 1e-12))
        corr1 = float(np.log1p(-(t1 * t1) + 1e-12))
        log_prob = ((-0.5 * z0 * z0 - l0 - 0.5 * LOG2PI - corr0)
                    + (-0.5 * z1 * z1 - l1 - 0.5 * LOG2PI - corr1))
        # a head fires iff tanh(u) > 0, which is u > 0: tanh is odd and monotone
        # and rounds no nonzero value to zero
        return CONTROLS[u0 > 0.0][u1 > 0.0], log_prob, u


def tanh_correction(u: np.ndarray) -> np.ndarray:
    """The tanh change-of-variables term of each pre-squash sample u,
    ``log(1 - tanh(u)^2)`` with a small floor; it depends on u alone."""
    return np.log1p(-np.tanh(u) ** 2 + 1e-12)


def gaussian_tanh_log_prob(u: np.ndarray, mean: np.ndarray, log_std: np.ndarray,
                           corr: np.ndarray | None = None) -> np.ndarray:
    """log-density of pre-squash sample u under N(mean, std), with the
    tanh change-of-variables correction; sums over action dims. ``corr``
    is ``tanh_correction(u)`` when the caller has it already."""
    u = np.asarray(u, dtype=np.float64)
    std = np.exp(log_std)
    z = (u - mean) / std
    base = -0.5 * z * z - log_std - 0.5 * LOG2PI
    if corr is None:
        corr = tanh_correction(u)
    return (base - corr).sum(axis=-1)

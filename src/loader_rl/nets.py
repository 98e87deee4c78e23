"""Small dense networks with hand-written backprop, in numpy.

Everything is float64 and seeded, so training runs are bitwise
reproducible on the same build. The networks are tiny (two hidden tanh
layers of 64 units), so there is no need for an autograd framework; the
explicit backward pass also makes the gradient-vs-finite-difference
checks straightforward.
"""

from __future__ import annotations

import math

import numpy as np


def orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    """Orthogonal weight matrix via SVD of a Gaussian draw."""
    a = rng.standard_normal((rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == (rows, cols) else vt
    return gain * q


class MLP:
    """Fully connected net: tanh hidden layers, linear output.

    Parameters live in ``self.params`` as [W1, b1, W2, b2, ...] with W of
    shape (fan_in, fan_out); forward returns the output plus the cache
    the backward pass needs.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator, final_gain: float = 1.0):
        self.sizes = list(sizes)
        self.params: list[np.ndarray] = []
        n_layers = len(sizes) - 1
        for i in range(n_layers):
            gain = final_gain if i == n_layers - 1 else math.sqrt(2.0)
            w = orthogonal(rng, sizes[i], sizes[i + 1], gain)
            b = np.zeros(sizes[i + 1])
            self.params.extend([w, b])

    @classmethod
    def from_params(cls, sizes: list[int], params: list[np.ndarray]) -> "MLP":
        """A net over existing arrays [W1, b1, W2, b2, ...], kept as given,
        with no initial draw. Raises ValueError when their count or
        shapes do not fit ``sizes``."""
        net = cls.__new__(cls)
        net.sizes = list(sizes)
        if len(net.sizes) < 2:
            raise ValueError(f"a net needs an input and an output size, got {net.sizes}")
        shapes = []
        for fan_in, fan_out in zip(net.sizes[:-1], net.sizes[1:]):
            shapes.extend([(fan_in, fan_out), (fan_out,)])
        if len(params) != len(shapes):
            raise ValueError("parameter list length mismatch")
        for shape, p in zip(shapes, params):
            if p.shape != shape:
                raise ValueError(f"parameter shape mismatch: {shape} vs {p.shape}")
        net.params = list(params)
        return net

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """x has shape (batch, in) or (in,); returns (out, cache)."""
        squeeze = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cache = [h]
        for i in range(self.n_layers):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            z = h @ w + b
            h = np.tanh(z) if i < self.n_layers - 1 else z
            cache.append(h)
        return (h[0] if squeeze else h), cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of a scalar loss wrt params, given d(loss)/d(output).

        Returns a list aligned with ``self.params``.
        """
        grads: list[np.ndarray] = [np.empty(0)] * len(self.params)
        d = np.atleast_2d(grad_out)
        for i in reversed(range(self.n_layers)):
            h_in, h_out = cache[i], cache[i + 1]
            if i < self.n_layers - 1:
                d = d * (1.0 - h_out * h_out)  # tanh'
            w = self.params[2 * i]
            grads[2 * i] = h_in.T @ d
            grads[2 * i + 1] = d.sum(axis=0)
            if i > 0:
                d = d @ w.T
        return grads

    def copy_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]


class Adam:
    """Adaptive-moment first-order optimizer with bias correction."""

    def __init__(self, shapes: list[tuple[int, ...]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def global_norm(grads: list[np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads))


def clip_by_global_norm(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Scale all gradients so their joint norm is at most ``max_norm``."""
    norm = global_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm

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
        self.params: list[np.ndarray] = []
        n_layers = len(sizes) - 1
        for i in range(n_layers):
            gain = final_gain if i == n_layers - 1 else math.sqrt(2.0)
            w = orthogonal(rng, sizes[i], sizes[i + 1], gain)
            b = np.zeros(sizes[i + 1])
            self.params.extend([w, b])

    @classmethod
    def from_params(cls, params: list[np.ndarray]) -> "MLP":
        """A net over existing arrays [W1, b1, W2, b2, ...], kept as given,
        with no initial draw; its sizes are read off the weight shapes.
        Raises ValueError unless the arrays are weight (fan_in, fan_out) and
        bias (fan_out,) pairs, each fan_in the fan_out before it."""
        if not params or len(params) % 2:
            raise ValueError(f"a net needs weight/bias pairs, got {len(params)} arrays")
        fan_in = None
        for i in range(0, len(params), 2):
            w, b = params[i], params[i + 1]
            if w.ndim != 2 or fan_in not in (None, w.shape[0]) or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i // 2}: shapes {w.shape} and {b.shape} do not chain")
            fan_in = w.shape[1]
        net = cls.__new__(cls)
        net.params = list(params)
        return net

    @property
    def sizes(self) -> list[int]:
        """[input, hidden..., output], read off the parameter shapes."""
        return [self.params[0].shape[0]] + [b.shape[0] for b in self.params[1::2]]

    @property
    def n_layers(self) -> int:
        return len(self.params) // 2

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """x has shape (batch, in) or (in,); returns (out, cache)."""
        squeeze = x.ndim == 1
        cache = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
        h = self._layers(cache[0], cache)
        return (h[0] if squeeze else h), cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The output alone, from a pass that keeps no cache. A batch (batch, in)
        gives the bits of ``forward``; one input (in,) runs a plain 1-D pass."""
        return self._layers(x, None)

    def _layers(self, h: np.ndarray, cache: list[np.ndarray] | None) -> np.ndarray:
        """tanh(h @ W + b) per hidden layer, then a linear one; cached unless cache is None.
        Each product is ``np.dot``: the BLAS call of ``@`` without its ufunc dispatch."""
        for i in range(0, len(self.params), 2):
            h = np.dot(h, self.params[i])
            h += self.params[i + 1]
            if i + 2 < len(self.params):  # a hidden layer
                np.tanh(h, out=h)
            if cache is not None:
                cache.append(h)
        return h

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray, out: list[np.ndarray]) -> None:
        """Gradients of a scalar loss wrt params, given d(loss)/d(output),
        written into ``out``, a list of arrays aligned with ``self.params``."""
        d = np.atleast_2d(grad_out)
        for i in reversed(range(self.n_layers)):
            h_in, h_out = cache[i], cache[i + 1]
            if i < self.n_layers - 1:
                # d * (1 - h_out * h_out), tanh', in place: here d is the
                # product of the layer above, so no caller holds it
                tanh_grad = np.multiply(h_out, h_out)
                d *= np.subtract(1.0, tanh_grad, out=tanh_grad)
            np.dot(h_in.T, d, out=out[2 * i])
            d.sum(axis=0, out=out[2 * i + 1])
            if i > 0:
                d = np.dot(d, self.params[2 * i].T)


def flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views of the 1-D ``flat``, one per shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


class Adam:
    """Adaptive-moment first-order optimizer with bias correction, over one
    flat parameter vector; its temporaries live in preallocated scratch."""

    def __init__(self, size: int, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step, self._denom = np.empty(size), np.empty(size)

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """In place, with the operations and order of m = b1*m + (1-b1)*g, v = b2*v +
        (1-b2)*(g*g), param -= lr * (m / b1t) / (sqrt(v / b2t) + eps)."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=step)
        v *= self.beta2
        v += np.multiply(np.multiply(grad, grad, out=step), 1.0 - self.beta2, out=step)
        np.multiply(np.divide(m, b1t, out=step), self.lr, out=step)
        np.sqrt(np.divide(v, b2t, out=denom), out=denom)
        denom += self.eps
        param -= np.divide(step, denom, out=step)


def global_norm(grads: list[np.ndarray]) -> float:
    # ndarray.sum is np.sum without its Python-level dispatch: the same reduction
    return math.sqrt(sum(float((g * g).sum()) for g in grads))


def clip_by_global_norm(grad: np.ndarray, parts: list[np.ndarray], max_norm: float) -> float:
    """Scale the flat ``grad`` in place to a norm of at most ``max_norm``; return the
    norm before, summed one array at a time over ``parts``, its per-array views."""
    norm = global_norm(parts)
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm

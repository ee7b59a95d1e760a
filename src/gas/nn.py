"""Minimal differentiable MLP with manual reverse-mode gradients.

Everything is double-precision numpy: ReLU hidden layers, identity output,
an adaptive-moment optimizer with global gradient-norm clipping and
decoupled weight decay, the asymmetric-squared (expectile) loss primitive,
a central-finite-difference gradient checker, and the binary net format
(magic ``GASNET1\\0``) of ``write_net_bytes``/``read_net_bytes``.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError, SchemaError, parsing

NET_MAGIC = b"GASNET1\x00"
NET_VERSION = 1


def layer_sizes(n_in: int, n_out: int, n_layers: int, hidden: int, embedding: int) -> list:
    """n_in -> embedding -> hidden x (n_layers - 2) -> n_out."""
    if n_layers < 2:
        raise ContractError(f"need at least 2 weight layers, got {n_layers}")
    return [n_in, embedding] + [hidden] * (n_layers - 2) + [n_out]


class Mlp:
    """Affine + ReLU stack; identity on the output layer."""

    def __init__(self, layer_sizes: Sequence[int], weights, biases):
        self.layer_sizes = list(layer_sizes)
        self.weights = weights  # list of (n_in, n_out)
        self.biases = biases    # list of (n_out,)

    @classmethod
    def init(cls, layer_sizes: Sequence[int], rng: np.random.Generator) -> "Mlp":
        """He-style uniform fan-in initialization, zero biases."""
        weights, biases = [], []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / n_in)
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(layer_sizes, weights, biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping per-layer inputs and pre-activations."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ContractError(
                f"input width {x.shape[1]} != expected {self.layer_sizes[0]}"
            )
        layer_inputs = [x]
        pre_acts = []
        h = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre_acts.append(z)
            h = z if i == last else np.maximum(z, 0.0)
            if i != last:
                layer_inputs.append(h)
        return h, (layer_inputs, pre_acts)

    def backward(self, cache, upstream: np.ndarray):
        """Gradients of sum(output * upstream) w.r.t. every parameter.

        ReLU subgradient at exactly 0 is 0. Returns (weight grads, bias grads)
        shaped like the parameters.
        """
        layer_inputs, pre_acts = cache
        g = np.asarray(upstream, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        if g.shape != pre_acts[-1].shape:
            raise ContractError(
                f"upstream shape {g.shape} != output shape {pre_acts[-1].shape}"
            )
        d_weights = [None] * self.n_layers
        d_biases = [None] * self.n_layers
        for i in range(self.n_layers - 1, -1, -1):
            gz = g if i == self.n_layers - 1 else g * (pre_acts[i] > 0.0)
            d_weights[i] = layer_inputs[i].T @ gz
            d_biases[i] = gz.sum(axis=0)
            if i > 0:
                g = gz @ self.weights[i].T
        return d_weights, d_biases

    # -- flat views used by the checker and the tests --------------------

    def get_flat(self) -> np.ndarray:
        return flatten_grads(self.weights, self.biases)

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = flat[i:i + w.size].reshape(w.shape)
            i += w.size
            b[...] = flat[i:i + b.size]
            i += b.size
        if i != flat.size:
            raise ContractError(f"flat vector size {flat.size} != {i} parameters")

    def copy(self) -> "Mlp":
        return Mlp(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def flatten_grads(d_weights, d_biases) -> np.ndarray:
    parts = []
    for dw, db in zip(d_weights, d_biases):
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


def global_grad_norm(d_weights, d_biases) -> float:
    total = 0.0
    for g in list(d_weights) + list(d_biases):
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


@dataclass
class OptimHyper:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    grad_clip_norm: float = 0.25


class OptimState:
    """Adaptive-moment state for one Mlp (single-writer)."""

    def __init__(self, net: Mlp, hyper: OptimHyper):
        self.hyper = hyper
        self.step_count = 0
        self.m_weights = [np.zeros_like(w) for w in net.weights]
        self.m_biases = [np.zeros_like(b) for b in net.biases]
        self.v_weights = [np.zeros_like(w) for w in net.weights]
        self.v_biases = [np.zeros_like(b) for b in net.biases]

    def apply(self, net: Mlp, d_weights, d_biases) -> None:
        """One update: clip by global norm, decay weights, then moment step."""
        norm = global_grad_norm(d_weights, d_biases)
        if not np.isfinite(norm):
            raise NonFiniteError(f"non-finite gradient (norm={norm}); step aborted")
        h = self.hyper
        scale = 1.0
        if h.grad_clip_norm > 0.0 and norm > h.grad_clip_norm:
            scale = h.grad_clip_norm / norm
        self.step_count += 1
        bc1 = 1.0 - h.beta1 ** self.step_count
        bc2 = 1.0 - h.beta2 ** self.step_count
        decay = 1.0 - h.learning_rate * h.weight_decay
        params = list(net.weights) + list(net.biases)
        grads = list(d_weights) + list(d_biases)
        moments1 = self.m_weights + self.m_biases
        moments2 = self.v_weights + self.v_biases
        for p, g, m, v in zip(params, grads, moments1, moments2):
            if decay != 1.0:
                p *= decay
            g = g * scale
            m *= h.beta1
            m += (1.0 - h.beta1) * g
            v *= h.beta2
            v += (1.0 - h.beta2) * g * g
            p -= h.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + h.eps)


# -- expectile primitive --------------------------------------------------


def expectile_weight(u, alpha: float):
    """|alpha - 1(u < 0)| for scalar or array u."""
    u = np.asarray(u, dtype=np.float64)
    return np.abs(alpha - (u < 0.0))


def expectile_term(u, alpha: float):
    """Asymmetric squared loss and its derivative in u.

    value = |alpha - 1(u<0)| * u^2, d/du = 2 * |alpha - 1(u<0)| * u.
    Both vanish at u = 0. At alpha = 0.5 this is half the squared error.
    """
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0, 1), got {alpha}")
    u = np.asarray(u, dtype=np.float64)
    w = expectile_weight(u, alpha)
    return w * u * u, 2.0 * w * u


def solve_scalar_expectile(samples, alpha: float, lr: float = 0.4,
                           iterations: int = 20000, tol: float = 1e-12) -> float:
    """Minimize mean expectile loss over a scalar location by gradient descent.

    The objective is convex and piecewise quadratic; at alpha = 0.5 the
    minimizer is the sample mean, and it moves toward the sample maximum as
    alpha -> 1.
    """
    xs = np.asarray(samples, dtype=np.float64)
    m = float(xs.mean())
    for _ in range(iterations):
        _, du = expectile_term(xs - m, alpha)
        grad = float(-du.mean())
        m -= lr * grad
        if abs(grad) < tol:
            break
    return m


# -- gradient checking -----------------------------------------------------


def grad_check(f: Callable[[np.ndarray], float], x: np.ndarray,
               analytic: np.ndarray, step: float = 1e-5,
               max_coords: int = 400, rng: "np.random.Generator | None" = None) -> float:
    """Worst relative error of ``analytic`` vs central differences of ``f``.

    For large parameter vectors a random subsample of at least 200
    coordinates is checked. Each f(x +/- h) is exact only to eps*|f|, so the
    difference quotient can be off by its round-off eps*max(|f(x+h)|, |f(x-h)|)/h;
    that is subtracted from |analytic - numeric| (floored at 0) before
    dividing by max(|analytic|, |numeric|, 1e-8).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n <= max_coords:
        coords = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max(200, max_coords), replace=False)
    eps = np.finfo(np.float64).eps
    worst = 0.0
    for i in coords:
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        f_plus, f_minus = f(xp), f(xm)
        numeric = (f_plus - f_minus) / (2.0 * step)
        round_off = eps * max(abs(f_plus), abs(f_minus)) / step
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, max(abs(analytic[i] - numeric) - round_off, 0.0) / denom)
    return worst


# -- serialization -----------------------------------------------------------


def _read_array(fh, shape) -> np.ndarray:
    count = math.prod(shape)
    buf = fh.read(count * 8)
    if len(buf) != count * 8:
        raise SchemaError("truncated parameter blob")
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)


def write_net_bytes(net: Mlp) -> bytes:
    """Magic, version, layer sizes, each layer's f64 weights and biases, and
    an optimizer-state flag that is always 0 (checkpoints carry parameters only)."""
    buf = io.BytesIO()
    buf.write(NET_MAGIC)
    buf.write(struct.pack("<II", NET_VERSION, len(net.layer_sizes)))
    buf.write(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
    for w, b in zip(net.weights, net.biases):
        buf.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    buf.write(struct.pack("<I", 0))
    return buf.getvalue()


def read_net_bytes(data: bytes) -> Mlp:
    """Parse one net; corrupt bytes or a set optimizer flag raise SchemaError."""
    fh = io.BytesIO(data)
    with parsing("net checkpoint"):
        magic = fh.read(8)
        if magic != NET_MAGIC:
            raise SchemaError(f"bad checkpoint magic {magic!r}, expected {NET_MAGIC!r}")
        version, n_sizes = struct.unpack("<II", fh.read(8))
        if version != NET_VERSION:
            raise SchemaError(f"unsupported checkpoint version {version}, expected {NET_VERSION}")
        sizes = list(struct.unpack(f"<{n_sizes}I", fh.read(4 * n_sizes)))
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            weights.append(_read_array(fh, (n_in, n_out)))
            biases.append(_read_array(fh, (n_out,)))
        (has_optim,) = struct.unpack("<I", fh.read(4))
        if has_optim:
            raise SchemaError("net checkpoint carries optimizer state, which is not supported")
        return Mlp(sizes, weights, biases)

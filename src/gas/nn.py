"""Minimal differentiable MLP with manual reverse-mode gradients.

Everything is double-precision numpy: ReLU hidden layers, identity output,
an adaptive-moment optimizer with global gradient-norm clipping and
decoupled weight decay, the asymmetric-squared (expectile) loss primitive,
and a central-finite-difference gradient checker. Each net's parameters
are one vector in the ``param_views`` layout, stored as is in the checkpoint
bundles of ``gas.goals``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError

_ADAM_EPS = 1e-8


def layer_sizes(n_in: int, n_out: int, n_layers: int, hidden: int, embedding: int) -> list:
    """n_in -> embedding -> hidden x (n_layers - 2) -> n_out."""
    if n_layers < 2:
        raise ContractError(f"need at least 2 weight layers, got {n_layers}")
    return [n_in, embedding] + [hidden] * (n_layers - 2) + [n_out]


def param_count(layer_sizes: Sequence[int]) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes, layer_sizes[1:]))


def param_views(flat: np.ndarray, layer_sizes: Sequence[int]) -> tuple[list, list]:
    """(weights, biases) as views of ``flat``, which holds layer after layer
    the (n_in, n_out) weights row-major and then the (n_out,) biases."""
    if flat.shape != (param_count(layer_sizes),):
        raise ContractError(f"{flat.shape} vector for {param_count(layer_sizes)} parameters")
    weights, biases, i = [], [], 0
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(flat[i:i + n_in * n_out].reshape(n_in, n_out))
        biases.append(flat[i + n_in * n_out:i + (n_in + 1) * n_out])
        i += (n_in + 1) * n_out
    return weights, biases


class Mlp:
    """Affine + ReLU stack; identity on the output layer. ``weights[i]`` and
    ``biases[i]`` are views of ``params``, the one vector of every parameter."""

    def __init__(self, layer_sizes: Sequence[int], params: np.ndarray):
        self.layer_sizes = list(layer_sizes)
        self.params = params
        self.weights, self.biases = param_views(params, self.layer_sizes)

    @classmethod
    def init(cls, layer_sizes: Sequence[int], rng: np.random.Generator) -> "Mlp":
        """He-style uniform fan-in initialization, zero biases."""
        net = cls(layer_sizes, np.zeros(param_count(layer_sizes)))
        for w in net.weights:
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return net

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray, bufs: "NetBuffers | None" = None):
        """Forward pass keeping the input and every layer's output for ``backward``.

        Each layer's output is written into ``bufs.acts`` (fresh arrays when
        ``bufs`` is None), so the returned output and cache alias those
        buffers until the next forward on them. No pre-activation is kept:
        a ReLU output is > 0 exactly where its pre-activation is.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ContractError(
                f"input width {x.shape[1]} != expected {self.layer_sizes[0]}"
            )
        if bufs is not None and bufs.acts[0].shape[0] != len(x):
            raise ContractError(f"{len(x)} rows into buffers for {bufs.acts[0].shape[0]}")
        outs = [None] * self.n_layers if bufs is None else bufs.acts
        acts = [x]
        h = x
        last = self.n_layers - 1
        for i, (w, b, out) in enumerate(zip(self.weights, self.biases, outs)):
            h = np.matmul(h, w, out=out)
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h, (acts, bufs)

    def backward(self, cache, upstream: np.ndarray):
        """Gradients of sum(output * upstream) w.r.t. every parameter.

        ReLU subgradient at exactly 0 is 0. Returns the gradient laid out
        like ``params``: the ``d_params`` of the buffers the forward pass was
        given (fresh ones if it had none), valid until the next backward on
        them.
        """
        acts, bufs = cache
        g = np.asarray(upstream, dtype=np.float64)
        if g.ndim == 1:
            g = g[None, :]
        if g.shape != acts[-1].shape:
            raise ContractError(
                f"upstream shape {g.shape} != output shape {acts[-1].shape}"
            )
        if bufs is None:
            (bufs,) = net_buffers([self], len(g))
        last = self.n_layers - 1
        for i in range(last, -1, -1):
            if i != last:
                # g is this layer's slot of the ping-pong buffers, never `upstream`
                mask = bufs.masks[i]
                np.greater(acts[i + 1], 0.0, out=mask)
                np.multiply(g, mask, out=g)
            np.matmul(acts[i].T, g, out=bufs.d_weights[i])
            np.sum(g, axis=0, out=bufs.d_biases[i])
            if i > 0:
                below, w = bufs.grads[i - 1], self.weights[i]
                if w.shape[1] == 1:
                    # a k = 1 product: the broadcast multiply gives the GEMM's bits
                    np.multiply(g, w[:, 0], out=below)
                else:
                    np.matmul(g, w.T, out=below)
                g = below
        return bufs.d_params

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.params.copy())


class NetBuffers:
    """Arrays one Mlp's ``forward_cached``/``backward`` write into, at one batch size.

    ``acts`` holds each layer's output and ``d_params`` the gradient, laid
    out like ``Mlp.params``; ``d_weights``/``d_biases`` are its per-layer
    views. ``grads`` and ``masks`` are the backprop temporaries: (batch,
    width) views of two ping-pong buffers and one bool mask. All NetBuffers
    made by one ``net_buffers`` call share those three arrays.
    """

    def __init__(self, net: Mlp, batch: int, ping: np.ndarray, pong: np.ndarray,
                 mask: np.ndarray):
        sizes = net.layer_sizes
        last = net.n_layers - 1
        self.acts = [np.empty((batch, n)) for n in sizes[1:]]
        self.d_params = np.empty_like(net.params)
        self.d_weights, self.d_biases = param_views(self.d_params, sizes)
        # grads[i] is the gradient at layer i's output; consecutive layers alternate
        self.grads = [(ping if (last - 1 - i) % 2 == 0 else pong)[:batch * n].reshape(batch, n)
                      for i, n in enumerate(sizes[1:-1])]
        self.masks = [mask[:batch * n].reshape(batch, n) for n in sizes[1:-1]]


def net_buffers(nets: Sequence[Mlp], batch: int) -> list:
    """One NetBuffers per net, all sharing backprop temporaries sized for the widest."""
    size = batch * max(max(net.layer_sizes[1:-1], default=0) for net in nets)
    ping, pong, mask = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    return [NetBuffers(net, batch, ping, pong, mask) for net in nets]


class OptimState:
    """Adaptive-moment state for one Mlp (single-writer).

    The betas and the clip norm come from ``hyper`` (a ``NetHyper``), the
    decoupled weight decay from ``weight_decay``, and each step's learning
    rate from its ``apply`` call. The moments ``m``, ``v`` and two scratch
    vectors are laid out like ``Mlp.params``; a step allocates no array.
    """

    def __init__(self, net: Mlp, hyper, weight_decay: float):
        self.hyper, self.weight_decay, self.step_count = hyper, weight_decay, 0
        self.m, self.v = np.zeros_like(net.params), np.zeros_like(net.params)
        self._s, self._t = np.empty_like(net.params), np.empty_like(net.params)
        # the norm sums the squares array by array, weights then biases, so
        # the clip scale has a per-array step's bits
        weights, biases = param_views(self._s, net.layer_sizes)
        self._square_parts = weights + biases

    def apply(self, net: Mlp, d_params: np.ndarray, learning_rate: float) -> None:
        """One update: clip by global norm, decay weights, then moment step."""
        h, p, m, v, s, t = self.hyper, net.params, self.m, self.v, self._s, self._t
        np.multiply(d_params, d_params, out=s)
        norm = float(np.sqrt(sum(float(np.sum(part)) for part in self._square_parts)))
        if not np.isfinite(norm):
            raise NonFiniteError(f"non-finite gradient (norm={norm}); step aborted")
        scale = h.grad_clip / norm if 0.0 < h.grad_clip < norm else 1.0
        self.step_count += 1
        bc1 = 1.0 - h.beta1 ** self.step_count
        bc2 = 1.0 - h.beta2 ** self.step_count
        decay = 1.0 - learning_rate * self.weight_decay
        if decay != 1.0:
            p *= decay
        g = np.multiply(d_params, scale, out=s)
        m *= h.beta1
        m += np.multiply(g, 1.0 - h.beta1, out=t)
        v *= h.beta2
        np.multiply(g, 1.0 - h.beta2, out=t)
        v += np.multiply(t, g, out=t)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that expression's
        # evaluation order, so the bits are the same
        np.divide(m, bc1, out=s)
        s *= learning_rate
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += _ADAM_EPS
        s /= t
        p -= s


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

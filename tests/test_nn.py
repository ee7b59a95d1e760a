import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gas
from gas.errors import ContractError, NonFiniteError
from gas.nn import (Mlp, OptimState, expectile_term, grad_check, net_buffers, param_count,
                    param_views, solve_scalar_expectile)
from gas.training import NetHyper


def _net(sizes, seed=0):
    return Mlp.init(sizes, np.random.default_rng(seed))


def _flat(sizes, arrays):
    """A vector in the ``param_views`` layout holding ``arrays``: every
    layer's weights, then every layer's biases."""
    flat = np.zeros(param_count(sizes))
    weights, biases = param_views(flat, sizes)
    for view, a in zip(weights + biases, arrays):
        view[...] = a
    return flat


def _mlp(sizes, weights, biases):
    """An Mlp holding these per-layer parameters."""
    return Mlp(sizes, _flat(sizes, weights + biases))


# -- forward -----------------------------------------------------------------

def test_forward_zero_params_is_zero():
    net = _net([3, 4, 2])
    for w in net.weights:
        w[...] = 0.0
    out = net.forward(np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_forward_identity_single_layer():
    net = _mlp([2, 2], [np.eye(2)], [np.zeros(2)])
    x = np.array([[0.3, -0.7]])
    assert np.allclose(net.forward(x), x)


def test_forward_relu_clips_negatives():
    net = _mlp([2, 2, 2], [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    out = net.forward(np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [[0.0, 2.0]])


def test_forward_shape_mismatch():
    net = _net([3, 2])
    with pytest.raises(ContractError):
        net.forward(np.ones((1, 4)))


# -- backward ----------------------------------------------------------------

def test_backward_zero_upstream():
    net = _net([3, 5, 2])
    out, cache = net.forward_cached(np.random.default_rng(0).normal(size=(4, 3)))
    assert np.all(net.backward(cache, np.zeros_like(out)) == 0)


def test_backward_linear_weight_gradient_is_input():
    net = _mlp([3, 1], [np.zeros((3, 1))], [np.zeros(1)])
    x = np.array([[1.0, -2.0, 0.5]])
    out, cache = net.forward_cached(x)
    dw, db = param_views(net.backward(cache, np.ones_like(out)), net.layer_sizes)
    assert np.allclose(dw[0][:, 0], x[0])
    assert np.allclose(db[0], [1.0])


def test_backward_matches_finite_differences(rng):
    net = _net([4, 8, 8, 1], seed=3)
    x = rng.normal(size=(16, 4))
    target = rng.normal(size=(16, 1))

    def loss_at(flat):
        probe = net.copy()
        probe.params[...] = flat
        return float(np.mean((probe.forward(x) - target) ** 2))

    out, cache = net.forward_cached(x)
    upstream = 2.0 * (out - target) / out.shape[0]
    analytic = net.backward(cache, upstream)
    err = grad_check(loss_at, net.params.copy(), analytic, step=1e-5)
    assert err < 1e-4


def _reference_forward_cached(net, x):
    """The allocating forward pass: fresh inputs and pre-activations per layer."""
    layer_inputs, pre_acts = [x], []
    h = x
    last = net.n_layers - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        pre_acts.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        if i != last:
            layer_inputs.append(h)
    return h, (layer_inputs, pre_acts)


def _reference_backward(net, cache, g):
    """The allocating backward pass, masking with the pre-activations."""
    layer_inputs, pre_acts = cache
    d_weights, d_biases = [None] * net.n_layers, [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        gz = g if i == net.n_layers - 1 else g * (pre_acts[i] > 0.0)
        d_weights[i] = layer_inputs[i].T @ gz
        d_biases[i] = gz.sum(axis=0)
        if i > 0:
            g = gz @ net.weights[i].T
    return d_weights, d_biases


@pytest.mark.parametrize("n_out, batch", [(1, 64), (2, 64), (1, 1), (2, 1)])
def test_backward_matches_reference(n_out, batch):
    """The buffered forward/backward give the allocating reference's bytes:
    1-wide outputs (broadcast multiply) and 2-wide ones (GEMM), one row, and
    a second pass on the same buffers, with or without buffers."""
    net = _net([5, 16, 24, 16, n_out], seed=n_out)
    net.biases[1][...] = -0.5  # some ReLUs off, so the mask matters
    rng = np.random.default_rng(batch)
    bufs_a, bufs_b = net_buffers([net, _net([5, 32, n_out])], batch)
    for bufs in (bufs_a, bufs_a, None):
        x = rng.normal(size=(batch, 5))
        upstream = rng.normal(size=(batch, n_out))
        ref_out, ref_cache = _reference_forward_cached(net, x)
        out, cache = net.forward_cached(x, bufs)
        assert out.tobytes() == ref_out.tobytes()
        dw, db = param_views(net.backward(cache, upstream), net.layer_sizes)
        ref_dw, ref_db = _reference_backward(net, ref_cache, upstream)
        for got, want in zip(dw + db, ref_dw + ref_db):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert bufs_b.grads[0].base is bufs_a.grads[-1].base  # temporaries are shared
    # a layer's gradient and the one below it never overlap (numpy would copy)
    assert not any(np.shares_memory(a, b) for a, b in zip(bufs_a.grads, bufs_a.grads[1:]))


def test_forward_rejects_buffers_for_another_batch():
    net = _net([3, 4, 1])
    (bufs,) = net_buffers([net], 8)
    with pytest.raises(ContractError, match="rows"):
        net.forward_cached(np.ones((4, 3)), bufs)


def test_grad_check_exact_for_quadratic():
    a = np.array([1.0, 2.0, 3.0])

    def f(x):
        return float(np.sum(a * x * x))

    x0 = np.array([0.5, -1.0, 2.0])
    err = grad_check(f, x0, 2 * a * x0, step=1e-5)
    assert err < 1e-8


def test_grad_check_detects_wrong_gradient():
    def f(x):
        return float(np.sum(x * x))

    x0 = np.array([1.0, 2.0])
    err = grad_check(f, x0, 2 * 2 * x0, step=1e-5)  # doubled on purpose
    assert err > 0.3
    # 0.1% wrong: far above the round-off of f ~ 5, so the full error shows
    err = grad_check(f, x0, 1.001 * 2 * x0, step=1e-5)
    assert err == pytest.approx(1e-3, rel=1e-3)


def test_grad_check_discounts_central_difference_round_off():
    """A small slope on a large f: the difference quotient's round-off
    (eps * |f| / h ~ 2e-8) is 2% of g = 1e-6, far above the 1e-4 bound,
    yet the analytic gradient is exact."""
    g = 1e-6

    def f(x):
        return float(1e3 + g * np.sum(x))

    x0 = np.array([0.1, 0.2, 0.3])
    err = grad_check(f, x0, np.full(3, g), step=1e-5)
    assert err < 1e-4
    # a gap well above the round-off still shows in full
    err = grad_check(f, x0, np.full(3, 2 * g), step=1e-5)
    assert err > 0.3


# -- expectile ---------------------------------------------------------------

def test_expectile_half_is_half_mse():
    value, dvalue = expectile_term(2.0, 0.5)
    assert value == pytest.approx(2.0)
    assert dvalue == pytest.approx(2.0)


def test_expectile_asymmetric_example():
    value, dvalue = expectile_term(-1.0, 0.9)
    assert value == pytest.approx(0.1)
    assert dvalue == pytest.approx(-0.2)


def test_expectile_zero():
    value, dvalue = expectile_term(0.0, 0.3)
    assert value == 0.0 and dvalue == 0.0


@given(st.floats(-100, 100, allow_subnormal=False).filter(
    lambda u: u == 0 or abs(u) > 1e-150), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_expectile_properties(u, alpha):
    value, dvalue = expectile_term(u, alpha)
    assert value >= 0.0
    assert np.sign(dvalue) == np.sign(u)
    # convexity via the secant test around u
    lo, _ = expectile_term(u - 1.0, alpha)
    hi, _ = expectile_term(u + 1.0, alpha)
    assert value <= 0.5 * (lo + hi) + 1e-9


def _expectile_fixed_point(xs, alpha, iters=2000):
    """Independent oracle: iterate the weighted-mean fixed point."""
    m = float(np.mean(xs))
    for _ in range(iters):
        w = np.abs(alpha - (xs < m))
        m = float(np.sum(w * xs) / np.sum(w))
    return m


def test_scalar_expectile_matches_fixed_point_iteration():
    xs = np.arange(1.0, 11.0)
    for alpha in (0.5, 0.7, 0.9, 0.99):
        m = solve_scalar_expectile(xs, alpha)
        assert m == pytest.approx(_expectile_fixed_point(xs, alpha), abs=1e-6)


def test_scalar_expectile_moves_mean_to_max():
    xs = np.arange(1.0, 11.0)
    values = [solve_scalar_expectile(xs, a) for a in (0.5, 0.7, 0.9, 0.99)]
    assert values[0] == pytest.approx(5.5, abs=1e-3)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] >= 9.5


# -- optimizer ---------------------------------------------------------------

def test_optimizer_zero_grads_no_decay_is_fixed_point():
    net = _net([2, 3, 1])
    before = net.params.copy()
    opt = OptimState(net, NetHyper(), 0.0)
    opt.apply(net, np.zeros_like(net.params), 0.1)
    assert np.array_equal(net.params, before)


def test_optimizer_decoupled_weight_decay_only():
    net = _net([2, 2])
    before = net.params.copy()
    opt = OptimState(net, NetHyper(), 0.01)
    opt.apply(net, np.zeros_like(net.params), 0.1)
    # zero gradients: parameters shrink by exactly (1 - lr*wd)
    assert np.allclose(net.params, before * (1 - 0.1 * 0.01))


def test_optimizer_grad_clipping_scale():
    net = _mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    # two equal updates, one with pre-scaled gradients and clipping disabled:
    # a gradient of norm 10 under clip 0.25 behaves as if scaled by 0.025
    clipped = OptimState(net.copy(), NetHyper(grad_clip=0.25), 0.0)
    manual = OptimState(net.copy(), NetHyper(grad_clip=0.0), 0.0)
    n1, n2 = net.copy(), net.copy()
    clipped.apply(n1, np.array([10.0, 0.0]), 0.1)
    manual.apply(n2, np.array([10.0 * 0.025, 0.0]), 0.1)
    assert np.allclose(n1.params, n2.params)


def test_optimizer_descends_quadratic():
    net = _mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    opt = OptimState(net, NetHyper(grad_clip=0.0), 0.0)
    w_before = net.weights[0][0, 0]
    opt.apply(net, np.array([2.0 * w_before, 0.0]), 0.1)
    assert net.weights[0][0, 0] < w_before


def test_optimizer_rejects_non_finite():
    net = _net([2, 1])
    hyper = NetHyper()
    opt = OptimState(net, hyper, hyper.weight_decay)
    with pytest.raises(NonFiniteError):
        opt.apply(net, np.array([np.nan, 0.0, 0.0]), hyper.learning_rate)


class _ReferenceOptim:
    """The per-array Adam step: each weight and bias array clipped, decayed
    and moved on its own, squares summed array by array, weights then biases."""

    def __init__(self, net, hyper, weight_decay):
        self.hyper, self.weight_decay, self.step_count = hyper, weight_decay, 0
        self.m = [np.zeros_like(p) for p in net.weights + net.biases]
        self.v = [np.zeros_like(p) for p in net.weights + net.biases]

    def apply(self, net, d_weights, d_biases, learning_rate):
        grads = list(d_weights) + list(d_biases)
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        h = self.hyper
        scale = h.grad_clip / norm if 0.0 < h.grad_clip < norm else 1.0
        self.step_count += 1
        bc1 = 1.0 - h.beta1 ** self.step_count
        bc2 = 1.0 - h.beta2 ** self.step_count
        decay = 1.0 - learning_rate * self.weight_decay
        for p, g, m, v in zip(net.weights + net.biases, grads, self.m, self.v):
            if decay != 1.0:
                p *= decay
            g = g * scale
            m *= h.beta1
            m += g * (1.0 - h.beta1)
            v *= h.beta2
            v += g * (1.0 - h.beta2) * g
            p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


@pytest.mark.parametrize("grad_clip", [0.25, 0.0])
@pytest.mark.parametrize("weight_decay", [1e-3, 0.0])
def test_flat_optimizer_step_equals_per_array_reference(grad_clip, weight_decay):
    """The flat step gives the per-array step's bits, step after step."""
    hyper = NetHyper(grad_clip=grad_clip)
    flat, ref = _net([5, 16, 24, 1], seed=4), _net([5, 16, 24, 1], seed=4)
    opt, ref_opt = OptimState(flat, hyper, weight_decay), _ReferenceOptim(ref, hyper, weight_decay)
    rng = np.random.default_rng(5)
    for step in range(6):
        d_params = rng.normal(scale=10.0 ** (step % 3 - 2), size=flat.params.size)
        opt.apply(flat, d_params, 3e-3)
        ref_opt.apply(ref, *param_views(d_params.copy(), ref.layer_sizes), 3e-3)
        assert flat.params.tobytes() == ref.params.tobytes()
        assert opt.m.tobytes() == _flat(ref.layer_sizes, ref_opt.m).tobytes()
        assert opt.v.tobytes() == _flat(ref.layer_sizes, ref_opt.v).tobytes()


def test_init_determinism():
    a = _net([3, 7, 2], seed=9)
    b = _net([3, 7, 2], seed=9)
    assert np.array_equal(a.params, b.params)

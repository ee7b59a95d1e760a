import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gas
from gas.errors import ContractError, NonFiniteError, SchemaError
from gas.nn import (Mlp, OptimHyper, OptimState, expectile_term, flatten_grads,
                    grad_check, read_net_bytes, solve_scalar_expectile, write_net_bytes)


def _net(sizes, seed=0):
    return Mlp.init(sizes, np.random.default_rng(seed))


# -- forward -----------------------------------------------------------------

def test_forward_zero_params_is_zero():
    net = _net([3, 4, 2])
    for w in net.weights:
        w[...] = 0.0
    out = net.forward(np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_forward_identity_single_layer():
    net = Mlp([2, 2], [np.eye(2)], [np.zeros(2)])
    x = np.array([[0.3, -0.7]])
    assert np.allclose(net.forward(x), x)


def test_forward_relu_clips_negatives():
    net = Mlp([2, 2, 2], [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
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
    dw, db = net.backward(cache, np.zeros_like(out))
    assert all(np.all(g == 0) for g in dw + db)


def test_backward_linear_weight_gradient_is_input():
    net = Mlp([3, 1], [np.zeros((3, 1))], [np.zeros(1)])
    x = np.array([[1.0, -2.0, 0.5]])
    out, cache = net.forward_cached(x)
    dw, db = net.backward(cache, np.ones_like(out))
    assert np.allclose(dw[0][:, 0], x[0])
    assert np.allclose(db[0], [1.0])


def test_backward_matches_finite_differences(rng):
    net = _net([4, 8, 8, 1], seed=3)
    x = rng.normal(size=(16, 4))
    target = rng.normal(size=(16, 1))

    def loss_at(flat):
        probe = net.copy()
        probe.set_flat(flat)
        return float(np.mean((probe.forward(x) - target) ** 2))

    out, cache = net.forward_cached(x)
    upstream = 2.0 * (out - target) / out.shape[0]
    analytic = flatten_grads(*net.backward(cache, upstream))
    err = grad_check(loss_at, net.get_flat(), analytic, step=1e-5)
    assert err < 1e-4


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
    before = net.get_flat()
    opt = OptimState(net, OptimHyper(learning_rate=0.1, weight_decay=0.0))
    zeros = ([np.zeros_like(w) for w in net.weights],
             [np.zeros_like(b) for b in net.biases])
    opt.apply(net, *zeros)
    assert np.array_equal(net.get_flat(), before)


def test_optimizer_decoupled_weight_decay_only():
    net = _net([2, 2])
    before = net.get_flat()
    hyper = OptimHyper(learning_rate=0.1, weight_decay=0.01)
    opt = OptimState(net, hyper)
    zeros = ([np.zeros_like(w) for w in net.weights],
             [np.zeros_like(b) for b in net.biases])
    opt.apply(net, *zeros)
    # zero gradients: parameters shrink by exactly (1 - lr*wd)
    assert np.allclose(net.get_flat(), before * (1 - 0.1 * 0.01))


def test_optimizer_grad_clipping_scale():
    net = Mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    # two equal updates, one with pre-scaled gradients and clipping disabled:
    # a gradient of norm 10 under clip 0.25 behaves as if scaled by 0.025
    clipped = OptimState(net.copy(), OptimHyper(learning_rate=0.1, weight_decay=0.0,
                                                grad_clip_norm=0.25))
    manual = OptimState(net.copy(), OptimHyper(learning_rate=0.1, weight_decay=0.0,
                                               grad_clip_norm=0.0))
    n1, n2 = net.copy(), net.copy()
    clipped.apply(n1, [np.array([[10.0]])], [np.zeros(1)])
    manual.apply(n2, [np.array([[10.0 * 0.025]])], [np.zeros(1)])
    assert np.allclose(n1.get_flat(), n2.get_flat())


def test_optimizer_descends_quadratic():
    net = Mlp([1, 1], [np.array([[1.0]])], [np.zeros(1)])
    opt = OptimState(net, OptimHyper(learning_rate=0.1, weight_decay=0.0,
                                     grad_clip_norm=0.0))
    w_before = net.weights[0][0, 0]
    opt.apply(net, [np.array([[2.0 * w_before]])], [np.zeros(1)])
    assert net.weights[0][0, 0] < w_before


def test_optimizer_rejects_non_finite():
    net = _net([2, 1])
    opt = OptimState(net, OptimHyper())
    with pytest.raises(NonFiniteError):
        opt.apply(net, [np.array([[np.nan], [0.0]])], [np.zeros(1)])


def test_init_determinism():
    a = _net([3, 7, 2], seed=9)
    b = _net([3, 7, 2], seed=9)
    assert np.array_equal(a.get_flat(), b.get_flat())


# -- serialization -----------------------------------------------------------

def test_net_round_trip():
    net = _net([3, 5, 2], seed=4)
    loaded = read_net_bytes(write_net_bytes(net))
    assert loaded.layer_sizes == net.layer_sizes
    assert np.array_equal(loaded.get_flat(), net.get_flat())


def test_net_bad_magic():
    data = bytearray(write_net_bytes(_net([2, 1])))
    data[:8] = b"BADMAGIC"
    with pytest.raises(SchemaError, match="magic"):
        read_net_bytes(bytes(data))


def test_net_bad_version():
    data = bytearray(write_net_bytes(_net([2, 1])))
    data[8:12] = (99).to_bytes(4, "little")
    with pytest.raises(SchemaError, match="version"):
        read_net_bytes(bytes(data))


def test_net_with_optimizer_flag_is_schema_error():
    """Checkpoints carry parameters only; a blob flagged as holding optimizer
    state is rejected, not half-read."""
    data = bytearray(write_net_bytes(_net([2, 1])))
    data[-4:] = (1).to_bytes(4, "little")
    with pytest.raises(SchemaError, match="optimizer"):
        read_net_bytes(bytes(data))

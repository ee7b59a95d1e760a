import json
import struct

import numpy as np
import pytest

import gas
from gas.dataset import AugmentConfig, sample_batch
from gas.errors import ContractError, SchemaError
from gas.goals import GoalNets, InputNorm, goal_inputs, goal_loss, load_goals, save_goals
from gas.nn import OptimState, grad_check
from gas.training import NetHyper
from gas.config import seed_streams


def _norm(dataset):
    return InputNorm.fit(dataset)


def _nets(dataset, hidden=16, n_layers=3, seed=0):
    streams = seed_streams(seed)
    return GoalNets.create(_norm(dataset), dataset.env_meta.state_dim, n_layers,
                           hidden, hidden, streams["init_reward"], streams["init_cost"])


def _constant_nets(dataset, v_r, v_c):
    """Goal nets that output fixed values regardless of input."""
    nets = _nets(dataset)
    for net, value in ((nets.reward_net, v_r), (nets.cost_net, v_c)):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        net.biases[-1][...] = value
    return nets


def _batch(dataset, n=256, seed=0, **cfg_kwargs):
    rng = np.random.default_rng(seed)
    idx = gas.build_reshape_index(dataset, 10.0, 10)
    return sample_batch(dataset, idx, AugmentConfig(**cfg_kwargs), n, rng)


# -- input assembly -----------------------------------------------------------

def test_goal_inputs_reward_scale(stitch_dataset):
    norm = _norm(stitch_dataset)
    z = goal_inputs(norm, stitch_dataset.states[0, :1], [stitch_dataset.r_max],
                    [0.0], [0])
    assert z[0, -3] == pytest.approx(1.0)  # r_max scales to 1 when r_max >= 1


def test_goal_inputs_time_component(stitch_dataset):
    norm = _norm(stitch_dataset)
    T = stitch_dataset.horizon
    z = goal_inputs(norm, stitch_dataset.states[0, :1], [1.0], [1.0], [T - 1])
    assert z[0, -1] == pytest.approx((T - 1) / T)


def test_goal_inputs_state_normalization(stitch_dataset):
    norm = _norm(stitch_dataset)
    flat = stitch_dataset.states.reshape(-1, 2)
    normalized = norm.normalize_states(flat)
    assert np.all(np.abs(normalized.mean(axis=0)) < 1e-8)
    assert np.allclose(normalized.std(axis=0), 1.0)


# -- advantages ---------------------------------------------------------------

def test_advantages_infeasible_zeroes_return_term(stitch_dataset):
    batch = _batch(stitch_dataset)
    # cost net predicts above every possible c_hat: nothing is feasible
    nets = _constant_nets(stitch_dataset, v_r=2.0, v_c=stitch_dataset.c_max + 5)
    *_, adv = goal_loss(batch, nets, 0.8)
    assert not adv.feasible.any()
    assert np.allclose(adv.a_r, -2.0)


def test_advantages_fixed_points(stitch_dataset):
    batch = _batch(stitch_dataset)
    # v_c = -1 < c_hat always: feasible; v_r = 0 so a_r = r_seg
    nets = _constant_nets(stitch_dataset, v_r=0.0, v_c=-1.0)
    *_, adv = goal_loss(batch, nets, 0.8)
    assert adv.feasible.all()
    assert np.allclose(adv.a_r, batch.r_seg)
    assert np.allclose(adv.a_c, batch.c_seg + 1.0)


def test_advantage_tie_counts_infeasible(stitch_dataset):
    batch = _batch(stitch_dataset)
    nets = _constant_nets(stitch_dataset, v_r=0.0, v_c=0.0)
    *_, adv = goal_loss(batch, nets, 0.8)
    ties = batch.c_hat == 0.0
    assert not adv.feasible[ties].any()


# -- losses ---------------------------------------------------------------------

def test_goal_loss_alpha_half_is_half_mse(stitch_dataset):
    batch = _batch(stitch_dataset)
    nets = _nets(stitch_dataset)
    l_r, _, _, _, adv = goal_loss(batch, nets, 0.5)
    assert l_r == 0.5 * np.mean(adv.a_r ** 2)


def test_goal_loss_zero_reward_advantage_branch(stitch_dataset):
    batch = _batch(stitch_dataset)
    # v_r = r_seg impossible with a constant net; instead check the weight
    # algebra on a crafted batch where every a_r is exactly zero
    nets = _constant_nets(stitch_dataset, v_r=0.0, v_c=-1.0)
    batch.r_seg[:] = 0.0
    alpha = 0.8
    l_r, l_c, _, _, adv = goal_loss(batch, nets, alpha)
    assert np.allclose(adv.a_r, 0.0)
    assert l_r == 0.0
    assert l_c == pytest.approx(alpha * np.mean(adv.a_c ** 2))


def test_goal_loss_single_negative_advantage():
    # one sample with a_r = -1 at alpha = 0.8 contributes |0.8 - 1| * 1 = 0.2
    value, _ = gas.expectile_term(-1.0, 0.8)
    assert value == pytest.approx(0.2)


def test_loss_weight_agreement_bitwise(stitch_dataset):
    """The weight used in the cost loss equals the reward-loss weight."""
    batch = _batch(stitch_dataset)
    nets = _nets(stitch_dataset, seed=3)
    alpha = 0.8
    l_r, l_c, _, _, adv = goal_loss(batch, nets, alpha)
    w = np.abs(alpha - (adv.a_r < 0))
    assert np.array_equal(w, gas.expectile_weight(adv.a_r, alpha))
    assert l_r == np.mean(w * adv.a_r * adv.a_r)
    assert l_c == np.mean(w * adv.a_c * adv.a_c)


def test_feasibility_coupling_recompute(stitch_dataset):
    batch = _batch(stitch_dataset, seed=5)
    nets = _nets(stitch_dataset, seed=7)
    _, _, _, _, adv = goal_loss(batch, nets, 0.8)
    infeasible = ~adv.feasible
    assert np.array_equal(adv.a_r[infeasible], -adv.v_r[infeasible])


def test_goal_loss_empty_batch_rejected(stitch_dataset):
    batch = _batch(stitch_dataset, n=1)
    empty = gas.TransitionBatch(*(arr[:0] for arr in (
        batch.states, batch.actions, batch.t, batch.gamma, batch.r_seg,
        batch.c_seg, batch.t_prime, batch.r_hat, batch.c_hat, batch.from_reshape)))
    nets = _nets(stitch_dataset)
    with pytest.raises(ContractError):
        goal_loss(empty, nets, 0.8)


def _goal_fd_errors(stitch_dataset, batch_seed, net_seed):
    batch = _batch(stitch_dataset, n=64, seed=batch_seed)
    nets = _nets(stitch_dataset, hidden=12, n_layers=3, seed=net_seed)
    alpha = 0.8
    l_r, l_c, d_r, d_c, adv = goal_loss(batch, nets, alpha)
    feasible = adv.feasible.copy()
    w = np.abs(alpha - (adv.a_r < 0))
    z = goal_inputs(nets.norm, batch.states, batch.r_hat, batch.c_hat, batch.t_prime)

    def loss_reward(flat):
        probe = nets.reward_net.copy()
        probe.params[...] = flat
        a_r = feasible * batch.r_seg - probe.forward(z)[:, 0]
        return float(np.mean(w * a_r ** 2))

    def loss_cost(flat):
        probe = nets.cost_net.copy()
        probe.params[...] = flat
        a_c = batch.c_seg - probe.forward(z)[:, 0]
        return float(np.mean(w * a_c ** 2))

    err_r = grad_check(loss_reward, nets.reward_net.params.copy(), d_r, step=1e-5)
    err_c = grad_check(loss_cost, nets.cost_net.params.copy(), d_c, step=1e-5)
    return err_r, err_c


def test_goal_gradients_match_finite_differences(stitch_dataset):
    """Full L_R + L_C gradient vs central differences on frozen batches.

    A genuine gradient bug fails at every seed; an occasional large error
    from a finite-difference step crossing a ReLU kink is seed-specific,
    so the check passes if any seed pair is clean on both nets.
    """
    errors = [_goal_fd_errors(stitch_dataset, bs, ns)
              for bs, ns in ((11, 7), (23, 29), (5, 19))]
    assert min(max(er, ec) for er, ec in errors) < 1e-4


# -- checkpoint bundle ----------------------------------------------------------

def test_goals_bundle_round_trip(tmp_path, stitch_dataset):
    nets = _nets(stitch_dataset, seed=21)
    path = tmp_path / "goals.ckpt"
    save_goals(path, nets, {"alpha": 0.8, "note": "unit"})
    loaded, meta = load_goals(path)
    assert meta["alpha"] == 0.8
    assert np.array_equal(loaded.reward_net.params, nets.reward_net.params)
    assert np.array_equal(loaded.cost_net.params, nets.cost_net.params)
    assert np.array_equal(loaded.norm.state_mean, nets.norm.state_mean)
    assert loaded.norm.r_scale == nets.norm.r_scale


def _saved_goals(tmp_path, dataset) -> bytes:
    path = tmp_path / "goals.ckpt"
    save_goals(path, _nets(dataset, hidden=3, n_layers=2), {"alpha": 0.8})
    return path.read_bytes()


def _with_header(raw: bytes, part: str, **values) -> bytes:
    """``raw`` with ``values`` replaced in its header's ``part`` ("nets" or
    "norm"), the parameters kept."""
    (n,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16:16 + n])
    header[part].update(values)
    blob = json.dumps(header).encode()
    return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + n:]


@pytest.mark.parametrize("corrupt, match", [
    (lambda raw: b"BADMAGIC" + raw[8:], "magic"),
    (lambda raw: raw[:8] + struct.pack("<I", 1) + raw[12:], "unsupported bundle version 1"),
    (lambda raw: raw[:-8], "corrupt"),
    (lambda raw: raw + bytes(8), "8 bytes after the last net"),
    (lambda raw: _with_header(raw, "nets", cost=[4]), "layer sizes"),
    (lambda raw: _with_header(raw, "nets", cost=[4, 0]), "layer sizes"),
    (lambda raw: _with_header(raw, "nets", cost=[4.5, 1]), "layer sizes"),
    (lambda raw: _with_header(raw, "nets", cost=[5, True]), "layer sizes"),
    (lambda raw: _with_header(raw, "norm", state_scale=[1.0, 1.0, 1.0]), "equal-length"),
    (lambda raw: _with_header(raw, "norm", state_mean=[[0.0, 0.0]],
                              state_scale=[[1.0, 1.0]]), "equal-length"),
    (lambda raw: _with_header(raw, "norm", state_mean=[0.0, float("nan")]), "finite"),
    (lambda raw: _with_header(raw, "norm", state_scale=[1.0, 0.0]), "scale > 0"),
    (lambda raw: _with_header(raw, "norm", r_scale=0), "r_scale"),
    (lambda raw: _with_header(raw, "norm", c_scale=float("inf")), "c_scale"),
    (lambda raw: _with_header(raw, "norm", horizon=0), "horizon"),
    (lambda raw: _with_header(raw, "norm", horizon=32.5), "horizon"),
    (lambda raw: _with_header(raw, "norm", horizon=True), "horizon"),
], ids=["magic", "version_1", "short", "trailing", "one_size", "zero_size", "float_size",
        "bool_size", "scale_length", "norm_2d", "nan_mean", "zero_state_scale",
        "zero_r_scale", "inf_c_scale", "zero_horizon", "float_horizon", "bool_horizon"])
def test_corrupt_goals_bundle_is_schema_error(tmp_path, stitch_dataset, corrupt, match):
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(corrupt(_saved_goals(tmp_path, stitch_dataset)))
    with pytest.raises(SchemaError, match=match):
        load_goals(path)


def test_goals_bundle_layout_and_writable_parameters(tmp_path, stitch_dataset):
    """Magic, version, header length, the JSON header, then every parameter
    as f64 and nothing else; loaded parameters are writable copies that share
    no memory with the file's bytes. Each net's weights and biases are views
    of its ``params`` after init, copy, load and an optimizer step."""
    raw = _saved_goals(tmp_path, stitch_dataset)
    version, n = struct.unpack_from("<II", raw, 8)
    header = json.loads(raw[16:16 + n])
    nets, meta = load_goals(tmp_path / "goals.ckpt", raw)
    params = [p for net in (nets.cost_net, nets.reward_net) for p in (*net.weights, *net.biases)]
    assert (raw[:8], version) == (b"GASPACK1", 2)
    assert header["nets"] == {"cost": nets.cost_net.layer_sizes,
                              "reward": nets.reward_net.layer_sizes}
    assert len(raw) == 16 + n + 8 * sum(p.size for p in params)
    assert meta == {"alpha": 0.8}
    view = np.frombuffer(raw, np.uint8)
    for p in params:
        assert p.dtype == np.float64 and p.flags.writeable
        assert not np.shares_memory(p, view)

    def views_of_params(net):
        return all(p.base is net.params for p in (*net.weights, *net.biases))

    fresh = _nets(stitch_dataset, hidden=3, n_layers=2).reward_net
    copied = nets.reward_net.copy()
    assert not np.shares_memory(copied.params, nets.reward_net.params)
    stepped = nets.cost_net
    before = stepped.params.copy()
    OptimState(stepped, NetHyper(), 0.0).apply(stepped, np.ones_like(stepped.params), 0.1)
    assert not np.array_equal(stepped.params, before)
    for net in (fresh, copied, nets.reward_net, stepped):
        assert views_of_params(net)
        layers = [a.ravel() for w, b in zip(net.weights, net.biases) for a in (w, b)]
        assert np.array_equal(np.concatenate(layers), net.params)

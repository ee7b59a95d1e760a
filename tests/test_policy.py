import numpy as np
import pytest

import gas
from gas.dataset import AugmentConfig, sample_batch
from gas.errors import ContractError
from gas.goals import GoalNets, InputNorm, goal_loss
from gas.nn import OptimState, grad_check
from gas.evaluate import rollout_policy
from gas.policy import PolicyNet, act, load_policy, policy_inputs, policy_loss, save_policy
from gas.config import seed_streams
from gas.training import NetHyper


def _models(dataset, hidden=16, n_layers=3, seed=0):
    streams = seed_streams(seed)
    norm = InputNorm.fit(dataset)
    spec = dataset.env_meta
    nets = GoalNets.create(norm, spec.state_dim, n_layers, hidden, hidden,
                           streams["init_reward"], streams["init_cost"])
    pol = PolicyNet.create(norm, spec.state_dim, spec.action_dim, n_layers,
                           hidden, hidden, streams["init_policy"])
    return nets, pol


def _batch(dataset, n=256, seed=0):
    rng = np.random.default_rng(seed)
    idx = gas.build_reshape_index(dataset, 10.0, 10)
    return sample_batch(dataset, idx, AugmentConfig(), n, rng)


# -- loss weights ---------------------------------------------------------------

def test_policy_weights_match_recomputation(stitch_dataset):
    batch = _batch(stitch_dataset)
    nets, pol = _models(stitch_dataset, seed=2)
    alpha = 0.8
    *_, adv = goal_loss(batch, nets, alpha)
    _, _, w = policy_loss(batch, pol, alpha, adv)
    expected = adv.feasible * np.abs(alpha - (adv.a_r < 0))
    assert np.array_equal(w, expected)
    feasible_pos = adv.feasible & (adv.a_r >= 0)
    feasible_neg = adv.feasible & (adv.a_r < 0)
    assert np.all(w[feasible_pos] == alpha)
    assert np.all(w[feasible_neg] == pytest.approx(1 - alpha))
    assert np.all(w[~adv.feasible] == 0.0)


def test_policy_infeasible_samples_have_zero_gradient(stitch_dataset):
    batch = _batch(stitch_dataset, seed=3)
    nets, pol = _models(stitch_dataset, seed=3)
    # force some infeasibility by biasing the cost net upward
    nets.cost_net.biases[-1][...] = 5.0
    *_, adv = goal_loss(batch, nets, 0.8)
    if adv.feasible.all():
        pytest.skip("no infeasible samples drawn")
    _, d_params, w = policy_loss(batch, pol, 0.8, adv=adv)
    # dropping the infeasible samples leaves the gradients untouched
    keep = adv.feasible
    sub = gas.TransitionBatch(
        batch.states[keep], batch.actions[keep], batch.t[keep], batch.gamma[keep],
        batch.r_seg[keep], batch.c_seg[keep], batch.t_prime[keep],
        batch.r_hat[keep], batch.c_hat[keep], batch.from_reshape[keep])
    sub_adv = gas.AdvantagePair(adv.a_r[keep], adv.a_c[keep], adv.feasible[keep],
                                adv.v_r[keep], adv.v_c[keep])
    _, d_sub, _ = policy_loss(sub, pol, 0.8, adv=sub_adv)
    scale = len(batch) / keep.sum()  # batch-mean renormalization
    for g, gs in zip(d_params, d_sub):
        assert g * scale == pytest.approx(gs, rel=1e-9, abs=1e-12)


def test_policy_gradients_match_finite_differences(stitch_dataset):
    batch = _batch(stitch_dataset, n=64, seed=5)
    nets, pol = _models(stitch_dataset, hidden=12, seed=5)
    alpha = 0.8
    *_, adv = goal_loss(batch, nets, 0.8)
    _, d_params, w = policy_loss(batch, pol, alpha, adv=adv)

    def loss_at(flat):
        probe = pol.net.copy()
        probe.params[...] = flat
        z = policy_inputs(pol.norm, batch.states, batch.r_hat, batch.c_hat,
                          adv.v_r, adv.v_c, batch.t_prime)
        actions = np.tanh(probe.forward(z))
        err = actions - batch.actions
        return float(np.mean(w * np.sum(err * err, axis=1)))

    err = grad_check(loss_at, pol.net.params.copy(), d_params, step=1e-5)
    assert err < 1e-4


# -- remaining targets ----------------------------------------------------------

def _rows(env, pol, nets, r_targets, c_targets) -> list:
    """The trace of one batched rollout, split into one list of steps per row;
    every step's remainders are the last step's minus what it observed,
    clamped at zero."""
    trace = []
    rollout_policy(env, pol, nets, r_targets, c_targets, trace)
    rows = [[step for step in trace if step["row"] == i] for i in range(len(r_targets))]
    for steps, r_target, c_target in zip(rows, r_targets, c_targets):
        assert [step["t"] for step in steps] == list(range(env.spec.episode_length))
        assert (steps[0]["r_remaining"], steps[0]["c_remaining"]) == (r_target, c_target)
        for now, after in zip(steps, steps[1:]):
            assert after["r_remaining"] == max(now["r_remaining"] - now["reward"], 0.0)
            assert after["c_remaining"] == max(now["c_remaining"] - now["cost"], 0.0)
    return rows


def _headed(pol, rng) -> PolicyNet:
    """``pol`` with a random output layer biased to move, so actions vary
    along a rollout and both earn reward and spend cost."""
    net = pol.net.copy()
    net.weights[-1][...] = rng.uniform(-0.3, 0.3, size=net.weights[-1].shape)
    net.biases[-1][...] = 0.3
    return PolicyNet(net, pol.norm)


def test_rollout_remaining_targets_subtract_each_step(chain_env, stitch_dataset, rng):
    """Targets above anything an episode can earn or spend never reach the
    clamp: each step subtracts exactly what it observed."""
    nets, pol = _models(stitch_dataset, seed=7)
    rows = _rows(chain_env, _headed(pol, rng), nets, [40.0, 50.0], [40.0, 35.0])
    for steps in rows:
        assert sum(step["reward"] for step in steps) > 0
        assert sum(step["cost"] for step in steps) > 0
        for now, after in zip(steps, steps[1:]):
            assert after["r_remaining"] == now["r_remaining"] - now["reward"] > 0
            assert after["c_remaining"] == now["c_remaining"] - now["cost"] > 0


def test_rollout_remaining_targets_clamp_at_zero(chain_env, stitch_dataset):
    """A step that earns or spends more than is left leaves zero, not less."""
    nets, pol = _models(stitch_dataset, seed=7)
    spender = PolicyNet(pol.net.copy(), pol.norm)
    spender.net.biases[-1][...] = 1.0  # action tanh(1): reward 0.88 and cost 1 each step
    (steps,) = _rows(chain_env, spender, nets, [0.5], [0.0])
    assert steps[0]["r_remaining"] - steps[0]["reward"] < 0
    assert steps[0]["c_remaining"] - steps[0]["cost"] < 0
    assert all((step["r_remaining"], step["c_remaining"]) == (0.0, 0.0) for step in steps[1:])


def test_rollout_remaining_targets_unchanged_by_zero_steps(chain_env, stitch_dataset):
    nets, pol = _models(stitch_dataset, seed=7)
    idle = PolicyNet(pol.net.copy(), pol.norm)
    idle.net.biases[-1][...] = -40.0  # action -1: no reward and no cost
    (steps,) = _rows(chain_env, idle, nets, [4.0], [2.0])
    assert all((step["reward"], step["cost"]) == (0.0, 0.0) for step in steps)
    assert all((step["r_remaining"], step["c_remaining"]) == (4.0, 2.0) for step in steps)


def test_rollout_bookkeeping_step_exact(chain_env, stitch_dataset, rng):
    """r_target - r_remaining equals the clamp-adjusted observed reward."""
    nets, pol = _models(stitch_dataset, seed=8)
    (steps,) = _rows(chain_env, _headed(pol, rng), nets, [12.0], [5.0])
    clamp_adjusted = 0.0
    for now, after in zip(steps, steps[1:]):
        clamp_adjusted += min(now["reward"], now["r_remaining"])
        assert 12.0 - after["r_remaining"] == pytest.approx(clamp_adjusted)
    assert steps[-1]["r_remaining"] == 0.0  # the target is met before the end


# -- acting -----------------------------------------------------------------------

def test_act_deterministic_and_in_range(stitch_dataset):
    nets, pol = _models(stitch_dataset, seed=9)
    states = np.array([[1.5, 0.25], [0.0, 1.0]])
    r, c = np.array([20.0, 5.0]), np.array([8.0, 0.0])
    a1, v_r1, v_c1 = act(pol, nets, states, r, c, 8)
    a2, v_r2, v_c2 = act(pol, nets, states, r, c, 8)
    assert a1.shape == (2, pol.action_dim) and v_r1.shape == v_c1.shape == (2,)
    assert np.array_equal(a1, a2)
    assert np.array_equal(v_r1, v_r2) and np.array_equal(v_c1, v_c2)
    assert np.all(np.abs(a1) <= 1.0)


def test_act_equals_separate_goal_and_policy_forwards(stitch_dataset, rng):
    """act builds the goal input once and extends it into the policy input;
    the actions and goal values are bit-identical to evaluating both nets
    from the states."""
    nets, pol = _models(stitch_dataset, seed=10)
    pol.net.weights[-1][...] = rng.uniform(-0.5, 0.5, size=pol.net.weights[-1].shape)
    # as when loaded from two checkpoints: equal normalizations, distinct objects
    pol = PolicyNet(pol.net, InputNorm.from_dict(pol.norm.to_dict()))
    states = stitch_dataset.states[rng.integers(0, stitch_dataset.n, 7), 5]
    r, c = rng.uniform(0, 20, 7), rng.uniform(0, 10, 7)
    tp = np.full(7, 5.0)
    v_r, v_c = nets.values(states, r, c, tp)
    expected = pol.forward(states, r, c, v_r, v_c, tp)
    actions, act_v_r, act_v_c = act(pol, nets, states, r, c, 5)
    assert np.array_equal(actions, expected)
    assert np.array_equal(act_v_r, v_r) and np.array_equal(act_v_c, v_c)
    assert np.unique(actions).size > 1


def test_act_past_horizon_rejected(stitch_dataset):
    nets, pol = _models(stitch_dataset)
    assert nets.norm.horizon == 32
    with pytest.raises(ContractError):
        act(pol, nets, np.array([[0.0, 1.0]]), np.array([1.0]), np.array([1.0]), 32)
    # remainders or goal targets with other than one entry per state row
    states = np.zeros((3, 2))
    with pytest.raises(ContractError, match="3 states with 1 r_hat"):
        act(pol, nets, states, np.ones(1), np.ones(1), 0)
    with pytest.raises(ContractError, match="3 states with 2 r_hat"):
        nets.values(states, np.ones(2), np.ones(3), np.zeros(3))
    with pytest.raises(ContractError, match="2 t_prime"):  # one (d,) state: one row
        act(pol, nets, np.zeros(2), np.ones(1), np.ones(1), 0)


# -- training ---------------------------------------------------------------------

def test_train_policy_regresses_to_constant_action(chain_env):
    """On a dataset with one action everywhere, the policy converges to it
    when trained against frozen goal nets."""
    data = gas.generate_offline_dataset(chain_env, gas.slow_only_mix(-0.2), 20, seed=6)
    streams = seed_streams(6)
    norm = InputNorm.fit(data)
    nets = GoalNets.create(norm, 2, 3, 32, 32, streams["init_reward"],
                           streams["init_cost"])
    # pin the cost net below every budget so all samples stay feasible
    # (an all-zero-cost corpus has c_hat = 0 and the indicator is strict)
    for w in nets.cost_net.weights:
        w[...] = 0.0
    for b in nets.cost_net.biases:
        b[...] = 0.0
    nets.cost_net.biases[-1][...] = -1.0
    pol = PolicyNet.create(norm, 2, 1, 3, 32, 32, streams["init_policy"])
    optim = OptimState(pol.net, NetHyper(), 0.0)
    cfg = AugmentConfig(epsilon=0.0)
    for _ in range(5000):
        batch = sample_batch(data, None, cfg, 128, streams["batch"], streams["relabel"])
        *_, adv = goal_loss(batch, nets, 0.8)
        _, d_params, _ = policy_loss(batch, pol, 0.8, adv)
        optim.apply(pol.net, d_params, 1e-3)
    batch = sample_batch(data, None, cfg, 512, np.random.default_rng(0))
    *_, adv = goal_loss(batch, nets, 0.8)
    actions = pol.forward(batch.states, batch.r_hat, batch.c_hat, adv.v_r,
                          adv.v_c, batch.t_prime)
    assert np.max(np.abs(actions - (-0.2))) < 0.05


# -- checkpointing ------------------------------------------------------------------

def test_policy_bundle_round_trip(tmp_path, stitch_dataset):
    _, pol = _models(stitch_dataset, seed=31)
    path = tmp_path / "policy.ckpt"
    save_policy(path, pol, {"alpha": 0.9})
    loaded, meta = load_policy(path)
    assert meta["alpha"] == 0.9
    assert loaded.action_dim == pol.action_dim
    assert np.array_equal(loaded.net.params, pol.net.params)

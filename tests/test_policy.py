import numpy as np
import pytest

import gas
from gas.dataset import AugmentConfig, sample_batch
from gas.errors import ContractError
from gas.goals import GoalNets, InputNorm, goal_loss
from gas.nn import OptimState, flatten_grads, grad_check
from gas.policy import (PolicyNet, TargetTracker, act, load_policy, policy_inputs,
                        policy_loss, save_policy, update_tracker)
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
    _, grads, w = policy_loss(batch, pol, 0.8, adv=adv)
    # dropping the infeasible samples leaves the gradients untouched
    keep = adv.feasible
    sub = gas.TransitionBatch(
        batch.states[keep], batch.actions[keep], batch.t[keep], batch.gamma[keep],
        batch.r_seg[keep], batch.c_seg[keep], batch.t_prime[keep],
        batch.r_hat[keep], batch.c_hat[keep], batch.from_reshape[keep])
    sub_adv = gas.AdvantagePair(adv.a_r[keep], adv.a_c[keep], adv.feasible[keep],
                                adv.v_r[keep], adv.v_c[keep])
    _, grads_sub, _ = policy_loss(sub, pol, 0.8, adv=sub_adv)
    scale = len(batch) / keep.sum()  # batch-mean renormalization
    for g, gs in zip(flatten_grads(*grads), flatten_grads(*grads_sub)):
        assert g * scale == pytest.approx(gs, rel=1e-9, abs=1e-12)


def test_policy_gradients_match_finite_differences(stitch_dataset):
    batch = _batch(stitch_dataset, n=64, seed=5)
    nets, pol = _models(stitch_dataset, hidden=12, seed=5)
    alpha = 0.8
    *_, adv = goal_loss(batch, nets, 0.8)
    _, grads, w = policy_loss(batch, pol, alpha, adv=adv)

    def loss_at(flat):
        probe = pol.net.copy()
        probe.set_flat(flat)
        z = policy_inputs(pol.norm, batch.states, batch.r_hat, batch.c_hat,
                          adv.v_r, adv.v_c, batch.t_prime)
        actions = np.tanh(probe.forward(z))
        err = actions - batch.actions
        return float(np.mean(w * np.sum(err * err, axis=1)))

    err = grad_check(loss_at, pol.net.get_flat(), flatten_grads(*grads), step=1e-5)
    assert err < 1e-4


# -- tracker --------------------------------------------------------------------

def test_update_tracker_subtracts():
    tr = TargetTracker(10.0, 3.0)
    tr = update_tracker(tr, 1.0, 0.0)
    assert (tr.r_remaining, tr.c_remaining, tr.t) == (9.0, 3.0, 1)


def test_update_tracker_clamps_at_zero():
    tr = TargetTracker(0.5, 0.0)
    tr = update_tracker(tr, 1.0, 1.0)
    assert (tr.r_remaining, tr.c_remaining) == (0.0, 0.0)


def test_update_tracker_identity_on_zero_steps():
    tr = TargetTracker(4.0, 2.0)
    for _ in range(32):
        tr = update_tracker(tr, 0.0, 0.0)
    assert (tr.r_remaining, tr.c_remaining, tr.t) == (4.0, 2.0, 32)


def test_rollout_bookkeeping_step_exact(chain_env, stitch_dataset):
    """r_target - r_remaining equals the clamp-adjusted observed reward."""
    nets, pol = _models(stitch_dataset, seed=8)
    T = chain_env.spec.episode_length
    tracker = TargetTracker(12.0, 5.0)
    state = chain_env.reset()
    clamp_adjusted = 0.0
    for t in range(T):
        action = act(pol, nets, state, tracker, T)
        state, r, c, _ = chain_env.step(state, action, t)
        clamp_adjusted += min(r, tracker.r_remaining)
        tracker = update_tracker(tracker, r, c)
        assert 12.0 - tracker.r_remaining == pytest.approx(clamp_adjusted)


# -- acting -----------------------------------------------------------------------

def test_act_deterministic_and_in_range(stitch_dataset):
    nets, pol = _models(stitch_dataset, seed=9)
    state = np.array([1.5, 0.25])
    tracker = TargetTracker(20.0, 8.0, t=8)
    a1 = act(pol, nets, state, tracker, 32)
    a2 = act(pol, nets, state, tracker, 32)
    assert np.array_equal(a1, a2)
    assert np.all(np.abs(a1) <= 1.0)


def test_act_equals_separate_goal_and_policy_forwards(stitch_dataset, rng):
    """act builds the goal input once and extends it into the policy input;
    the actions are bit-identical to evaluating both nets from the states."""
    nets, pol = _models(stitch_dataset, seed=10)
    pol.net.weights[-1][...] = rng.uniform(-0.5, 0.5, size=pol.net.weights[-1].shape)
    # as when loaded from two checkpoints: equal normalizations, distinct objects
    pol = PolicyNet(pol.net, InputNorm.from_dict(pol.norm.to_dict()))
    states = stitch_dataset.states[rng.integers(0, stitch_dataset.n, 7), 5]
    tracker = TargetTracker(rng.uniform(0, 20, 7), rng.uniform(0, 10, 7), t=5)
    tp = np.full(7, 5.0)
    v_r, v_c = nets.values(states, tracker.r_remaining, tracker.c_remaining, tp)
    expected = pol.forward(states, tracker.r_remaining, tracker.c_remaining, v_r, v_c, tp)
    actions = act(pol, nets, states, tracker, 32)
    assert np.array_equal(actions, expected)
    assert np.unique(actions).size > 1
    # one (d,) state: the same against one-row forwards
    r, c = tracker.r_remaining[:1], tracker.c_remaining[:1]
    v_r, v_c = nets.values(states[:1], r, c, tp[:1])
    expected = pol.forward(states[:1], r, c, v_r, v_c, tp[:1])[0]
    assert np.array_equal(act(pol, nets, states[0], TargetTracker(r[0], c[0], t=5), 32), expected)


def test_act_past_horizon_rejected(stitch_dataset):
    nets, pol = _models(stitch_dataset)
    with pytest.raises(ContractError):
        act(pol, nets, np.array([0.0, 1.0]), TargetTracker(1.0, 1.0, t=32), 32)


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
        _, grads, _ = policy_loss(batch, pol, 0.8, adv)
        optim.apply(pol.net, *grads, 1e-3)
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
    assert np.array_equal(loaded.net.get_flat(), pol.net.get_flat())

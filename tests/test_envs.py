import numpy as np
import pytest

import gas
from gas.envs import ChainRunEnv, GridCircleEnv
from gas.errors import ConfigError, ContractError


def test_make_env_dimensions():
    env = gas.make_env(gas.chainrun_spec(32), seed=0)
    assert isinstance(env, ChainRunEnv)
    assert env.spec.state_dim == 2 and env.spec.action_dim == 1

    env = gas.make_env(gas.gridcircle_spec(64), seed=7)
    assert isinstance(env, GridCircleEnv)
    assert env.spec.state_dim == 3 and env.spec.action_dim == 2


def test_make_env_unknown_name_errors():
    spec = gas.EnvSpec("Foo", 32, 2, 1)
    with pytest.raises(ConfigError, match="Foo"):
        gas.make_env(spec)


def test_spec_invariants():
    with pytest.raises(ConfigError):
        gas.EnvSpec("ChainRun", 1, 2, 1)


def test_reset_states(chain_env):
    assert np.array_equal(chain_env.reset(), [0.0, 0.0])
    grid = gas.make_env(gas.gridcircle_spec(64))
    assert np.array_equal(grid.reset(), [1.0, 0.0, 0.0])
    # consecutive resets are identical
    assert np.array_equal(grid.reset(), grid.reset())


def test_chainrun_step_fast(chain_env):
    s = chain_env.reset()
    ns, r, c, done = chain_env.step(s, [1.0], 0)
    assert ns[0] == 1.0 and r == 1.0 and c == 1.0 and not done


def test_chainrun_step_slow_boundary(chain_env):
    # v = 0.5 is not > 0.5, so it is free
    s = chain_env.reset()
    ns, r, c, _ = chain_env.step(s, [0.0], 0)
    assert ns[0] == 0.5 and r == 0.5 and c == 0.0


def test_chainrun_done_at_horizon(chain_env):
    T = chain_env.spec.episode_length
    _, _, _, done = chain_env.step(np.array([3.0, (T - 1) / T]), [0.3], T - 1)
    assert done
    with pytest.raises(ContractError):
        chain_env.step(np.array([3.0, 1.0]), [0.3], T)


def test_action_clamp_warns_not_errors():
    env = gas.make_env(gas.chainrun_spec(32))
    before = env.clamp_warnings
    ns, r, _, _ = env.step(env.reset(), [4.0], 0)
    assert env.clamp_warnings == before + 1
    assert r == 1.0 and ns[0] == 1.0  # clamped to +1


def test_gridcircle_step_geometry():
    env = gas.make_env(gas.gridcircle_spec(64))
    s = env.reset()  # (1, 0, 0)
    ns, r, c, _ = env.step(s, [0.0, 1.0], 0)
    # tangential action from (1, 0): reward (x*a_y - y*a_x)/max(|p|, .5) = 1
    assert r == pytest.approx(1.0)
    assert np.allclose(ns[:2], [1.0, 0.1])
    assert c == 0.0  # |p'| ~ 1.005 stays in the band
    # stepping radially outward past 1.5 costs
    ns, r, c, _ = env.step(np.array([1.45, 0.0, 0.0]), [1.0, 0.0], 0)
    assert c == 1.0 and r == 0.0


def test_rollout_totals(chain_env):
    traj = gas.rollout(chain_env, lambda s, t: 1.0)
    assert traj.total_reward == 32.0 and traj.total_cost == 32.0
    traj = gas.rollout(chain_env, lambda s, t: 0.0)
    assert traj.total_reward == 16.0 and traj.total_cost == 0.0
    traj = gas.rollout(chain_env, lambda s, t: 1.0 if t < 8 else 0.0)
    assert traj.total_reward == 20.0 and traj.total_cost == 8.0


def test_rollout_determinism_bitwise(chain_env):
    def make_actor(seed):
        table = np.random.default_rng(seed).uniform(-1, 1, size=32)
        return lambda s, t: table[t]

    a = gas.rollout(chain_env, make_actor(5))
    b = gas.rollout(chain_env, make_actor(5))
    assert a.states.tobytes() == b.states.tobytes()
    assert a.rewards.tobytes() == b.rewards.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()


def test_prefix_sum_consistency(chain_env, rng):
    """Segment returns from prefix arrays equal direct loop sums to machine
    precision (bitwise for the integer-valued costs)."""
    table = rng.uniform(-1, 1, size=32)
    traj = gas.rollout(chain_env, lambda s, t: table[t])
    T = traj.horizon
    for _ in range(300):
        t = int(rng.integers(0, T))
        g = int(rng.integers(t, T))
        r, c = traj.segment_return(t, g)
        assert r == pytest.approx(np.sum(traj.rewards[t:g + 1]), rel=1e-12, abs=1e-12)
        assert c == np.sum(traj.costs[t:g + 1])


def test_trajectory_prefix_shape(chain_env):
    traj = gas.rollout(chain_env, lambda s, t: 0.0)
    assert traj.reward_prefix.shape == (33,)
    assert traj.reward_prefix[0] == 0.0
    assert traj.reward_prefix[-1] == traj.total_reward


def test_chainrun_analytic_optimum_exhaustive():
    """For small T the closed form matches exhaustive search over all
    per-step fast/slow choices."""
    for T in (4, 8, 12):
        for budget in (0, 1, 2.5, 3, T - 1, T):
            assert gas.chainrun_optimum(T, budget) == \
                gas.chainrun_optimum_exhaustive(T, budget)


def _reference_step(spec, state, action, t):
    """Per-row dynamics written out with scalars, the reference for the
    vectorized ``step_batch``; returns (next_state, reward, cost, clamped)."""
    T = spec.episode_length
    a = np.asarray(action, dtype=np.float64)
    clamped = bool(np.any(np.abs(a) > 1.0))
    a = np.clip(a, -1.0, 1.0)
    if spec.name == gas.CHAIN_RUN:
        v = (a[0] + 1.0) / 2.0
        return np.array([state[0] + v, (t + 1) / T]), v, 1.0 if v > 0.5 else 0.0, clamped
    x, y = state[0], state[1]
    nx, ny = x + 0.1 * a[0], y + 0.1 * a[1]
    reward = (x * a[1] - y * a[0]) / max(np.hypot(x, y), 0.5)
    radius = np.hypot(nx, ny)
    cost = 1.0 if (radius > 1.5 or radius < 0.5) else 0.0
    return np.array([nx, ny, (t + 1) / T]), reward, cost, clamped


@pytest.mark.parametrize("spec", [gas.chainrun_spec(8), gas.gridcircle_spec(8)],
                         ids=["ChainRun", "GridCircle"])
def test_step_batch_rows_equal_step(spec):
    """Row i of step_batch, and step on row i, equal the scalar reference
    dynamics bit for bit, out-of-range actions included; both count one
    clamp warning per clamped row."""
    rng = np.random.default_rng(21)
    B = 64
    states = rng.uniform(-2.0, 2.0, size=(B, spec.state_dim))
    actions = rng.uniform(-1.5, 1.5, size=(B, spec.action_dim))
    actions[:4] = [[1.0] * spec.action_dim, [-1.0] * spec.action_dim,
                   [0.0] * spec.action_dim, [4.0] * spec.action_dim]
    states[:2, :2] = 0.0  # the GridCircle origin, where max(|p|, 0.5) binds
    single, batched = gas.make_env(spec), gas.make_env(spec)
    clamped = 0
    for t in (0, spec.episode_length - 1):
        ns, r, c, done = batched.step_batch(states, actions, t)
        assert done == (t == spec.episode_length - 1)
        for i in range(B):
            ref_ns, ref_r, ref_c, ref_clamped = _reference_step(spec, states[i], actions[i], t)
            clamped += ref_clamped
            ns_i, r_i, c_i, done_i = single.step(states[i], actions[i], t)
            assert ns[i].tobytes() == ns_i.tobytes() == ref_ns.tobytes()
            assert r[i].tobytes() == np.float64(r_i).tobytes() == np.float64(ref_r).tobytes()
            assert c[i] == c_i == ref_c and done_i == done
    assert batched.clamp_warnings == single.clamp_warnings == clamped > 0
    with pytest.raises(ContractError):
        batched.step_batch(states, actions, spec.episode_length)

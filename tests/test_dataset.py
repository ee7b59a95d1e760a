import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gas
from gas.dataset import (AugmentConfig, build_reshape_index, export_jsonl,
                         generate_offline_dataset, load_dataset, relabel,
                         sample_batch, save_dataset)
from gas.errors import ConfigError, ContractError, SchemaError


# -- generation ---------------------------------------------------------------

def test_pure_block_arithmetic(block_dataset):
    """Block policies with exact speeds: reward = 0.5*T + 0.5*cost."""
    rewards, costs = block_dataset.total_returns()
    assert np.all((costs >= 0) & (costs <= 32))
    assert np.allclose(rewards, 16.0 + 0.5 * costs)


def test_slow_only_mix_has_zero_cost(chain_env):
    data = generate_offline_dataset(chain_env, gas.slow_only_mix(), 20, seed=2)
    assert data.c_max == 0.0


def test_generation_determinism(chain_env):
    a = generate_offline_dataset(chain_env, gas.stitch_mix(), 30, seed=9)
    b = generate_offline_dataset(chain_env, gas.stitch_mix(), 30, seed=9)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.actions.tobytes() == b.actions.tobytes()
    assert a.reward_prefix.tobytes() == b.reward_prefix.tobytes()


# sha256 of the saved corpus and the env's clamp_warnings total after
# generating 200 trajectories, recorded from the per-trajectory rollout loop
# that batched generation replaced
GOLDEN_CORPORA = [
    ("ChainRun", 32, gas.stitch_mix(), 0, 0,
     "d2d7bd7f20939ee453d7bb97f6428a7c82e1656b68e44a15710c612339ce3655"),
    ("ChainRun", 32, gas.stitch_mix(), 7, 0,
     "a516a289363eb58ad3cefc710ccd3976f39b051d817bb456ca084233ef132598"),
    ("ChainRun", 32, gas.pure_block_mix(), 1, 0,
     "89ff6d6588c95a3c283ae5d30c5f08988d4e2d71332ea9746a4c19687f0b1ffb"),
    ("ChainRun", 32, gas.slow_only_mix(), 2, 0,
     "6d0026682e2fbf53554c8c3b3934607792f81bacc9eaa44f693df82d5b591812"),
    ("GridCircle", 64, gas.dataset.gridcircle_mix(), 0, 0,
     "f57f7f524ed2ec761f6d54ede7405f7f4be0a2c28f4527f37b62dafffd5f96bd"),
    # every action out of range: clipped when stepped and when stored
    ("ChainRun", 32, gas.pure_block_mix(1.5, -1.25), 3, 6400,
     "d256a1e5976f9dd28303efdf0c4bfc79f2dd0c525a391181e2c0bff0294e4208"),
    # scalar-action mixes on the 2-D env: each action broadcasts to a row
    ("GridCircle", 16, gas.stitch_mix(), 4, 0,
     "860f9863d6ffd060e0bed6495b2e6fe3addefe48b0e89c8ac9639406f8b00233"),
    ("GridCircle", 16, gas.slow_only_mix(), 5, 0,
     "82f2938a786998c237353a92d7ab55853f3cde989409bf9f2211e94014906b89"),
]


@pytest.mark.parametrize("env_name, T, mix, seed, clamps, digest", GOLDEN_CORPORA,
                         ids=["stitch-0", "stitch-7", "pure_block-1", "slow_only-2",
                              "gridcircle-0", "pure_block_clamped-3", "gridcircle_stitch-4",
                              "gridcircle_slow-5"])
def test_generated_corpus_bytes_are_pinned(tmp_path, env_name, T, mix, seed, clamps, digest):
    env = gas.make_env(gas.envs.spec_by_name(env_name, T), seed)
    save_dataset(generate_offline_dataset(env, mix, 200, seed), tmp_path / "d.gasdset")
    assert hashlib.sha256((tmp_path / "d.gasdset").read_bytes()).hexdigest() == digest
    assert env.clamp_warnings == clamps


@pytest.mark.parametrize("spec, mix", [
    (gas.chainrun_spec(16), gas.stitch_mix()),
    (gas.chainrun_spec(16), gas.pure_block_mix(1.5, -1.25)),
    (gas.gridcircle_spec(16), gas.dataset.gridcircle_mix()),
    (gas.chainrun_spec(16), gas.slow_only_mix()),
], ids=["stitch", "pure_block_clamped", "gridcircle", "slow"])
def test_rollout_equals_row_of_batched_generation(monkeypatch, spec, mix):
    """``rollout`` of one actor is the corresponding row of the batch the
    generator stepped, bit for bit, clamp warnings included."""
    actors = []
    batched = gas.dataset.rollout_actors

    def capture(env, batch):
        actors.extend(batch)
        return batched(env, batch)

    monkeypatch.setattr(gas.dataset, "rollout_actors", capture)
    env = gas.make_env(spec)
    data = generate_offline_dataset(env, mix, 24, seed=5)
    monkeypatch.undo()  # ``rollout`` steps through rollout_actors too
    single = gas.make_env(spec)
    assert len(actors) == data.n
    for i, actor in enumerate(actors):
        episode = gas.rollout(single, actor)
        assert episode.n == 1
        for name in ("states", "actions", "rewards", "costs", "reward_prefix", "cost_prefix"):
            assert getattr(episode, name)[0].tobytes() == getattr(data, name)[i].tobytes()
    assert single.clamp_warnings == env.clamp_warnings


def test_generation_rejects_bad_n(chain_env):
    with pytest.raises(ConfigError, match="n_traj"):
        generate_offline_dataset(chain_env, gas.stitch_mix(), 0, seed=0)


def test_stitch_mix_individually_suboptimal(stitch_dataset):
    """No single trajectory attains the analytic optimum for any
    intermediate integer budget; compositions must beat single episodes."""
    rewards, costs = stitch_dataset.total_returns()
    T = stitch_dataset.horizon
    for budget in range(1, T):
        best = max((r for r, c in zip(rewards, costs) if c <= budget), default=-np.inf)
        assert best < gas.chainrun_optimum(T, budget)


def test_stitch_mix_spans_costs(stitch_dataset):
    # the brisk style pins the cost ceiling at the horizon; capped blocks
    # keep the reward ceiling near what tight budgets can reach
    assert stitch_dataset.c_max == 32.0
    assert stitch_dataset.r_max == pytest.approx(16 * 1.0 + 16 * 0.46)


# -- segment returns ----------------------------------------------------------

def _one_row(rewards, costs):
    T = len(rewards)
    return gas.OfflineDataset.from_arrays(gas.EnvSpec("ChainRun", T, 1, 1), np.zeros((1, T, 1)),
                                          np.zeros((1, T, 1)), [rewards], [costs])


def test_segment_return_examples():
    data = _one_row([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    assert data.segment_returns(0, 0, 2) == (6.0, 1.0)
    assert data.segment_returns(0, 1, 1) == (2.0, 1.0)
    r, c = data.segment_returns([0, 0, 0], [0, 1, 2], 2)
    assert r.tolist() == [6.0, 5.0, 3.0] and c.tolist() == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("traj, t, gamma", [(0, 2, 1), (0, -1, 1), (0, 0, 3), (0, 3, 3),
                                            (1, 0, 0), (-1, 0, 0), ([0, 0], [0, 1], [2, 0])],
                         ids=["gamma_before_t", "negative_t", "gamma_past_end", "t_past_end",
                              "traj_past_end", "negative_traj", "one_bad_row"])
def test_segment_returns_rejects_out_of_range(traj, t, gamma):
    with pytest.raises(ContractError, match="out of range"):
        _one_row([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]).segment_returns(traj, t, gamma)


def test_segment_return_matches_loop_sum(stitch_dataset, rng):
    """On a ChainRun and a GridCircle corpus, segment returns equal direct
    loop sums: bitwise for the integer-valued costs, to 1e-12 for rewards."""
    grid = gas.make_env(gas.gridcircle_spec(64))
    for data in (stitch_dataset, generate_offline_dataset(grid, gas.dataset.gridcircle_mix(),
                                                          50, seed=4)):
        traj = rng.integers(0, data.n, size=1000)
        t = rng.integers(0, data.horizon, size=1000)
        g = rng.integers(t, data.horizon)
        r, c = data.segment_returns(traj, t, g)
        loop_r = np.array([np.sum(data.rewards[i, a:b + 1]) for i, a, b in zip(traj, t, g)])
        loop_c = np.array([np.sum(data.costs[i, a:b + 1]) for i, a, b in zip(traj, t, g)])
        assert r == pytest.approx(loop_r, rel=1e-12, abs=1e-12)
        assert c.tobytes() == loop_c.tobytes()


# -- relabeling ---------------------------------------------------------------

def test_relabel_zero_width_cases(rng):
    r_hat, c_hat = relabel(7.0, 32.0, 0.0, 32.0, rng)
    assert r_hat == 7.0 and c_hat == 32.0


def test_relabel_monte_carlo_band(rng):
    r_hat, c_hat = relabel(np.full(100_000, 100.0), np.zeros(100_000), 0.1, 32.0, rng)
    assert r_hat.min() >= 90.0 and r_hat.max() <= 110.0
    assert abs(r_hat.mean() - 100.0) <= 0.2
    assert c_hat.min() >= 0.0 and c_hat.max() <= 32.0


def test_relabel_rejects_impossible_cost(rng):
    with pytest.raises(ContractError):
        relabel(1.0, 5.0, 0.1, 4.0, rng)


@given(st.floats(-50, 50), st.floats(0, 20), st.floats(0, 0.99))
@settings(max_examples=200, deadline=None)
def test_relabel_bounds_property(r_seg, c_seg, delta):
    rng = np.random.default_rng(7)
    c_max = 20.0
    r_hat, c_hat = relabel(r_seg, c_seg, delta, c_max, rng)
    lo, hi = sorted(((1 - delta) * r_seg, (1 + delta) * r_seg))
    assert lo - 1e-9 <= r_hat <= hi + 1e-9
    assert c_seg - 1e-9 <= c_hat <= c_max + 1e-9


# -- reshaping ----------------------------------------------------------------

def _toy_dataset(rewards, costs):
    """Dataset stub with prescribed total returns (1-step trajectories padded)."""
    n = len(rewards)
    pad = np.zeros(n)
    return gas.OfflineDataset.from_arrays(gas.EnvSpec("ChainRun", 2, 1, 1), np.zeros((n, 2, 1)),
                                          np.zeros((n, 2, 1)), np.column_stack([rewards, pad]),
                                          np.column_stack([costs, pad]))


def test_reshape_q100_keeps_everything():
    data = _toy_dataset(np.arange(10.0), np.zeros(10))
    idx = build_reshape_index(data, 100.0, 1)
    assert len(idx.member_traj_ids) == 10


def test_reshape_top_decile_single_bin():
    data = _toy_dataset(np.arange(1.0, 101.0), np.zeros(100))
    idx = build_reshape_index(data, 10.0, 1)
    rewards, _ = data.total_returns()
    kept = sorted(rewards[idx.member_traj_ids])
    assert kept == list(np.arange(91.0, 101.0))


def test_reshape_all_identical_tie_rule():
    data = _toy_dataset(np.full(8, 5.0), np.zeros(8))
    idx = build_reshape_index(data, 10.0, 1)
    assert len(idx.member_traj_ids) == 8


def test_reshape_every_nonempty_bin_contributes(stitch_dataset):
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    rewards, costs = stitch_dataset.total_returns()
    bins = np.minimum((costs / stitch_dataset.c_max * 10).astype(int), 9)
    member_bins = set(bins[idx.member_traj_ids])
    assert member_bins == set(bins)


def test_reshape_matches_brute_force_cdf(stitch_dataset):
    """Membership equals an independent O(n^2) conditional-CDF evaluation."""
    q, bins = 10.0, 10
    idx = build_reshape_index(stitch_dataset, q, bins)
    rewards, costs = stitch_dataset.total_returns()
    expected = set()
    for i in range(stitch_dataset.n):
        b = min(int(costs[i] / stitch_dataset.c_max * bins), bins - 1)
        peers = [j for j in range(stitch_dataset.n)
                 if min(int(costs[j] / stitch_dataset.c_max * bins), bins - 1) == b]
        cdf = sum(rewards[j] <= rewards[i] for j in peers) / len(peers)
        if cdf > 1.0 - q / 100.0:
            expected.add(i)
    assert set(idx.member_traj_ids.tolist()) == expected


def test_reshape_member_pairs_cover_all_timesteps(stitch_dataset):
    """At epsilon = 1 the draws are exactly the member trajectories' (state, t)
    pairs, every time step included."""
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    batch = sample_batch(stitch_dataset, idx, AugmentConfig(epsilon=1.0), 100_000,
                         np.random.default_rng(5))
    pairs = {(stitch_dataset.states[m, t].tobytes(), t)
             for m in idx.member_traj_ids for t in range(stitch_dataset.horizon)}
    assert {(s.tobytes(), int(t)) for s, t in zip(batch.states, batch.t)} == pairs


# -- batch sampling -----------------------------------------------------------

def test_sample_batch_epsilon_endpoints(stitch_dataset, rng):
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    batch = sample_batch(stitch_dataset, idx, AugmentConfig(epsilon=0.0), 4096, rng)
    assert not batch.from_reshape.any()
    batch = sample_batch(stitch_dataset, idx, AugmentConfig(epsilon=1.0), 4096, rng)
    assert batch.from_reshape.all()
    members = set(idx.member_traj_ids.tolist())
    # every reshaped draw lands on a member trajectory's transitions
    states = stitch_dataset.states
    for i in range(0, 4096, 512):
        assert any(np.array_equal(states[m, batch.t[i]], batch.states[i]) for m in members)


@pytest.mark.parametrize("epsilon", [0.25, 0.5])
def test_sample_batch_mixture_frequency(stitch_dataset, epsilon):
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    rng = np.random.default_rng(42)
    batch = sample_batch(stitch_dataset, idx, AugmentConfig(epsilon=epsilon), 100_000, rng)
    assert abs(batch.from_reshape.mean() - epsilon) <= 0.01


def test_sample_batch_segment_consistency(stitch_dataset, rng):
    cfg = AugmentConfig()
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    batch = sample_batch(stitch_dataset, idx, cfg, 2048, rng)
    T = stitch_dataset.horizon
    assert np.all((0 <= batch.t_prime) & (batch.t_prime <= T - 1))
    assert np.all(T - batch.t_prime == batch.gamma - batch.t + 1)
    # spot-check exact segment sums: a batch does not record its trajectory,
    # and a (state, action) can repeat across trajectories, so some
    # trajectory with that pair at t must have exactly (r_seg, c_seg) on [t, gamma]
    checked = 0
    for i in range(0, 2048, 97):
        t, gamma = int(batch.t[i]), int(batch.gamma[i])
        matches = [j for j in range(stitch_dataset.n)
                   if np.array_equal(stitch_dataset.states[j, t], batch.states[i])
                   and np.array_equal(stitch_dataset.actions[j, t], batch.actions[i])]
        assert matches, f"sample {i} matches no trajectory at t={t}"
        segments = set(zip(*(x.tolist() for x in stitch_dataset.segment_returns(matches, t, gamma))))
        assert (float(batch.r_seg[i]), float(batch.c_seg[i])) in segments
        assert batch.r_seg[i] <= stitch_dataset.r_max + 1e-9
        assert batch.c_seg[i] <= batch.c_hat[i] + 1e-12
        checked += 1
    assert checked == len(range(0, 2048, 97))


def test_sample_batch_relabel_bounds(stitch_dataset, rng):
    cfg = AugmentConfig(delta=0.1)
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    batch = sample_batch(stitch_dataset, idx, cfg, 8192, rng)
    lo = np.minimum(0.9 * batch.r_seg, 1.1 * batch.r_seg)
    hi = np.maximum(0.9 * batch.r_seg, 1.1 * batch.r_seg)
    assert np.all((batch.r_hat >= lo - 1e-12) & (batch.r_hat <= hi + 1e-12))
    assert np.all((batch.c_hat >= batch.c_seg - 1e-12)
                  & (batch.c_hat <= stitch_dataset.c_max + 1e-12))


def test_sample_batch_ablation_switches(stitch_dataset, rng):
    idx = build_reshape_index(stitch_dataset, 10.0, 10)
    batch = sample_batch(stitch_dataset, idx, AugmentConfig(tsra=False), 512, rng)
    assert np.all(batch.gamma == stitch_dataset.horizon - 1)
    batch = sample_batch(stitch_dataset, idx,
                         AugmentConfig(delta=0.0, relabel_cost=False), 512, rng)
    assert np.array_equal(batch.r_hat, batch.r_seg)
    assert np.array_equal(batch.c_hat, batch.c_seg)


def test_sample_batch_requires_reshape_when_mixing(stitch_dataset, rng):
    with pytest.raises(ContractError):
        sample_batch(stitch_dataset, None, AugmentConfig(epsilon=0.5), 16, rng)


# -- serialization ------------------------------------------------------------

def test_dataset_round_trip(tmp_path, stitch_dataset):
    path = tmp_path / "data.gasdset"
    save_dataset(stitch_dataset, path)
    loaded = load_dataset(path)
    assert loaded.n == stitch_dataset.n
    assert loaded.r_max == stitch_dataset.r_max
    assert loaded.c_max == stitch_dataset.c_max
    assert np.array_equal(loaded.reward_prefix, stitch_dataset.reward_prefix)
    assert np.array_equal(loaded.cost_prefix, stitch_dataset.cost_prefix)
    assert np.array_equal(loaded.states, stitch_dataset.states)


def test_dataset_bad_magic(tmp_path, block_dataset):
    path = tmp_path / "data.gasdset"
    save_dataset(block_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTADSET"
    path.write_bytes(bytes(blob))
    with pytest.raises(SchemaError, match="magic"):
        load_dataset(path)


def test_dataset_bad_version(tmp_path, block_dataset):
    path = tmp_path / "data.gasdset"
    save_dataset(block_dataset, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(SchemaError, match="version"):
        load_dataset(path)


def test_jsonl_export(tmp_path, block_dataset):
    import json

    path = tmp_path / "data.jsonl"
    export_jsonl(block_dataset, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == block_dataset.n
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert sorted(record) == ["actions", "costs", "rewards", "states"]
        for name, value in record.items():
            assert value == getattr(block_dataset, name)[i].tolist()

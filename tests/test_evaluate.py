import numpy as np
import pytest

import gas
from gas.dataset import AugmentConfig
from gas.evaluate import (ABLATION_KINDS, ALPHA_SWEEP_VALUES, EvalConfig,
                          ablation_variants, evaluate, robustness_sweep,
                          run_episode, sweep_gates)
from gas.errors import ConfigError, ContractError
from gas.goals import GoalNets, InputNorm
from gas.policy import PolicyNet
from gas.config import seed_streams


@pytest.fixture(scope="module")
def models(stitch_dataset):
    streams = seed_streams(17)
    norm = InputNorm.fit(stitch_dataset)
    nets = GoalNets.create(norm, 2, 3, 16, 16, streams["init_reward"],
                           streams["init_cost"])
    pol = PolicyNet.create(norm, 2, 1, 3, 16, 16, streams["init_policy"])
    return nets, pol


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(thresholds=(0.0,))
    with pytest.raises(ConfigError, match="at least one"):
        EvalConfig(thresholds=())


def test_normalization_identities(chain_env, stitch_dataset, models):
    nets, pol = models
    cfg = EvalConfig(thresholds=(0.25, 0.75))
    report = evaluate(pol, nets, chain_env, cfg, stitch_dataset.r_max,
                      stitch_dataset.c_max)
    for row in report.rows:
        assert row["reward_norm"] == row["reward_return"] / stitch_dataset.r_max
        assert row["cost_norm"] == row["cost_return"] / row["threshold_cost"]
        assert row["threshold_cost"] == row["threshold_frac"] * stitch_dataset.c_max


def test_zero_budget_cost_norm(chain_env, stitch_dataset, models):
    """With C_max = 0 every budget L is 0: cost_norm is 0 for a rollout that
    spends nothing and inf for one that spends, in both sweeps."""
    nets, pol = models
    spender = PolicyNet(pol.net.copy(), pol.norm, pol.action_dim)
    spender.net.biases[-1][...] = 1.0  # action tanh(1) > 0: every step costs
    for policy, expected in ((pol, 0.0), (spender, float("inf"))):
        report = evaluate(policy, nets, chain_env, EvalConfig((0.2, 0.5)),
                          stitch_dataset.r_max, 0.0)
        rows = robustness_sweep(policy, nets, chain_env, 0.2, [5.0, 10.0],
                                stitch_dataset.r_max, 0.0)
        assert [row["cost_norm"] for row in report.rows + rows] == [expected] * 4


def _assert_rows_match_run_episode(env, pol, nets, report):
    """Each batched row equals the single rollout of its point: costs exactly,
    rewards up to the reassociation of a B-row matmul."""
    for row in report.rows:
        r_target = report.metadata["reward_targets"][repr(row["threshold_frac"])]
        reward, cost = run_episode(env, pol, nets, r_target, row["threshold_cost"])
        assert row["cost_return"] == cost
        assert row["reward_return"] == pytest.approx(reward, rel=1e-12, abs=1e-12)


def test_evaluate_rows_match_run_episode(chain_env, stitch_dataset, models):
    nets, pol = models
    # duplicates are one point: one deterministic rollout, one row
    cfg = EvalConfig(thresholds=(0.5, 0.1, 0.3, 0.5, 0.9), target_reward_fraction=0.8)
    report = evaluate(pol, nets, chain_env, cfg, stitch_dataset.r_max,
                      stitch_dataset.c_max)
    assert [row["threshold_frac"] for row in report.rows] == [0.1, 0.3, 0.5, 0.9]
    assert [s["threshold_frac"] for s in report.summary] == [0.1, 0.3, 0.5, 0.9]
    for row, summary in zip(report.rows, report.summary):
        assert summary["reward_norm_mean"] == row["reward_norm"]
        assert summary["cost_norm_mean"] == row["cost_norm"]
    _assert_rows_match_run_episode(chain_env, pol, nets, report)


def test_gridcircle_batched_evaluate_runs():
    env = gas.make_env(gas.gridcircle_spec(16))
    data = gas.generate_offline_dataset(env, gas.mix_by_name("default", gas.GRID_CIRCLE),
                                        12, seed=4)
    streams = seed_streams(5)
    norm = InputNorm.fit(data)
    nets = GoalNets.create(norm, 3, 3, 16, 16, streams["init_reward"], streams["init_cost"])
    pol = PolicyNet.create(norm, 3, 2, 3, 16, 16, streams["init_policy"])
    # a non-zero head, so the rows take different actions
    pol.net.weights[-1][...] = streams["init_policy"].uniform(
        -0.5, 0.5, size=pol.net.weights[-1].shape)
    report = evaluate(pol, nets, env, EvalConfig(thresholds=(0.2, 0.6, 1.0)),
                      data.r_max, data.c_max)
    assert len(report.rows) == 3
    assert all(np.isfinite(row["reward_return"]) for row in report.rows)
    _assert_rows_match_run_episode(env, pol, nets, report)


def test_sweep_has_one_summary_row_per_threshold(chain_env, stitch_dataset, models):
    nets, pol = models
    thresholds = [x / 10 for x in range(1, 10)]
    report = evaluate(pol, nets, chain_env, EvalConfig(tuple(thresholds)),
                      stitch_dataset.r_max, stitch_dataset.c_max)
    assert len(report.summary) == 9
    assert len(report.rows) == 9


def test_sweep_gates_logic():
    def report_with(costs, rewards):
        summary = [{"threshold_frac": 0.1 * (i + 1), "cost_norm_mean": c,
                    "reward_norm_mean": r} for i, (c, r) in enumerate(zip(costs, rewards))]
        return gas.EvalReport([], summary)

    good = report_with([0.5, 0.9, 1.05], [0.3, 0.4, 0.5])
    assert sweep_gates(good)["passed"]
    unsafe = report_with([0.5, 1.2, 1.0], [0.3, 0.4, 0.5])
    assert not sweep_gates(unsafe)["cost_within_tolerance"]
    regressing = report_with([0.5, 0.9, 1.0], [0.5, 0.4, 0.5])
    gates = sweep_gates(regressing)
    assert not gates["reward_non_decreasing"] and not gates["passed"]
    # within-tolerance wobble is allowed
    wobble = report_with([0.5, 0.9, 1.0], [0.50, 0.485, 0.50])
    assert sweep_gates(wobble)["passed"]


def test_robustness_sweep_row_count(chain_env, stitch_dataset, models):
    nets, pol = models
    targets = [5.0, 10.0, 20.0]
    rows = robustness_sweep(pol, nets, chain_env, 0.2, targets,
                            stitch_dataset.r_max, stitch_dataset.c_max,
                            alternates={"no_relabel": (pol, nets)})
    assert len(rows) == len(targets) * 2
    models_seen = {row["model"] for row in rows}
    assert models_seen == {"default", "no_relabel"}


def test_robustness_matches_threshold_sweep_point(chain_env, stitch_dataset, models):
    """Same (target, budget) inputs give the same episode either way."""
    nets, pol = models
    r_max, c_max = stitch_dataset.r_max, stitch_dataset.c_max
    target = 0.95 * r_max
    sweep = evaluate(pol, nets, chain_env,
                     EvalConfig((0.2,), target_reward_fraction=0.95), r_max, c_max)
    rows = robustness_sweep(pol, nets, chain_env, 0.2, [target], r_max, c_max)
    assert rows[0]["reward_return"] == sweep.rows[0]["reward_return"]
    assert rows[0]["cost_return"] == sweep.rows[0]["cost_return"]


def test_eval_env_mismatch_rejected(stitch_dataset, models):
    nets, pol = models
    grid = gas.make_env(gas.gridcircle_spec(64))
    with pytest.raises(ContractError, match="state_dim"):
        evaluate(pol, nets, grid, EvalConfig(thresholds=(0.5,)),
                 stitch_dataset.r_max, stitch_dataset.c_max)


def test_report_serialization_deterministic(chain_env, stitch_dataset, models):
    nets, pol = models
    cfg = EvalConfig(thresholds=(0.3,))

    def render():
        report = evaluate(pol, nets, chain_env, cfg, stitch_dataset.r_max,
                          stitch_dataset.c_max, metadata={"alpha": 0.9})
        return report.to_csv(), report.to_json()

    assert render() == render()


def test_ablation_variant_configs():
    cfg = AugmentConfig()
    variants = ablation_variants("alpha_sweep", cfg, 0.8)
    assert len(variants) == len(ALPHA_SWEEP_VALUES)
    assert variants["alpha_0.5"][1] == 0.5
    (no_tsra, alpha) = ablation_variants("no_tsra", cfg, 0.8)["no_tsra"]
    assert no_tsra.tsra is False and alpha == 0.8
    (no_relabel, _) = ablation_variants("no_relabel", cfg, 0.8)["no_relabel"]
    assert no_relabel.delta == 0.0 and no_relabel.relabel_cost is False
    (no_reshape, _) = ablation_variants("no_reshape", cfg, 0.8)["no_reshape"]
    assert no_reshape.epsilon == 0.0
    with pytest.raises(ConfigError):
        ablation_variants("bogus", cfg, 0.8)
    assert set(ABLATION_KINDS) == {"alpha_sweep", "no_tsra", "no_relabel", "no_reshape"}


def test_run_episode_trace(chain_env, stitch_dataset, models):
    nets, pol = models
    trace = []
    reward, cost = run_episode(chain_env, pol, nets, 10.0, 5.0, trace=trace)
    assert len(trace) == chain_env.spec.episode_length
    assert trace[0]["c_remaining"] == 5.0
    assert {"t", "state", "action", "reward", "cost", "v_r", "v_c"} <= set(trace[0])
    assert sum(row["reward"] for row in trace) == pytest.approx(reward)

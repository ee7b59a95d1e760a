"""Acceptance gate: every criterion with its stated tolerance.

Runs real training on the standard ChainRun stitching corpus (200
trajectories, T=32) and checks the learned system against closed-form and
brute-force ground truth. One pass/fail line is printed per criterion.

Heavy models are trained once per session and shared. The four trainings
run side by side in spawned worker processes (one BLAS thread each): the
module takes roughly 15-30 CPU minutes, and about half that in wall time on
two cores.
"""

import multiprocessing
import os
import time
from unittest import mock

import numpy as np
import pytest

import gas
from gas.config import seed_streams
from gas.dataset import AugmentConfig
from gas.evaluate import (EvalConfig, evaluate, resolve_reward_target,
                          reward_target_table, robustness_sweep, run_episode,
                          sweep_gates)
from gas.goals import goal_loss
from gas.nn import flatten_grads, grad_check, solve_scalar_expectile
from gas.oracle import (ProbeQuery, brute_force_goal, chainrun_optimum,
                        default_state_tolerance)
from gas.policy import policy_inputs, policy_loss
from gas.training import NetHyper, train_gas

# the slow gate; `pytest -m "not acceptance"` is the fast loop
pytestmark = pytest.mark.acceptance

T = 32
N_TRAJ = 200
DATA_SEED = 0
TRAIN_SEED = 0
ITERATIONS = 20_000
ALPHA = 0.9
TARGET_FRACTION = 0.98

# compact architecture sized for the CPU-minute budgets; defaults in
# RunConfig keep the reference values
HYPER = NetHyper(n_layers=4, hidden=128, embedding=64, batch_size=256,
                 learning_rate=3e-3, grad_clip=0.25, weight_decay=1e-3,
                 lr_final_fraction=0.03, policy_weight_decay=3e-3)


def _report(name, passed, detail):
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


@pytest.fixture(scope="session")
def corpus():
    env = gas.make_env(gas.chainrun_spec(T), seed=DATA_SEED)
    data = gas.generate_offline_dataset(env, gas.stitch_mix(), N_TRAJ, DATA_SEED)
    return env, data


# fixture name -> (augmentation, expectile level), in the order the
# criteria first need them
TRAININGS = {
    "trained": (AugmentConfig(), ALPHA),  # the default model
    "trained_alpha_half": (AugmentConfig(), 0.5),  # no-stitching degenerate case
    # delta = 0 and cost targets pinned to segment costs
    "trained_no_relabel": (AugmentConfig(delta=0.0, relabel_cost=False), ALPHA),
    "trained_no_tsra": (AugmentConfig(tsra=False), ALPHA),  # suffix returns only
}
# a worker that dies loses its job; no training comes near this long
TRAINING_WAIT_S = 1800
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def _timed_train(data, augment, alpha):
    """One 20k-iteration training; returns (result, seconds it took)."""
    t0 = time.monotonic()
    result = train_gas(data, augment, HYPER, alpha, ITERATIONS, seed_streams(TRAIN_SEED))
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def trainings(request, corpus):
    """The TRAININGS this session's tests use, submitted at once to a pool of
    spawned workers.

    Training is deterministic and these matrices are too small to gain from
    a second BLAS thread, so a worker's model is bit-identical to one trained
    in this process.
    """
    _, data = corpus
    used = {name for item in request.session.items for name in item.fixturenames}
    wanted = [name for name in TRAININGS if name in used]
    workers = min(len(wanted), len(os.sched_getaffinity(0)))
    with mock.patch.dict(os.environ, _ONE_BLAS_THREAD):  # read at worker start-up
        pool = multiprocessing.get_context("spawn").Pool(workers)
    jobs = {name: pool.apply_async(_timed_train, (data, *TRAININGS[name]))
            for name in wanted}
    yield jobs
    pool.terminate()
    pool.join()


@pytest.fixture(scope="session")
def trained(trainings):
    """Default model and its training seconds: alpha=0.9, standard mechanisms on."""
    return trainings["trained"].get(TRAINING_WAIT_S)


@pytest.fixture(scope="session")
def trained_alpha_half(trainings):
    return trainings["trained_alpha_half"].get(TRAINING_WAIT_S)[0]


@pytest.fixture(scope="session")
def trained_no_relabel(trainings):
    return trainings["trained_no_relabel"].get(TRAINING_WAIT_S)[0]


@pytest.fixture(scope="session")
def trained_no_tsra(trainings):
    return trainings["trained_no_tsra"].get(TRAINING_WAIT_S)[0]


@pytest.fixture(scope="session")
def target_table(corpus):
    _, data = corpus
    return reward_target_table(data)


def probe_grid(data):
    """50+ probes at dataset states: low/high/mid-cost trajectories,
    several times, generic (non-atomic) budget fractions."""
    tol = default_state_tolerance(data.env_meta)
    _, costs = data.total_returns()
    ids = (int(np.argmin(costs)), int(np.argmax(costs)),
           int(np.argsort(costs)[data.n // 2]))
    probes = []
    for tid, times in zip(ids, ((0, 4, 8, 12, 16), (0, 4, 8), (0, 6, 10))):
        for t in times:
            for bf in (0.15, 0.3, 0.55, 0.8, 0.95):
                k = T - t
                probes.append(ProbeQuery(data.states[tid, t].copy(), t,
                                         bf * k, tol))
    return probes


# -- 1: expectile fixed point ---------------------------------------------------

def test_criterion_1_expectile_fixed_point():
    t0 = time.monotonic()
    xs = np.arange(1.0, 11.0)
    values = {a: solve_scalar_expectile(xs, a) for a in (0.5, 0.7, 0.9, 0.99)}
    elapsed = time.monotonic() - t0
    ordered = [values[a] for a in (0.5, 0.7, 0.9, 0.99)]
    passed = (abs(values[0.5] - 5.5) <= 1e-3
              and all(b > a for a, b in zip(ordered, ordered[1:]))
              and values[0.99] >= 9.5
              and elapsed < 5.0)
    assert _report("1 expectile fixed point",
                   passed,
                   f"m(0.5)={values[0.5]:.5f}, m(0.99)={values[0.99]:.3f}, "
                   f"{elapsed:.2f}s")


# -- 2: alpha = 0.5 is half MSE ---------------------------------------------------

def test_criterion_2_half_mse_identity(corpus):
    _, data = corpus
    idx = gas.build_reshape_index(data, 10.0, 10)
    ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        batch = gas.sample_batch(data, idx, AugmentConfig(), 512, rng)
        streams = seed_streams(seed + 100)
        nets = gas.GoalNets.create(gas.InputNorm.fit(data), 2, 3, 32, 32,
                                   streams["init_reward"], streams["init_cost"])
        l_r, _, _, _, adv = goal_loss(batch, nets, 0.5)
        ok &= l_r == 0.5 * np.mean(adv.a_r * adv.a_r)
    assert _report("2 alpha=0.5 half-MSE identity", ok, "5 random batches, exact")


# -- 3: gradient correctness on the default architecture --------------------------

def test_criterion_3_gradient_correctness(corpus):
    t0 = time.monotonic()
    _, data = corpus
    idx = gas.build_reshape_index(data, 10.0, 10)
    rng = np.random.default_rng(7)
    batch = gas.sample_batch(data, idx, AugmentConfig(), 64, rng)
    streams = seed_streams(11)
    norm = gas.InputNorm.fit(data)
    # reference architecture: 7 weight layers, hidden 128, embedding 64
    nets = gas.GoalNets.create(norm, 2, 7, 128, 64,
                               streams["init_reward"], streams["init_cost"])
    pol = gas.PolicyNet.create(norm, 2, 1, 7, 128, 64, streams["init_policy"])
    # make the policy head non-degenerate for the check
    pol.net.weights[-1][...] = streams["init_policy"].uniform(
        -0.05, 0.05, size=pol.net.weights[-1].shape)

    l_r, l_c, grads_r, grads_c, adv = goal_loss(batch, nets, ALPHA)
    w = np.abs(ALPHA - (adv.a_r < 0))
    feasible = adv.feasible.copy()
    z = gas.goal_inputs(norm, batch.states, batch.r_hat, batch.c_hat, batch.t_prime)

    def loss_r(flat):
        probe = nets.reward_net.copy()
        probe.set_flat(flat)
        a_r = feasible * batch.r_seg - probe.forward(z)[:, 0]
        return float(np.mean(w * a_r ** 2))

    def loss_c(flat):
        probe = nets.cost_net.copy()
        probe.set_flat(flat)
        a_c = batch.c_seg - probe.forward(z)[:, 0]
        return float(np.mean(w * a_c ** 2))

    _, grads_p, w_pol = policy_loss(batch, nets, pol, ALPHA, adv=adv)
    zp = policy_inputs(norm, batch.states, batch.r_hat, batch.c_hat,
                       adv.v_r, adv.v_c, batch.t_prime)

    def loss_p(flat):
        probe = pol.net.copy()
        probe.set_flat(flat)
        actions = np.tanh(probe.forward(zp))
        err = actions - batch.actions
        return float(np.mean(w_pol * np.sum(err * err, axis=1)))

    fd_rng = np.random.default_rng(3)
    errs = {
        "L_R": grad_check(loss_r, nets.reward_net.get_flat(),
                          flatten_grads(*grads_r), 1e-5, 250, fd_rng),
        "L_C": grad_check(loss_c, nets.cost_net.get_flat(),
                          flatten_grads(*grads_c), 1e-5, 250, fd_rng),
        "L_pi": grad_check(loss_p, pol.net.get_flat(),
                           flatten_grads(*grads_p), 1e-5, 250, fd_rng),
    }
    elapsed = time.monotonic() - t0
    passed = max(errs.values()) < 1e-4 and elapsed < 60.0
    assert _report("3 gradient correctness", passed,
                   ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
                   + f", {elapsed:.1f}s")


# -- 4: goal-oracle agreement ------------------------------------------------------

def test_criterion_4_goal_oracle_agreement(corpus, trained):
    _, data = corpus
    result, train_seconds = trained
    probes = probe_grid(data)
    rels, cost_ok, feasible_probes = [], 0, 0
    for probe in probes:
        answer = brute_force_goal(data, probe)
        if not answer.feasible:
            continue
        feasible_probes += 1
        ask = 1.05 * answer.v_r_star  # ambitious in-band target
        v_r, v_c = result.nets.values(probe.state[None, :], np.array([ask]),
                                      np.array([probe.c_hat]),
                                      np.array([float(probe.t_prime)]))
        rels.append(abs(float(v_r[0]) - answer.v_r_star)
                    / max(abs(answer.v_r_star), 1e-8))
        cost_ok += float(v_c[0]) <= probe.c_hat + 1e-9
    rels = np.array(rels)
    agree = float(np.mean(rels <= 0.10))
    cost_frac = cost_ok / feasible_probes
    passed = (feasible_probes >= 50 and agree >= 0.90 and cost_frac >= 0.95
              and train_seconds < 600.0)
    assert _report("4 goal-oracle agreement", passed,
                   f"{feasible_probes} probes, V^R within 10%: {agree:.0%}, "
                   f"V^C<=budget: {cost_frac:.0%}, train {train_seconds:.0f}s")


# -- 5: end-to-end stitching --------------------------------------------------------

def _threshold_results(env, data, result, table, fractions):
    rows = []
    for frac in fractions:
        budget = frac * data.c_max
        ask = resolve_reward_target(frac, data.r_max, TARGET_FRACTION, table)
        reward, cost = run_episode(env, result.pol, result.nets, ask, budget)
        bar = 0.9 * (0.5 * T + 0.5 * budget)
        rows.append({"frac": frac, "budget": budget, "reward": reward,
                     "cost": cost, "bar": bar,
                     "ok": reward >= bar and cost <= 1.1 * budget})
    return rows


def test_criterion_5_end_to_end_stitching(corpus, trained, trained_alpha_half,
                                          target_table):
    env, data = corpus
    result, t_default = trained
    fractions = (0.1, 0.2, 0.3, 0.5)
    default_rows = _threshold_results(env, data, result, target_table, fractions)
    ablation_rows = _threshold_results(env, data, trained_alpha_half,
                                       target_table, fractions)
    default_ok = all(r["ok"] for r in default_rows)
    ablation_fails = sum(not r["ok"] for r in ablation_rows)
    detail = "; ".join(
        f"L={r['budget']:.1f}: {r['reward']:.2f}/{r['bar']:.2f} "
        f"cost {r['cost']:.0f}/{1.1 * r['budget']:.1f}" for r in default_rows)
    passed = default_ok and ablation_fails >= 2
    assert _report("5 end-to-end stitching", passed,
                   f"{detail}; alpha=0.5 fails {ablation_fails}/4")


# -- 6: zero-shot threshold adaptation ------------------------------------------------

def test_criterion_6_zero_shot_adaptation(corpus, trained, target_table):
    env, data = corpus
    result, _ = trained
    cfg = EvalConfig(tuple(x / 10 for x in range(1, 10)), TARGET_FRACTION)
    report = evaluate(result.pol, result.nets, env, cfg, data.r_max, data.c_max,
                      target_table=target_table)
    gates = sweep_gates(report)
    summary = sorted(report.summary, key=lambda s: s["threshold_frac"])
    detail = " ".join(f"{s['threshold_frac']:.1f}:{s['cost_norm_mean']:.2f}"
                      for s in summary)
    assert _report("6 zero-shot adaptation", gates["passed"],
                   f"cost norms {detail}; monotone={gates['reward_non_decreasing']}")


# -- 7: relabel robustness --------------------------------------------------------------

def test_criterion_7_relabel_robustness(corpus, trained, trained_no_relabel,
                                        target_table):
    env, data = corpus
    result, _ = trained
    frac = 0.2
    optimum = resolve_reward_target(frac, data.r_max, 1.0, target_table)
    targets = [m * optimum for m in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)]
    rows = robustness_sweep(result.pol, result.nets, env, frac, targets,
                            data.r_max, data.c_max,
                            alternates={"no_relabel": (trained_no_relabel.pol,
                                                       trained_no_relabel.nets)})
    default_rows = [r for r in rows if r["model"] == "default"]
    contrast_rows = [r for r in rows if r["model"] == "no_relabel"]
    worst = max(r["cost_norm"] for r in default_rows)
    detail = " ".join(f"{r['reward_target']:.0f}:{r['cost_norm']:.2f}"
                      for r in default_rows)
    contrast = " ".join(f"{r['reward_target']:.0f}:{r['cost_norm']:.2f}"
                        for r in contrast_rows)
    print(f"\n[acceptance] 7 no-relabel comparison (reported, ungated): {contrast}")
    assert _report("7 relabel robustness", worst <= 1.1,
                   f"default cost norms {detail}")


# -- 8: augmentation dominance ------------------------------------------------------------

def test_criterion_8_augmentation_dominance(corpus, trained, trained_no_tsra,
                                            target_table):
    env, data = corpus
    result, _ = trained
    wide = default_state_tolerance(data.env_meta).copy()
    wide[-1] = 1.0
    dominated = strict = both = 0
    for t_prime in (4, 8, 12, 16, 20):
        for x_frac in (0.46, 0.7, 0.95):
            for budget in (2.7, 6.3, 12.4):
                probe = ProbeQuery(np.array([x_frac * t_prime, t_prime / T]),
                                   t_prime, budget, wide)
                aug = brute_force_goal(data, probe)
                suf = brute_force_goal(data, probe, suffix_only=True)
                if not suf.feasible:
                    continue
                both += 1
                dominated += aug.v_r_star >= suf.v_r_star - 1e-12
                strict += aug.v_r_star > suf.v_r_star + 1e-9
    # report-only half: the suffix-trained model at tight thresholds
    rows_default = _threshold_results(env, data, result, target_table, (0.1, 0.2, 0.3))
    rows_suffix = _threshold_results(env, data, trained_no_tsra, target_table,
                                     (0.1, 0.2, 0.3))
    report_pairs = [(d["reward"], s["reward"]) for d, s in
                    zip(rows_default, rows_suffix)]
    print(f"\n[acceptance] 8 suffix-only rewards at tight thresholds "
          f"(reported, ungated): "
          + " ".join(f"{d:.2f}vs{s:.2f}" for d, s in report_pairs))
    passed = both >= 10 and dominated == both and strict >= 1
    assert _report("8 augmentation dominance", passed,
                   f"{dominated}/{both} probes dominated, {strict} strictly")


# -- 9: reshaping mechanics ------------------------------------------------------------------

def test_criterion_9_reshaping_mechanics(corpus):
    _, data = corpus
    q, bins = 10.0, 10
    idx = gas.build_reshape_index(data, q, bins)
    rewards, costs = data.total_returns()
    expected = set()
    for i in range(data.n):
        b = min(int(costs[i] / data.c_max * bins), bins - 1)
        peers = [j for j in range(data.n)
                 if min(int(costs[j] / data.c_max * bins), bins - 1) == b]
        cdf = sum(rewards[j] <= rewards[i] for j in peers) / len(peers)
        if cdf > 1.0 - q / 100.0:
            expected.add(i)
    membership_exact = set(idx.member_traj_ids.tolist()) == expected

    freq_ok = True
    details = []
    for epsilon in (0.0, 0.25, 0.5, 1.0):
        rng = np.random.default_rng(123)
        batch = gas.sample_batch(data, idx, AugmentConfig(epsilon=epsilon),
                                 100_000, rng)
        frac = float(batch.from_reshape.mean())
        tol = 0.0 if epsilon in (0.0, 1.0) else 0.01
        freq_ok &= abs(frac - epsilon) <= tol
        details.append(f"{epsilon}:{frac:.3f}")
    passed = membership_exact and freq_ok
    assert _report("9 reshaping mechanics", passed,
                   f"membership exact={membership_exact}, "
                   f"mixture fractions {' '.join(details)}")


# -- 10: determinism ----------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    from gas.cli import main

    overrides = ["env_name=ChainRun", "episode_length=16", "n_traj=40",
                 "iterations=300", "n_layers=3", "hidden=24", "embedding=24",
                 "batch_size=64", "learning_rate=0.001",
                 "thresholds=0.2,0.5,0.8", "seed=11"]
    outputs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", *overrides, f"out_dir={out}"]) == 0
        assert main(["sweep", *overrides, f"out_dir={out}"]) in (0, 3)
        outputs[run] = {name: (out / name).read_bytes()
                        for name in ("goals.ckpt", "policy.ckpt", "loss.csv",
                                     "manifest.json", "sweep.csv", "sweep.json")}
    identical = all(outputs["a"][k] == outputs["b"][k] for k in outputs["a"])
    assert _report("10 determinism", identical,
                   "train + sweep byte-identical across reruns")

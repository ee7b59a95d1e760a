import numpy as np
import pytest

import gas
from gas.dataset import _record_dtype
from gas.errors import ConfigError, ContractError, SchemaError
from gas.oracle import (OracleAnswer, ProbeQuery, brute_force_goal, brute_force_goals,
                        chainrun_optimum, chainrun_optimum_exhaustive,
                        default_state_tolerance, probe_grid_from_dataset)


def _tiny_dataset():
    """Two hand-built trajectories over a 1D state (T=4).

    traj A: rewards [1, 1, 1, 1], costs [1, 1, 1, 1], states x = t
    traj B: rewards [.5, .5, .5, .5], costs [0, 0, 0, 0], states x = t
    Both visit the same states, so every probe matches both.
    """
    T = 4
    states = np.arange(T, dtype=float).reshape(T, 1)
    actions = np.zeros((T, 1))
    spec = gas.EnvSpec("ChainRun", T, 1, 1)
    return gas.OfflineDataset.from_arrays(spec, [states, states], [actions, actions],
                                          [[1.0] * T, [0.5] * T], [[1.0] * T, [0.0] * T])


def test_oracle_hand_case_budget_binds():
    data = _tiny_dataset()
    tol = np.array([0.1])
    # t'=1 -> segments of length 3 starting at t in {0, 1} with state x = 0
    q = ProbeQuery(np.array([0.0]), 1, 0.5, tol)
    ans = brute_force_goal(data, q)
    # only the zero-cost trajectory fits the budget: R = 1.5
    assert ans.feasible and ans.v_r_star == 1.5 and ans.v_c_star == 0.0
    assert ans.support_count == 2  # both trajectories match the state


def test_oracle_hand_case_budget_loose():
    data = _tiny_dataset()
    q = ProbeQuery(np.array([0.0]), 1, 10.0, np.array([0.1]))
    ans = brute_force_goal(data, q)
    assert ans.v_r_star == 3.0 and ans.v_c_star == 3.0


def test_oracle_no_match_is_infeasible():
    data = _tiny_dataset()
    q = ProbeQuery(np.array([99.0]), 0, 10.0, np.array([0.1]))
    ans = brute_force_goal(data, q)
    assert not ans.feasible and ans.support_count == 0
    assert ans.v_r_star is None and ans.v_c_star is None


def test_oracle_tie_breaks_to_smallest_cost():
    T = 3
    states = np.zeros((T, 1))
    actions = np.zeros((T, 1))
    spec = gas.EnvSpec("ChainRun", T, 1, 1)
    # a cheap and a pricey trajectory reach the same reward
    data = gas.OfflineDataset.from_arrays(spec, [states, states], [actions, actions],
                                          [[2.0, 0, 0], [2.0, 0, 0]], [[0, 0, 0], [1, 0, 0]])
    ans = brute_force_goal(data, ProbeQuery(np.zeros(1), 0, 5.0, np.array([0.1])))
    assert ans.v_r_star == 2.0 and ans.v_c_star == 0.0


def test_oracle_unconstrained_at_cmax(stitch_dataset):
    tol = default_state_tolerance(stitch_dataset.env_meta)
    q = ProbeQuery(stitch_dataset.states[0, 0].copy(), 0, stitch_dataset.c_max, tol)
    ans = brute_force_goal(stitch_dataset, q)
    # constraint is vacuous: best full-length return from the start state
    rewards, _ = stitch_dataset.total_returns()
    assert ans.feasible and ans.v_r_star == pytest.approx(rewards.max())


def test_oracle_monotone_in_budget(stitch_dataset, rng):
    tol = default_state_tolerance(stitch_dataset.env_meta)
    for _ in range(20):
        tid = int(rng.integers(0, stitch_dataset.n))
        t = int(rng.integers(0, 16))
        state = stitch_dataset.states[tid, t].copy()
        prev = -np.inf
        for budget in (0.0, 2.0, 5.0, 11.0, 23.0, 32.0):
            ans = brute_force_goal(stitch_dataset, ProbeQuery(state, t, budget, tol))
            if ans.feasible:
                assert ans.v_r_star >= prev - 1e-12
                assert ans.v_c_star <= budget + 1e-12
                prev = ans.v_r_star


def test_oracle_feasible_cost_below_budget(stitch_dataset, rng):
    tol = default_state_tolerance(stitch_dataset.env_meta)
    probes = probe_grid_from_dataset(stitch_dataset, [0, 50, 150], [0, 8, 16],
                                     [3.3, 9.7, 17.2], tol)
    for q in probes:
        ans = brute_force_goal(stitch_dataset, q)
        if ans.feasible:
            assert ans.v_c_star <= q.c_hat


def test_augmentation_dominates_suffixes(stitch_dataset):
    """Max over all segments >= max over trajectory suffixes at every probe,
    strictly greater somewhere on the standard corpus."""
    wide = default_state_tolerance(stitch_dataset.env_meta).copy()
    wide[-1] = 1.0  # match any start time: both enumerations stay non-empty
    strict = 0
    both = 0
    for t_prime in (4, 8, 12, 16, 20):
        for x in (0.45 * t_prime, 0.7 * t_prime, 0.95 * t_prime):
            for budget in (2.7, 6.3, 12.4):
                q = ProbeQuery(np.array([x, t_prime / 32]), t_prime, budget, wide)
                aug = brute_force_goal(stitch_dataset, q)
                suf = brute_force_goal(stitch_dataset, q, suffix_only=True)
                if suf.feasible:
                    assert aug.feasible
                    assert aug.v_r_star >= suf.v_r_star - 1e-12
                    both += 1
                    strict += aug.v_r_star > suf.v_r_star + 1e-9
    assert both >= 10
    assert strict >= 1


# -- batched probes ---------------------------------------------------------------

def _reference_brute_force_goal(dataset, query, suffix_only=False):
    """The one-probe-at-a-time oracle that batching replaced, kept as the
    reference the batched answers must equal exactly."""
    T = dataset.horizon
    length = T - query.t_prime
    starts = np.arange(query.t_prime + 1) if not suffix_only else np.array([query.t_prime])
    cand_states = dataset.states[:, starts, :]
    inside = np.all(np.abs(cand_states - query.state) <= query.state_tolerance, axis=2)
    traj_idx, start_idx = np.nonzero(inside)
    t = starts[start_idx]
    gamma = t + length - 1
    r_seg = dataset.reward_prefix[traj_idx, gamma + 1] - dataset.reward_prefix[traj_idx, t]
    c_seg = dataset.cost_prefix[traj_idx, gamma + 1] - dataset.cost_prefix[traj_idx, t]
    support = int(traj_idx.size)
    ok = c_seg <= query.c_hat
    if not np.any(ok):
        return OracleAnswer(None, None, support, False)
    r_ok, c_ok = r_seg[ok], c_seg[ok]
    best_r = r_ok.max()
    at_best = np.isclose(r_ok, best_r, rtol=0.0, atol=1e-12)
    best_c = c_ok[at_best].min()
    return OracleAnswer(float(best_r), float(best_c), support, True)


def _tie_dataset():
    """Two trajectories through the same states with equal rewards and
    different costs: the maximal reward is tied and the cheaper one wins."""
    T = 4
    states = np.arange(T, dtype=float).reshape(T, 1)
    actions = np.zeros((T, 1))
    spec = gas.EnvSpec("ChainRun", T, 1, 1)
    return gas.OfflineDataset.from_arrays(spec, [states, states], [actions, actions],
                                          [[1.0, 0.5, 1.0, 0.5]] * 2,
                                          [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 0.0]])


def _near_tie_dataset():
    """Three trajectories through the same states: the second's return lies
    4e-13 below the first's at a lower cost, the third's 3e-12 below."""
    T = 4
    states = np.arange(T, dtype=float).reshape(T, 1)
    actions = np.zeros((T, 1))
    spec = gas.EnvSpec("ChainRun", T, 1, 1)
    return gas.OfflineDataset.from_arrays(spec, [states] * 3, [actions] * 3,
                                          [[1.0, 0.5, 1.0, 0.5], [1.0, 0.5, 1.0, 0.5 - 4e-13],
                                           [1.0, 0.5, 1.0 - 3e-12, 0.5]],
                                          [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.5, 0.0],
                                           [0.0, 0.0, 0.0, 0.0]])


def _probe_set(data, rng):
    """Probes at dataset states for t' = 0, T-1 and between, at budgets from
    below every segment cost to C_max, at nan (which admits no segment) and
    at exactly the cost of a segment each probe matches, plus one unmatched
    state; repeated in part and shuffled."""
    T = data.horizon
    tol = default_state_tolerance(data.env_meta)
    if tol.size != data.states.shape[-1]:  # the hand-built corpora have a 1-wide state
        tol = np.array([0.1])
    times = sorted({0, T // 3, T // 2, T - 1})
    traj_ids = sorted({0, data.n // 2, data.n - 1})
    budgets = [-1.0, 0.0, 0.3 * data.c_max, 0.7 * data.c_max, data.c_max, np.nan]
    probes = probe_grid_from_dataset(data, traj_ids, times, budgets, tol)
    # a budget equal to the cost of the probe's own segment [t, T-1] and of
    # another trajectory's segment: the boundary of the segments within it
    for i in traj_ids:
        for t in times:
            for j in (i, (i + 1) % data.n):
                _, cost = data.segment_returns(j, t, T - 1)
                probes.append(ProbeQuery(data.states[i, t], t, float(cost), tol))
    # the same states asked at another t'
    probes += [ProbeQuery(p.state, (p.t_prime + T // 2) % T, p.c_hat, tol) for p in probes[::4]]
    far = data.states[0, 0] + 100.0
    probes += [ProbeQuery(far, 0, data.c_max, tol), ProbeQuery(far, T - 1, 1.0, tol)]
    probes += probes[::3]
    return [probes[i] for i in rng.permutation(len(probes))]


def _widen(probes):
    wide = probes[0].state_tolerance.copy()
    wide[-1] = 1.0
    return [ProbeQuery(p.state, p.t_prime, p.c_hat, wide) for p in probes]


def test_batched_answers_equal_single_probe_reference(stitch_dataset, rng, tmp_path):
    grid_env = gas.make_env(gas.gridcircle_spec(16))
    corpora = {"stitch": stitch_dataset,
               "gridcircle": gas.generate_offline_dataset(
                   grid_env, gas.mix_by_name("default", gas.GRID_CIRCLE), 30, seed=4),
               "tie": _tie_dataset(), "near tie": _near_tie_dataset()}
    seen = {"unmatched": 0, "over budget": 0, "feasible": 0, "budget at a segment cost": 0}
    for name, data in corpora.items():
        narrow = _probe_set(data, rng)
        wide = _widen(narrow)
        # narrow and wide probes of one (state, t') form a group per box
        mixed = [(narrow + wide)[i] for i in rng.permutation(2 * len(narrow))]
        for probes in (narrow, wide, mixed):
            for suffix_only in (False, True):
                answers = brute_force_goals(data, probes, suffix_only=suffix_only)
                assert len(answers) == len(probes)
                for probe, answer in zip(probes, answers):
                    assert answer == _reference_brute_force_goal(data, probe, suffix_only), name
                    assert brute_force_goal(data, probe, suffix_only) == answer
                    seen["feasible" if answer.feasible else
                         "over budget" if answer.support_count else "unmatched"] += 1
                    seen["budget at a segment cost"] += answer.v_c_star == probe.c_hat
    assert min(seen.values()) > 0, seen
    # the near tie at the start state: returns 3.0 at cost 2, 3.0 - 4e-13 at cost
    # 0.5 and 3.0 - 3e-12 at cost 0; only the second is within 1e-12 of the first
    near = corpora["near tie"]
    r, c = near.total_returns()
    assert r[0] == 3.0 and 0 < r[0] - r[1] <= 1e-12 < r[0] - r[2]
    assert [brute_force_goal(near, ProbeQuery(np.zeros(1), 0, c_hat, np.array([0.1])))
            for c_hat in (10.0, 0.5, 0.4999)] == [OracleAnswer(r[0], c[1], 3, True),
                                                  OracleAnswer(r[1], c[1], 3, True),
                                                  OracleAnswer(r[2], c[2], 3, True)]
    # the tie at the start state: both trajectories earn 3.0, the cheaper costs 0.5
    tie = brute_force_goals(corpora["tie"], [ProbeQuery(np.zeros(1), 0, 10.0, np.array([0.1]))])
    assert tie == [OracleAnswer(3.0, 0.5, 2, True)]
    # an infinite or nan return has no best segment: such a corpus is never
    # built, nor one whose sums overflow to inf
    T = 4
    states, actions = np.arange(T, dtype=float).reshape(T, 1), np.zeros((T, 1))
    spec = gas.EnvSpec("ChainRun", T, 1, 1)
    for key in ("rewards", "costs"):
        for bad in ([np.inf], [np.nan], [1e308, 1e308]):
            returns = {"rewards": [[0.5] * T, [1.0] * T], "costs": [[1.0] * T, [0.0] * T]}
            returns[key][0][1:1 + len(bad)] = bad
            with pytest.raises(ConfigError, match=f"^{key}"), np.errstate(over="ignore"):
                gas.OfflineDataset.from_arrays(spec, [states] * 2, [actions] * 2,
                                               returns["rewards"], returns["costs"])
    # nor loaded: a saved corpus whose first reward is overwritten with inf
    path = tmp_path / "endless.gasdset"
    gas.save_dataset(stitch_dataset, path)
    raw = bytearray(path.read_bytes())
    meta = stitch_dataset.env_meta
    record = _record_dtype(meta.episode_length, meta.state_dim, meta.action_dim)
    first_reward = len(raw) - stitch_dataset.n * record.itemsize + record.fields["rewards"][1]
    assert raw[first_reward:first_reward + 8] == np.float64(stitch_dataset.rewards[0, 0]).tobytes()
    raw[first_reward:first_reward + 8] = np.float64(np.inf).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SchemaError, match="rewards must be finite"):
        gas.load_dataset(path)


def test_brute_force_goals_of_no_probes_is_empty(stitch_dataset):
    assert brute_force_goals(stitch_dataset, []) == []


@pytest.mark.parametrize("t_prime", [-1, 32, 3.5])
def test_brute_force_goals_rejects_t_prime_out_of_range(stitch_dataset, t_prime):
    tol = default_state_tolerance(stitch_dataset.env_meta)
    good = ProbeQuery(stitch_dataset.states[0, 0].copy(), 0, 5.0, tol)
    bad = ProbeQuery(stitch_dataset.states[0, 0].copy(), t_prime, 5.0, tol)
    with pytest.raises(ContractError, match="t_prime"):
        brute_force_goals(stitch_dataset, [good, bad])


@pytest.mark.parametrize("field", ["state", "state_tolerance"])
def test_brute_force_goals_rejects_a_probe_of_another_width(stitch_dataset, field):
    tol = default_state_tolerance(stitch_dataset.env_meta)
    probe = {"state": stitch_dataset.states[0, 0].copy(), "t_prime": 0, "c_hat": 5.0,
             "state_tolerance": tol}
    probe[field] = np.append(probe[field], 0.5)  # 3 wide against the corpus's 2
    with pytest.raises(ContractError, match="width"):
        brute_force_goals(stitch_dataset, [ProbeQuery(**probe)])
    with pytest.raises(ContractError, match="width"):
        brute_force_goal(stitch_dataset, ProbeQuery(**probe))


def test_chainrun_optimum_examples():
    assert chainrun_optimum(32, 0) == 16.0
    assert chainrun_optimum(32, 32) == 32.0
    assert chainrun_optimum(32, 7.9) == 16.0 + 0.5 * 7


def test_chainrun_optimum_matches_exhaustive():
    for budget in (0, 1, 2, 3.5, 6, 11.2, 12):
        assert chainrun_optimum(12, budget) == chainrun_optimum_exhaustive(12, budget)

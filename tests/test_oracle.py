import numpy as np
import pytest

import gas
from gas.oracle import (ProbeQuery, brute_force_goal, chainrun_optimum,
                        chainrun_optimum_exhaustive, default_state_tolerance,
                        probe_grid_from_dataset)


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


def test_chainrun_optimum_examples():
    assert chainrun_optimum(32, 0) == 16.0
    assert chainrun_optimum(32, 32) == 32.0
    assert chainrun_optimum(32, 7.9) == 16.0 + 0.5 * 7


def test_chainrun_optimum_matches_exhaustive():
    for budget in (0, 1, 2, 3.5, 6, 11.2, 12):
        assert chainrun_optimum(12, budget) == chainrun_optimum_exhaustive(12, budget)

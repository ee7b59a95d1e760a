"""Brute-force ground truth for the goal functions.

Enumerates every augmented segment in the dataset (every trajectory, every
start t, segment end pinned by the queried pseudo-time t') whose start
state matches the probe within per-dimension tolerance boxes, then
maximizes the segment reward among segments whose cost fits the budget.
Ties at the maximal reward resolve to the smallest cost.

Also houses the analytic ChainRun planner used as the acceptance yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import OfflineDataset
from .envs import CHAIN_RUN, GRID_CIRCLE, EnvSpec
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class ProbeQuery:
    state: np.ndarray
    t_prime: int
    c_hat: float
    state_tolerance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=np.float64))
        object.__setattr__(self, "state_tolerance",
                           np.asarray(self.state_tolerance, dtype=np.float64))
        if np.any(self.state_tolerance <= 0):
            raise ContractError("state tolerances must be positive")


@dataclass(frozen=True)
class OracleAnswer:
    v_r_star: "float | None"
    v_c_star: "float | None"
    support_count: int
    feasible: bool


def default_state_tolerance(spec: EnvSpec) -> np.ndarray:
    """Matching half-widths: 0.25 on positions, half a step on the clock."""
    tau_tol = 1.0 / (2.0 * spec.episode_length)
    if spec.name == CHAIN_RUN:
        return np.array([0.25, tau_tol])
    if spec.name == GRID_CIRCLE:
        return np.array([0.25, 0.25, tau_tol])
    return np.full(spec.state_dim, 0.25)


def brute_force_goal(dataset: OfflineDataset, query: ProbeQuery,
                     suffix_only: bool = False) -> OracleAnswer:
    """Enumerate matching segments and maximize reward under the budget.

    With ``suffix_only`` the enumeration is restricted to segments that run
    to the trajectory end (gamma = T-1), i.e. the un-augmented dataset.
    """
    if dataset.n == 0:
        raise ConfigError("oracle needs a non-empty dataset")
    T = dataset.horizon
    if not 0 <= query.t_prime <= T - 1:
        raise ContractError(f"t_prime must be in [0, {T - 1}], got {query.t_prime}")
    length = T - query.t_prime
    starts = np.arange(query.t_prime + 1) if not suffix_only else np.array([query.t_prime])
    # state match over all (trajectory, start) pairs at once
    cand_states = dataset.states[:, starts, :]               # (N, S, d)
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


def chainrun_optimum(T: int, budget: float) -> float:
    """Max ChainRun reward under total cost <= budget: 0.5*T + 0.5*floor(budget)."""
    if not 0 <= budget <= T:
        raise ContractError(f"budget must be in [0, {T}], got {budget}")
    return 0.5 * T + 0.5 * np.floor(budget)


def chainrun_optimum_exhaustive(T: int, budget: float) -> float:
    """Independent check: enumerate all 2^T fast/slow assignments (T <= 20)."""
    if T > 20:
        raise ContractError("exhaustive search is limited to T <= 20")
    best = -np.inf
    for mask in range(1 << T):
        fast = bin(mask).count("1")
        if fast <= budget:
            best = max(best, fast * 1.0 + (T - fast) * 0.5)
    return best


def probe_grid_from_dataset(dataset: OfflineDataset, traj_ids, times, budgets,
                            tolerance: "np.ndarray | None" = None) -> list:
    """Probes at dataset states: every (trajectory, t) x budget, t' = t."""
    if tolerance is None:
        tolerance = default_state_tolerance(dataset.env_meta)
    probes = []
    for i in traj_ids:
        for t in times:
            for c_hat in budgets:
                probes.append(ProbeQuery(dataset.states[i, t].copy(), int(t),
                                         float(c_hat), tolerance))
    return probes

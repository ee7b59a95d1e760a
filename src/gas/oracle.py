"""Brute-force ground truth for the goal functions.

Enumerates every augmented segment in the dataset (every trajectory, every
start t, segment end pinned by the queried pseudo-time t') whose start
state matches the probe within per-dimension tolerance boxes, then
maximizes the segment reward among segments whose cost fits the budget.
Ties at the maximal reward resolve to the smallest cost. A list of probes
is answered in one pass (``brute_force_goals``); ``brute_force_goal`` is its
one-probe case.

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


def brute_force_goals(dataset: OfflineDataset, probes, suffix_only: bool = False) -> list:
    """Answer every probe in one pass; one ``OracleAnswer`` per probe, in order.

    Probes that share (state, t', tolerance) share one state match and one
    segment-return gather; each probe's budget is then one compare over that
    group's candidate segments. With ``suffix_only`` the enumeration is
    restricted to segments that run to the trajectory end (gamma = T-1),
    i.e. the un-augmented dataset.
    """
    if dataset.n == 0:
        raise ConfigError("oracle needs a non-empty dataset")
    T = dataset.horizon
    width = dataset.states.shape[-1]
    groups = {}
    for i, probe in enumerate(probes):
        if not (isinstance(probe.t_prime, (int, np.integer)) and 0 <= probe.t_prime <= T - 1):
            raise ContractError(f"t_prime must be an integer in [0, {T - 1}], "
                                f"got {probe.t_prime!r}")
        if probe.state.shape != (width,) or probe.state_tolerance.shape != (width,):
            raise ContractError(
                f"probe state {probe.state.shape} and tolerance "
                f"{probe.state_tolerance.shape} must both be ({width},), the corpus state width")
        key = (probe.state.tobytes(), probe.t_prime, probe.state_tolerance.tobytes())
        groups.setdefault(key, []).append(i)
    answers = [None] * len(probes)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite return: _best_within_budget
        for members in groups.values():
            r_seg, c_seg = _matching_segments(dataset, probes[members[0]], suffix_only)
            for i in members:
                answers[i] = _best_within_budget(r_seg, c_seg, probes[i].c_hat)
    return answers


def _matching_segments(dataset: OfflineDataset, probe: ProbeQuery, suffix_only: bool):
    """(reward, cost) returns of every segment whose start state matches the
    probe's and whose end is pinned by its t'."""
    T = dataset.horizon
    earliest = probe.t_prime if suffix_only else 0
    # state match over all (trajectory, start) pairs at once, one state
    # dimension at a time: numpy is slow over a length-d inner axis
    window = dataset.states[:, earliest:probe.t_prime + 1]       # (N, S, d) view
    inside = np.ones(window.shape[:2], dtype=bool)
    for k in range(window.shape[-1]):
        inside &= np.abs(window[:, :, k] - probe.state[k]) <= probe.state_tolerance[k]
    traj_idx, t = np.nonzero(inside)
    t += earliest
    return dataset.segment_returns(traj_idx, t, t + (T - 1 - probe.t_prime))


def _best_within_budget(r_seg, c_seg, c_hat) -> OracleAnswer:
    """The largest reward among segments costing at most ``c_hat``, at the
    smallest cost among those within 1e-12 of it."""
    ok = c_seg <= c_hat
    r_ok = r_seg[ok]
    if r_ok.size == 0:
        return OracleAnswer(None, None, r_seg.size, False)
    best_r = r_ok.max()
    # np.isclose(r_ok, best_r, rtol=0, atol=1e-12) without its per-call overhead;
    # the == term holds at an infinite maximum, where the difference is nan
    at_best = (np.abs(r_ok - best_r) <= 1e-12) | (r_ok == best_r)
    return OracleAnswer(float(best_r), float(c_seg[ok][at_best].min()), r_seg.size, True)


def brute_force_goal(dataset: OfflineDataset, query: ProbeQuery,
                     suffix_only: bool = False) -> OracleAnswer:
    """``brute_force_goals`` for one probe."""
    return brute_force_goals(dataset, [query], suffix_only)[0]


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

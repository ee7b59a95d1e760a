"""Brute-force ground truth for the goal functions.

Enumerates every augmented segment in the dataset (every trajectory, every
start t, segment end pinned by the queried pseudo-time t') whose start
state matches the probe within per-dimension tolerance boxes, then
maximizes the segment reward among segments whose cost fits the budget.
Ties at the maximal reward resolve to the smallest cost. A list of probes
is answered in one pass (``brute_force_goals``): one match per group of
probes sharing (state, t', tolerance), one gather of segment returns for
all groups, and one sort by cost per group. ``brute_force_goal`` is its
one-probe case. Corpus returns are finite (``OfflineDataset.from_arrays``
rejects others), so the reward maximum and its ties are plain comparisons.

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

    With ``suffix_only`` the enumeration is restricted to segments that run
    to the trajectory end (gamma = T-1), i.e. the un-augmented dataset.
    Probes that share (state, t', tolerance) form a group: each group is
    matched against the corpus once, and one gather reads every group's
    segment returns.
    """
    if dataset.n == 0:
        raise ConfigError("oracle needs a non-empty dataset")
    T, width = dataset.states.shape[1:]
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
    if not groups:
        return answers
    heads = [probes[members[0]] for members in groups.values()]
    starts = [_matching_starts(dataset, head, suffix_only) for head in heads]
    traj, t = (np.concatenate(column) for column in zip(*starts))
    sizes = [tr.size for tr, _ in starts]
    t_prime = np.repeat([head.t_prime for head in heads], sizes)
    r_all, c_all = dataset.segment_returns(traj, t, t + (T - 1 - t_prime))
    bounds = np.cumsum([0] + sizes).tolist()
    for members, lo, hi in zip(groups.values(), bounds, bounds[1:]):
        order = lo + np.argsort(c_all[lo:hi], kind="stable")
        found = _best_within_budgets(r_all[order], c_all[order],
                                     [probes[i].c_hat for i in members])
        for i, answer in zip(members, found):
            answers[i] = answer
    return answers


def _matching_starts(dataset: OfflineDataset, probe: ProbeQuery, suffix_only: bool):
    """(trajectory, start) of every segment whose start state lies within the
    probe's tolerance box and whose end is pinned by its t'. The box is tested
    one state dimension at a time: numpy is slow over a length-d inner axis."""
    state, box = probe.state, probe.state_tolerance
    earliest = probe.t_prime if suffix_only else 0
    starts = dataset.states[:, earliest:probe.t_prime + 1]
    inside = np.abs(starts[..., 0] - state[0]) <= box[0]
    for k in range(1, starts.shape[-1]):
        inside &= np.abs(starts[..., k] - state[k]) <= box[k]
    traj, t = np.nonzero(inside)
    return traj, t + earliest


def _best_within_budgets(r_seg, c_seg, budgets) -> list:
    """One ``OracleAnswer`` per budget: the largest reward among the segments
    costing at most the budget, at the smallest cost among those within
    1e-12 of it. ``r_seg``/``c_seg`` are sorted by cost, so the segments
    within a budget are a prefix of them and the cheapest near-maximal one
    is the first such in it."""
    budgets = np.asarray(budgets, dtype=np.float64)
    within = np.searchsorted(c_seg, budgets, side="right")
    within[np.isnan(budgets)] = 0  # nan sorts last; a nan budget admits no segment
    feasible = within > 0
    best_r = best_c = []
    if feasible.any():
        best_r = np.maximum.accumulate(r_seg)[within[feasible] - 1]
        # np.isclose(r, best_r, rtol=0, atol=1e-12) without its per-call overhead;
        # the maximum lies in the prefix, so the first match does too
        at_best = np.abs(r_seg - best_r[:, None]) <= 1e-12
        best_c = c_seg[at_best.argmax(axis=1)].tolist()
        best_r = best_r.tolist()
    best = iter(zip(best_r, best_c))  # one (reward, cost) per feasible budget, in order
    return [OracleAnswer(*next(best), r_seg.size, True) if ok
            else OracleAnswer(None, None, r_seg.size, False) for ok in feasible.tolist()]


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

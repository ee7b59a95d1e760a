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

    With ``suffix_only`` the enumeration is restricted to segments that run
    to the trajectory end (gamma = T-1), i.e. the un-augmented dataset.
    """
    return _brute_force_views(dataset, probes, [(None, suffix_only)])[0]


def _brute_force_views(dataset: OfflineDataset, probes, views) -> list:
    """Answer every probe under each view; one answer list per view.

    A view is (tolerance, suffix_only); a ``None`` tolerance is each probe's
    own. Probes that share (state, t') form a group. A group is matched
    against the corpus once, in the smallest box that holds every box its
    views ask in and over the widest window they need, and its segment
    returns are gathered once. Each box then keeps its own candidates (those
    inside it, and starting at t' when ``suffix_only``), so every answer
    and support count is that of a gather in the probe's own box.
    """
    if dataset.n == 0:
        raise ConfigError("oracle needs a non-empty dataset")
    states = dataset.states
    T, width = states.shape[1:]
    groups = {}
    for i, probe in enumerate(probes):
        if not (isinstance(probe.t_prime, (int, np.integer)) and 0 <= probe.t_prime <= T - 1):
            raise ContractError(f"t_prime must be an integer in [0, {T - 1}], "
                                f"got {probe.t_prime!r}")
        if probe.state.shape != (width,) or probe.state_tolerance.shape != (width,):
            raise ContractError(
                f"probe state {probe.state.shape} and tolerance "
                f"{probe.state_tolerance.shape} must both be ({width},), the corpus state width")
        groups.setdefault((probe.state.tobytes(), probe.t_prime), []).append(i)
    answers = [[None] * len(probes) for _ in views]
    if not groups:
        return answers
    # per group: (box bytes, suffix_only) -> (box, the (view, probe) pairs asked in it)
    asks = []
    for members in groups.values():
        boxes = {}
        for v, (tolerance, suffix_only) in enumerate(views):
            for i in members:
                box = probes[i].state_tolerance if tolerance is None else tolerance
                boxes.setdefault((box.tobytes(), suffix_only), (box, []))[1].append((v, i))
        asks.append(boxes)
    centers = [probes[members[0]] for members in groups.values()]
    unions = [np.max([box for box, _ in boxes.values()], axis=0) for boxes in asks]
    suffix_groups = [all(suffix for _, suffix in boxes) for boxes in asks]
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite return
        # one match per group; one segment-return gather for all of them
        starts = [_matching_starts(dataset, center.state, center.t_prime, union, suffix)
                  for center, union, suffix in zip(centers, unions, suffix_groups)]
        traj, t = (np.concatenate(column) for column in zip(*starts))
        sizes = [tr.size for tr, _ in starts]
        t_prime = np.repeat([center.t_prime for center in centers], sizes)
        r_all, c_all = dataset.segment_returns(traj, t, t + (T - 1 - t_prime))
        bounds = np.cumsum([0] + sizes).tolist()
        for g, (center, union, boxes) in enumerate(zip(centers, unions, asks)):
            # the group's candidates, sorted by cost, and which of them each box holds
            order = bounds[g] + np.argsort(c_all[bounds[g]:bounds[g + 1]], kind="stable")
            g_traj, g_t = traj[order], t[order]
            held = np.ones((len(boxes), order.size), dtype=bool)
            for row, ((key, suffix), (box, _)) in enumerate(boxes.items()):
                if key != union.tobytes():
                    held[row] = _inside(states[g_traj, g_t], center.state, box)
                if suffix and not suffix_groups[g]:
                    held[row] &= g_t == center.t_prime
            asked = [(row, v, i) for row, (_, pairs) in enumerate(boxes.values())
                     for v, i in pairs]
            found = _best_within_budgets(r_all[order], c_all[order], held,
                                         [row for row, _, _ in asked],
                                         [probes[i].c_hat for _, _, i in asked])
            for (_, v, i), answer in zip(asked, found):
                answers[v][i] = answer
    return answers


def _inside(states: np.ndarray, center: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Which of ``states`` (..., d) lie within ``box`` of ``center``, one state
    dimension at a time: numpy is slow over a length-d inner axis."""
    inside = np.abs(states[..., 0] - center[0]) <= box[0]
    for k in range(1, states.shape[-1]):
        inside &= np.abs(states[..., k] - center[k]) <= box[k]
    return inside


def _matching_starts(dataset: OfflineDataset, state, t_prime: int, box, suffix_only: bool):
    """(trajectory, start) of every segment whose start state lies within
    ``box`` of ``state`` and whose end is pinned by t'."""
    earliest = t_prime if suffix_only else 0
    traj, t = np.nonzero(_inside(dataset.states[:, earliest:t_prime + 1], state, box))
    t += earliest
    return traj, t


def _best_within_budgets(r_seg, c_seg, held, rows, budgets) -> list:
    """One ``OracleAnswer`` per (row, budget): the largest reward among the
    segments of ``held[row]`` costing at most the budget, at the smallest
    cost among those within 1e-12 of it. ``r_seg``/``c_seg`` are sorted by
    cost, so the segments within a budget are a prefix of them and the
    cheapest near-maximal one is the first such in it."""
    rows = np.asarray(rows)
    budgets = np.asarray(budgets, dtype=np.float64)
    within = np.searchsorted(c_seg, budgets, side="right")
    within[np.isnan(budgets)] = 0  # nan sorts last; a nan budget admits no segment
    count = np.zeros((held.shape[0], held.shape[1] + 1), dtype=np.int64)
    np.cumsum(held, axis=1, out=count[:, 1:])  # count[row, k]: held among the first k
    support = count[rows, -1].tolist()
    feasible = count[rows, within] > 0
    best_r = best_c = []
    if feasible.any():
        rows, within = rows[feasible], within[feasible]
        best_r = np.maximum.accumulate(np.where(held, r_seg, -np.inf), axis=1)[rows, within - 1]
        # np.isclose(r, best_r, rtol=0, atol=1e-12) without its per-call overhead;
        # the == term holds at an infinite maximum, where the difference is nan.
        # The maximum lies in the prefix, so the first held match does too.
        best_r = best_r[:, None]
        at_best = held[rows] & ((np.abs(r_seg - best_r) <= 1e-12) | (r_seg == best_r))
        best_c = c_seg[at_best.argmax(axis=1)].tolist()
        best_r = best_r[:, 0].tolist()
    best = iter(zip(best_r, best_c))  # one (reward, cost) per feasible budget, in order
    return [OracleAnswer(*next(best), n, True) if ok else OracleAnswer(None, None, n, False)
            for n, ok in zip(support, feasible.tolist())]


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

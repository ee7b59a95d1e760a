"""Evaluation protocols: normalized metrics, sweeps, and ablations.

Metrics: reward_norm = R_pi / R_max (dataset maximum reward return) and
cost_norm = C_pi / L where L = threshold_fraction * C_max; at L = 0 (a
corpus without cost) cost_norm is 0 for C_pi = 0 and inf otherwise. A run
is "safe" at a threshold when cost_norm <= 1.1 (finite-sample tolerance
above the nominal 1.0 boundary).

All sweeps are zero-shot: one fixed checkpoint evaluated under different
(reward target, cost budget) pairs, no retraining.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import AugmentConfig, OfflineDataset
from .errors import ConfigError, ContractError
from .goals import GoalNets
from .policy import PolicyNet, TargetTracker, act, update_tracker

SAFETY_TOLERANCE = 1.1
MONOTONE_TOLERANCE = 0.02

EVAL_COLUMNS = ("threshold_frac", "threshold_cost",
                "reward_return", "cost_return", "reward_norm", "cost_norm")
_METRIC_COLUMNS = EVAL_COLUMNS[2:]


@dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    target_reward_fraction: float = 1.05

    def __post_init__(self):
        if not self.thresholds:
            raise ConfigError("thresholds must name at least one fraction")
        if not all(0.0 < f <= 1.0 for f in self.thresholds):
            raise ConfigError("thresholds must be fractions in (0, 1]")


def reward_target_table(dataset, thresholds=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                             0.7, 0.8, 0.9)) -> dict:
    """Per-threshold reward targets: the best budget-feasible return from
    the initial state, read off the dataset by the brute-force oracle.

    Deployment pairs each cost budget with an ambitious-but-plausible
    reward target (the benchmark convention); a reward target far above
    what any budget-compatible data achieves leaves the conditioned nets
    extrapolating. The table is computed once at training time and shipped
    with the checkpoint, so threshold sweeps stay zero-shot.
    """
    from .envs import make_env
    from .oracle import ProbeQuery, brute_force_goal, default_state_tolerance

    env = make_env(dataset.env_meta)
    start = env.reset()
    tol = default_state_tolerance(dataset.env_meta)
    table = {}
    rewards, _ = dataset.total_returns()
    fallback = float(rewards.max())
    for frac in thresholds:
        ans = brute_force_goal(dataset, ProbeQuery(start, 0, frac * dataset.c_max, tol))
        table[_frac_key(frac)] = ans.v_r_star if ans.feasible else fallback
    return table


def _frac_key(frac: float) -> str:
    return repr(round(float(frac), 6))


def resolve_reward_target(frac: float, r_max: float, fraction: float,
                          table: "dict | None") -> float:
    if table and _frac_key(frac) in table:
        return fraction * table[_frac_key(frac)]
    return fraction * r_max


@dataclass
class EvalReport:
    rows: list                     # dict per threshold
    summary: list                  # dict per threshold, metric columns as "<col>_mean"
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"rows": self.rows, "summary": self.summary, "metadata": self.metadata}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(EVAL_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(row[c]) for c in EVAL_COLUMNS))
        return "\n".join(lines) + "\n"


def _cost_norm(cost: float, budget: float) -> float:
    """C / L; with L = 0, 0 when nothing was spent and inf otherwise."""
    return cost / budget if budget > 0 else (float("inf") if cost > 0 else 0.0)


def rollout_policy(env, pol: PolicyNet, nets: GoalNets, r_targets, c_targets,
                   trace: "list | None" = None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic rollouts from the start state, one per (reward target,
    cost budget) pair, stepped together: each step is one batched ``act``
    and one ``step_batch``. Returns the (B,) reward and cost returns.

    ``trace`` receives one dict per (step, row) with the remaining targets
    and the goal values the action was chosen from.
    """
    T = env.spec.episode_length
    tracker = TargetTracker(np.asarray(r_targets, dtype=np.float64),
                            np.asarray(c_targets, dtype=np.float64))
    states = np.tile(env.reset(), (tracker.r_remaining.shape[0], 1))
    total_r, total_c = np.zeros(len(states)), np.zeros(len(states))
    for t in range(T):
        actions = act(pol, nets, states, tracker, T)
        next_states, r, c, _ = env.step_batch(states, actions, t)
        if trace is not None:
            v_r, v_c = nets.values(states, tracker.r_remaining, tracker.c_remaining,
                                   np.full(len(states), float(t)))
            for i in range(len(states)):
                trace.append({"t": t, "row": i, "state": states[i].tolist(),
                              "action": actions[i].tolist(),
                              "reward": float(r[i]), "cost": float(c[i]),
                              "r_remaining": float(tracker.r_remaining[i]),
                              "c_remaining": float(tracker.c_remaining[i]),
                              "v_r": float(v_r[i]), "v_c": float(v_c[i])})
        tracker = update_tracker(tracker, r, c)
        total_r += r
        total_c += c
        states = next_states
    return total_r, total_c


def run_episode(env, pol: PolicyNet, nets: GoalNets, r_target: float,
                c_target: float, trace: "list | None" = None) -> tuple[float, float]:
    """One deterministic rollout with target bookkeeping; returns (R, C)."""
    rewards, costs = rollout_policy(env, pol, nets, [r_target], [c_target], trace)
    return float(rewards[0]), float(costs[0])


def evaluate(pol: PolicyNet, nets: GoalNets, env, cfg: EvalConfig, r_max: float,
             c_max: float, metadata: "dict | None" = None,
             target_table: "dict | None" = None) -> EvalReport:
    """One rollout per distinct threshold, all run as one batch.

    Env and policy are deterministic, so a point's rollout is its result:
    rows and summary hold one entry per threshold, in ascending order.
    Reward targets come from ``target_table`` (per-threshold plausible
    targets, the deployment convention) scaled by ``target_reward_fraction``;
    without a table they fall back to a flat fraction of r_max.
    """
    if env.spec.state_dim != pol.norm.state_mean.shape[0]:
        raise ContractError(
            f"env state_dim {env.spec.state_dim} != checkpoint "
            f"state_dim {pol.norm.state_mean.shape[0]}")
    fracs = sorted({float(f) for f in cfg.thresholds})
    r_targets = [resolve_reward_target(frac, r_max, cfg.target_reward_fraction, target_table)
                 for frac in fracs]
    c_targets = [frac * c_max for frac in fracs]
    rewards, costs = rollout_policy(env, pol, nets, r_targets, c_targets)
    rows = [{"threshold_frac": frac, "threshold_cost": float(c_target),
             "reward_return": float(reward), "cost_return": float(cost),
             "reward_norm": float(reward / r_max),
             "cost_norm": _cost_norm(float(cost), c_target)}
            for frac, c_target, reward, cost in zip(fracs, c_targets, rewards, costs)]
    summary = [{"threshold_frac": row["threshold_frac"],
                **{f"{col}_mean": row[col] for col in _METRIC_COLUMNS}} for row in rows]
    meta = {"r_max": r_max, "c_max": c_max,
            "target_reward_fraction": cfg.target_reward_fraction,
            "reward_targets": {repr(frac): rt for frac, rt in zip(fracs, r_targets)}}
    if metadata:
        meta.update(metadata)
    return EvalReport(rows, summary, meta)


def sweep_gates(report: EvalReport) -> dict:
    """Safety and monotonicity checks over a threshold sweep summary."""
    summary = sorted(report.summary, key=lambda s: s["threshold_frac"])
    costs_ok = all(s["cost_norm_mean"] <= SAFETY_TOLERANCE for s in summary)
    rewards = [s["reward_norm_mean"] for s in summary]
    monotone_ok = all(b >= a - MONOTONE_TOLERANCE for a, b in zip(rewards, rewards[1:]))
    return {"cost_within_tolerance": costs_ok,
            "reward_non_decreasing": monotone_ok,
            "passed": costs_ok and monotone_ok}


def robustness_sweep(pol: PolicyNet, nets: GoalNets, env, threshold_frac: float,
                     reward_targets, r_max: float, c_max: float,
                     alternates: "dict | None" = None) -> list:
    """Fixed cost budget, varying reward targets, optional comparison models.

    Returns one row per (model, reward target); each model's targets run
    as one batched rollout. ``alternates`` maps a label to another
    (policy, goal nets) pair, e.g. a no-relabel checkpoint.
    """
    models = {"default": (pol, nets)}
    if alternates:
        models.update(alternates)
    c_target = threshold_frac * c_max
    targets = [float(target) for target in reward_targets]
    rows = []
    for label in sorted(models):
        m_pol, m_nets = models[label]
        rewards, costs = rollout_policy(env, m_pol, m_nets, targets,
                                        [c_target] * len(targets))
        for target, reward, cost in zip(targets, rewards.tolist(), costs.tolist()):
            rows.append({
                "model": label,
                "reward_target": target,
                "threshold_cost": float(c_target),
                "reward_return": reward,
                "cost_return": cost,
                "reward_norm": reward / r_max,
                "cost_norm": _cost_norm(cost, c_target),
            })
    return rows


ABLATION_KINDS = ("alpha_sweep", "no_tsra", "no_relabel", "no_reshape")
ALPHA_SWEEP_VALUES = (0.5, 0.6, 0.8, 0.9, 0.99)


def ablation_variants(kind: str, cfg: AugmentConfig, alpha: float) -> dict:
    """Per-variant (AugmentConfig, alpha) pairs for one ablation study."""
    if kind == "alpha_sweep":
        return {f"alpha_{a}": (cfg, a) for a in ALPHA_SWEEP_VALUES}
    if kind == "no_tsra":
        return {"no_tsra": (dataclasses.replace(cfg, tsra=False), alpha)}
    if kind == "no_relabel":
        return {"no_relabel": (dataclasses.replace(cfg, delta=0.0, relabel_cost=False), alpha)}
    if kind == "no_reshape":
        return {"no_reshape": (dataclasses.replace(cfg, epsilon=0.0), alpha)}
    raise ConfigError(f"unknown ablation kind {kind!r} (known: {', '.join(ABLATION_KINDS)})")


def run_ablation(kind: str, dataset: OfflineDataset, cfg: AugmentConfig, hyper,
                 alpha: float, iterations: int, root_seed: int, env,
                 eval_cfg: EvalConfig, schedule: str = "interleaved") -> dict:
    """Train each variant plus the default identically and evaluate both.

    Every variant reuses the same named seed streams, so runs differ only
    in the component under study.
    """
    from .config import seed_streams
    from .training import train_gas

    variants = dict(ablation_variants(kind, cfg, alpha))
    variants["default"] = (cfg, alpha)
    table = reward_target_table(dataset, eval_cfg.thresholds)
    out = {}
    for name in sorted(variants):
        v_cfg, v_alpha = variants[name]
        result = train_gas(dataset, v_cfg, hyper, v_alpha, iterations,
                           seed_streams(root_seed), schedule)
        report = evaluate(result.pol, result.nets, env, eval_cfg,
                          dataset.r_max, dataset.c_max,
                          metadata={"variant": name, "alpha": v_alpha,
                                    "delta": v_cfg.delta, "epsilon": v_cfg.epsilon,
                                    "q_percent": v_cfg.q_percent, "tsra": v_cfg.tsra},
                          target_table=table)
        out[name] = {"result": result, "report": report}
    return out

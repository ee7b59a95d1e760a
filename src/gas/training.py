"""End-to-end training: interleaved goal and policy updates.

Each iteration samples one mixed batch, relabels it, computes both
advantages with the pre-update nets, then applies one optimizer step per
net (reward goal, cost goal, policy). A two-phase schedule (goals to
convergence first, then the policy against frozen goals) is available for
ablation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (AugmentConfig, OfflineDataset, ReshapeIndex, TransitionBatch,
                      build_reshape_index, sample_batch)
from .errors import ConfigError, NonFiniteError
from .goals import GoalNets, InputNorm, goal_loss
from .nn import OptimHyper, OptimState
from .policy import PolicyNet, policy_loss

# each phase of a schedule runs `iterations` steps updating (goal nets, policy)
SCHEDULES = {"interleaved": ((True, True),), "two_phase": ((True, False), (False, True))}


@dataclass(frozen=True)
class NetHyper:
    """Architecture and optimizer settings shared by the three nets.

    ``lr_final_fraction`` < 1 decays the learning rate linearly to that
    fraction of its initial value over the run; 1.0 keeps it constant.
    """

    n_layers: int = 7
    hidden: int = 128
    embedding: int = 64
    batch_size: int = 2048
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    grad_clip: float = 0.25
    weight_decay: float = 1e-4
    lr_final_fraction: float = 1.0
    policy_weight_decay: float = -1.0  # < 0: same as weight_decay

    def optim_hyper(self, weight_decay: "float | None" = None) -> OptimHyper:
        wd = self.weight_decay if weight_decay is None else weight_decay
        return OptimHyper(self.learning_rate, self.beta1, self.beta2, 1e-8,
                          wd, self.grad_clip)

    def policy_optim_hyper(self) -> OptimHyper:
        wd = self.policy_weight_decay if self.policy_weight_decay >= 0 else None
        return self.optim_hyper(wd)

    def lr_at(self, iteration: int, total: int) -> float:
        if self.lr_final_fraction >= 1.0 or total <= 1:
            return self.learning_rate
        frac = (iteration - 1) / max(total - 1, 1)
        scale = 1.0 + (self.lr_final_fraction - 1.0) * frac
        return self.learning_rate * scale


@dataclass
class TrainResult:
    nets: GoalNets
    pol: PolicyNet
    history: list = field(default_factory=list)  # (iteration, l_r, l_c, l_pi)
    reshape: "ReshapeIndex | None" = None


def build_models(dataset: OfflineDataset, hyper: NetHyper,
                 streams: dict) -> tuple[GoalNets, PolicyNet]:
    norm = InputNorm.fit(dataset)
    spec = dataset.env_meta
    nets = GoalNets.create(norm, spec.state_dim, hyper.n_layers, hyper.hidden,
                           hyper.embedding, streams["init_reward"], streams["init_cost"])
    pol = PolicyNet.create(norm, spec.state_dim, spec.action_dim, hyper.n_layers,
                           hyper.hidden, hyper.embedding, streams["init_policy"])
    return nets, pol


def _diagnose(iteration: int, batch: TransitionBatch, **losses) -> str:
    stats = {
        "iteration": iteration,
        "losses": {k: repr(v) for k, v in losses.items()},
        "r_seg": [float(batch.r_seg.min()), float(batch.r_seg.max())],
        "c_seg": [float(batch.c_seg.min()), float(batch.c_seg.max())],
        "r_hat": [float(batch.r_hat.min()), float(batch.r_hat.max())],
        "c_hat": [float(batch.c_hat.min()), float(batch.c_hat.max())],
        "state_nan": int(np.isnan(batch.states).sum()),
    }
    return f"non-finite loss; offending batch: {json.dumps(stats, sort_keys=True)}"


def train_gas(dataset: OfflineDataset, cfg: AugmentConfig, hyper: NetHyper,
              alpha: float, iterations: int, streams: dict,
              schedule: str = "interleaved", log_every: int = 100) -> TrainResult:
    """Run the full training loop; deterministic given the seed streams.

    The learning-rate schedule restarts with each phase of ``schedule``;
    iteration numbers and history rows run on across phases.
    """
    if schedule not in SCHEDULES:
        raise ConfigError(f"unknown schedule {schedule!r} (known: {', '.join(SCHEDULES)})")
    reshape = build_reshape_index(dataset, cfg.q_percent, cfg.cost_bins) if cfg.epsilon > 0 else None
    nets, pol = build_models(dataset, hyper, streams)
    optim_r = OptimState(nets.reward_net, hyper.optim_hyper())
    optim_c = OptimState(nets.cost_net, hyper.optim_hyper())
    optim_p = OptimState(pol.net, hyper.policy_optim_hyper())
    rng_batch, rng_relabel = streams["batch"], streams["relabel"]
    history = []
    it = 0
    for update_goals, update_policy in SCHEDULES[schedule]:
        for phase_iter in range(1, iterations + 1):
            it += 1
            lr = hyper.lr_at(phase_iter, iterations)
            for optim in (optim_r, optim_c, optim_p):
                optim.hyper.learning_rate = lr
            batch = sample_batch(dataset, reshape, cfg, hyper.batch_size, rng_batch, rng_relabel)
            l_r, l_c, grads_r, grads_c, adv = goal_loss(batch, nets, alpha)
            l_pi, grads_p, _ = policy_loss(batch, nets, pol, alpha, adv=adv)
            if not (np.isfinite(l_r) and np.isfinite(l_c) and np.isfinite(l_pi)):
                raise NonFiniteError(_diagnose(it, batch, l_r=l_r, l_c=l_c, l_pi=l_pi))
            if update_goals:
                optim_r.apply(nets.reward_net, *grads_r)
                optim_c.apply(nets.cost_net, *grads_c)
            if update_policy:
                optim_p.apply(pol.net, *grads_p)
            if it % log_every == 0:
                history.append((it, l_r, l_c, l_pi))
    return TrainResult(nets, pol, history, reshape)

"""End-to-end training: interleaved goal and policy updates.

Each iteration samples one mixed batch, relabels it, computes both
advantages with the pre-update nets, then applies one optimizer step per
net (reward goal, cost goal, policy). A two-phase schedule (goals to
convergence first, then the policy against frozen goals) is available for
ablation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (AugmentConfig, OfflineDataset, TransitionBatch, build_reshape_index,
                      sample_batch)
from .errors import ConfigError, NonFiniteError
from .goals import GoalNets, InputNorm, goal_loss
from .nn import OptimState, net_buffers
from .policy import PolicyNet, policy_loss

# each phase of a schedule runs `iterations` steps updating (goal nets, policy)
SCHEDULES = {"interleaved": ((True, True),), "two_phase": ((True, False), (False, True))}


@dataclass(frozen=True)
class NetHyper:
    """Architecture and optimizer settings shared by the three nets.

    ``lr_final_fraction`` < 1 decays the learning rate linearly to that
    fraction of its initial value over the run; 1.0 or more keeps it
    constant. ``grad_clip`` <= 0 turns gradient clipping off.
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

    def __post_init__(self) -> None:
        for key, least in (("n_layers", 2), ("hidden", 1), ("embedding", 1), ("batch_size", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        lr = self.learning_rate

        def decays(d):  # keeps the decay factor 1 - lr * d positive
            return 0 <= d and lr * d < 1

        decay_rule = "finite, >= 0 and below 1/learning_rate"
        # key -> (its range, whether the value is in it); nan is in none
        ranges = {
            "learning_rate": ("finite and > 0", 0 < lr < math.inf),
            "beta1": ("in [0, 1)", 0 <= self.beta1 < 1),
            "beta2": ("in [0, 1)", 0 <= self.beta2 < 1),
            "lr_final_fraction": ("finite and >= 0", 0 <= self.lr_final_fraction < math.inf),
            "grad_clip": ("a number (<= 0 turns clipping off)", not math.isnan(self.grad_clip)),
            "weight_decay": (decay_rule, decays(self.weight_decay)),
            "policy_weight_decay": ("< 0 (same as weight_decay) or " + decay_rule,
                                    self.policy_weight_decay < 0
                                    or decays(self.policy_weight_decay)),
        }
        for key, (rule, ok) in ranges.items():
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)}")

    @property
    def policy_decay(self) -> float:
        """The policy's weight decay: ``policy_weight_decay``, or ``weight_decay`` when < 0."""
        return self.policy_weight_decay if self.policy_weight_decay >= 0 else self.weight_decay

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
    optim_r = OptimState(nets.reward_net, hyper, hyper.weight_decay)
    optim_c = OptimState(nets.cost_net, hyper, hyper.weight_decay)
    optim_p = OptimState(pol.net, hyper, hyper.policy_decay)
    # the nets' activations, gradients and backprop temporaries, made once per
    # call and held by no returned object: a caller may keep a TrainResult
    # while it trains the next one
    bufs_r, bufs_c, bufs_p = net_buffers([nets.reward_net, nets.cost_net, pol.net],
                                         hyper.batch_size)
    rng_batch, rng_relabel = streams["batch"], streams["relabel"]
    history = []
    it = 0
    for update_goals, update_policy in SCHEDULES[schedule]:
        for phase_iter in range(1, iterations + 1):
            it += 1
            lr = hyper.lr_at(phase_iter, iterations)
            batch = sample_batch(dataset, reshape, cfg, hyper.batch_size, rng_batch, rng_relabel)
            l_r, l_c, d_r, d_c, adv = goal_loss(batch, nets, alpha, buffers=(bufs_r, bufs_c))
            l_pi, d_p, _ = policy_loss(batch, pol, alpha, adv=adv, buffers=bufs_p)
            if not (np.isfinite(l_r) and np.isfinite(l_c) and np.isfinite(l_pi)):
                raise NonFiniteError(_diagnose(it, batch, l_r=l_r, l_c=l_c, l_pi=l_pi))
            if update_goals:
                optim_r.apply(nets.reward_net, d_r, lr)
                optim_c.apply(nets.cost_net, d_c, lr)
            if update_policy:
                optim_p.apply(pol.net, d_p, lr)
            if it % log_every == 0:
                history.append((it, l_r, l_c, l_pi))
    return TrainResult(nets, pol, history)

"""Goal-guided deterministic policy and the test-time target bookkeeping.

The policy maps (state, reward target, cost target, goal values, t'/T) to a
tanh-squashed action and is trained by constrained advantage-weighted
regression: squared action error weighted by
``1(V^C < c_hat) * |alpha - 1(A_R < 0)|``, with the goal nets frozen.

At test time a tracker carries the remaining targets: after each step the
observed reward and cost are subtracted and the remainders clamp at zero so
the policy's inputs stay inside the trained range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TransitionBatch
from .errors import ContractError, SchemaError, parsing
from .goals import AdvantagePair, GoalNets, InputNorm, goal_inputs, read_bundle, write_bundle
from .nn import Mlp, expectile_weight, layer_sizes


def policy_inputs(norm: InputNorm, states, r_hat, c_hat, v_r, v_c, t_prime) -> np.ndarray:
    """[normalized state, r_hat/rs, c_hat/cs, V^R/rs, V^C/cs, t'/T]."""
    z = goal_inputs(norm, states, r_hat, c_hat, t_prime)
    v_r = np.asarray(v_r, dtype=np.float64).reshape(-1) / norm.r_scale
    v_c = np.asarray(v_c, dtype=np.float64).reshape(-1) / norm.c_scale
    return np.column_stack([z[:, :-1], v_r, v_c, z[:, -1]])


@dataclass
class PolicyNet:
    net: Mlp
    norm: InputNorm
    action_dim: int

    @classmethod
    def create(cls, norm: InputNorm, state_dim: int, action_dim: int, n_layers: int,
               hidden: int, embedding: int, rng: np.random.Generator) -> "PolicyNet":
        sizes = layer_sizes(state_dim + 5, action_dim, n_layers, hidden, embedding)
        net = Mlp.init(sizes, rng)
        # zero output layer: the policy starts at the neutral action, and
        # regions the constrained regression never weights stay near it
        net.weights[-1][...] = 0.0
        return cls(net, norm, action_dim)

    def forward(self, states, r_hat, c_hat, v_r, v_c, t_prime) -> np.ndarray:
        z = policy_inputs(self.norm, states, r_hat, c_hat, v_r, v_c, t_prime)
        return np.tanh(self.net.forward(z))


def policy_loss(batch: TransitionBatch, nets: GoalNets, pol: PolicyNet, alpha: float,
                adv: AdvantagePair):
    """Constrained AWR loss and gradients (into the policy net only).

    ``adv`` is what ``goal_loss`` returned for the same batch and goal nets
    ``nets``; its (a_r, feasible, v_r, v_c) are constants here.
    Returns (l_pi, grads, weights).
    """
    if len(batch) == 0:
        raise ContractError("policy loss needs a non-empty batch")
    w = adv.feasible * expectile_weight(adv.a_r, alpha)
    z = policy_inputs(pol.norm, batch.states, batch.r_hat, batch.c_hat,
                      adv.v_r, adv.v_c, batch.t_prime)
    raw, cache = pol.net.forward_cached(z)
    actions = np.tanh(raw)
    err = actions - batch.actions
    n = float(len(batch))
    l_pi = float(np.mean(w * np.sum(err * err, axis=1)))
    upstream = (2.0 / n) * w[:, None] * err * (1.0 - actions * actions)
    grads = pol.net.backward(cache, upstream)
    return l_pi, grads, w


@dataclass(frozen=True)
class TargetTracker:
    """Remaining (reward, cost) targets during an episode: floats for one
    rollout, (B,) arrays for B rollouts stepped together."""

    r_remaining: "float | np.ndarray"
    c_remaining: "float | np.ndarray"
    t: int = 0


def update_tracker(tracker: TargetTracker, reward, cost) -> TargetTracker:
    """Subtract the observed step and clamp both remainders at zero."""
    return TargetTracker(
        r_remaining=np.maximum(tracker.r_remaining - reward, 0.0),
        c_remaining=np.maximum(tracker.c_remaining - cost, 0.0),
        t=tracker.t + 1,
    )


def act(pol: PolicyNet, nets: GoalNets, state, tracker: TargetTracker, T: int) -> np.ndarray:
    """Deterministic action from the current state and remaining targets.

    A (d,) state gives an (action_dim,) action; (B, d) states with a tracker
    of (B,) remainders give (B, action_dim) actions from one goal-net and one
    policy forward.
    """
    if tracker.t >= T:
        raise ContractError(f"act called at t={tracker.t} >= T={T}")
    states = np.atleast_2d(np.asarray(state, dtype=np.float64))
    r = np.atleast_1d(np.asarray(tracker.r_remaining, dtype=np.float64))
    c = np.atleast_1d(np.asarray(tracker.c_remaining, dtype=np.float64))
    tp = np.full(len(states), float(tracker.t))
    v_r, v_c = nets.values(states, r, c, tp)
    actions = pol.forward(states, r, c, v_r, v_c, tp)
    return actions[0] if np.ndim(state) == 1 else actions


def save_policy(path, pol: PolicyNet, meta: dict) -> None:
    meta = dict(meta)
    meta["action_dim"] = pol.action_dim
    write_bundle(path, {"policy": pol.net}, pol.norm, meta)


def load_policy(path) -> tuple[PolicyNet, dict]:
    tagged, norm, meta = read_bundle(path)
    if set(tagged) != {"policy"}:
        raise SchemaError(f"policy bundle must contain exactly one policy net, got {sorted(tagged)}")
    with parsing(f"policy bundle {path}"):
        action_dim = int(meta["action_dim"])
    return PolicyNet(tagged["policy"], norm, action_dim), meta

"""Goal-guided deterministic policy.

The policy maps (state, reward target, cost target, goal values, t'/T) to a
tanh-squashed action and is trained by constrained advantage-weighted
regression: squared action error weighted by
``1(V^C < c_hat) * |alpha - 1(A_R < 0)|``, with the goal nets frozen.

At test time ``act`` conditions it on the remaining targets, which
``evaluate.rollout_policy`` carries from step to step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import TransitionBatch
from .errors import ContractError, SchemaError
from .goals import AdvantagePair, GoalNets, InputNorm, goal_inputs, read_bundle, write_bundle
from .nn import Mlp, NetBuffers, expectile_weight, layer_sizes


def policy_inputs(norm: InputNorm, states, r_hat, c_hat, v_r, v_c, t_prime) -> np.ndarray:
    """[normalized state, r_hat/rs, c_hat/cs, V^R/rs, V^C/cs, t'/T]."""
    return _extend_goal_inputs(norm, goal_inputs(norm, states, r_hat, c_hat, t_prime), v_r, v_c)


def _extend_goal_inputs(norm: InputNorm, z: np.ndarray, v_r, v_c) -> np.ndarray:
    """The policy input from the goal input ``z`` and the goal values at it."""
    v_r = np.asarray(v_r, dtype=np.float64).reshape(-1) / norm.r_scale
    v_c = np.asarray(v_c, dtype=np.float64).reshape(-1) / norm.c_scale
    return np.column_stack([z[:, :-1], v_r, v_c, z[:, -1]])


@dataclass
class PolicyNet:
    net: Mlp
    norm: InputNorm

    @property
    def action_dim(self) -> int:
        return self.net.layer_sizes[-1]

    @classmethod
    def create(cls, norm: InputNorm, state_dim: int, action_dim: int, n_layers: int,
               hidden: int, embedding: int, rng: np.random.Generator) -> "PolicyNet":
        sizes = layer_sizes(state_dim + 5, action_dim, n_layers, hidden, embedding)
        net = Mlp.init(sizes, rng)
        # zero output layer: the policy starts at the neutral action, and
        # regions the constrained regression never weights stay near it
        net.weights[-1][...] = 0.0
        return cls(net, norm)

    def forward(self, states, r_hat, c_hat, v_r, v_c, t_prime) -> np.ndarray:
        z = policy_inputs(self.norm, states, r_hat, c_hat, v_r, v_c, t_prime)
        return np.tanh(self.net.forward(z))


def policy_loss(batch: TransitionBatch, pol: PolicyNet, alpha: float,
                adv: AdvantagePair, *, buffers: "NetBuffers | None" = None):
    """Constrained AWR loss and gradients (into the policy net only).

    ``adv`` is what ``goal_loss`` returned for the same batch; its (a_r,
    feasible, v_r, v_c) are constants here. ``buffers``
    are what the policy net's forward and backward write into, as in
    ``goal_loss``. Returns (l_pi, d_params, weights), d_params being the
    gradient laid out like ``pol.net.params``.
    """
    if len(batch) == 0:
        raise ContractError("policy loss needs a non-empty batch")
    w = adv.feasible * expectile_weight(adv.a_r, alpha)
    z = policy_inputs(pol.norm, batch.states, batch.r_hat, batch.c_hat,
                      adv.v_r, adv.v_c, batch.t_prime)
    raw, cache = pol.net.forward_cached(z, buffers)
    actions = np.tanh(raw)
    err = actions - batch.actions
    n = float(len(batch))
    l_pi = float(np.mean(w * np.sum(err * err, axis=1)))
    upstream = (2.0 / n) * w[:, None] * err * (1.0 - actions * actions)
    return l_pi, pol.net.backward(cache, upstream), w


def act(pol: PolicyNet, nets: GoalNets, states, r_remaining, c_remaining,
        t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic actions for (B, d) states and (B,) remaining targets at
    step ``t``, from one goal-net and one policy forward.

    Returns the (B, action_dim) actions and the (B,) V^R and V^C they were
    chosen from. The goal input is built once and extended into the policy
    input, so ``pol`` and ``nets`` must share one input normalization, as
    models trained together do (``evaluate.rollout_policy`` checks it).
    """
    T = nets.norm.horizon
    if t >= T:
        raise ContractError(f"act called at t={t} >= T={T}")
    z = goal_inputs(nets.norm, states, r_remaining, c_remaining, np.full(len(states), float(t)))
    v_r, v_c = nets.reward_net.forward(z)[:, 0], nets.cost_net.forward(z)[:, 0]
    actions = np.tanh(pol.net.forward(_extend_goal_inputs(pol.norm, z, v_r, v_c)))
    return actions, v_r, v_c


def save_policy(path, pol: PolicyNet, meta: dict) -> None:
    write_bundle(path, {"policy": pol.net}, pol.norm, meta)


def load_policy(path, raw: "bytes | None" = None) -> tuple[PolicyNet, dict]:
    tagged, norm, meta = read_bundle(path, raw)
    if set(tagged) != {"policy"}:
        raise SchemaError(f"policy bundle must contain exactly one policy net, got {sorted(tagged)}")
    return PolicyNet(tagged["policy"], norm), meta

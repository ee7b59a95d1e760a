"""Reward and cost goal functions trained by expectile regression.

The reward net estimates the largest constraint-feasible segment return
reachable from a state within the remaining window; the cost net estimates
the cost return attached to that optimum. Both consume the identical
normalized input vector [state, r_hat, c_hat, t'/T].

Training is a pure regression on relabeled targets: no bootstrapping, no
target networks. All indicator weights (feasibility, advantage sign) are
treated as constants of the current iterate, so gradients flow into the
reward net only through its own output and likewise for the cost net.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import OfflineDataset, TransitionBatch
from .errors import ContractError, SchemaError, parsing
from .nn import Mlp, expectile_weight, layer_sizes, read_net_bytes, write_net_bytes

BUNDLE_MAGIC = b"GASPACK1"
BUNDLE_VERSION = 1


@dataclass
class InputNorm:
    """Per-dimension state normalization plus target scales.

    Fitted on the dataset itself: states become zero-mean, unit-scale on
    non-degenerate dimensions; reward targets are divided by
    max(|r_max|, 1) and cost targets by max(c_max, 1).
    """

    state_mean: np.ndarray
    state_scale: np.ndarray
    r_scale: float
    c_scale: float
    horizon: int

    @classmethod
    def fit(cls, dataset: OfflineDataset) -> "InputNorm":
        flat = dataset.states.reshape(-1, dataset.states.shape[-1])
        mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        scale = np.where(std > 0, std, 1.0)
        return cls(
            state_mean=mean,
            state_scale=scale,
            r_scale=max(abs(dataset.r_max), 1.0),
            c_scale=max(dataset.c_max, 1.0),
            horizon=dataset.horizon,
        )

    def normalize_states(self, states: np.ndarray) -> np.ndarray:
        return (states - self.state_mean) / self.state_scale

    def to_dict(self) -> dict:
        return {
            "state_mean": self.state_mean.tolist(),
            "state_scale": self.state_scale.tolist(),
            "r_scale": self.r_scale,
            "c_scale": self.c_scale,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InputNorm":
        return cls(np.array(d["state_mean"]), np.array(d["state_scale"]),
                   float(d["r_scale"]), float(d["c_scale"]), int(d["horizon"]))


def goal_inputs(norm: InputNorm, states: np.ndarray, r_hat, c_hat, t_prime) -> np.ndarray:
    """Assemble [normalized state, r_hat/r_scale, c_hat/c_scale, t'/T]."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    r_hat = np.asarray(r_hat, dtype=np.float64).reshape(-1)
    c_hat = np.asarray(c_hat, dtype=np.float64).reshape(-1)
    t_prime = np.asarray(t_prime, dtype=np.float64).reshape(-1)
    return np.column_stack([
        norm.normalize_states(states),
        r_hat / norm.r_scale,
        c_hat / norm.c_scale,
        t_prime / norm.horizon,
    ])


@dataclass
class GoalNets:
    reward_net: Mlp
    cost_net: Mlp
    norm: InputNorm

    @classmethod
    def create(cls, norm: InputNorm, state_dim: int, n_layers: int, hidden: int,
               embedding: int, rng_reward: np.random.Generator,
               rng_cost: np.random.Generator) -> "GoalNets":
        sizes = layer_sizes(state_dim + 3, 1, n_layers, hidden, embedding)
        return cls(Mlp.init(sizes, rng_reward), Mlp.init(sizes, rng_cost), norm)

    def values(self, states, r_hat, c_hat, t_prime) -> tuple[np.ndarray, np.ndarray]:
        z = goal_inputs(self.norm, states, r_hat, c_hat, t_prime)
        return self.reward_net.forward(z)[:, 0], self.cost_net.forward(z)[:, 0]


@dataclass
class AdvantagePair:
    a_r: np.ndarray
    a_c: np.ndarray
    feasible: np.ndarray
    v_r: np.ndarray
    v_c: np.ndarray


def goal_loss(batch: TransitionBatch, nets: GoalNets, alpha: float):
    """Expectile losses and gradients for both goal nets on one batch.

    The advantages are A_R = 1(V^C < c_hat) * r_seg - V^R and
    A_C = c_seg - V^C. The feasibility indicator uses the current cost net's
    output and is a constant of the iterate; ties (V^C == c_hat) count as
    infeasible.

    Returns (l_r, l_c, grads_reward, grads_cost, adv) where grads are
    (d_weights, d_biases) pairs and adv carries the frozen advantage
    quantities reused by the policy loss.
    """
    if len(batch) == 0:
        raise ContractError("goal loss needs a non-empty batch")
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0, 1), got {alpha}")
    z = goal_inputs(nets.norm, batch.states, batch.r_hat, batch.c_hat, batch.t_prime)
    out_r, cache_r = nets.reward_net.forward_cached(z)
    out_c, cache_c = nets.cost_net.forward_cached(z)
    v_r, v_c = out_r[:, 0], out_c[:, 0]
    feasible = v_c < batch.c_hat
    a_r = feasible * batch.r_seg - v_r
    a_c = batch.c_seg - v_c
    w = expectile_weight(a_r, alpha)
    n = float(len(batch))
    l_r = float(np.mean(w * a_r * a_r))
    l_c = float(np.mean(w * a_c * a_c))
    upstream_r = (-2.0 * w * a_r / n)[:, None]
    upstream_c = (-2.0 * w * a_c / n)[:, None]
    grads_r = nets.reward_net.backward(cache_r, upstream_r)
    grads_c = nets.cost_net.backward(cache_c, upstream_c)
    adv = AdvantagePair(a_r, a_c, feasible, v_r, v_c)
    return l_r, l_c, grads_r, grads_c, adv


# -- checkpoint bundles -------------------------------------------------------


def write_bundle(path, tagged_nets: dict, norm: InputNorm, meta: dict) -> None:
    """Role-tagged container: metadata JSON + one net blob per role."""
    meta = dict(meta)
    meta["norm"] = norm.to_dict()
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<II", BUNDLE_VERSION, len(tagged_nets)))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for tag in sorted(tagged_nets):
            tag_bytes = tag.encode("utf-8")
            blob = write_net_bytes(tagged_nets[tag])
            fh.write(struct.pack("<I", len(tag_bytes)))
            fh.write(tag_bytes)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_bundle(path) -> tuple[dict, InputNorm, dict]:
    """Returns ({tag: Mlp}, norm, metadata); a corrupt file raises SchemaError."""
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())
    with parsing(f"checkpoint bundle {path}"):
        magic = fh.read(8)
        if magic != BUNDLE_MAGIC:
            raise SchemaError(f"bad bundle magic {magic!r}, expected {BUNDLE_MAGIC!r}")
        version, n_nets = struct.unpack("<II", fh.read(8))
        if version != BUNDLE_VERSION:
            raise SchemaError(f"unsupported bundle version {version}")
        (meta_len,) = struct.unpack("<I", fh.read(4))
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
        nets = {}
        for _ in range(n_nets):
            (tag_len,) = struct.unpack("<I", fh.read(4))
            tag = fh.read(tag_len).decode("utf-8")
            (blob_len,) = struct.unpack("<I", fh.read(4))
            nets[tag] = read_net_bytes(fh.read(blob_len))
        norm = InputNorm.from_dict(meta.pop("norm"))
    return nets, norm, meta


def save_goals(path, nets: GoalNets, meta: dict) -> None:
    write_bundle(path, {"reward": nets.reward_net, "cost": nets.cost_net}, nets.norm, meta)


def load_goals(path) -> tuple[GoalNets, dict]:
    tagged, norm, meta = read_bundle(path)
    if set(tagged) != {"reward", "cost"}:
        raise SchemaError(f"goal bundle must contain reward+cost nets, got {sorted(tagged)}")
    return GoalNets(tagged["reward"], tagged["cost"], norm), meta

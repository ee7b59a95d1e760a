"""Reward and cost goal functions trained by expectile regression.

The reward net estimates the largest constraint-feasible segment return
reachable from a state within the remaining window; the cost net estimates
the cost return attached to that optimum. Both consume the identical
normalized input vector [state, r_hat, c_hat, t'/T].

Training is a pure regression on relabeled targets: no bootstrapping, no
target networks. All indicator weights (feasibility, advantage sign) are
treated as constants of the current iterate, so gradients flow into the
reward net only through its own output and likewise for the cost net.

Trained nets are saved as checkpoint bundles (``write_bundle``/``read_bundle``):
one JSON header with the metadata, the input normalization and each net's
layer sizes, followed by each net's ``Mlp.params`` as little-endian f64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import OfflineDataset, TransitionBatch
from .errors import ContractError, SchemaError, parsing
from .nn import Mlp, NetBuffers, expectile_weight, layer_sizes, param_count

BUNDLE_MAGIC = b"GASPACK1"
BUNDLE_VERSION = 2


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
        """The inverse of ``to_dict``; a value no fit gives raises SchemaError."""
        mean, scale = np.array(d["state_mean"], float), np.array(d["state_scale"], float)
        r_scale, c_scale, horizon = float(d["r_scale"]), float(d["c_scale"]), d["horizon"]
        if not (mean.ndim == 1 and mean.shape == scale.shape and np.isfinite(mean).all()
                and ((0 < scale) & (scale < math.inf)).all()):
            raise SchemaError("norm state_mean and state_scale must be equal-length lists of "
                              "finite numbers, every scale > 0")
        if not (0 < r_scale < math.inf and 0 < c_scale < math.inf):
            raise SchemaError(f"norm r_scale, c_scale must be finite and > 0: {r_scale}, {c_scale}")
        if type(horizon) is not int or horizon < 1:  # a JSON float or boolean is no horizon
            raise SchemaError(f"norm horizon must be an integer >= 1, got {horizon!r}")
        return cls(mean, scale, r_scale, c_scale, horizon)


def goal_inputs(norm: InputNorm, states: np.ndarray, r_hat, c_hat, t_prime) -> np.ndarray:
    """[normalized state, r_hat/r_scale, c_hat/c_scale, t'/T], one row per
    state and per entry of each of ``r_hat``, ``c_hat`` and ``t_prime``."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    r_hat = np.asarray(r_hat, dtype=np.float64).reshape(-1)
    c_hat = np.asarray(c_hat, dtype=np.float64).reshape(-1)
    t_prime = np.asarray(t_prime, dtype=np.float64).reshape(-1)
    if not len(states) == len(r_hat) == len(c_hat) == len(t_prime):
        raise ContractError(f"{len(states)} states with {len(r_hat)} r_hat, {len(c_hat)} "
                            f"c_hat and {len(t_prime)} t_prime values")
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


def goal_loss(batch: TransitionBatch, nets: GoalNets, alpha: float, *,
              buffers: "tuple[NetBuffers, NetBuffers] | None" = None):
    """Expectile losses and gradients for both goal nets on one batch.

    The advantages are A_R = 1(V^C < c_hat) * r_seg - V^R and
    A_C = c_seg - V^C. The feasibility indicator uses the current cost net's
    output and is a constant of the iterate; ties (V^C == c_hat) count as
    infeasible.

    Returns (l_r, l_c, d_r, d_c, adv) where d_r and d_c are each net's
    gradient laid out like its ``params`` and adv carries the frozen
    advantage quantities reused by the policy loss. ``buffers`` (reward,
    cost) are what the nets' forward and backward write into; d_r and d_c
    are their ``d_params``. Without them each call allocates its own.
    """
    if len(batch) == 0:
        raise ContractError("goal loss needs a non-empty batch")
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0, 1), got {alpha}")
    z = goal_inputs(nets.norm, batch.states, batch.r_hat, batch.c_hat, batch.t_prime)
    bufs_r, bufs_c = buffers or (None, None)
    out_r, cache_r = nets.reward_net.forward_cached(z, bufs_r)
    out_c, cache_c = nets.cost_net.forward_cached(z, bufs_c)
    # copies: adv outlives the buffers' next forward
    v_r, v_c = out_r[:, 0].copy(), out_c[:, 0].copy()
    feasible = v_c < batch.c_hat
    a_r = feasible * batch.r_seg - v_r
    a_c = batch.c_seg - v_c
    w = expectile_weight(a_r, alpha)
    n = float(len(batch))
    l_r = float(np.mean(w * a_r * a_r))
    l_c = float(np.mean(w * a_c * a_c))
    upstream_r = (-2.0 * w * a_r / n)[:, None]
    upstream_c = (-2.0 * w * a_c / n)[:, None]
    d_r = nets.reward_net.backward(cache_r, upstream_r)
    d_c = nets.cost_net.backward(cache_c, upstream_c)
    adv = AdvantagePair(a_r, a_c, feasible, v_r, v_c)
    return l_r, l_c, d_r, d_c, adv


# -- checkpoint bundles -------------------------------------------------------


def write_bundle(path, tagged_nets: dict, norm: InputNorm, meta: dict) -> None:
    """Magic, then (version, header length) as ``<II``, then the JSON header:
    ``meta`` plus ``norm`` and ``nets`` = {tag: layer sizes}. Then each net's
    ``params`` as little-endian f64, nets in tag order. Sorted keys and
    compact separators keep reruns byte-identical."""
    tags = sorted(tagged_nets)
    header = dict(meta, norm=norm.to_dict(),
                  nets={tag: tagged_nets[tag].layer_sizes for tag in tags})
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<II", BUNDLE_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for tag in tags:
            fh.write(np.ascontiguousarray(tagged_nets[tag].params, dtype="<f8"))


def read_bundle(path, raw: "bytes | None" = None) -> tuple[dict, InputNorm, dict]:
    """Returns ({tag: Mlp}, norm, metadata); a corrupt file raises SchemaError.
    Parses ``raw``, the file's bytes already read, when given. Each net's
    parameters are copied once out of those bytes into its own writable vector."""
    raw = Path(path).read_bytes() if raw is None else raw
    with parsing(f"checkpoint bundle {path}"):
        if raw[:8] != BUNDLE_MAGIC:
            raise SchemaError(f"bad bundle magic {raw[:8]!r}, expected {BUNDLE_MAGIC!r}")
        version, header_len = struct.unpack_from("<II", raw, 8)
        if version != BUNDLE_VERSION:
            raise SchemaError(f"unsupported bundle version {version}")
        offset = 16 + header_len
        meta = json.loads(raw[16:offset].decode("utf-8"))
        norm = InputNorm.from_dict(meta.pop("norm"))
        nets = {}
        for tag, sizes in sorted(meta.pop("nets").items()):
            # type(n) is int: a JSON float or boolean is not a layer size
            if not (isinstance(sizes, list) and len(sizes) >= 2
                    and all(type(n) is int and n > 0 for n in sizes)):
                raise SchemaError(f"net {tag!r} layer sizes must be two or more positive "
                                  f"integers, got {sizes!r}")
            # a short payload or an overflowing count: ValueError or OverflowError
            count = param_count(sizes)
            nets[tag] = Mlp(sizes, np.frombuffer(raw, "<f8", count, offset).astype(np.float64))
            offset += 8 * count
        if offset != len(raw):
            raise SchemaError(f"{len(raw) - offset} bytes after the last net")
    return nets, norm, meta


def save_goals(path, nets: GoalNets, meta: dict) -> None:
    write_bundle(path, {"reward": nets.reward_net, "cost": nets.cost_net}, nets.norm, meta)


def load_goals(path, raw: "bytes | None" = None) -> tuple[GoalNets, dict]:
    tagged, norm, meta = read_bundle(path, raw)
    if set(tagged) != {"reward", "cost"}:
        raise SchemaError(f"goal bundle must contain reward+cost nets, got {sorted(tagged)}")
    return GoalNets(tagged["reward"], tagged["cost"], norm), meta

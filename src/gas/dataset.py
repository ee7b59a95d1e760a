"""Offline dataset container and the three data mechanisms.

* temporal segment sampling: each training draw picks a start t and a
  segment end gamma uniformly, so the model sees returns over windows of
  every length instead of trajectory suffixes only;
* return relabeling: the reward target is jittered uniformly inside a
  +/- delta band and the cost target is drawn uniformly between the
  segment's true cost and the dataset's maximum cost return;
* dataset reshaping: trajectories in the top-q% of the reward
  distribution conditional on their cost bin form a favored subset that
  is sampled with probability epsilon.

Binary file format: magic ``GASDSET1``, little-endian header, then one
record per trajectory of contiguous f64 (states, actions, rewards, costs).
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .envs import CHAIN_RUN, GRID_CIRCLE, EnvSpec, Trajectory, rollout_actors, spec_by_name
from .errors import ConfigError, ContractError, SchemaError, parsing

DATASET_MAGIC = b"GASDSET1"
DATASET_VERSION = 1


# -- containers --------------------------------------------------------------


@dataclass
class OfflineDataset:
    """N equal-length trajectories, stacked for vectorized sampling;
    ``trajectories`` are per-episode views of the same arrays."""

    env_meta: EnvSpec
    states: np.ndarray = field(repr=False)         # (N, T, d)
    actions: np.ndarray = field(repr=False)        # (N, T, adim)
    rewards: np.ndarray = field(repr=False)        # (N, T)
    costs: np.ndarray = field(repr=False)          # (N, T)
    reward_prefix: np.ndarray = field(repr=False)  # (N, T+1)
    cost_prefix: np.ndarray = field(repr=False)    # (N, T+1)
    trajectories: list = field(repr=False)
    r_max: float
    c_max: float

    @classmethod
    def from_arrays(cls, env_meta: EnvSpec, states, actions, rewards, costs) -> "OfflineDataset":
        rewards = np.asarray(rewards, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if rewards.shape[0] == 0:
            raise ConfigError("dataset must contain at least one trajectory")
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        start = np.zeros((rewards.shape[0], 1))
        rp = np.concatenate([start, np.cumsum(rewards, axis=1)], axis=1)
        cp = np.concatenate([start, np.cumsum(costs, axis=1)], axis=1)
        trajectories = [Trajectory(*arrays) for arrays in zip(states, actions, rewards, costs, rp, cp)]
        return cls(env_meta, states, actions, rewards, costs, rp, cp, trajectories,
                   r_max=float(rp[:, -1].max()), c_max=float(cp[:, -1].max()))

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    def total_returns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.reward_prefix[:, -1].copy(), self.cost_prefix[:, -1].copy()


@dataclass
class TransitionBatch:
    """Column-oriented batch of augmented, relabeled transitions."""

    states: np.ndarray        # (B, d)
    actions: np.ndarray       # (B, adim)
    t: np.ndarray             # (B,) int
    gamma: np.ndarray         # (B,) int
    r_seg: np.ndarray         # (B,)
    c_seg: np.ndarray         # (B,)
    t_prime: np.ndarray       # (B,) int
    r_hat: np.ndarray         # (B,)
    c_hat: np.ndarray         # (B,)
    from_reshape: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for augmentation, relabeling, and reshaping.

    ``tsra=False`` pins every segment end to the trajectory end (suffix
    returns only); ``relabel_cost=False`` keeps the cost target equal to the
    segment cost. Both exist for ablations.
    """

    delta: float = 0.1
    q_percent: float = 10.0
    epsilon: float = 0.5
    cost_bins: int = 10
    tsra: bool = True
    relabel_cost: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 < self.q_percent <= 100.0:
            raise ConfigError(f"q_percent must be in (0, 100], got {self.q_percent}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.cost_bins < 1:
            raise ConfigError(f"cost_bins must be >= 1, got {self.cost_bins}")


# -- behavior policies -------------------------------------------------------


@dataclass(frozen=True)
class BehaviorStyle:
    name: str
    weight: float
    params: tuple = ()

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class BehaviorMix:
    """Weighted mixture of behavior styles used to generate a dataset."""

    styles: tuple

    def weights(self) -> np.ndarray:
        w = np.array([s.weight for s in self.styles], dtype=np.float64)
        total = w.sum()
        if total <= 0:
            raise ConfigError("behavior mix weights must sum to a positive value")
        return w / total


def _style(name: str, weight: float, **params) -> BehaviorStyle:
    return BehaviorStyle(name, weight, tuple(sorted(params.items())))


def pure_block_mix(fast_action: float = 1.0, slow_action: float = 0.0,
                   min_len: int = 0, max_len: "int | None" = None) -> BehaviorMix:
    """Blocks of every length at uniform positions; fast=v1.0, slow=v0.5 by default."""
    return BehaviorMix((_style("block_uniform", 1.0, fast_action=fast_action,
                               slow_action=slow_action, min_len=min_len,
                               max_len=max_len),))


def slow_only_mix(slow_action: float = 0.0) -> BehaviorMix:
    return BehaviorMix((_style("slow", 1.0, slow_action=slow_action),))


def stitch_mix(max_block: int = 16) -> BehaviorMix:
    """Standard ChainRun corpus for the stitching experiments.

    Detuned speeds (fast v=1.0, slow v=0.45) keep every single trajectory
    strictly below the analytic optimum for every intermediate budget while
    compositions of fast and slow segments stay well above the 0.9x bar.
    Blocks are capped so the dataset's maximum reward stays close to what
    tight budgets can achieve (test-time targets scale with that maximum);
    a "brisk" style (v just over the cost boundary) pins the maximum cost
    return at the full horizon without raising the reward ceiling.
    """
    fast, slow = 1.0, -0.08
    return BehaviorMix((
        _style("block_head", 0.65, fast_action=fast, slow_action=slow, min_len=1, max_len=max_block),
        _style("block_uniform", 0.05, fast_action=fast, slow_action=slow, min_len=1, max_len=max_block),
        _style("slow", 0.15, slow_action=slow),
        _style("constant", 0.10, action=0.02),
        _style("random", 0.05),
    ))


def gridcircle_mix() -> BehaviorMix:
    return BehaviorMix((
        _style("orbit", 0.6, min_radius=0.7, max_radius=1.3),
        _style("orbit", 0.2, min_radius=1.3, max_radius=1.7),
        _style("random", 0.2),
    ))


def mix_by_name(name: str, env_name: str) -> BehaviorMix:
    table = {
        "stitch": stitch_mix,
        "pure_block": pure_block_mix,
        "slow": slow_only_mix,
        "gridcircle": gridcircle_mix,
    }
    if name == "default":
        name = "stitch" if env_name == CHAIN_RUN else "gridcircle"
    if name not in table:
        raise ConfigError(f"unknown behavior mix {name!r} (known: {', '.join(sorted(table))})")
    return table[name]()


def _block_actor(start: int, length: int, fast_action: float, slow_action: float):
    end = start + length

    def actor(_state, t):
        return fast_action if start <= t < end else slow_action

    return actor


def _table_actor(table: np.ndarray):
    def actor(_state, t):
        return table[t]

    return actor


def _orbit_actor(radius: float, gain: float = 4.0):
    def actor(state, _t):
        x, y = state[0], state[1]
        norm = max(np.hypot(x, y), 1e-8)
        tangent = np.array([-y, x]) / norm
        radial = np.array([x, y]) / norm
        a = tangent + gain * (radius - norm) * radial
        return np.clip(a, -1.0, 1.0)

    return actor


def _make_actor(style: BehaviorStyle, spec: EnvSpec, rng: np.random.Generator):
    T = spec.episode_length
    p = style.param_dict()
    if style.name == "slow":
        slow = p.get("slow_action", 0.0)
        return _block_actor(0, 0, 0.0, slow)
    if style.name in ("block_head", "block_uniform"):
        max_len = p.get("max_len") or T
        min_len = p.get("min_len", 0)
        length = int(rng.integers(min_len, max_len + 1))
        if style.name == "block_head":
            start = 0
        else:
            start = int(rng.integers(0, T - length + 1)) if length < T else 0
        return _block_actor(start, length, p.get("fast_action", 1.0), p.get("slow_action", 0.0))
    if style.name == "constant":
        action = np.full(spec.action_dim, p.get("action", 0.0))
        return lambda _state, _t: action
    if style.name == "random":
        table = rng.uniform(-1.0, 1.0, size=(T, spec.action_dim))
        return _table_actor(table)
    if style.name == "orbit":
        radius = float(rng.uniform(p.get("min_radius", 0.7), p.get("max_radius", 1.3)))
        return _orbit_actor(radius)
    raise ConfigError(f"unknown behavior style {style.name!r}")


def generate_offline_dataset(env, mix: BehaviorMix, n_traj: int, seed: int) -> OfflineDataset:
    """Roll out ``n_traj`` episodes under the mixture as one batch;
    deterministic per seed.

    Every actor is built first, drawing its style and then its parameters
    from the seed's stream; rollouts draw no randomness, so the stream
    does not depend on how the episodes are stepped.
    """
    if n_traj <= 0:
        raise ConfigError(f"n_traj must be >= 1, got {n_traj}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DA7A]))
    weights = mix.weights()
    actors = []
    for _ in range(n_traj):
        style = mix.styles[int(rng.choice(len(mix.styles), p=weights))]
        actors.append(_make_actor(style, env.spec, rng))
    return OfflineDataset.from_arrays(env.spec, *rollout_actors(env, actors))


# -- relabeling ---------------------------------------------------------------


def relabel(r_seg, c_seg, delta: float, c_max: float, rng: np.random.Generator):
    """Draw (r_hat, c_hat): r_hat uniform in the sorted +/-delta band around
    r_seg, c_hat uniform on [c_seg, c_max]. Vectorized over arrays."""
    if not 0.0 <= delta < 1.0:
        raise ContractError(f"delta must be in [0, 1), got {delta}")
    r_seg = np.asarray(r_seg, dtype=np.float64)
    c_seg = np.asarray(c_seg, dtype=np.float64)
    if np.any(c_seg > c_max + 1e-12):
        raise ContractError("c_seg exceeds c_max; relabel interval is empty")
    lo = np.minimum((1.0 - delta) * r_seg, (1.0 + delta) * r_seg)
    hi = np.maximum((1.0 - delta) * r_seg, (1.0 + delta) * r_seg)
    r_hat = rng.uniform(lo, hi)
    c_hat = rng.uniform(c_seg, np.maximum(c_seg, c_max))
    return r_hat, c_hat


# -- dataset reshaping --------------------------------------------------------


@dataclass
class ReshapeIndex:
    """Favored subset: transitions of trajectories in the top-q% reward
    quantile conditional on their cost bin (empirical CDF rule)."""

    member_traj_ids: np.ndarray


def build_reshape_index(dataset: OfflineDataset, q_percent: float, cost_bins: int) -> ReshapeIndex:
    if not 0.0 < q_percent <= 100.0:
        raise ConfigError(f"q_percent must be in (0, 100], got {q_percent}")
    if cost_bins < 1:
        raise ConfigError(f"cost_bins must be >= 1, got {cost_bins}")
    rewards, costs = dataset.total_returns()
    p = 1.0 - q_percent / 100.0
    if dataset.c_max > 0:
        bin_idx = np.minimum((costs / dataset.c_max * cost_bins).astype(int), cost_bins - 1)
    else:
        bin_idx = np.zeros(dataset.n, dtype=int)
    members = []
    for b in range(cost_bins):
        ids = np.flatnonzero(bin_idx == b)
        if ids.size == 0:
            continue
        r = rewards[ids]
        # empirical CDF rule: member iff P(R' <= R) > 1 - q
        ranks = (r[:, None] >= r[None, :]).sum(axis=1)
        keep = ranks / ids.size > p
        members.extend(ids[keep].tolist())
    return ReshapeIndex(np.array(sorted(members), dtype=int))


# -- batch sampling -----------------------------------------------------------


def sample_batch(dataset: OfflineDataset, reshape: "ReshapeIndex | None",
                 cfg: AugmentConfig, batch_size: int, rng: np.random.Generator,
                 relabel_rng: "np.random.Generator | None" = None) -> TransitionBatch:
    """Draw a training batch.

    Per sample: with probability epsilon pick (traj, t) uniformly from the
    reshaped subset, otherwise uniformly from all pairs; then draw the
    segment end gamma uniformly on {t, .., T-1}, compute exact segment
    returns from the prefix sums, and relabel the targets.

    A fixed number of random variates is consumed per call regardless of
    epsilon, so the stream layout depends only on (seed, batch size).
    """
    if dataset.n == 0:
        raise ConfigError("cannot sample from an empty dataset")
    if cfg.epsilon > 0.0 and (reshape is None or reshape.member_traj_ids.size == 0):
        raise ContractError("epsilon > 0 requires a non-empty reshape index")
    if relabel_rng is None:
        relabel_rng = rng
    T = dataset.horizon
    branch = rng.random(batch_size) < cfg.epsilon
    traj_uniform = rng.integers(0, dataset.n, size=batch_size)
    n_members = reshape.member_traj_ids.size if reshape is not None else 0
    member_pick = rng.integers(0, max(n_members, 1), size=batch_size)
    t = rng.integers(0, T, size=batch_size)
    if n_members > 0:
        traj = np.where(branch, reshape.member_traj_ids[member_pick], traj_uniform)
    else:
        traj = traj_uniform
    if cfg.tsra:
        gamma = rng.integers(t, T)
    else:
        gamma = np.full(batch_size, T - 1, dtype=np.int64)
    r_seg = dataset.reward_prefix[traj, gamma + 1] - dataset.reward_prefix[traj, t]
    c_seg = dataset.cost_prefix[traj, gamma + 1] - dataset.cost_prefix[traj, t]
    r_hat, c_hat = relabel(r_seg, c_seg, cfg.delta, dataset.c_max, relabel_rng)
    if not cfg.relabel_cost:
        c_hat = c_seg.copy()
    return TransitionBatch(
        states=dataset.states[traj, t],
        actions=dataset.actions[traj, t],
        t=t.astype(np.int64),
        gamma=gamma.astype(np.int64),
        r_seg=r_seg,
        c_seg=c_seg,
        t_prime=(t + T - 1 - gamma).astype(np.int64),
        r_hat=r_hat,
        c_hat=c_hat,
        from_reshape=branch,
    )


# -- serialization ------------------------------------------------------------


_RECORD_FIELDS = ("states", "actions", "rewards", "costs")


def _record_dtype(T: int, state_dim: int, action_dim: int) -> np.dtype:
    """One trajectory's bytes in the file: its four arrays back to back."""
    return np.dtype([("states", "<f8", (T, state_dim)), ("actions", "<f8", (T, action_dim)),
                     ("rewards", "<f8", (T,)), ("costs", "<f8", (T,))])


def save_dataset(dataset: OfflineDataset, path) -> None:
    meta = dataset.env_meta
    name_bytes = meta.name.encode("utf-8")
    records = np.empty(dataset.n, _record_dtype(*dataset.states.shape[1:], dataset.actions.shape[2]))
    for name in _RECORD_FIELDS:
        records[name] = getattr(dataset, name)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<5I2d", DATASET_VERSION, meta.state_dim, meta.action_dim,
                             meta.episode_length, dataset.n, dataset.r_max, dataset.c_max))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(records)


def load_dataset(path) -> OfflineDataset:
    """Read a dataset file; a truncated or corrupt file raises SchemaError."""
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())
    with parsing(f"dataset {path}"):
        magic = fh.read(8)
        if magic != DATASET_MAGIC:
            raise SchemaError(f"bad dataset magic {magic!r}, expected {DATASET_MAGIC!r}")
        version, state_dim, action_dim, T, n_traj, r_max, c_max = struct.unpack(
            "<5I2d", fh.read(5 * 4 + 2 * 8))
        if version != DATASET_VERSION:
            raise SchemaError(f"unsupported dataset version {version}, expected {DATASET_VERSION}")
        (name_len,) = struct.unpack("<I", fh.read(4))
        name = fh.read(name_len).decode("utf-8")
        spec = spec_by_name(name, T)
        if spec.state_dim != state_dim or spec.action_dim != action_dim:
            raise SchemaError(
                f"dimension mismatch for {name!r}: header says "
                f"({state_dim}, {action_dim}), spec says ({spec.state_dim}, {spec.action_dim})")
        body = fh.read()
        if len(body) < n_traj * T * (state_dim + action_dim + 2) * 8:
            raise SchemaError("truncated trajectory data")
        records = np.frombuffer(body, _record_dtype(T, state_dim, action_dim), count=n_traj)
        ds = OfflineDataset.from_arrays(spec, *(records[name].copy() for name in _RECORD_FIELDS))
    if not (np.isclose(ds.r_max, r_max) and np.isclose(ds.c_max, c_max)):
        raise SchemaError(
            f"header maxima ({r_max}, {c_max}) disagree with data ({ds.r_max}, {ds.c_max})")
    return ds


def export_jsonl(dataset: OfflineDataset, path) -> None:
    """Debug export: one trajectory per line as plain JSON."""
    with open(path, "w") as fh:
        for traj in dataset.trajectories:
            fh.write(json.dumps({
                "states": traj.states.tolist(),
                "actions": traj.actions.tolist(),
                "rewards": traj.rewards.tolist(),
                "costs": traj.costs.tolist(),
            }, sort_keys=True))
            fh.write("\n")

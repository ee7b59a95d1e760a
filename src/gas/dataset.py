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

Binary file format: magic ``GASDSET1``, little-endian header, contiguous
f64 arrays per trajectory in (states, actions, rewards, costs) order.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .envs import CHAIN_RUN, GRID_CIRCLE, EnvSpec, Trajectory, rollout
from .errors import ConfigError, ContractError, SchemaError, parsing

DATASET_MAGIC = b"GASDSET1"
DATASET_VERSION = 1


# -- containers --------------------------------------------------------------


@dataclass
class OfflineDataset:
    env_meta: EnvSpec
    trajectories: list
    r_max: float
    c_max: float
    # stacked copies for vectorized sampling
    states: np.ndarray = field(repr=False, default=None)         # (N, T, d)
    actions: np.ndarray = field(repr=False, default=None)        # (N, T, adim)
    reward_prefix: np.ndarray = field(repr=False, default=None)  # (N, T+1)
    cost_prefix: np.ndarray = field(repr=False, default=None)    # (N, T+1)

    @classmethod
    def from_trajectories(cls, env_meta: EnvSpec, trajectories: Sequence[Trajectory]) -> "OfflineDataset":
        if not trajectories:
            raise ConfigError("dataset must contain at least one trajectory")
        T = trajectories[0].horizon
        for traj in trajectories:
            if traj.horizon != T:
                raise ContractError("all trajectories must share the same horizon")
        ds = cls(
            env_meta=env_meta,
            trajectories=list(trajectories),
            r_max=max(t.total_reward for t in trajectories),
            c_max=max(t.total_cost for t in trajectories),
        )
        ds.states = np.stack([t.states for t in trajectories])
        ds.actions = np.stack([t.actions for t in trajectories])
        ds.reward_prefix = np.stack([t.reward_prefix for t in trajectories])
        ds.cost_prefix = np.stack([t.cost_prefix for t in trajectories])
        return ds

    @property
    def n(self) -> int:
        return len(self.trajectories)

    @property
    def horizon(self) -> int:
        return self.trajectories[0].horizon

    def total_returns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.reward_prefix[:, -1].copy(), self.cost_prefix[:, -1].copy()


def segment_return(traj: Trajectory, t: int, gamma: int) -> tuple[float, float]:
    """Exact prefix-sum difference over the inclusive window [t, gamma]."""
    return traj.segment_return(t, gamma)


@dataclass(frozen=True)
class TransitionSample:
    state: np.ndarray
    action: np.ndarray
    t: int
    gamma: int
    r_seg: float
    c_seg: float
    t_prime: int
    r_hat: float
    c_hat: float
    from_reshape: bool


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

    def sample(self, i: int) -> TransitionSample:
        return TransitionSample(
            self.states[i], self.actions[i], int(self.t[i]), int(self.gamma[i]),
            float(self.r_seg[i]), float(self.c_seg[i]), int(self.t_prime[i]),
            float(self.r_hat[i]), float(self.c_hat[i]), bool(self.from_reshape[i]),
        )

    def __iter__(self) -> Iterator[TransitionSample]:
        return (self.sample(i) for i in range(len(self)))


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


def _block_actor(T: int, start: int, length: int, fast_action: float, slow_action: float):
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
        return _block_actor(T, 0, 0, 0.0, slow)
    if style.name in ("block_head", "block_uniform"):
        max_len = p.get("max_len") or T
        min_len = p.get("min_len", 0)
        length = int(rng.integers(min_len, max_len + 1))
        if style.name == "block_head":
            start = 0
        else:
            start = int(rng.integers(0, T - length + 1)) if length < T else 0
        return _block_actor(T, start, length, p.get("fast_action", 1.0), p.get("slow_action", 0.0))
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
    """Roll out ``n_traj`` episodes under the mixture; deterministic per seed."""
    if n_traj <= 0:
        raise ConfigError(f"n_traj must be >= 1, got {n_traj}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DA7A]))
    weights = mix.weights()
    trajectories = []
    for _ in range(n_traj):
        style = mix.styles[int(rng.choice(len(mix.styles), p=weights))]
        actor = _make_actor(style, env.spec, rng)
        trajectories.append(rollout(env, actor))
    return OfflineDataset.from_trajectories(env.spec, trajectories)


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

    cost_bin_edges: np.ndarray
    per_bin_threshold: np.ndarray
    member_traj_ids: np.ndarray
    horizon: int

    @property
    def member_ids(self) -> list:
        return [(int(i), t) for i in self.member_traj_ids for t in range(self.horizon)]

    @property
    def n_member_pairs(self) -> int:
        return len(self.member_traj_ids) * self.horizon


def build_reshape_index(dataset: OfflineDataset, q_percent: float, cost_bins: int) -> ReshapeIndex:
    if not 0.0 < q_percent <= 100.0:
        raise ConfigError(f"q_percent must be in (0, 100], got {q_percent}")
    if cost_bins < 1:
        raise ConfigError(f"cost_bins must be >= 1, got {cost_bins}")
    rewards, costs = dataset.total_returns()
    n = dataset.n
    p = 1.0 - q_percent / 100.0
    if dataset.c_max > 0:
        edges = np.linspace(0.0, dataset.c_max, cost_bins + 1)
        bin_idx = np.minimum((costs / dataset.c_max * cost_bins).astype(int), cost_bins - 1)
    else:
        edges = np.array([0.0, 0.0])
        bin_idx = np.zeros(n, dtype=int)
        cost_bins = 1
    thresholds = np.full(cost_bins, -np.inf)
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
        k = int(np.ceil(p * ids.size))
        if k >= 1:
            thresholds[b] = np.sort(r)[k - 1]
    members = np.array(sorted(members), dtype=int)
    return ReshapeIndex(edges, thresholds, members, dataset.horizon)


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


def save_dataset(dataset: OfflineDataset, path) -> None:
    meta = dataset.env_meta
    name_bytes = meta.name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<5I2d", DATASET_VERSION, meta.state_dim, meta.action_dim,
                             meta.episode_length, dataset.n, dataset.r_max, dataset.c_max))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        for traj in dataset.trajectories:
            for arr in (traj.states, traj.actions, traj.rewards, traj.costs):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        from .envs import spec_by_name

        spec = spec_by_name(name, T)
        if spec.state_dim != state_dim or spec.action_dim != action_dim:
            raise SchemaError(
                f"dimension mismatch for {name!r}: header says "
                f"({state_dim}, {action_dim}), spec says ({spec.state_dim}, {spec.action_dim})")
        trajectories = []
        for _ in range(n_traj):
            chunks = []
            for shape in ((T, state_dim), (T, action_dim), (T,), (T,)):
                count = int(np.prod(shape))
                buf = fh.read(count * 8)
                if len(buf) != count * 8:
                    raise SchemaError("truncated trajectory data")
                chunks.append(np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape))
            trajectories.append(Trajectory.from_arrays(*chunks))
        ds = OfflineDataset.from_trajectories(spec, trajectories)
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

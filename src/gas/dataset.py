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

The corpus is one set of stacked (N, T, .) arrays plus prefix sums along
time; ``OfflineDataset.segment_returns`` is the one place that turns the
prefix sums into segment returns. ``rollout`` runs a single actor and
returns a one-row corpus.

Binary file format: magic ``GASDSET1``, little-endian header, then one
record per trajectory of contiguous f64 (states, actions, rewards, costs).
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import CHAIN_RUN, GRID_CIRCLE, ActionSource, EnvSpec, rollout_actors, spec_by_name
from .errors import ConfigError, ContractError, SchemaError, parsing

DATASET_MAGIC = b"GASDSET1"
DATASET_VERSION = 1


# -- containers --------------------------------------------------------------


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """Running sums along the last axis with a leading 0: entry k is the
    sum of the first k values, so [t, gamma] sums to p[gamma+1] - p[t]."""
    start = np.zeros(values.shape[:-1] + (1,))
    return np.concatenate([start, np.cumsum(values, axis=-1)], axis=-1)


@dataclass
class OfflineDataset:
    """N equal-length trajectories, stacked for vectorized sampling, with
    prefix sums along time for O(1) segment returns."""

    env_meta: EnvSpec
    states: np.ndarray = field(repr=False)         # (N, T, d)
    actions: np.ndarray = field(repr=False)        # (N, T, adim)
    rewards: np.ndarray = field(repr=False)        # (N, T)
    costs: np.ndarray = field(repr=False)          # (N, T)
    reward_prefix: np.ndarray = field(repr=False)  # (N, T+1)
    cost_prefix: np.ndarray = field(repr=False)    # (N, T+1)
    r_max: float
    c_max: float

    @classmethod
    def from_arrays(cls, env_meta: EnvSpec, states, actions, rewards, costs) -> "OfflineDataset":
        rewards = np.asarray(rewards, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if rewards.shape[0] == 0:
            raise ConfigError("dataset must contain at least one trajectory")
        rp, cp = _prefix_sums(rewards), _prefix_sums(costs)
        # a non-finite value, or a sum that overflows, makes every later
        # running sum non-finite, so the totals show it
        for key, prefix in (("rewards", rp), ("costs", cp)):
            if not np.isfinite(prefix[:, -1]).all():
                raise ConfigError(f"{key} must be finite, and so must their sums")
        return cls(env_meta, np.asarray(states, dtype=np.float64),
                   np.asarray(actions, dtype=np.float64), rewards, costs, rp, cp,
                   r_max=float(rp[:, -1].max()), c_max=float(cp[:, -1].max()))

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]

    def total_returns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.reward_prefix[:, -1].copy(), self.cost_prefix[:, -1].copy()

    def segment_returns(self, traj, t, gamma) -> tuple[np.ndarray, np.ndarray]:
        """Exact (reward, cost) returns of the inclusive segments [t, gamma]
        of trajectories ``traj``; integer scalars or arrays that broadcast."""
        traj, t, gamma = np.asarray(traj), np.asarray(t), np.asarray(gamma)
        # one mask, not a reduction per bound: the per-call overhead dominates
        if ((traj < 0) | (traj >= self.n) | (t < 0) | (gamma < t) | (gamma >= self.horizon)).any():
            raise ContractError(f"segment indices out of range: need 0 <= traj < {self.n} "
                                f"and 0 <= t <= gamma < {self.horizon}")
        end = gamma + 1
        return (self.reward_prefix[traj, end] - self.reward_prefix[traj, t],
                self.cost_prefix[traj, end] - self.cost_prefix[traj, t])


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
class BehaviorMix:
    """Weighted mixture of behavior styles used to generate a dataset. A style
    is a ``(weight, draw)`` pair: ``draw(spec, rng)`` draws one episode's
    parameters from the corpus stream and returns its actor."""

    styles: tuple

    def weights(self) -> np.ndarray:
        w = np.array([weight for weight, _ in self.styles], dtype=np.float64)
        total = w.sum()
        if total <= 0:
            raise ConfigError("behavior mix weights must sum to a positive value")
        return w / total


def _blocks(fast: float, slow: float, min_len: int, max_len: "int | None", at_head: bool):
    """Fast for one block of min_len..max_len steps (None: up to T), slow
    elsewhere; the block starts at t = 0 if ``at_head``, else uniformly."""
    def draw(spec: EnvSpec, rng: np.random.Generator) -> ActionSource:
        T = spec.episode_length
        length = int(rng.integers(min_len, (max_len or T) + 1))
        start = 0 if at_head or length >= T else int(rng.integers(0, T - length + 1))
        end = start + length
        return lambda _state, t: fast if start <= t < end else slow

    return draw


def _constant(action: float):
    def draw(spec: EnvSpec, _rng) -> ActionSource:
        row = np.full(spec.action_dim, action)
        return lambda _state, _t: row

    return draw


def _random(spec: EnvSpec, rng: np.random.Generator) -> ActionSource:
    table = rng.uniform(-1.0, 1.0, size=(spec.episode_length, spec.action_dim))
    return lambda _state, t: table[t]


def _orbit(min_radius: float, max_radius: float):
    """Circle the origin at a radius drawn per episode, steering back with gain 4."""
    def draw(_spec: EnvSpec, rng: np.random.Generator) -> ActionSource:
        radius = float(rng.uniform(min_radius, max_radius))

        def actor(state, _t):
            x, y = state[0], state[1]
            norm = max(np.hypot(x, y), 1e-8)
            tangent = np.array([-y, x]) / norm
            radial = np.array([x, y]) / norm
            return np.clip(tangent + 4.0 * (radius - norm) * radial, -1.0, 1.0)

        return actor

    return draw


def pure_block_mix(fast_action: float = 1.0, slow_action: float = 0.0) -> BehaviorMix:
    """Blocks of every length 0..T at uniform positions; fast=v1.0, slow=v0.5 by default."""
    return BehaviorMix(((1.0, _blocks(fast_action, slow_action, 0, None, at_head=False)),))


def slow_only_mix(slow_action: float = 0.0) -> BehaviorMix:
    return BehaviorMix(((1.0, _constant(slow_action)),))


def stitch_mix() -> BehaviorMix:
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
        (0.65, _blocks(fast, slow, 1, 16, at_head=True)),
        (0.05, _blocks(fast, slow, 1, 16, at_head=False)),
        (0.15, _constant(slow)),
        (0.10, _constant(0.02)),
        (0.05, _random),
    ))


def gridcircle_mix() -> BehaviorMix:
    return BehaviorMix((
        (0.6, _orbit(0.7, 1.3)),
        (0.2, _orbit(1.3, 1.7)),
        (0.2, _random),
    ))


def mix_by_name(name: str, env_name: str) -> BehaviorMix:
    """The named mix for ``env_name``; ``default`` is that env's standard mix.
    The orbit mix (``gridcircle``) acts in 2-D, so it needs GridCircle; the
    others act with one scalar and run on either env."""
    table = {
        "stitch": stitch_mix,
        "pure_block": pure_block_mix,
        "slow": slow_only_mix,
        "gridcircle": gridcircle_mix,
    }
    if name == "default":
        name = "stitch" if env_name == CHAIN_RUN else "gridcircle"
    if name not in table:
        raise ConfigError(f"behavior_mix must be default or one of {', '.join(sorted(table))}, "
                          f"got {name!r}")
    if name == "gridcircle" and env_name != GRID_CIRCLE:
        raise ConfigError(f"behavior_mix 'gridcircle' needs 2-D actions: env_name must be "
                          f"{GRID_CIRCLE}, got {env_name!r}")
    return table[name]()


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
        _, draw = mix.styles[int(rng.choice(len(mix.styles), p=weights))]
        actors.append(draw(env.spec, rng))
    return OfflineDataset.from_arrays(env.spec, *rollout_actors(env, actors))


def rollout(env, actor: ActionSource) -> OfflineDataset:
    """Run ``actor`` for one episode from ``env.reset()``: a one-row corpus."""
    return OfflineDataset.from_arrays(env.spec, *rollout_actors(env, [actor]))


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
    # occupied bins only, as cost_bins may be huge; a set, since np.unique imports numpy.ma
    for b in set(bin_idx.tolist()):
        ids = np.flatnonzero(bin_idx == b)
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
    r_seg, c_seg = dataset.segment_returns(traj, t, gamma)
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


def load_dataset(path, raw: "bytes | None" = None) -> OfflineDataset:
    """Read a dataset file; a truncated or corrupt file, or one with bytes
    after its last record, raises SchemaError.
    Parses ``raw``, the file's bytes already read, when given."""
    fh = io.BytesIO(Path(path).read_bytes() if raw is None else raw)
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
        size = n_traj * T * (state_dim + action_dim + 2) * 8
        if len(body) != size:
            raise SchemaError(f"trajectory data is {len(body)} bytes, the header gives {size}")
        records = np.frombuffer(body, _record_dtype(T, state_dim, action_dim), count=n_traj)
        ds = OfflineDataset.from_arrays(spec, *(records[name].copy() for name in _RECORD_FIELDS))
    if not (np.isclose(ds.r_max, r_max) and np.isclose(ds.c_max, c_max)):
        raise SchemaError(
            f"header maxima ({r_max}, {c_max}) disagree with data ({ds.r_max}, {ds.c_max})")
    return ds


def export_jsonl(dataset: OfflineDataset, path) -> None:
    """Debug export: one trajectory per line as plain JSON."""
    with open(path, "w") as fh:
        for i in range(dataset.n):
            fh.write(json.dumps({name: getattr(dataset, name)[i].tolist()
                                 for name in _RECORD_FIELDS}, sort_keys=True))
            fh.write("\n")

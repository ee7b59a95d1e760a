"""Run configuration, seed streams, and content hashing.

Config sources compose with precedence CLI overrides > config file >
defaults. The file format is plain ``key = value`` lines (``#`` comments);
overrides are ``key=value`` tokens. Unknown keys are errors, never ignored.

All randomness flows from one root seed split into named streams so that
ablations share every stream except the one under study.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# hyperparameter defaults: 7 layers, hidden 128, embedding 64, batch 2048,
# lr 1e-4, betas (0.9, 0.999), grad clip 0.25, weight decay 1e-4, alpha 0.8,
# delta 0.1, q 10%, epsilon 0.5


@dataclass
class RunConfig:
    # environment / dataset
    env_name: str = "ChainRun"
    episode_length: int = 32
    n_traj: int = 200
    behavior_mix: str = "default"
    dataset_path: str = ""
    # augmentation / relabeling / reshaping
    delta: float = 0.1
    q_percent: float = 10.0
    epsilon: float = 0.5
    cost_bins: int = 10
    tsra: bool = True
    relabel_cost: bool = True
    # networks / optimizer
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
    # training
    alpha: float = 0.8
    iterations: int = 20000
    schedule: str = "interleaved"
    # evaluation
    thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    target_reward_fraction: float = 1.05
    # run plumbing
    seed: int = 0
    out_dir: str = "runs"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    default = getattr(RunConfig(), key)
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            elem = type(default[0]) if default else float
            return tuple(elem(part) for part in raw.split(",") if part.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc


def load_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r} ({path}:{lineno})")
            values[key] = _parse_value(key, raw)
    return values


def parse_overrides(tokens) -> dict:
    values = {}
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"override must look like key=value, got {token!r}")
        key, raw = token.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def build_config(config_path=None, overrides=()) -> RunConfig:
    values = {}
    if config_path:
        values.update(load_config_file(config_path))
    values.update(parse_overrides(overrides))
    return dataclasses.replace(RunConfig(), **values)


# run placement, not experiment identity: excluded from hashing so the same
# experiment reproduces byte-identically in any directory
_PLACEMENT_KEYS = ("out_dir",)


def canonical_config_text(cfg: RunConfig) -> str:
    lines = []
    for name in sorted(_FIELDS):
        if name in _PLACEMENT_KEYS:
            continue
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{name} = {value!r}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# named seed streams, fixed ids so ablations share unrelated streams
_STREAM_IDS = {
    "relabel": 2,
    "init_reward": 3,
    "init_cost": 4,
    "init_policy": 5,
    "batch": 6,
}


def seed_streams(root_seed: int) -> dict:
    """Independent generators derived from one root seed."""
    return {
        name: np.random.default_rng(np.random.SeedSequence([root_seed, sid]))
        for name, sid in _STREAM_IDS.items()
    }

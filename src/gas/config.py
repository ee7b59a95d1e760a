"""Run configuration, seed streams, and content hashing.

Config sources compose with precedence CLI overrides > config file >
defaults. The file format is plain ``key = value`` lines (``#`` comments);
overrides are ``key=value`` tokens. Keys are flat: each names a field of
``RunConfig`` or of one of its parts (``AugmentConfig``, ``NetHyper``,
``EvalConfig``), whose defaults and range checks apply. Unknown keys are
errors, never ignored.

All randomness flows from one root seed split into named streams so that
ablations share every stream except the one under study.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .dataset import AugmentConfig, mix_by_name
from .envs import spec_by_name
from .errors import ConfigError
from .evaluate import EvalConfig
from .training import SCHEDULES, NetHyper


@dataclass
class RunConfig:
    # environment / dataset
    env_name: str = "ChainRun"
    episode_length: int = 32
    n_traj: int = 200
    behavior_mix: str = "default"
    dataset_path: str = ""
    # training
    alpha: float = 0.8
    iterations: int = 20000
    schedule: str = "interleaved"
    # run plumbing
    seed: int = 0
    out_dir: str = "runs"
    # the library's settings
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    hyper: NetHyper = field(default_factory=NetHyper)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        spec = spec_by_name(self.env_name, self.episode_length)  # known env, episode_length >= 2
        mix_by_name(self.behavior_mix, self.env_name)  # a known mix the env can run
        for key, least in (("n_traj", 1), ("iterations", 0), ("seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not self.dataset_path:
            # the generated corpus: states, actions, rewards, costs and their prefix sums
            corpus = (self.n_traj * self.episode_length
                      * (spec.state_dim + spec.action_dim + 4) * 8)
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if corpus > memory:
                raise ConfigError(f"n_traj must keep the generated corpus ({corpus} bytes) "
                                  f"within physical memory ({memory} bytes), got {self.n_traj}")
        if not 0.0 < self.alpha < 1.0:  # also rejects nan
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {', '.join(SCHEDULES)}, "
                              f"got {self.schedule!r}")


_PARTS = {"augment": AugmentConfig, "hyper": NetHyper, "evaluation": EvalConfig}
# flat config key -> the part that holds it, None for RunConfig's own fields
_KEYS = {f.name: None for f in dataclasses.fields(RunConfig) if f.name not in _PARTS}
_KEYS.update({f.name: part for part, cls in _PARTS.items() for f in dataclasses.fields(cls)})


def _value(cfg: RunConfig, key: str):
    part = _KEYS[key]
    return getattr(getattr(cfg, part) if part else cfg, key)


_DEFAULTS = RunConfig()


def _parse_pair(text: str, source: str) -> tuple:
    """``key=value`` from ``source`` as (key, value typed like its default)."""
    if "=" not in text:
        raise ConfigError(f"{source}: expected key=value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r} ({source})")
    default = _value(_DEFAULTS, key)
    try:
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                return key, True
            if raw.lower() in ("0", "false", "no", "off"):
                return key, False
            raise ValueError(raw)
        if isinstance(default, int):
            return key, int(raw)
        if isinstance(default, float):
            return key, float(raw)
        if isinstance(default, tuple):
            elem = type(default[0]) if default else float
            return key, tuple(elem(part) for part in raw.split(",") if part.strip())
        return key, raw
    except ValueError as exc:
        raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc


def build_config(config_path=None, overrides=()) -> RunConfig:
    """The file's pairs, then the overrides, the later value of a key winning.
    Each part is built here, so its range checks reject a bad value before
    any subcommand runs."""
    pairs = []
    if config_path:
        with open(config_path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    pairs.append((line, f"{config_path}:{lineno}"))
    pairs += [(token, "override") for token in overrides]
    own, parts = {}, {part: {} for part in _PARTS}
    for text, source in pairs:
        key, value = _parse_pair(text, source)
        part = _KEYS[key]
        (parts[part] if part else own)[key] = value
    return RunConfig(**own, **{part: cls(**parts[part]) for part, cls in _PARTS.items()})


# run placement, not experiment identity: excluded from hashing so the same
# experiment reproduces byte-identically in any directory
_PLACEMENT_KEYS = ("out_dir",)


def canonical_config_text(cfg: RunConfig) -> str:
    lines = []
    for key in sorted(_KEYS):
        if key in _PLACEMENT_KEYS:
            continue
        value = _value(cfg, key)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{key} = {value!r}")
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

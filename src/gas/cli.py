"""Command-line entry point.

Subcommands: gen-dataset, train, sweep, ablate, oracle-check.
Configuration comes from an optional ``--config`` file plus ``key=value``
overrides (CLI > file > defaults). GAS_OUT_DIR overrides the output
directory. Exit codes: 0 success, 1 config error, 2 runtime error,
3 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from .evaluate import (ABLATION_KINDS, EvalConfig, evaluate, reward_target_table,
                       run_ablation, sweep_gates)
from .config import (RunConfig, build_config, canonical_config_text,
                     config_hash, seed_streams, sha256_file)
from .envs import make_env, spec_by_name
from .errors import ConfigError, GasError, SchemaError
from .goals import load_goals, save_goals
from .oracle import brute_force_goals, probe_grid_from_dataset
from .policy import load_policy, save_policy
from .training import train_gas

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


def _out_dir(cfg: RunConfig) -> Path:
    out = os.environ.get("GAS_OUT_DIR", cfg.out_dir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_or_generate_dataset(cfg: RunConfig, out: Path) -> tuple[ds.OfflineDataset, Path]:
    if cfg.dataset_path:
        path = Path(cfg.dataset_path)
        return ds.load_dataset(path), path
    spec = spec_by_name(cfg.env_name, cfg.episode_length)
    env = make_env(spec)
    mix = ds.mix_by_name(cfg.behavior_mix, cfg.env_name)
    data = ds.generate_offline_dataset(env, mix, cfg.n_traj, cfg.seed)
    path = out / "dataset.gasdset"
    ds.save_dataset(data, path)
    return data, path


def _print_histogram(data: ds.OfflineDataset, bins: int) -> None:
    rewards, costs = data.total_returns()
    edges = np.linspace(0.0, max(data.c_max, 1e-9), bins + 1)
    width = edges[1] - edges[0]
    idx = np.minimum((costs / max(data.c_max, 1e-9) * bins).astype(int), bins - 1)
    print("cost_bin,count,mean_reward,bar")
    for b in range(bins):
        members = rewards[idx == b]
        count = members.size
        mean_r = float(members.mean()) if count else 0.0
        bar = "#" * min(count, 60)
        print(f"[{edges[b]:.2f},{edges[b] + width:.2f}),{count},{mean_r:.3f},{bar}")


def cmd_gen_dataset(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    data, path = _load_or_generate_dataset(cfg, out)
    ds.export_jsonl(data, out / "dataset.jsonl")
    print(f"dataset: {path}")
    print(f"n_traj={data.n} T={data.horizon} R_max={data.r_max} C_max={data.c_max}")
    _print_histogram(data, cfg.augment.cost_bins)
    return EXIT_OK


def _train_meta(cfg: RunConfig, dataset_path: Path, data: ds.OfflineDataset) -> dict:
    fracs = sorted(set(cfg.evaluation.thresholds) | set(EvalConfig.thresholds))
    aug = cfg.augment
    return {
        "alpha": cfg.alpha, "delta": aug.delta, "q_percent": aug.q_percent,
        "epsilon": aug.epsilon, "config_hash": config_hash(cfg), "seed": cfg.seed,
        "env_name": data.env_meta.name, "episode_length": data.env_meta.episode_length,
        "state_dim": data.env_meta.state_dim,
        "r_max": data.r_max, "c_max": data.c_max,
        "reward_target_table": reward_target_table(data, fracs),
        "dataset_sha256": sha256_file(dataset_path),
    }


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    data, dataset_path = _load_or_generate_dataset(cfg, out)
    result = train_gas(data, cfg.augment, cfg.hyper, cfg.alpha,
                       cfg.iterations, seed_streams(cfg.seed), cfg.schedule)
    meta = _train_meta(cfg, dataset_path, data)
    goals_path, policy_path = out / "goals.ckpt", out / "policy.ckpt"
    save_goals(goals_path, result.nets, meta)
    save_policy(policy_path, result.pol, meta)
    loss_lines = ["iteration,loss_reward,loss_cost,loss_policy"]
    loss_lines += [f"{it},{lr!r},{lc!r},{lp!r}" for it, lr, lc, lp in result.history]
    (out / "loss.csv").write_text("\n".join(loss_lines) + "\n")
    manifest = {
        "config": json.loads(json.dumps(canonical_config_text(cfg))),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "inputs": {"dataset": meta["dataset_sha256"]},
        "outputs": {"goals.ckpt": sha256_file(goals_path),
                    "policy.ckpt": sha256_file(policy_path),
                    "loss.csv": sha256_file(out / "loss.csv")},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"trained {cfg.iterations} iterations -> {out}")
    return EXIT_OK


# metadata that sweep and oracle-check read from goals.ckpt
_TRAIN_META_KEYS = ("env_name", "state_dim", "episode_length", "r_max", "c_max",
                    "alpha", "delta", "q_percent", "epsilon")


def _checkpoint_path(out: Path, name: str) -> Path:
    path = out / name
    if not path.exists():
        raise ConfigError(f"missing checkpoint: {path}")
    return path


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _load_trained_goals(cfg: RunConfig, out: Path):
    """The goal nets, training metadata and file bytes of ``out/goals.ckpt``,
    checked against the run's env."""
    goals_path = _checkpoint_path(out, "goals.ckpt")
    raw = goals_path.read_bytes()
    nets, gmeta = load_goals(goals_path, raw)
    missing = set(_TRAIN_META_KEYS) - set(gmeta)
    if missing:
        raise SchemaError(f"{goals_path} metadata lacks {sorted(missing)}")
    spec = spec_by_name(cfg.env_name, cfg.episode_length)
    run = (spec.name, spec.state_dim, spec.episode_length)
    trained = (gmeta["env_name"], gmeta["state_dim"], gmeta["episode_length"])
    if run != trained:
        raise GasError(f"env/checkpoint mismatch (env, state_dim, episode_length): "
                       f"run is {run}, checkpoint is {trained}")
    return nets, gmeta, raw


def cmd_evaluate(cfg: RunConfig) -> int:
    """`gas sweep`: evaluate the checkpoints at the configured thresholds and
    write sweep.csv / sweep.json; exit 3 unless every budget holds and reward
    does not fall as the budget grows."""
    out = _out_dir(cfg)
    policy_path = _checkpoint_path(out, "policy.ckpt")
    nets, meta, goals_raw = _load_trained_goals(cfg, out)
    policy_raw = policy_path.read_bytes()
    pol, _ = load_policy(policy_path, policy_raw)
    env = make_env(spec_by_name(cfg.env_name, cfg.episode_length))
    ckpt_hash = {"goals.ckpt": _sha256(goals_raw), "policy.ckpt": _sha256(policy_raw)}
    report = evaluate(pol, nets, env, cfg.evaluation, meta["r_max"], meta["c_max"],
                      metadata={"checkpoint_hash": ckpt_hash, "alpha": meta["alpha"],
                                "delta": meta["delta"], "q_percent": meta["q_percent"],
                                "epsilon": meta["epsilon"]},
                      target_table=meta.get("reward_target_table"))
    (out / "sweep.csv").write_text(report.to_csv())
    (out / "sweep.json").write_text(report.to_json())
    gates = sweep_gates(report)
    for s in report.summary:
        print(f"threshold={s['threshold_frac']:.2f} reward_norm={s['reward_norm_mean']:.3f} "
              f"cost_norm={s['cost_norm_mean']:.3f}")
    print(f"gates: {json.dumps(gates, sort_keys=True)}")
    return EXIT_OK if gates["passed"] else EXIT_ACCEPTANCE


def cmd_ablate(cfg: RunConfig, kind: str) -> int:
    out = _out_dir(cfg)
    data, _ = _load_or_generate_dataset(cfg, out)
    env = make_env(data.env_meta)
    results = run_ablation(kind, data, cfg.augment, cfg.hyper, cfg.alpha, cfg.iterations,
                           cfg.seed, env, cfg.evaluation, cfg.schedule)
    comparison = {}
    for name, bundle in sorted(results.items()):
        report = bundle["report"]
        (out / f"ablate_{kind}_{name}.csv").write_text(report.to_csv())
        (out / f"ablate_{kind}_{name}.json").write_text(report.to_json())
        comparison[name] = report.summary
        print(f"variant {name}: "
              + " ".join(f"{s['threshold_frac']:.1f}:{s['reward_norm_mean']:.2f}/"
                         f"{s['cost_norm_mean']:.2f}" for s in report.summary))
    (out / f"ablate_{kind}_comparison.json").write_text(
        json.dumps(comparison, sort_keys=True, separators=(",", ":")) + "\n")
    return EXIT_OK


def _checkpoint_dataset(cfg: RunConfig, out: Path, meta: dict) -> ds.OfflineDataset:
    """The corpus the checkpoint was trained on: ``dataset_path`` or the run's
    dataset.gasdset, whose sha256 must be the one the checkpoint records."""
    path = Path(cfg.dataset_path) if cfg.dataset_path else out / "dataset.gasdset"
    if not path.exists():
        raise ConfigError(f"missing dataset: {path}")
    raw = path.read_bytes()
    if _sha256(raw) != meta.get("dataset_sha256"):
        raise GasError(f"dataset mismatch: {path} is not the corpus the checkpoint was trained on")
    data = ds.load_dataset(path, raw)
    if not cfg.dataset_path and data.n != cfg.n_traj:
        raise GasError(f"dataset mismatch: run has n_traj={cfg.n_traj}, "
                       f"the checkpoint's corpus {path} has {data.n}")
    return data


def cmd_oracle_check(cfg: RunConfig) -> int:
    """Compare trained goal nets against the brute-force oracle on the
    checkpoint's own corpus: the share of feasible probes where V^R is within
    10% of the oracle's best reward."""
    out = _out_dir(cfg)
    nets, meta, _ = _load_trained_goals(cfg, out)
    data = _checkpoint_dataset(cfg, out, meta)
    T = data.horizon
    times = [t for t in (0, T // 4, T // 2, 3 * T // 4) if t < T]
    budgets = [data.c_max * f for f in (0.125, 0.25, 0.5, 1.0)]
    traj_ids = list(range(0, data.n, max(1, data.n // 4)))[:4]
    probes = probe_grid_from_dataset(data, traj_ids, times, budgets)
    answers = brute_force_goals(data, probes)
    feasible = [k for k, answer in enumerate(answers) if answer.feasible]
    total = len(feasible)
    agree = 0
    if feasible:
        # one goal-net forward for every feasible probe, asked with r_hat = k
        states = np.stack([probes[k].state for k in feasible])
        t_prime = np.array([float(probes[k].t_prime) for k in feasible])
        c_hat = np.array([probes[k].c_hat for k in feasible])
        v_r, _ = nets.values(states, 1.0 * (T - t_prime), c_hat, t_prime)
        v_r_star = [answers[k].v_r_star for k in feasible]
        agree = sum(abs(value - star) / max(abs(star), 1e-8) <= 0.10
                    for value, star in zip(v_r.tolist(), v_r_star))
    frac = agree / total if total else 0.0
    payload = {"probes": len(probes), "feasible": total, "agreement_fraction": frac}
    (out / "oracle_check.json").write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if frac >= 0.9 else EXIT_ACCEPTANCE


@functools.cache  # one parser per process: building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gas",
        description="Goal-assisted stitching for offline safe RL on toy CMDPs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-dataset", "generate and save an offline dataset"),
        ("train", "train goal functions and policy"),
        ("sweep", "zero-shot threshold sweep of one checkpoint"),
        ("ablate", "train and evaluate ablation variants"),
        ("oracle-check", "compare goal nets against the brute-force oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                       help="config overrides, highest precedence")
        if name == "ablate":
            p.add_argument("--kind", required=True, choices=ABLATION_KINDS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args.config, args.overrides)
        command = args.command
        if command == "gen-dataset":
            return cmd_gen_dataset(cfg)
        if command == "train":
            return cmd_train(cfg)
        if command == "sweep":
            return cmd_evaluate(cfg)
        if command == "ablate":
            return cmd_ablate(cfg, args.kind)
        if command == "oracle-check":
            return cmd_oracle_check(cfg)
        raise ConfigError(f"unknown command {command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

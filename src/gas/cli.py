"""Command-line entry point.

Subcommands: gen-dataset, train, eval, sweep, ablate, oracle-check.
Configuration comes from an optional ``--config`` file plus ``key=value``
overrides (CLI > file > defaults). GAS_OUT_DIR overrides the output
directory. Exit codes: 0 success, 1 config error, 2 runtime error,
3 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
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
from .oracle import brute_force_goal, default_state_tolerance, probe_grid_from_dataset
from .policy import load_policy, save_policy
from .training import NetHyper, train_gas

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


def _out_dir(cfg: RunConfig) -> Path:
    out = os.environ.get("GAS_OUT_DIR", cfg.out_dir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _aug_config(cfg: RunConfig) -> ds.AugmentConfig:
    return ds.AugmentConfig(cfg.delta, cfg.q_percent, cfg.epsilon, cfg.cost_bins,
                            cfg.tsra, cfg.relabel_cost)


def _net_hyper(cfg: RunConfig) -> NetHyper:
    return NetHyper(cfg.n_layers, cfg.hidden, cfg.embedding, cfg.batch_size,
                    cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.grad_clip,
                    cfg.weight_decay, cfg.lr_final_fraction)


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
    _print_histogram(data, cfg.cost_bins)
    return EXIT_OK


def _train_meta(cfg: RunConfig, dataset_path: Path, data: ds.OfflineDataset) -> dict:
    fracs = sorted(set(cfg.thresholds) | {x / 10 for x in range(1, 10)})
    return {
        "alpha": cfg.alpha, "delta": cfg.delta, "q_percent": cfg.q_percent,
        "epsilon": cfg.epsilon, "config_hash": config_hash(cfg), "seed": cfg.seed,
        "env_name": data.env_meta.name, "episode_length": data.env_meta.episode_length,
        "state_dim": data.env_meta.state_dim, "action_dim": data.env_meta.action_dim,
        "r_max": data.r_max, "c_max": data.c_max,
        "reward_target_table": reward_target_table(data, fracs),
        "dataset_sha256": sha256_file(dataset_path),
    }


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    data, dataset_path = _load_or_generate_dataset(cfg, out)
    result = train_gas(data, _aug_config(cfg), _net_hyper(cfg), cfg.alpha,
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
        "inputs": {"dataset": sha256_file(dataset_path)},
        "outputs": {"goals.ckpt": sha256_file(goals_path),
                    "policy.ckpt": sha256_file(policy_path),
                    "loss.csv": sha256_file(out / "loss.csv")},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"trained {cfg.iterations} iterations -> {out}")
    return EXIT_OK


# metadata that eval, sweep and oracle-check read from goals.ckpt
_TRAIN_META_KEYS = ("env_name", "state_dim", "episode_length", "r_max", "c_max",
                    "alpha", "delta", "q_percent", "epsilon")


def _load_checkpoints(cfg: RunConfig, out: Path):
    goals_path = out / "goals.ckpt"
    policy_path = out / "policy.ckpt"
    for path in (goals_path, policy_path):
        if not path.exists():
            raise ConfigError(f"missing checkpoint: {path}")
    nets, gmeta = load_goals(goals_path)
    pol, _ = load_policy(policy_path)
    missing = set(_TRAIN_META_KEYS) - set(gmeta)
    if missing:
        raise SchemaError(f"{goals_path} metadata lacks {sorted(missing)}")
    spec = spec_by_name(cfg.env_name, cfg.episode_length)
    run = (spec.name, spec.state_dim, spec.episode_length)
    trained = (gmeta["env_name"], gmeta["state_dim"], gmeta["episode_length"])
    if run != trained:
        raise GasError(f"env/checkpoint mismatch (env, state_dim, episode_length): "
                       f"run is {run}, checkpoint is {trained}")
    env = make_env(spec)
    ckpt_hash = {"goals.ckpt": sha256_file(goals_path),
                 "policy.ckpt": sha256_file(policy_path)}
    return nets, pol, env, gmeta, ckpt_hash


# the gate that sets the exit code: eval checks the cost budgets only,
# sweep also checks that reward does not fall as the budget grows
_EVAL_GATES = {"eval": "cost_within_tolerance", "sweep": "passed"}


def cmd_evaluate(cfg: RunConfig, command: str) -> int:
    """`gas eval` and `gas sweep`: evaluate the checkpoints at the configured
    thresholds and write <command>.csv / <command>.json."""
    eval_cfg = EvalConfig(tuple(cfg.thresholds), cfg.target_reward_fraction)
    out = _out_dir(cfg)
    nets, pol, env, meta, ckpt_hash = _load_checkpoints(cfg, out)
    report = evaluate(pol, nets, env, eval_cfg, meta["r_max"], meta["c_max"],
                      metadata={"checkpoint_hash": ckpt_hash, "alpha": meta["alpha"],
                                "delta": meta["delta"], "q_percent": meta["q_percent"],
                                "epsilon": meta["epsilon"]},
                      target_table=meta.get("reward_target_table"))
    (out / f"{command}.csv").write_text(report.to_csv())
    (out / f"{command}.json").write_text(report.to_json())
    gates = sweep_gates(report)
    for s in report.summary:
        print(f"threshold={s['threshold_frac']:.2f} reward_norm={s['reward_norm_mean']:.3f} "
              f"cost_norm={s['cost_norm_mean']:.3f}")
    print(f"gates: {json.dumps(gates, sort_keys=True)}")
    return EXIT_OK if gates[_EVAL_GATES[command]] else EXIT_ACCEPTANCE


def cmd_ablate(cfg: RunConfig, kind: str) -> int:
    eval_cfg = EvalConfig(tuple(cfg.thresholds), cfg.target_reward_fraction)
    out = _out_dir(cfg)
    data, _ = _load_or_generate_dataset(cfg, out)
    env = make_env(data.env_meta)
    results = run_ablation(kind, data, _aug_config(cfg), _net_hyper(cfg),
                              cfg.alpha, cfg.iterations, cfg.seed, env, eval_cfg,
                              cfg.schedule)
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
    if sha256_file(path) != meta.get("dataset_sha256"):
        raise GasError(f"dataset mismatch: {path} is not the corpus the checkpoint was trained on")
    data = ds.load_dataset(path)
    if not cfg.dataset_path and data.n != cfg.n_traj:
        raise GasError(f"dataset mismatch: run has n_traj={cfg.n_traj}, "
                       f"the checkpoint's corpus {path} has {data.n}")
    return data


def cmd_oracle_check(cfg: RunConfig) -> int:
    """Compare trained goal nets against the brute-force oracle on the
    checkpoint's own corpus and check that augmented segments dominate
    trajectory suffixes."""
    out = _out_dir(cfg)
    nets, _pol, _env, meta, _ = _load_checkpoints(cfg, out)
    data = _checkpoint_dataset(cfg, out, meta)
    T = data.horizon
    times = [t for t in (0, T // 4, T // 2, 3 * T // 4) if t < T]
    budgets = [data.c_max * f for f in (0.125, 0.25, 0.5, 1.0)]
    traj_ids = list(range(0, data.n, max(1, data.n // 4)))[:4]
    probes = probe_grid_from_dataset(data, traj_ids, times, budgets)
    agree = total = 0
    dominance_ok = True
    wide = default_state_tolerance(data.env_meta).copy()
    wide[-1] = 1.0
    for probe in probes:
        answer = brute_force_goal(data, probe)
        if not answer.feasible:
            continue
        total += 1
        k = T - probe.t_prime
        v_r, _ = nets.values(probe.state[None, :], np.array([1.0 * k]),
                             np.array([probe.c_hat]), np.array([float(probe.t_prime)]))
        rel = abs(float(v_r[0]) - answer.v_r_star) / max(abs(answer.v_r_star), 1e-8)
        agree += rel <= 0.10
        wide_probe = probe.__class__(probe.state, probe.t_prime, probe.c_hat, wide)
        aug = brute_force_goal(data, wide_probe)
        suf = brute_force_goal(data, wide_probe, suffix_only=True)
        if aug.feasible and suf.feasible and aug.v_r_star < suf.v_r_star - 1e-9:
            dominance_ok = False
    frac = agree / total if total else 0.0
    payload = {"probes": len(probes), "feasible": total,
               "agreement_fraction": frac, "dominance_ok": dominance_ok}
    (out / "oracle_check.json").write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    print(json.dumps(payload, sort_keys=True))
    passed = dominance_ok and frac >= 0.9
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gas",
        description="Goal-assisted stitching for offline safe RL on toy CMDPs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-dataset", "generate and save an offline dataset"),
        ("train", "train goal functions and policy"),
        ("eval", "evaluate checkpoints at the configured thresholds"),
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
        if command in _EVAL_GATES:
            return cmd_evaluate(cfg, command)
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

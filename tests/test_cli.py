import argparse
import builtins
import collections
import dataclasses
import io
import json
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

import gas
from gas.cli import main
from gas.config import RunConfig, build_config, canonical_config_text, config_hash, seed_streams
from gas.dataset import AugmentConfig
from gas.errors import ConfigError
from gas.evaluate import EvalConfig
from gas.training import NetHyper, train_gas

FAST = [
    "env_name=ChainRun", "episode_length=8", "n_traj=24", "iterations=50",
    "n_layers=3", "hidden=16", "embedding=16", "batch_size=32",
    "learning_rate=0.001", "thresholds=0.2,0.5,0.8", "seed=3",
]


def run(out_dir, command, *overrides):
    return main([command, *(FAST + [f"out_dir={out_dir}"] + list(overrides))])


# -- config layer ---------------------------------------------------------------

def test_config_defaults_match_documented_values():
    cfg = build_config()
    hyper, aug = cfg.hyper, cfg.augment
    assert (hyper.batch_size, hyper.learning_rate, hyper.grad_clip) == (2048, 1e-4, 0.25)
    assert (hyper.weight_decay, cfg.alpha, aug.delta) == (1e-4, 0.8, 0.1)
    assert (aug.q_percent, aug.epsilon) == (10.0, 0.5)
    assert (hyper.n_layers, hyper.hidden, hyper.embedding) == (7, 128, 64)
    assert (hyper.beta1, hyper.beta2) == (0.9, 0.999)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus_key"):
        build_config(None, ["bogus_key=1"])


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.9  # expectile\nthresholds = 0.1,0.5\n")
    cfg = build_config(path, ["alpha=0.7"])
    assert cfg.alpha == 0.7  # CLI override wins
    assert cfg.evaluation.thresholds == (0.1, 0.5)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 5\n")
    with pytest.raises(ConfigError, match="nonsense"):
        build_config(path)


def test_config_bad_value_names_key():
    with pytest.raises(ConfigError, match="alpha"):
        build_config(None, ["alpha=high"])


def test_every_part_field_is_one_config_key():
    """Each field of AugmentConfig, NetHyper and EvalConfig is a flat key,
    listed once in the canonical text, and an override of it lands in its
    part and nowhere else."""
    parts = {"augment": AugmentConfig, "hyper": NetHyper, "evaluation": EvalConfig}
    own = {f.name for f in dataclasses.fields(RunConfig)} - set(parts)
    names = [f.name for cls in parts.values() for f in dataclasses.fields(cls)]
    assert len(names) == len(set(names)) and not own & set(names)
    default = build_config()
    keys = [line.split(" = ")[0] for line in canonical_config_text(default).splitlines()]
    assert sorted(keys) == sorted(own - {"out_dir"} | set(names))
    for part, cls in parts.items():
        for f in dataclasses.fields(cls):
            value = getattr(getattr(default, part), f.name)
            if isinstance(value, bool):
                changed, raw = not value, str(not value)
            elif isinstance(value, int):
                changed, raw = value + 1, str(value + 1)
            elif isinstance(value, float):
                changed, raw = value / 2, repr(value / 2)
            else:
                changed, raw = value[:1], repr(value[0])
            cfg = build_config(None, [f"{f.name}={raw}"])
            assert getattr(cfg, part) == dataclasses.replace(getattr(default, part),
                                                             **{f.name: changed})
            assert all(getattr(cfg, other) == getattr(default, other)
                       for other in parts if other != part)


def test_config_file_trains_the_acceptance_model(tmp_path, stitch_dataset):
    """A config file can express the acceptance gate's NetHyper, including
    the policy's own weight decay: `gas train` then trains the bits
    train_gas does on the same corpus."""
    from test_acceptance import HYPER

    assert HYPER.policy_weight_decay == 0.003
    lines = [f"{f.name} = {getattr(HYPER, f.name)!r}" for f in dataclasses.fields(NetHyper)]
    path = tmp_path / "acceptance.cfg"
    path.write_text("\n".join(lines + ["alpha = 0.9", "seed = 0", "iterations = 20"]) + "\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), f"out_dir={out}"]) == 0
    expected = train_gas(stitch_dataset, AugmentConfig(), HYPER, 0.9, 20, seed_streams(0))
    nets, _ = gas.load_goals(out / "goals.ckpt")
    pol, _ = gas.load_policy(out / "policy.ckpt")
    for got, want in ((nets.reward_net, expected.nets.reward_net),
                      (nets.cost_net, expected.nets.cost_net), (pol.net, expected.pol.net)):
        assert np.array_equal(got.params, want.params)


def test_seed_streams_are_independent_and_stable():
    a = seed_streams(7)
    b = seed_streams(7)
    for name in a:
        assert a[name].random() == b[name].random()
    c = seed_streams(8)
    assert seed_streams(7)["batch"].random() != c["batch"].random()


# -- subcommands ------------------------------------------------------------------

def test_gen_dataset_writes_loadable_file(tmp_path, capsys):
    code = run(tmp_path, "gen-dataset")
    assert code == 0
    data = gas.load_dataset(tmp_path / "dataset.gasdset")
    assert data.n == 24 and data.horizon == 8
    out = capsys.readouterr().out
    # histogram: one row per cost bin after the header line
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == build_config(None, FAST).augment.cost_bins


def test_gen_dataset_rejects_zero_trajectories(tmp_path, capsys):
    code = run(tmp_path, "gen-dataset", "n_traj=0")
    assert code == 1
    assert "n_traj" in capsys.readouterr().err


def test_unknown_override_exits_config_error(tmp_path, capsys):
    code = run(tmp_path, "train", "not_a_key=1")
    assert code == 1
    assert "not_a_key" in capsys.readouterr().err


def test_train_writes_artifacts_and_is_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(out_a, "train") == 0
    assert run(out_b, "train") == 0
    for name in ("goals.ckpt", "policy.ckpt", "loss.csv", "manifest.json", "dataset.gasdset"):
        assert (out_a / name).exists()
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(build_config(None, FAST + [f"out_dir={out_a}"]))


def test_loss_csv_row_count(tmp_path):
    assert run(tmp_path, "train", "iterations=300") == 0
    lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,loss_reward,loss_cost,loss_policy"
    assert len(lines) - 1 == 3  # one row per 100 iterations


def test_train_with_a_billion_cost_bins_finishes(tmp_path):
    """Reshaping visits only the occupied cost bins, so a huge bin count
    costs no more than the default (one loop step per bin took ~40 min)."""
    start = time.monotonic()
    assert run(tmp_path, "train", "cost_bins=1000000000", "iterations=5") == 0
    assert time.monotonic() - start < 60.0


def test_train_zero_iterations_equals_initialization(tmp_path):
    assert run(tmp_path, "train", "iterations=0") == 0
    nets, _ = gas.load_goals(tmp_path / "goals.ckpt")
    cfg = build_config(None, FAST + [f"out_dir={tmp_path}", "iterations=0"])
    data = gas.load_dataset(tmp_path / "dataset.gasdset")
    from gas.training import build_models

    streams = seed_streams(cfg.seed)
    fresh_nets, _ = build_models(data, cfg.hyper, streams)
    assert np.array_equal(nets.reward_net.params, fresh_nets.reward_net.params)


def test_eval_missing_checkpoint(tmp_path, capsys):
    code = run(tmp_path, "sweep")
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: missing checkpoint")


def test_eval_env_mismatch(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    capsys.readouterr()
    code = run(tmp_path, "sweep", "env_name=GridCircle", "episode_length=8")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: env/checkpoint mismatch")


def test_sweep_writes_reports_with_one_row_per_threshold(tmp_path):
    assert run(tmp_path, "train") == 0
    code = run(tmp_path, "sweep")
    assert code in (0, 3)  # tiny run may fail the safety gate; files still written
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 3  # one deterministic rollout per threshold
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert {"rows", "summary", "metadata"} <= set(payload)
    assert "checkpoint_hash" in payload["metadata"]


@pytest.mark.parametrize("env_name", ["ChainRun", "GridCircle"])
def test_sweep_of_zero_cost_corpus_passes_with_strict_json(tmp_path, env_name):
    """A corpus without cost has C_max = 0, so every budget is 0; a policy
    that spends nothing is within it (cost_norm 0), and the report is
    standard JSON (no NaN). The slow mix on GridCircle earns nothing as well,
    so R_max = 0 too and a rollout that earns nothing has reward_norm 0."""
    corpus = [f"env_name={env_name}", "behavior_mix=slow", "n_traj=10", "iterations=5",
              "n_layers=2", "hidden=8", "embedding=8", "batch_size=16"]
    assert run(tmp_path, "train", *corpus) == 0
    assert run(tmp_path, "sweep", *corpus) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=reject)
    assert [row["cost_return"] for row in payload["rows"]] == [0.0] * 3
    assert [row["cost_norm"] for row in payload["rows"]] == [0.0] * 3
    if env_name == "GridCircle":
        assert payload["metadata"]["r_max"] == 0.0
        assert [row["reward_norm"] for row in payload["rows"]] == [0.0] * 3


def test_sweep_reports_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(out, "train") == 0
        run(out, "sweep")
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "sweep.json").read_bytes() == (out_b / "sweep.json").read_bytes()


def test_ablate_alpha_sweep_writes_variant_reports(tmp_path):
    code = run(tmp_path, "ablate", "iterations=20", "--kind=alpha_sweep")
    assert code == 0
    reports = sorted(p.name for p in Path(tmp_path).glob("ablate_alpha_sweep_alpha_*.json"))
    assert len(reports) == 5
    comparison = json.loads((tmp_path / "ablate_alpha_sweep_comparison.json").read_text())
    assert set(comparison) == {"default", "alpha_0.5", "alpha_0.6", "alpha_0.8",
                               "alpha_0.9", "alpha_0.99"}


def test_out_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("GAS_OUT_DIR", str(target))
    assert main(["gen-dataset", *FAST]) == 0
    assert (target / "dataset.gasdset").exists()


EVERY_COMMAND = ["sweep", "ablate", "train", "gen-dataset", "oracle-check"]


def _assert_rejected_before_running(tmp_path, capsys, command, override, key):
    """On a trained run directory, ``command`` with ``override`` exits 1 with
    an error that names ``key``, and writes nothing."""
    assert run(tmp_path, "train") == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    kind = ["--kind=no_tsra"] if command == "ablate" else []
    assert run(tmp_path, command, override, *kind) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_empty_thresholds_exit_config_error(tmp_path, capsys, command):
    _assert_rejected_before_running(tmp_path, capsys, command, "thresholds=", "thresholds")


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_out_of_range_delta_exits_config_error(tmp_path, capsys, command):
    _assert_rejected_before_running(tmp_path, capsys, command, "delta=1.5", "delta")


@pytest.mark.parametrize("command, override", [
    ("train", "n_layers=1"), ("train", "hidden=0"), ("train", "embedding=0"),
    ("train", "batch_size=-3"), ("train", "batch_size=0"), ("oracle-check", "n_traj=0"),
    ("train", "iterations=-5"), ("train", "seed=-1"),
    ("sweep", "target_reward_fraction=nan"), ("sweep", "target_reward_fraction=inf"),
    ("sweep", "target_reward_fraction=0"),
    ("train", "alpha=1.0"), ("train", "alpha=nan"), ("sweep", "alpha=0"),
    ("train", "schedule=bogus"),
    ("train", "learning_rate=-1"), ("train", "learning_rate=nan"), ("train", "beta1=1.5"),
    ("train", "beta2=1"), ("train", "lr_final_fraction=-2"), ("train", "weight_decay=-0.1"),
    ("train", "weight_decay=1000"),  # learning_rate * weight_decay = 1: no decay factor left
    ("train", "policy_weight_decay=nan"), ("train", "grad_clip=nan"),
    ("gen-dataset", "behavior_mix=gridcircle"),  # the orbit mix's 2-D actions on ChainRun
    ("train", "behavior_mix=bogus"),
    ("gen-dataset", "n_traj=100000000000"),  # a corpus larger than physical memory
])
def test_out_of_range_setting_exits_config_error(tmp_path, capsys, command, override):
    key = override.split("=")[0]
    _assert_rejected_before_running(tmp_path, capsys, command, override, key)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["gen-dataset", "no_such_key=1"]) == 1
    first = len(built)  # 0 when an earlier call in this process built it
    assert main(["gen-dataset", "no_such_key=1"]) == 1
    assert len(built) == first, built


@pytest.mark.parametrize("command, inputs", [
    ("oracle-check", ["goals.ckpt", "dataset.gasdset"]),
    ("sweep", ["goals.ckpt", "policy.ckpt"]),
])
def test_each_input_file_is_opened_once(tmp_path, monkeypatch, command, inputs):
    """The bytes a command hashes are the bytes it parses: one read per file."""
    assert run(tmp_path, "train") == 0
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # what pathlib opens through
    assert run(tmp_path, command) in (0, 3)
    assert {name: opened[name] for name in inputs} == {name: 1 for name in inputs}


@pytest.mark.parametrize("name", ["goals.ckpt", "policy.ckpt", "dataset.gasdset"])
def test_truncated_input_exits_runtime_error(tmp_path, capsys, name):
    assert run(tmp_path, "train") == 0
    path = tmp_path / name
    path.write_bytes(path.read_bytes()[:30])
    overrides = [f"dataset_path={path}"] if name == "dataset.gasdset" else []
    command = "gen-dataset" if overrides else "sweep"
    assert run(tmp_path, command, *overrides) == 2
    err = capsys.readouterr().err
    assert "corrupt" in err and "Traceback" not in err


def test_checkpoint_without_training_metadata_exits_runtime_error(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    nets, _ = gas.load_goals(tmp_path / "goals.ckpt")
    gas.save_goals(tmp_path / "goals.ckpt", nets, {"note": "no training metadata"})
    assert run(tmp_path, "sweep") == 2
    assert "metadata lacks" in capsys.readouterr().err


@pytest.mark.parametrize("norm, match", [
    ({"state_scale": [1.0, 1.0, 1.0]}, "norm state_mean and state_scale must be equal-length"),
    ({"r_scale": 0}, "norm r_scale, c_scale must be finite and > 0"),
])
def test_checkpoint_with_impossible_norm_exits_runtime_error(tmp_path, capsys, norm, match):
    """Checkpoint headers whose input normalization no fit can give stop
    `gas sweep` before any rollout: exit 2, no report, no traceback."""
    assert run(tmp_path, "train") == 0
    for name in ("goals.ckpt", "policy.ckpt"):
        path = tmp_path / name
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 12)
        header = json.loads(raw[16:16 + n])
        header["norm"].update(norm)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + n:])
    assert run(tmp_path, "sweep") == 2
    err = capsys.readouterr().err
    assert match in err and "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


# -- oracle-check and the checkpoint's corpus ------------------------------------

def test_oracle_check_scores_the_run_corpus_without_rewriting_it(tmp_path, monkeypatch):
    assert run(tmp_path, "train") == 0
    corpus = (tmp_path / "dataset.gasdset").read_bytes()

    def no_generation(*_args, **_kwargs):
        raise AssertionError("oracle-check must read the run's corpus, not regenerate it")

    monkeypatch.setattr(gas.dataset, "generate_offline_dataset", no_generation)
    monkeypatch.setattr(gas.dataset, "save_dataset", no_generation)
    assert run(tmp_path, "oracle-check") in (0, 3)  # tiny run may miss the 0.9 agreement gate
    payload = json.loads((tmp_path / "oracle_check.json").read_text())
    assert {"probes", "feasible", "agreement_fraction"} == set(payload)
    assert payload["probes"] > 0
    assert (tmp_path / "dataset.gasdset").read_bytes() == corpus


def _reference_oracle_check(run_dir):
    """The oracle-check payload computed one probe at a time: one oracle call
    and one one-row goal-net forward per probe, as before batching."""
    from gas.oracle import brute_force_goal
    nets, _ = gas.load_goals(run_dir / "goals.ckpt")
    data = gas.load_dataset(run_dir / "dataset.gasdset")
    T = data.horizon
    times = [t for t in (0, T // 4, T // 2, 3 * T // 4) if t < T]
    budgets = [data.c_max * f for f in (0.125, 0.25, 0.5, 1.0)]
    traj_ids = list(range(0, data.n, max(1, data.n // 4)))[:4]
    probes = gas.probe_grid_from_dataset(data, traj_ids, times, budgets)
    agree = total = 0
    for probe in probes:
        answer = brute_force_goal(data, probe)
        if not answer.feasible:
            continue
        total += 1
        v_r, _ = nets.values(probe.state[None, :], np.array([1.0 * (T - probe.t_prime)]),
                             np.array([probe.c_hat]), np.array([float(probe.t_prime)]))
        agree += abs(float(v_r[0]) - answer.v_r_star) / max(abs(answer.v_r_star), 1e-8) <= 0.10
    return {"probes": len(probes), "feasible": total,
            "agreement_fraction": agree / total if total else 0.0}


def test_oracle_check_matches_per_probe_reference(tmp_path):
    small = ["n_traj=12", "iterations=200"]  # a corpus where some probes are infeasible
    assert run(tmp_path, "train", *small) == 0
    assert run(tmp_path, "oracle-check", *small) in (0, 3)
    expected = _reference_oracle_check(tmp_path)
    assert 0 < expected["feasible"] < expected["probes"]
    assert expected["agreement_fraction"] > 0
    written = (tmp_path / "oracle_check.json").read_text()
    assert written == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("other", [["n_traj=40"], ["gen-dataset", "seed=4"]],
                         ids=["n_traj", "sha256"])
def test_oracle_check_rejects_a_corpus_the_checkpoint_was_not_trained_on(tmp_path, capsys, other):
    assert run(tmp_path, "train") == 0
    if other[0] == "gen-dataset":  # same config, another seed: a different corpus in place
        assert run(tmp_path, *other) == 0
        other = []
    corpus = (tmp_path / "dataset.gasdset").read_bytes()
    assert run(tmp_path, "oracle-check", *other) == 2
    assert "dataset mismatch" in capsys.readouterr().err
    assert (tmp_path / "dataset.gasdset").read_bytes() == corpus
    assert not (tmp_path / "oracle_check.json").exists()


def test_oracle_check_needs_no_policy_checkpoint(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    (tmp_path / "policy.ckpt").unlink()
    assert run(tmp_path, "oracle-check") in (0, 3)
    assert (tmp_path / "oracle_check.json").exists()
    assert run(tmp_path, "sweep") == 1  # which still needs the policy
    assert "policy.ckpt" in capsys.readouterr().err


def test_oracle_check_missing_dataset_exits_config_error(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    (tmp_path / "dataset.gasdset").unlink()
    assert run(tmp_path, "oracle-check") == 1
    assert "missing dataset" in capsys.readouterr().err
    assert not (tmp_path / "dataset.gasdset").exists()


@pytest.mark.parametrize("command", ["sweep", "oracle-check"])
def test_episode_length_mismatch_exits_runtime_error(tmp_path, capsys, command):
    assert run(tmp_path, "train") == 0  # episode_length=8
    capsys.readouterr()
    assert run(tmp_path, command, "episode_length=16") == 2
    assert capsys.readouterr().err.startswith("error: env/checkpoint mismatch")
    assert not (tmp_path / f"{command.replace('-', '_')}.json").exists()

import json
import os
from pathlib import Path

import numpy as np
import pytest

import gas
from gas.cli import main
from gas.config import build_config, config_hash, seed_streams
from gas.errors import ConfigError

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
    assert (cfg.batch_size, cfg.learning_rate, cfg.grad_clip) == (2048, 1e-4, 0.25)
    assert (cfg.weight_decay, cfg.alpha, cfg.delta) == (1e-4, 0.8, 0.1)
    assert (cfg.q_percent, cfg.epsilon) == (10.0, 0.5)
    assert (cfg.n_layers, cfg.hidden, cfg.embedding) == (7, 128, 64)
    assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="bogus_key"):
        build_config(None, ["bogus_key=1"])


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.9  # expectile\nthresholds = 0.1,0.5\n")
    cfg = build_config(path, ["alpha=0.7"])
    assert cfg.alpha == 0.7  # CLI override wins
    assert cfg.thresholds == (0.1, 0.5)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense = 5\n")
    with pytest.raises(ConfigError, match="nonsense"):
        build_config(path)


def test_config_bad_value_names_key():
    with pytest.raises(ConfigError, match="alpha"):
        build_config(None, ["alpha=high"])


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
    assert len(lines) == build_config(None, FAST).cost_bins


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


def test_train_zero_iterations_equals_initialization(tmp_path):
    assert run(tmp_path, "train", "iterations=0") == 0
    nets, _ = gas.load_goals(tmp_path / "goals.ckpt")
    cfg = build_config(None, FAST + [f"out_dir={tmp_path}", "iterations=0"])
    data = gas.load_dataset(tmp_path / "dataset.gasdset")
    from gas.training import NetHyper, build_models

    streams = seed_streams(cfg.seed)
    fresh_nets, _ = build_models(data, NetHyper(cfg.n_layers, cfg.hidden,
                                                cfg.embedding, cfg.batch_size,
                                                cfg.learning_rate), streams)
    assert np.array_equal(nets.reward_net.get_flat(), fresh_nets.reward_net.get_flat())


def test_eval_missing_checkpoint(tmp_path, capsys):
    code = run(tmp_path, "eval")
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_eval_env_mismatch(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    code = run(tmp_path, "eval", "env_name=GridCircle", "episode_length=8")
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_sweep_writes_reports_with_one_row_per_threshold(tmp_path):
    assert run(tmp_path, "train") == 0
    code = run(tmp_path, "sweep")
    assert code in (0, 3)  # tiny run may fail the safety gate; files still written
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 3  # one deterministic rollout per threshold
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert {"rows", "summary", "metadata"} <= set(payload)
    assert "checkpoint_hash" in payload["metadata"]


def test_sweep_of_zero_cost_corpus_passes_with_strict_json(tmp_path):
    """A corpus without cost has C_max = 0, so every budget is 0; a policy
    that spends nothing is within it (cost_norm 0), and the report is
    standard JSON (no NaN)."""
    zero_cost = ["behavior_mix=slow", "n_traj=10", "iterations=5", "n_layers=2",
                 "hidden=8", "embedding=8", "batch_size=16"]
    assert run(tmp_path, "train", *zero_cost) == 0
    assert run(tmp_path, "sweep", *zero_cost) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads((tmp_path / "sweep.json").read_text(), parse_constant=reject)
    assert [row["cost_return"] for row in payload["rows"]] == [0.0] * 3
    assert [row["cost_norm"] for row in payload["rows"]] == [0.0] * 3


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


@pytest.mark.parametrize("command", ["sweep", "eval", "ablate"])
def test_empty_thresholds_exit_config_error(tmp_path, capsys, command):
    kind = ["--kind=no_tsra"] if command == "ablate" else []
    assert run(tmp_path, command, "thresholds=", *kind) == 1
    assert "thresholds" in capsys.readouterr().err


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
    assert {"probes", "feasible", "agreement_fraction", "dominance_ok"} == set(payload)
    assert payload["probes"] > 0
    assert (tmp_path / "dataset.gasdset").read_bytes() == corpus


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


def test_oracle_check_missing_dataset_exits_config_error(tmp_path, capsys):
    assert run(tmp_path, "train") == 0
    (tmp_path / "dataset.gasdset").unlink()
    assert run(tmp_path, "oracle-check") == 1
    assert "missing dataset" in capsys.readouterr().err
    assert not (tmp_path / "dataset.gasdset").exists()


@pytest.mark.parametrize("command", ["sweep", "oracle-check"])
def test_episode_length_mismatch_exits_runtime_error(tmp_path, capsys, command):
    assert run(tmp_path, "train") == 0  # episode_length=8
    assert run(tmp_path, command, "episode_length=16") == 2
    assert "mismatch" in capsys.readouterr().err
    assert not (tmp_path / f"{command.replace('-', '_')}.json").exists()

"""Every loader either loads a byte string or raises SchemaError, and the
CLI either runs or exits with a typed error.

Loader inputs are random bytes, truncations of valid files, and valid files
with one byte overwritten, for each on-disk format: goal and policy
checkpoint bundles, and datasets. CLI inputs are every subcommand on a run
directory trained first, with random settings.
"""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gas
from gas.cli import main
from gas.config import _DEFAULTS, _KEYS, _value, seed_streams
from gas.errors import SchemaError
from gas.evaluate import ABLATION_KINDS
from gas.goals import GoalNets, InputNorm, load_goals, save_goals
from gas.policy import PolicyNet, load_policy, save_policy


def _valid_files(root: Path) -> dict:
    env = gas.make_env(gas.chainrun_spec(4))
    data = gas.generate_offline_dataset(env, gas.stitch_mix(), 3, seed=0)
    gas.save_dataset(data, root / "data.gasdset")
    streams = seed_streams(0)
    norm = InputNorm.fit(data)
    nets = GoalNets.create(norm, 2, 2, 4, 4, streams["init_reward"], streams["init_cost"])
    pol = PolicyNet.create(norm, 2, 1, 2, 4, 4, streams["init_policy"])
    meta = {"env_name": "ChainRun", "r_max": data.r_max, "c_max": data.c_max}
    save_goals(root / "goals.ckpt", nets, meta)
    save_policy(root / "policy.ckpt", pol, meta)
    return {"goals": (root / "goals.ckpt").read_bytes(),
            "policy": (root / "policy.ckpt").read_bytes(),
            "dataset": (root / "data.gasdset").read_bytes()}


_TMP = tempfile.TemporaryDirectory()
_ROOT = Path(_TMP.name)
VALID = _valid_files(_ROOT)
LOADERS = {"goals": load_goals, "policy": load_policy, "dataset": gas.load_dataset}


def _write(kind: str, blob: bytes) -> Path:
    path = _ROOT / f"fuzz_{kind}"
    path.write_bytes(blob)
    return path


def _load_or_schema_error(kind: str, blob: bytes) -> None:
    try:
        LOADERS[kind](_write(kind, blob))
    except SchemaError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_files_load(kind):
    assert LOADERS[kind](_write(kind, VALID[kind])) is not None


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=st.binary(max_size=256))
def test_random_bytes_load_or_schema_error(kind, blob):
    _load_or_schema_error(kind, blob)
    # behind the right magic, parsing reaches the header and body
    _load_or_schema_error(kind, VALID[kind][:8] + blob)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_or_overwritten_load_or_schema_error(kind, data):
    """Every strict prefix of a valid file is an error, and so is the file
    with bytes appended; one overwritten byte may still load (a changed
    weight) but must not crash."""
    blob = VALID[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(SchemaError):
        LOADERS[kind](_write(kind, blob[:cut]))
    appended = data.draw(st.integers(1, 256), label="appended")
    with pytest.raises(SchemaError):
        LOADERS[kind](_write(kind, blob + bytes(appended)))
    index = data.draw(st.integers(0, len(blob) - 1), label="index")
    value = data.draw(st.integers(0, 255), label="value")
    _load_or_schema_error(kind, blob[:index] + bytes([value]) + blob[index + 1:])


def test_net_header_overflowing_sizes_is_schema_error():
    """Layer sizes whose product overflows int64 are a short read, not a crash."""
    raw = VALID["goals"]
    (n,) = struct.unpack_from("<I", raw, 12)
    header = json.loads(raw[16:16 + n])
    header["nets"]["cost"] = [2**32 - 1, 2**32 - 1]
    blob = json.dumps(header).encode()
    with pytest.raises(SchemaError):
        load_goals(_write("goals", raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + n:]))


# -- the command line -------------------------------------------------------------

# the in-range values the fuzz gives each size key: the defaults train for
# minutes, and a large n_traj or cost_bins runs or prints for as long
TINY = {"n_traj": (1, 5), "episode_length": (2, 6), "iterations": (0, 3), "batch_size": (1, 4),
        "n_layers": (2, 3), "hidden": (1, 3), "embedding": (1, 3), "cost_bins": (1, 3)}
ENV_NAMES = [gas.CHAIN_RUN, gas.GRID_CIRCLE]
MIXES = ["default", "stitch", "pure_block", "slow", "gridcircle"]
# the keys a command may set on top of the run's: all but the run's placement
OTHER_KEYS = sorted(set(_KEYS) - {"out_dir", "dataset_path"})
ODD_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e9", "fast", ""]
COMMANDS = ["gen-dataset", "train", "sweep", "ablate", "oracle-check"]


def _in_range(key: str) -> st.SearchStrategy:
    if key in TINY:
        return st.integers(*TINY[key]).map(str)
    if key == "env_name":
        return st.sampled_from(ENV_NAMES + ["Nowhere"])
    if key == "behavior_mix":
        return st.sampled_from(MIXES + ["bogus"])
    value = _value(_DEFAULTS, key)
    return st.just(",".join(map(repr, value)) if isinstance(value, tuple) else str(value))


@st.composite
def _run_keys(draw) -> list:
    """A known corpus choice and every size key at a tiny value."""
    keys = [f"env_name={draw(st.sampled_from(ENV_NAMES))}",
            f"behavior_mix={draw(st.sampled_from(MIXES))}"]
    return keys + [f"{key}={draw(_in_range(key))}" for key in TINY]


@st.composite
def _other_key(draw) -> str:
    """A key at an in-range value (the names: known or one unknown) or at an odd one."""
    key = draw(st.sampled_from(OTHER_KEYS))
    return f"{key}={draw(st.one_of(_in_range(key), st.sampled_from(ODD_VALUES)))}"


def _files(root: Path) -> dict:
    return {path.name: path.read_bytes() for path in root.iterdir()}


# the two examples exited with a traceback: the orbit mix's 2-D actions on
# ChainRun, and a sweep of a corpus whose best return is 0 (reward_norm 0/0)
@example(command="gen-dataset", run_keys=["env_name=ChainRun", "behavior_mix=gridcircle",
                                          "n_traj=3", "episode_length=4", "iterations=2"],
         other=[], kind="no_tsra")
@example(command="sweep", run_keys=["env_name=GridCircle", "behavior_mix=slow", "n_traj=3",
                                    "episode_length=4", "iterations=2", "batch_size=4",
                                    "n_layers=2", "hidden=3", "embedding=2"],
         other=[], kind="no_tsra")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), run_keys=_run_keys(),
       other=st.lists(_other_key(), min_size=1, max_size=3),
       kind=st.sampled_from(ABLATION_KINDS))
def test_main_exits_with_a_code_and_no_traceback(monkeypatch, command, run_keys, other, kind):
    """No exception escapes ``main``, the exit code is one of the documented
    four, and a config error (exit 1) changes no file of the run directory."""
    monkeypatch.delenv("GAS_OUT_DIR", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        keys = [*run_keys, f"out_dir={out}"]
        assert main(["train", *keys]) in (0, 1, 2, 3)
        before = _files(out)
        kind_flag = [f"--kind={kind}"] if command == "ablate" else []
        code = main([command, *keys, *other, *kind_flag])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert _files(out) == before

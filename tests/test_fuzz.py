"""Every loader either loads a byte string or raises SchemaError.

Inputs are random bytes, truncations of valid files, and valid files with
one byte overwritten, for each on-disk format: net checkpoints, goal and
policy bundles, and datasets.
"""

import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gas
from gas.config import seed_streams
from gas.errors import SchemaError
from gas.goals import GoalNets, InputNorm, load_goals, save_goals
from gas.nn import Mlp, read_net_bytes, write_net_bytes
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
    return {"net": write_net_bytes(Mlp.init([3, 2], streams["init_reward"])),
            "goals": (root / "goals.ckpt").read_bytes(),
            "policy": (root / "policy.ckpt").read_bytes(),
            "dataset": (root / "data.gasdset").read_bytes()}


_TMP = tempfile.TemporaryDirectory()
_ROOT = Path(_TMP.name)
VALID = _valid_files(_ROOT)
LOADERS = {"net": lambda path: read_net_bytes(path.read_bytes()), "goals": load_goals,
           "policy": load_policy, "dataset": gas.load_dataset}


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
    """Every strict prefix of a valid file is an error; one overwritten byte
    may still load (a changed weight) but must not crash."""
    blob = VALID[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(SchemaError):
        LOADERS[kind](_write(kind, blob[:cut]))
    index = data.draw(st.integers(0, len(blob) - 1), label="index")
    value = data.draw(st.integers(0, 255), label="value")
    _load_or_schema_error(kind, blob[:index] + bytes([value]) + blob[index + 1:])


def test_net_header_overflowing_sizes_is_schema_error():
    """Layer sizes whose product overflows int64 are a short read, not a crash."""
    blob = gas.nn.NET_MAGIC + struct.pack("<II", 1, 2) + struct.pack("<2I", 2**32 - 1, 2**32 - 1)
    with pytest.raises(SchemaError):
        LOADERS["net"](_write("net", blob))

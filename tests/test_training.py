import gc
import hashlib
import weakref

import numpy as np
import pytest

import gas
from gas.config import seed_streams
from gas.dataset import AugmentConfig
from gas.errors import ConfigError
from gas.training import NetHyper, build_models, train_gas

SMALL = NetHyper(n_layers=3, hidden=16, embedding=16, batch_size=32,
                 learning_rate=1e-3)
# the acceptance suite's architecture (HYPER in test_acceptance.py)
ACCEPTANCE = NetHyper(n_layers=4, hidden=128, embedding=64, batch_size=256,
                      learning_rate=3e-3, grad_clip=0.25, weight_decay=1e-3,
                      lr_final_fraction=0.03, policy_weight_decay=3e-3)


def _training_digest(res) -> str:
    """sha256 of the loss history's repr and every trained parameter's bytes."""
    h = hashlib.sha256(repr(res.history).encode())
    for net in (res.nets.reward_net, res.nets.cost_net, res.pol.net):
        for a in net.weights + net.biases:
            h.update(a.tobytes())
    return h.hexdigest()


# (corpus, hyper, schedule, iterations, digest); the digests are those of an
# allocating forward/backward/optimizer step, so buffer reuse must change no
# bit. GridCircle's 2-wide policy output takes the GEMM, not the k = 1
# broadcast multiply of the 1-wide outputs.
GOLDEN_TRAININGS = [
    ("stitch", ACCEPTANCE, "interleaved", 40,
     "18d42496ff5ba1e939746cee3b274396254b9faad4de29b63c8a3bad034d9d63"),
    ("stitch", ACCEPTANCE, "two_phase", 20,
     "ffc688ff4c216ae107b8d93d06ddc5df0c4aee1afa1d4dd5b8323cd4e807dcbb"),
    ("stitch", NetHyper(), "interleaved", 12,
     "f9422cc13a1222c65f3ec5103c5c9974bfc3130433cfb086bdae965f4ecc902b"),
    ("gridcircle", ACCEPTANCE, "interleaved", 40,
     "f247fbd89b8600a78b2aafec689b1df852e76b86e02bb36d6cb1d42355072711"),
]


@pytest.mark.parametrize("corpus, hyper, schedule, iterations, digest", GOLDEN_TRAININGS,
                         ids=["acceptance-interleaved", "acceptance-two_phase",
                              "defaults", "gridcircle"])
def test_trained_parameters_are_pinned(stitch_dataset, corpus, hyper, schedule,
                                       iterations, digest):
    if corpus == "gridcircle":
        data = gas.generate_offline_dataset(gas.make_env(gas.gridcircle_spec(16)),
                                            gas.dataset.gridcircle_mix(), 100, seed=4)
    else:
        data = stitch_dataset
    res = train_gas(data, AugmentConfig(), hyper, 0.9, iterations, seed_streams(5),
                    schedule=schedule, log_every=4)
    assert _training_digest(res) == digest


def test_train_gas_deterministic(stitch_dataset):
    def run():
        res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 60,
                        seed_streams(2))
        return (res.nets.reward_net.params, res.nets.cost_net.params,
                res.pol.net.params, tuple(res.history))

    a, b = run(), run()
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    assert a[3] == b[3]


@pytest.mark.parametrize("schedule", ["interleaved", "two_phase"])
def test_train_gas_zero_iterations_is_initialization(stitch_dataset, schedule):
    res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 0, seed_streams(3),
                    schedule=schedule)
    nets, pol = build_models(stitch_dataset, SMALL, seed_streams(3))
    assert res.history == []
    for trained, fresh in ((res.nets.reward_net, nets.reward_net),
                           (res.nets.cost_net, nets.cost_net), (res.pol.net, pol.net)):
        assert np.array_equal(trained.params, fresh.params)


def test_train_gas_history_rows(stitch_dataset):
    res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 250,
                    seed_streams(0), log_every=100)
    assert [row[0] for row in res.history] == [100, 200]
    assert all(len(row) == 4 for row in res.history)


def test_train_gas_two_phase_runs_both(stitch_dataset):
    res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 100,
                    seed_streams(0), schedule="two_phase")
    iters = [row[0] for row in res.history]
    assert iters == [100, 200]  # goals phase then policy phase


def test_train_gas_rejects_unknown_schedule(stitch_dataset):
    with pytest.raises(ConfigError, match="schedule"):
        train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 1,
                  seed_streams(0), schedule="sideways")


def test_no_reshape_skips_index(stitch_dataset, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return gas.build_reshape_index(*args)

    monkeypatch.setattr(gas.training, "build_reshape_index", spy)
    train_gas(stitch_dataset, AugmentConfig(epsilon=0.0), SMALL, 0.8, 10, seed_streams(0))
    assert calls == []
    train_gas(stitch_dataset, AugmentConfig(epsilon=0.5), SMALL, 0.8, 1, seed_streams(0))
    assert len(calls) == 1


def test_lr_schedule_endpoints():
    hyper = NetHyper(learning_rate=1e-3, lr_final_fraction=0.1)
    assert hyper.lr_at(1, 1000) == pytest.approx(1e-3)
    assert hyper.lr_at(1000, 1000) == pytest.approx(1e-4)
    constant = NetHyper(learning_rate=1e-3)
    assert constant.lr_at(999, 1000) == 1e-3


def test_build_models_share_normalization(stitch_dataset):
    nets, pol = build_models(stitch_dataset, SMALL, seed_streams(0))
    assert nets.norm is pol.norm
    assert nets.reward_net.layer_sizes[0] == stitch_dataset.env_meta.state_dim + 3
    assert pol.net.layer_sizes[0] == stitch_dataset.env_meta.state_dim + 5
    assert pol.net.layer_sizes[-1] == stitch_dataset.env_meta.action_dim


def test_training_buffers_do_not_outlive_train_gas(stitch_dataset, monkeypatch):
    """The buffers train_gas writes into are freed when it returns: nothing in
    the TrainResult, its nets or their Mlps holds on to them."""
    made = []
    init = gas.nn.NetBuffers.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))
        made.extend(weakref.ref(a) for a in [self.d_params, *self.acts, *self.d_weights,
                                             *self.d_biases])

    monkeypatch.setattr(gas.nn.NetBuffers, "__init__", tracked)
    res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 3, seed_streams(0))
    gc.collect()
    assert res.pol.net.weights  # the result is alive while its buffers are not
    assert len(made) > 3
    assert all(ref() is None for ref in made)

import numpy as np
import pytest

import gas
from gas.config import seed_streams
from gas.dataset import AugmentConfig
from gas.errors import ConfigError
from gas.training import NetHyper, build_models, train_gas

SMALL = NetHyper(n_layers=3, hidden=16, embedding=16, batch_size=32,
                 learning_rate=1e-3)


def test_train_gas_deterministic(stitch_dataset):
    def run():
        res = train_gas(stitch_dataset, AugmentConfig(), SMALL, 0.8, 60,
                        seed_streams(2))
        return (res.nets.reward_net.get_flat(), res.nets.cost_net.get_flat(),
                res.pol.net.get_flat(), tuple(res.history))

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
        assert np.array_equal(trained.get_flat(), fresh.get_flat())


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


def test_no_reshape_skips_index(stitch_dataset):
    res = train_gas(stitch_dataset, AugmentConfig(epsilon=0.0), SMALL, 0.8, 10,
                    seed_streams(0))
    assert res.reshape is None


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

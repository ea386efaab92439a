"""Optimizers, initializers and checkpoint serialization."""

import os

import numpy as np
import pytest

from repro import nn
from repro.nn import init
from repro.nn.modules import Parameter
from repro.nn.serialization import load_checkpoint, save_checkpoint


def param(values):
    return Parameter(np.asarray(values, dtype=np.float32))


class TestSGD:
    def test_vanilla_step(self):
        p = param([1.0])
        p.grad = np.array([0.5])
        nn.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_momentum_accumulates(self):
        p = param([0.0])
        opt = nn.SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # buf = 1, p = -1
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad = np.array([1.0])
        opt.step()  # buf = 1.5, p = -2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_weight_decay(self):
        p = param([2.0])
        p.grad = np.array([0.0])
        nn.SGD([p], lr=0.1, weight_decay=0.1).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.1 * 2.0], rtol=1e-6)

    def test_nesterov(self):
        p = param([0.0])
        opt = nn.SGD([p], lr=1.0, momentum=0.9, nesterov=True)
        p.grad = np.array([1.0])
        opt.step()  # buf=1, update = g + m*buf = 1.9
        np.testing.assert_allclose(p.data, [-1.9])

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            nn.SGD([param([1.0])], lr=0.1, nesterov=True)

    def test_frozen_params_untouched(self):
        p = param([1.0])
        p.requires_grad = False
        p.grad = np.array([1.0])
        nn.SGD([p], lr=1.0).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_none_grad_skipped(self):
        p = param([1.0])
        nn.SGD([p], lr=1.0).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([param([1.0])], lr=-1.0)

    def test_zero_grad(self):
        p = param([1.0])
        p.grad = np.array([1.0])
        opt = nn.SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_zero_grad_set_to_none_default_frees(self):
        """Default releases gradient arrays (adaptation frees per frame)."""
        p = param([1.0])
        p.grad = np.array([1.0])
        nn.SGD([p], lr=0.1).zero_grad(set_to_none=True)
        assert p.grad is None

    def test_zero_grad_keep_allocation(self):
        p = param([1.0])
        grad = np.array([3.0])
        p.grad = grad
        nn.SGD([p], lr=0.1).zero_grad(set_to_none=False)
        assert p.grad is grad  # same array, zero-filled in place
        np.testing.assert_array_equal(grad, [0.0])


class TestScheduler:
    def test_step_decay(self):
        p = param([1.0])
        opt = nn.SGD([p], lr=1.0)
        sched = nn.LRScheduler(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)
        sched.step(), sched.step()
        assert opt.lr == pytest.approx(0.01)

    def test_invalid_step_size(self):
        with pytest.raises(ValueError):
            nn.LRScheduler(nn.SGD([param([1.0])], lr=1.0), step_size=0)


class TestInit:
    def test_fan_in_out_linear(self):
        assert init._fan_in_out((10, 4)) == (4, 10)

    def test_fan_in_out_conv(self):
        assert init._fan_in_out((8, 3, 5, 5)) == (3 * 25, 8 * 25)

    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            init._fan_in_out((5,))

    def test_kaiming_uniform_bounds(self):
        t = Parameter(np.empty((100, 50), dtype=np.float32))
        init.kaiming_uniform_(t, rng=np.random.default_rng(0))
        bound = np.sqrt(2.0 / (1 + 5.0)) * np.sqrt(3.0 / 50)
        assert np.abs(t.data).max() <= bound + 1e-6

    def test_constants(self):
        t = Parameter(np.empty(5, dtype=np.float32))
        init.ones_(t)
        np.testing.assert_array_equal(t.data, 1.0)
        init.zeros_(t)
        np.testing.assert_array_equal(t.data, 0.0)
        init.constant_(t, 3.5)
        np.testing.assert_array_equal(t.data, 3.5)

    def test_gain_values(self):
        assert init._gain("relu") == pytest.approx(np.sqrt(2.0))
        assert init._gain("linear") == 1.0
        with pytest.raises(ValueError):
            init._gain("bogus")

    def test_bias_bounds(self):
        t = Parameter(np.empty(64, dtype=np.float32))
        init.uniform_bias_(t, (64, 16), rng=np.random.default_rng(0))
        assert np.abs(t.data).max() <= 0.25 + 1e-6


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        net = nn.Sequential(nn.Linear(4, 3), nn.BatchNorm1d(3))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, net, metadata={"preset": "test", "epoch": 3})
        fresh = nn.Sequential(nn.Linear(4, 3), nn.BatchNorm1d(3))
        state, meta = load_checkpoint(path, fresh)
        assert meta == {"preset": "test", "epoch": 3}
        np.testing.assert_allclose(
            fresh[0].weight.data, net[0].weight.data
        )

    def test_roundtrip_without_metadata(self, tmp_path):
        net = nn.Linear(2, 2)
        path = str(tmp_path / "plain.npz")
        save_checkpoint(path, net)
        state, meta = load_checkpoint(path)
        assert meta is None
        assert "weight" in state

    def test_suffix_added(self, tmp_path):
        net = nn.Linear(2, 2)
        path = str(tmp_path / "noext")
        save_checkpoint(path, net)
        state, _ = load_checkpoint(path)  # resolves noext.npz
        assert "weight" in state

    def test_creates_directories(self, tmp_path):
        net = nn.Linear(2, 2)
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_checkpoint(path, net)
        assert os.path.exists(path)

    def test_load_into_mismatched_model_raises(self, tmp_path):
        net = nn.Linear(2, 2)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, net)
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(path, nn.Linear(3, 3))

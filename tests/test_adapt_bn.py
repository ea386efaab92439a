"""LD-BN-ADAPT unit tests — the paper's core mechanism.

The key invariants: only gamma/beta move; running statistics are refreshed
from target data; a step reduces prediction entropy; everything else in
the model is bit-identical before and after adaptation.
"""

import numpy as np
import pytest

from repro import nn
from repro.adapt import (
    AdaptResult,
    LDBNAdapt,
    LDBNAdaptConfig,
    NoAdapt,
    ParameterSnapshot,
    entropy_loss,
    freeze_all,
    freeze_except,
    set_bn_training,
)
from repro.metrics import mean_entropy
from repro.nn.tensor import Tensor


@pytest.fixture
def target_images(tiny_benchmark):
    return tiny_benchmark.target_train.images


class TestConfig:
    def test_defaults(self):
        cfg = LDBNAdaptConfig()
        assert cfg.batch_size == 1
        assert cfg.stats_mode == "replace"

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            LDBNAdaptConfig(batch_size=0)

    def test_invalid_stats_mode(self):
        with pytest.raises(ValueError):
            LDBNAdaptConfig(stats_mode="magic")

    def test_invalid_optimizer(self):
        """The step is the paper's one SGD step: there is no optimizer to
        choose, so naming one is refused."""
        assert not hasattr(LDBNAdaptConfig(), "optimizer")
        with pytest.raises(TypeError):
            LDBNAdaptConfig(optimizer="sgd")


class TestFreezeHelpers:
    def test_freeze_all(self, untrained_tiny_model):
        freeze_all(untrained_tiny_model)
        assert all(not p.requires_grad for p in untrained_tiny_model.parameters())

    def test_freeze_except(self, untrained_tiny_model):
        bn_params = untrained_tiny_model.bn_parameters()
        kept = freeze_except(untrained_tiny_model, bn_params)
        assert len(kept) == len(bn_params)
        trainable = [p for p in untrained_tiny_model.parameters() if p.requires_grad]
        assert {id(p) for p in trainable} == {id(p) for p in bn_params}

    def test_set_bn_training_only_touches_bn(self, untrained_tiny_model):
        model = untrained_tiny_model
        model.eval()
        set_bn_training(model, True)
        for module in model.modules():
            if isinstance(module, nn.BatchNorm2d):
                assert module.training
            elif isinstance(module, (nn.Conv2d, nn.Linear)):
                assert not module.training

    def test_parameter_snapshot(self, untrained_tiny_model):
        params = untrained_tiny_model.bn_parameters()
        snap = ParameterSnapshot(params)
        params[0].data += 1.0
        assert snap.max_change() == pytest.approx(1.0)
        snap.restore()
        assert snap.max_change() == 0.0


class TestLDBNAdapt:
    def test_requires_bn_layers(self):
        plain = nn.Sequential(nn.Linear(4, 2))
        with pytest.raises(ValueError, match="BatchNorm"):
            LDBNAdapt(plain)

    def test_only_bn_affine_changes(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        non_bn = {
            name: p.data.copy()
            for name, p in model.named_parameters()
            if "bn" not in name and "downsample.1" not in name
        }
        bn_before = [p.data.copy() for p in model.bn_parameters()]
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2))
        adapter.adapt(target_images[:2])
        for name, saved in non_bn.items():
            current = dict(model.named_parameters())[name].data
            np.testing.assert_array_equal(current, saved, err_msg=name)
        changed = any(
            not np.array_equal(p.data, before)
            for p, before in zip(model.bn_parameters(), bn_before)
        )
        assert changed

    def test_trainable_count_equals_bn_params(self, trained_tiny_model):
        adapter = LDBNAdapt(trained_tiny_model)
        expected = sum(p.size for p in trained_tiny_model.bn_parameters())
        assert adapter.trainable_parameter_count() == expected

    @staticmethod
    def _stem_conv_channel_means(model, images):
        """Channel means of conv1's output — what the stem BN normalizes."""
        with nn.no_grad():
            out = model.backbone.conv1(Tensor(images, _copy=False))
        return out.numpy().mean(axis=(0, 2, 3))

    def test_replace_mode_sets_batch_statistics(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=0.0, stats_mode="replace"))
        stem_bn = model.backbone.bn1
        before = stem_bn.running_mean.copy()
        adapter.adapt(target_images[:4])
        after = stem_bn.running_mean.copy()
        assert not np.allclose(before, after)
        # the stem BN normalizes conv1's output, so its refreshed mean must
        # equal that activation batch's channel means
        np.testing.assert_allclose(
            after,
            self._stem_conv_channel_means(model, target_images[:4]),
            rtol=1e-3,
            atol=1e-4,
        )

    def test_ema_mode_blends(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        stem_bn = model.backbone.bn1
        before = stem_bn.running_mean.copy()
        adapter = LDBNAdapt(
            model, LDBNAdaptConfig(lr=0.0, stats_mode="ema", ema_momentum=0.1)
        )
        adapter.adapt(target_images[:4])
        after = stem_bn.running_mean.copy()
        batch_mean = self._stem_conv_channel_means(model, target_images[:4])
        np.testing.assert_allclose(
            after, 0.9 * before + 0.1 * batch_mean, rtol=1e-3, atol=1e-4
        )

    def test_bn_momentum_restored_after_step(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        momenta = [m.momentum for m in model.bn_modules()]
        adapter = LDBNAdapt(model, LDBNAdaptConfig())
        adapter.adapt(target_images[:1])
        assert [m.momentum for m in model.bn_modules()] == momenta

    def test_model_left_in_eval_mode(self, trained_tiny_model, target_images):
        adapter = LDBNAdapt(trained_tiny_model)
        adapter.adapt(target_images[:1])
        assert all(not m.training for m in trained_tiny_model.modules())

    def test_entropy_decreases_over_steps(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3, batch_size=4))
        batch = target_images[:4]
        first = adapter.adapt(batch).loss
        for _ in range(5):
            last = adapter.adapt(batch).loss
        assert last < first

    def test_adapt_returns_result(self, trained_tiny_model, target_images):
        adapter = LDBNAdapt(trained_tiny_model)
        result = adapter.adapt(target_images[:1])
        assert isinstance(result, AdaptResult)
        assert result.num_frames == 1
        assert result.step_index == 1
        assert np.isfinite(result.loss)

    def test_rejects_non_batch_input(self, trained_tiny_model, target_images):
        adapter = LDBNAdapt(trained_tiny_model)
        with pytest.raises(ValueError):
            adapter.adapt(target_images[0])

    def test_observe_frame_buffers_until_batch(self, trained_tiny_model, target_images):
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(batch_size=3))
        assert adapter.observe_frame(target_images[0]) is None
        assert adapter.observe_frame(target_images[1]) is None
        result = adapter.observe_frame(target_images[2])
        assert result is not None and result.num_frames == 3

    def test_observe_frame_copies_a_reused_frame_buffer(
        self, trained_tiny_model, target_images
    ):
        """A source that hands over one buffer again and again (a camera
        ring) must not turn the batch into copies of its last frame; and
        frames a restore put in the pending list join the batch in order."""
        seen = []

        class Recording(NoAdapt):
            config = LDBNAdaptConfig(batch_size=3)

            def adapt(self, images):
                seen.append(images.mean(axis=(1, 2, 3)).tolist())
                assert images.dtype == np.float32
                return super().adapt(images)

        adapter = Recording(trained_tiny_model)
        ring = np.empty_like(target_images[0], dtype=np.float32)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            ring[...] = value
            result = adapter.observe_frame(ring)
        assert seen == [[1.0, 2.0, 3.0]] and result is None
        assert adapter.pending_frames == 2
        adapter.restore_pending([np.full_like(target_images[0], 7.0)])
        ring[...] = 8.0
        assert adapter.observe_frame(ring) is None
        ring[...] = 9.0
        assert adapter.observe_frame(ring).num_frames == 3
        assert seen[1] == [7.0, 8.0, 9.0]
        # a restore with a step's worth or more pending (a checkpoint taken
        # under a larger batch_size): the next frame steps on all of them
        adapter.restore_pending([
            np.full_like(target_images[0], value) for value in (1.0, 2.0, 3.0)
        ])
        assert adapter.observe_frame(ring).num_frames == 4
        assert seen[2] == [1.0, 2.0, 3.0, 9.0]
        # ... and batch_size is read live
        adapter.config = LDBNAdaptConfig(batch_size=2)
        ring[...] = 4.0
        assert adapter.observe_frame(ring) is None
        ring[...] = 5.0
        assert adapter.observe_frame(ring).num_frames == 2
        assert seen[3] == [4.0, 5.0]

    def test_observe_frame_rejects_batches(self, trained_tiny_model, target_images):
        adapter = LDBNAdapt(trained_tiny_model)
        with pytest.raises(ValueError):
            adapter.observe_frame(target_images[:2])

    def test_reset_restores_model_and_buffer(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        initial = model.state_dict()
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2, batch_size=2))
        adapter.observe_frame(target_images[0])  # buffered, no step yet
        adapter.adapt(target_images[:2])
        adapter.reset()
        assert adapter.steps_taken == 0
        restored = model.state_dict()
        for key in initial:
            np.testing.assert_array_equal(initial[key], restored[key])
        # pending buffer cleared: next observe should not trigger a step
        assert adapter.observe_frame(target_images[1]) is None

    def test_adaptation_reduces_entropy_on_target_domain(
        self, trained_tiny_model, tiny_benchmark
    ):
        """End-to-end sanity: entropy on held-out target data drops."""
        model = trained_tiny_model
        test_images = tiny_benchmark.target_test.images
        model.eval()
        with nn.no_grad():
            before = mean_entropy(model(Tensor(test_images[:16], _copy=False)).numpy())
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3, batch_size=4))
        for start in range(0, 32, 4):
            adapter.adapt(tiny_benchmark.target_train.images[start : start + 4])
        with nn.no_grad():
            after = mean_entropy(model(Tensor(test_images[:16], _copy=False)).numpy())
        assert after < before


class TestNoAdapt:
    def test_identity(self, trained_tiny_model, target_images):
        model = trained_tiny_model
        state = model.state_dict()
        adapter = NoAdapt(model)
        result = adapter.adapt(target_images[:2])
        assert result.loss == 0.0
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_trainable_count_zero(self, trained_tiny_model):
        assert NoAdapt(trained_tiny_model).trainable_parameter_count() == 0


class TestEntropyLoss:
    def test_matches_numpy_entropy(self, rng):
        logits = rng.standard_normal((2, 6, 3, 4))
        loss = entropy_loss(Tensor(logits)).item()
        assert loss == pytest.approx(mean_entropy(logits), rel=1e-5)

    def test_uniform_is_log_c(self):
        logits = np.zeros((1, 8, 2, 2))
        assert entropy_loss(Tensor(logits)).item() == pytest.approx(np.log(8), rel=1e-5)

    def test_confident_is_near_zero(self):
        logits = np.full((1, 5, 2, 2), -30.0)
        logits[:, 0] = 30.0
        assert entropy_loss(Tensor(logits)).item() < 1e-6

    def test_gradcheck(self, rng):
        from repro.nn.autograd import gradcheck

        logits = Tensor(
            rng.standard_normal((2, 4, 2, 3)).astype(np.float64), requires_grad=True
        )
        gradcheck(lambda x: entropy_loss(x), [logits])


def _poison(mean, var):
    mean[0] = np.nan
    var[1] = np.inf


class TestReplaceModeDropsNonFiniteRunningStats:
    """``stats_mode="replace"`` persists with momentum 1.0, and the blend
    ``running *= 0.0; running += batch`` keeps a non-finite running value
    forever (``nan * 0 = inf * 0 = nan``).  "Replace" must replace: after
    one step a poisoned buffer holds the batch statistics — the ones a
    clean model persists from the same frame, since a train-mode forward
    never reads the running buffers — on every path that persists."""

    @staticmethod
    def _bn_buffers(model):
        return [
            (m.running_mean.copy(), m.running_var.copy())
            for m in model.modules() if isinstance(m, nn.BatchNorm2d)
        ]

    def _step(self, state, images, poisoned, compiled, backend, **config):
        from repro.models import build_model

        model = build_model("tiny-r18", num_lanes=2,
                            rng=np.random.default_rng(1))
        model.load_state_dict(state)
        model.eval()
        if poisoned:
            for m in model.modules():
                if isinstance(m, nn.BatchNorm2d):
                    _poison(m.running_mean, m.running_var)
        adapter = LDBNAdapt(model, LDBNAdaptConfig(backend=backend, **config))
        with nn.adaptation_mode(compiled):
            adapter.adapt(images)
        return self._bn_buffers(model)

    @pytest.mark.parametrize("compiled, backend", [
        (False, "numpy"), (True, "numpy"), (True, "cgen"),
    ])
    def test_poisoned_buffers_hold_the_batch_statistics_after_one_step(
        self, _trained_tiny_state, target_images, compiled, backend
    ):
        from repro.engine.backends import find_cc

        if backend == "cgen" and find_cc() is None:
            pytest.skip("no C compiler")
        images = target_images[:1]
        got = self._step(_trained_tiny_state, images, True, compiled, backend)
        want = self._step(_trained_tiny_state, images, False, compiled, backend)
        for (gm, gv), (wm, wv) in zip(got, want):
            assert np.isfinite(gm).all() and np.isfinite(gv).all()
            assert np.array_equal(gm, wm) and np.array_equal(gv, wv)

    def test_fleet_fused_group_step_replaces_too(self, trained_tiny_model, rng):
        from repro.serve import FleetAdaptationBatcher, StreamRegistry

        model = trained_tiny_model
        h, w = model.config.input_hw
        frames = [
            rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32)
            for _ in range(2)
        ]

        def fused(poisoned):
            registry = StreamRegistry(model)
            sessions = [
                registry.register(
                    f"s{i}", iter(()), LDBNAdapt(model, LDBNAdaptConfig()),
                    deadline_ms=33.3,
                )
                for i in range(2)
            ]
            if poisoned:
                for bufs in sessions[0].bn_state.buffers:
                    _poison(bufs["running_mean"], bufs["running_var"])
            FleetAdaptationBatcher(model).stage(sessions, frames).execute()
            return [
                [(b["running_mean"].copy(), b["running_var"].copy())
                 for b in s.bn_state.buffers]
                for s in sessions
            ]

        for got, want in zip(fused(True), fused(False)):
            for (gm, gv), (wm, wv) in zip(got, want):
                assert np.isfinite(gm).all() and np.isfinite(gv).all()
                assert np.array_equal(gm, wm) and np.array_equal(gv, wv)

    def test_ema_mode_still_blends(self, _trained_tiny_state, target_images):
        """Momentum below 1 is the blend, bit for bit — non-finite values
        included: ``ema`` has no batch value to fall back on, so clearing
        it is a rail's job (ROADMAP item 4), not this helper's."""
        from repro.nn.functional import update_running_stat

        rng = np.random.default_rng(0)
        running, batch = rng.standard_normal(8), rng.standard_normal(8)
        want = running * (1.0 - 0.1) + 0.1 * batch
        got = running.copy()
        update_running_stat(got, batch, 0.1)
        assert got.tobytes() == want.tobytes()
        # and for finite buffers the copy is what the blend computed
        replaced = running.copy()
        update_running_stat(replaced, batch, 1.0)
        assert replaced.tobytes() == (running * 0.0 + 1.0 * batch).tobytes()
        poisoned = self._step(
            _trained_tiny_state, target_images[:1], True, True, "numpy",
            stats_mode="ema", ema_momentum=0.1,
        )
        assert all(np.isnan(m[0]) and np.isinf(v[1]) for m, v in poisoned)

"""Compiled adaptation plan: gradient parity, grouping, wiring, fallback.

The compiled entropy step's contract mirrors the inference engine's: the
static forward+backward plan must reproduce the eager autograd oracle's
losses, BN gamma/beta gradients and post-step state to float precision
(bitwise in practice for the single-stream plan), across both backbones,
pristine and adapted BN states, and the grouped per-stream mode the
fleet's batched adaptation builds on.  Models the plan cannot lower must
fall back to eager transparently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig, entropy_loss
from repro.adapt.base import set_bn_training
from repro.engine import (
    AdaptationPlan,
    CompiledAdaptStep,
    UnsupportedAdaptGraph,
    trace_entropy_step,
)
from repro.models import build_model
from repro.nn.modules import _BatchNormBase
from repro.pipeline import PipelineConfig, RealTimePipeline


def _frames(rng, config, batch):
    h, w = config.input_hw
    return rng.standard_normal((batch, 3, h, w)).astype(np.float32)


def _eager_step_grads(model, x):
    """Loss + BN gamma/beta grads from the eager autograd oracle.

    Runs the train-mode forward + backward exactly like LD-BN-ADAPT's
    eager path, then restores the running statistics the forward mutated.
    """
    state = model.state_dict()
    set_bn_training(model, True)
    try:
        logits = model(nn.Tensor(x, _copy=False))
        loss = entropy_loss(logits, axis=1)
        model.zero_grad()
        loss.backward()
    finally:
        set_bn_training(model, False)
    grads = [
        (m.weight.grad.copy(), m.bias.grad.copy())
        for m in model.modules()
        if isinstance(m, _BatchNormBase)
    ]
    model.zero_grad()
    model.load_state_dict(state)
    return float(loss.item()), grads


class TestGradientParity:
    @pytest.mark.parametrize("preset", ["tiny-r18", "tiny-r34"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_plan_matches_eager_grads(self, preset, batch, rng):
        model = build_model(preset, rng=rng)
        model.eval()
        x = _frames(rng, model.config, batch)
        eager_loss, eager_grads = _eager_step_grads(model, x)

        plan = CompiledAdaptStep(model).plan_for(x)
        losses = plan.run(x)
        assert losses.shape == (1,)
        assert losses[0] == pytest.approx(eager_loss, rel=1e-12)
        by_module = {id(m): g for m, g in zip(
            (m for m in model.modules() if isinstance(m, _BatchNormBase)),
            eager_grads,
        )}
        assert len(plan.bn_taps) == len(eager_grads)
        for tap in plan.bn_taps:
            g_gamma, g_beta = by_module[id(tap.module)]
            np.testing.assert_allclose(
                tap.grad_gamma[0], g_gamma, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                tap.grad_beta[0], g_beta, rtol=1e-9, atol=1e-12
            )

    def test_full_step_bitwise_vs_eager(self, rng):
        """adapt() compiled vs eager: identical losses AND model state."""
        def run(compiled):
            gen = np.random.default_rng(7)
            model = build_model("tiny-r18", rng=gen)
            model.eval()
            adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3, batch_size=1))
            losses = []
            with nn.adaptation_mode(compiled):
                for _ in range(3):
                    losses.append(
                        adapter.adapt(_frames(gen, model.config, 1)).loss
                    )
            return losses, model.state_dict()

        compiled_losses, compiled_state = run(True)
        eager_losses, eager_state = run(False)
        assert compiled_losses == eager_losses
        for key in eager_state:
            np.testing.assert_array_equal(
                compiled_state[key], eager_state[key], err_msg=key
            )

    def test_parity_survives_adapted_state(self, trained_tiny_model, rng):
        """Gradients must match after LD-BN-ADAPT rewrote the BN state."""
        model = trained_tiny_model
        step = CompiledAdaptStep(model)
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2))
        for _ in range(3):
            adapter.adapt(_frames(rng, model.config, 1))
        model.eval()
        x = _frames(rng, model.config, 2)
        eager_loss, eager_grads = _eager_step_grads(model, x)
        plan = step.plan_for(x)
        losses = plan.run(x)
        assert losses[0] == pytest.approx(eager_loss, rel=1e-12)
        by_module = {id(m): g for m, g in zip(
            (m for m in model.modules() if isinstance(m, _BatchNormBase)),
            eager_grads,
        )}
        for tap in plan.bn_taps:
            np.testing.assert_allclose(
                tap.grad_gamma[0], by_module[id(tap.module)][0],
                rtol=1e-9, atol=1e-12,
            )

    def test_stats_refresh_matches_eager(self, rng):
        """replace-mode running stats: compiled equals the eager refresh."""
        gen = np.random.default_rng(11)
        model = build_model("tiny-r18", rng=gen)
        model.eval()
        x = _frames(gen, model.config, 4)
        stem = model.backbone.bn1

        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=0.0, batch_size=4))
        adapter.adapt(x)
        compiled_mean = stem.running_mean.copy()
        adapter.reset()
        model.eval()
        with nn.adaptation_mode(False):
            adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=0.0, batch_size=4))
            adapter.adapt(x)
        np.testing.assert_array_equal(compiled_mean, stem.running_mean)


class TestGroupedPlan:
    def test_grouped_equals_per_stream_eager(self, rng):
        """Per-group stats + per-group gamma/beta == K independent steps."""
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        groups, batch = 3, 2
        config = model.config
        bn_modules = [
            m for m in model.modules() if isinstance(m, _BatchNormBase)
        ]
        # distinct per-stream gamma/beta
        streams = [
            [
                (
                    m.weight.data + 0.02 * rng.standard_normal(m.weight.shape),
                    m.bias.data + 0.02 * rng.standard_normal(m.bias.shape),
                )
                for m in bn_modules
            ]
            for _ in range(groups)
        ]
        frames = [_frames(rng, config, batch) for _ in range(groups)]

        pristine = [(m.weight.data.copy(), m.bias.data.copy()) for m in bn_modules]
        reference = []
        for params, x in zip(streams, frames):
            for m, (gamma, beta) in zip(bn_modules, params):
                m.weight.data[...] = gamma
                m.bias.data[...] = beta
            loss, grads = _eager_step_grads(model, x)
            reference.append((loss, grads))
        for m, (gamma, beta) in zip(bn_modules, pristine):
            m.weight.data[...] = gamma
            m.bias.data[...] = beta

        x_all = np.concatenate(frames)
        plan = CompiledAdaptStep(model).plan_for(x_all, groups=groups)
        layer_of = {id(m): j for j, m in enumerate(bn_modules)}
        for tap in plan.bn_taps:
            j = layer_of[id(tap.module)]
            for k in range(groups):
                tap.gamma_slot[k] = streams[k][j][0]
                tap.beta_slot[k] = streams[k][j][1]
        losses = plan.run(x_all)

        for k in range(groups):
            assert losses[k] == pytest.approx(reference[k][0], rel=1e-9)
            for tap in plan.bn_taps:
                j = layer_of[id(tap.module)]
                np.testing.assert_allclose(
                    tap.grad_gamma[k], reference[k][1][j][0],
                    rtol=1e-7, atol=1e-10,
                )
                np.testing.assert_allclose(
                    tap.grad_beta[k], reference[k][1][j][1],
                    rtol=1e-7, atol=1e-10,
                )

    def test_grouped_losses_match_per_sample_entropy(self, rng):
        """Grouped losses == per_sample entropy reduction (batch 1 groups)."""
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _frames(rng, model.config, 3)
        plan = CompiledAdaptStep(model).plan_for(x, groups=3)
        for tap in plan.bn_taps:
            for k in range(3):
                tap.gamma_slot[k] = tap.module.weight.data
                tap.beta_slot[k] = tap.module.bias.data
        losses = plan.run(x)
        # eager oracle: per-sample BN would differ — but with IDENTICAL
        # slot parameters and batch-1 groups, per-sample statistics are
        # exactly what each sample alone would see... compare per sample
        set_bn_training(model, True)
        per_sample = []
        state = model.state_dict()
        try:
            for k in range(3):
                logits = model(nn.Tensor(x[k:k + 1], _copy=False))
                per_sample.append(
                    float(entropy_loss(logits, axis=1).item())
                )
        finally:
            set_bn_training(model, False)
            model.load_state_dict(state)
        np.testing.assert_allclose(losses, per_sample, rtol=1e-9)

    def test_groups_must_divide_batch(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        graph = trace_entropy_step(
            model, _frames(rng, model.config, 3), entropy_loss
        )
        with pytest.raises(ValueError, match="divide"):
            AdaptationPlan(graph, groups=2)


def _pool_backward_oracle(x, g):
    """A 3x3/s2/p1 max-pool input gradient, one window at a time: each
    window's gradient goes to its first maximal tap in row-major order
    (``argmax``), and every cell sums what it received in ascending
    ``(a, b)`` tap order, from zero."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)),
                    constant_values=-np.inf)
    received = {}
    for b_, ch, oy, ox in np.ndindex(g.shape):
        window = padded[b_, ch, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3]
        a, b = divmod(int(np.argmax(window)), 3)
        cell = (b_, ch, 2 * oy + a - 1, 2 * ox + b - 1)
        received.setdefault(cell, []).append(((a, b), g[b_, ch, oy, ox]))
    out = np.zeros_like(x)
    for cell, parts in received.items():
        total = out.dtype.type(0.0)
        for _, value in sorted(parts, key=lambda part: part[0]):
            total = total + value
        out[cell] = total
    return out


class TestMaxPoolTies:
    """The max-pool backward on planted ties, eager and numpy plan: the
    flat put of the winners, then the same col2im scatter."""

    @staticmethod
    def _planted():
        """Channel 0 is one plateau (every window's taps tie; border
        windows' padding taps are -inf).  In channel 1 the pixel (3, 3)
        wins the four windows (1..2, 1..2), at taps (2, 2), (2, 0),
        (0, 2) and (0, 0), and their gradients are planted so only the
        ascending tap order sums to 1.5 (last-to-first gives 0)."""
        rng = np.random.default_rng(3)
        x = np.empty((1, 2, 7, 7))
        x[0, 0] = 0.25
        x[0, 1] = -rng.uniform(1.0, 2.0, (7, 7))
        x[0, 1, 3, 3] = 10.0
        g = rng.standard_normal((1, 2, 4, 4))
        g[0, 1, 2, 2], g[0, 1, 2, 1] = 1e16, -1e16
        g[0, 1, 1, 2], g[0, 1, 1, 1] = 1.0, 0.5
        return x, g

    @staticmethod
    def _stack():
        """BN -> the pool -> 1x1 conv -> BN: the train-mode BN in front
        puts the pool's backward on the gradient path and maps equal
        pixels of a channel to equal bytes, so the ties survive it."""
        rng = np.random.default_rng(5)
        model = nn.Sequential(
            nn.BatchNorm2d(2),
            nn.MaxPool2d(3, stride=2, padding=1),
            nn.Conv2d(2, 3, 1, rng=rng),
            nn.BatchNorm2d(3),
        )
        model.train()
        return model

    def test_eager_follows_the_window_oracle(self):
        x, g = self._planted()
        xt = nn.Tensor(x, requires_grad=True)
        nn.functional.max_pool2d(xt, 3, stride=2, padding=1).backward(g)
        want = _pool_backward_oracle(x, g)
        assert xt.grad.tobytes() == want.tobytes()
        assert xt.grad[0, 1, 3, 3] == 1.5
        # the plateau window (1, 1) hands its gradient to its first tap
        assert xt.grad[0, 0, 1, 1] == g[0, 0, 1, 1]

    def test_plan_is_bitwise_eager(self, monkeypatch):
        """The numpy plan's pool stage, its incoming gradient replaced by
        the planted one, writes the eager backward's bytes on the pool
        input the plan's own forward saw (the BN's output)."""
        x, g = self._planted()
        model = self._stack()
        seen = []
        offer = AdaptationPlan._offer

        def spy(self, kind, spec, fallback):
            if kind == "maxpool_bwd":
                step = fallback

                def fallback():
                    spec["g"][...] = g
                    step()
                    seen.append(spec["dst"].copy())

            return offer(self, kind, spec, fallback)

        monkeypatch.setattr(AdaptationPlan, "_offer", spy)
        plan = CompiledAdaptStep(model, backend="numpy").plan_for(x)
        plan.run(x)
        (got,) = seen

        pooled_in = nn.Tensor(model[0](nn.Tensor(x)).data, requires_grad=True)
        model[1](pooled_in).backward(g)
        assert got.tobytes() == pooled_in.grad.tobytes()
        assert got.tobytes() == _pool_backward_oracle(
            pooled_in.data, g).tobytes()


class _Diamond(nn.Module):
    """BN -> ``y + branch(y)`` -> BN.  The add's copy is the first
    gradient contribution into ``y``, so every contribution the branch's
    backward then makes into ``y`` accumulates."""

    def __init__(self, width, branch, rank=4):
        super().__init__()
        bn = nn.BatchNorm2d if rank == 4 else nn.BatchNorm1d
        self.bn_in, self.bn_out = bn(width), bn(width)
        self.branch = branch

    def forward(self, x):
        y = self.bn_in(x)
        return self.bn_out(y + self.branch(y))


def _diamonds():
    """(rule kind the branch accumulates with, model, input shape)."""
    rng = np.random.default_rng(17)
    return {
        "relu_bwd": ("relu_bwd", _Diamond(4, nn.ReLU()), (2, 4, 5, 7)),
        "bn_bwd": ("bn_bwd", _Diamond(4, nn.BatchNorm2d(4)), (2, 4, 5, 7)),
        "maxpool_bwd": ("maxpool_bwd", _Diamond(
            4, nn.MaxPool2d(3, stride=1, padding=1)), (2, 4, 5, 7)),
        "conv_dgrad-3x3": ("conv_dgrad", _Diamond(
            4, nn.Conv2d(4, 4, 3, padding=1, rng=rng)), (2, 4, 5, 7)),
        "conv_dgrad-1x1": ("conv_dgrad", _Diamond(
            4, nn.Conv2d(4, 4, 1, rng=rng)), (2, 4, 5, 7)),
        "linear_bwd": ("linear_bwd", _Diamond(
            6, nn.Linear(6, 6, rng=rng), rank=2), (3, 6)),
        "mul_bwd": ("mul_bwd", _Diamond(4, lambda y: y * y), (2, 4, 5, 7)),
        "copy": ("copy", _Diamond(4, lambda y: y), (2, 4, 5, 7)),
    }


class TestAccumulatingContributions:
    @pytest.mark.parametrize("case", sorted(_diamonds()))
    def test_accumulating_rule_is_bitwise_eager(self, case, monkeypatch):
        """Each backward rule's accumulating contribution (its gradient
        written into a temporary, then added to the buffer) leaves the
        eager ``existing + grad`` bytes: the numpy plan's BN gradients
        equal autograd's byte for byte."""
        kind, model, shape = _diamonds()[case]
        model.train()
        x = np.random.default_rng(3).standard_normal(shape)
        accumulated = []
        offer = AdaptationPlan._offer

        def spy(self, kind, spec, fallback):
            if spec.get("accumulate"):
                accumulated.append(kind)
            return offer(self, kind, spec, fallback)

        monkeypatch.setattr(AdaptationPlan, "_offer", spy)
        plan = CompiledAdaptStep(model, backend="numpy").plan_for(x)
        assert kind in accumulated
        plan.run(x)
        _, eager = _eager_step_grads(model, x)
        bns = [m for m in model.modules() if isinstance(m, _BatchNormBase)]
        assert len(plan.bn_taps) == len(bns)
        by_module = {id(m): g for m, g in zip(bns, eager)}
        for tap in plan.bn_taps:
            gamma, beta = by_module[id(tap.module)]
            assert tap.grad_gamma[0].tobytes() == gamma.tobytes()
            assert tap.grad_beta[0].tobytes() == beta.tobytes()


class TestPlanStructure:
    def test_backward_pruning_and_arena_reuse(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _frames(rng, model.config, 1)
        plan = CompiledAdaptStep(model).plan_for(x)
        stats = plan.stats
        # dead gradient paths pruned: the stem conv (and the pure-view
        # reshapes) emit no backward stage
        assert 0 < stats.backward_stages < stats.num_ops
        assert stats.skipped_backward > 0
        # liveness recycles buffers across the fwd+bwd program
        assert 0 < stats.arena_bytes < stats.requested_bytes

    def test_trace_is_side_effect_free(self, trained_tiny_model, rng):
        model = trained_tiny_model
        before = model.state_dict()
        trace_entropy_step(
            model, _frames(rng, model.config, 2), entropy_loss
        )
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)
        assert all(not m.training for m in model.modules())


class TestWiringAndFallback:
    def test_adaptation_mode_escape_hatch(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        adapter = LDBNAdapt(model, LDBNAdaptConfig())
        with nn.adaptation_mode(False):
            adapter.adapt(_frames(rng, model.config, 1))
        assert adapter._compiled is None  # eager path: plan never built
        assert nn.compiled_adaptation_enabled()  # restored on exit
        adapter.adapt(_frames(rng, model.config, 1))
        assert adapter._compiled is not None
        assert adapter._compiled.num_plans == 1

    def test_unsupported_graph_falls_back_to_eager(self, rng):
        class SigmoidHead(nn.Module):
            def __init__(self, gen):
                super().__init__()
                self.conv = nn.Conv2d(3, 6, 3, padding=1, rng=gen)
                self.bn = nn.BatchNorm2d(6)

            def forward(self, x):
                return nn.functional.sigmoid(self.bn(self.conv(x)))

        model = SigmoidHead(rng)
        model.eval()
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3))
        x = rng.standard_normal((1, 3, 8, 10)).astype(np.float32)
        result = adapter.adapt(x)  # must not raise: falls back to eager
        assert np.isfinite(result.loss)
        assert adapter._compiled_unsupported

    def test_pipeline_warms_adapter_plan(self, trained_tiny_model, rng):
        from repro.data.dataset import LaneSample

        model = trained_tiny_model
        config = model.config
        h, w = config.input_hw
        label_shape = (config.num_anchors, config.num_lanes)
        frames = [
            LaneSample(
                image=rng.standard_normal((3, h, w)).astype(np.float32),
                label=np.zeros(label_shape, dtype=np.int64),
                gt_cells=np.zeros(label_shape, dtype=np.float64),
                domain="target",
                timestamp=i / 30.0,
            )
            for i in range(2)
        ]
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3))
        pipeline = RealTimePipeline(
            model, adapter, PipelineConfig(latency_model="wallclock")
        )
        report = pipeline.run(iter(frames), 2)
        assert adapter._compiled is not None and adapter._compiled.num_plans == 1
        # adaptation-step latency is now reported per adapted frame
        assert all(
            f.adapt_ms is not None and f.adapt_ms > 0
            for f in report.frames
            if f.adapted
        )
        assert report.adaptation_percentile(50) > 0


class _Net(nn.Module):
    """``forward(self, x)`` over the named layers it is given."""

    def __init__(self, forward, **layers):
        super().__init__()
        for name, layer in layers.items():
            setattr(self, name, layer)
        self._forward = forward

    def forward(self, x):
        return self._forward(self, x)


def _refusals():
    """Case -> (model, loss_fn or None for the entropy, from_stem, what
    the refusal says): every graph ``CompiledAdaptStep.plan_for`` refuses
    that a model and loss can produce, over ``(2, 3, 4, 5)`` images."""
    rng = np.random.default_rng(29)
    F = nn.functional

    def conv_bn(forward=lambda m, x: m.bn(m.conv(x)), c=4):
        return _Net(forward, conv=nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                    bn=nn.BatchNorm2d(c))

    return {
        "op-without-rule": (
            conv_bn(lambda m, x: F.sigmoid(m.bn(m.conv(x)))), None, False,
            "no adaptation-plan lowering"),
        "loss-not-a-global-mean": (
            conv_bn(), lambda y: entropy_loss(y, reduction="per_sample"),
            False, "global mean loss"),
        "multi-axis-sum": (
            conv_bn(), lambda y: F.log_softmax(y, 1).sum(axis=(1, 2)).mean(),
            False, "single axis"),
        "bn-batch-not-the-groups": (
            conv_bn(lambda m, x: m.bn(m.conv(x).reshape(4, 2, 4, 5)
                                      ).reshape(2, 4, 4, 5), c=2),
            None, False, "does not match groups"),
        "from-stem-without-a-stem": (
            _Net(lambda m, x: m.bn(m.conv(m.bn_in(x))),
                 bn_in=nn.BatchNorm2d(3),
                 conv=nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                 bn=nn.BatchNorm2d(4)),
            None, True, "no stem conv"),
    }


class TestRefusals:
    """Each refusal of the plan raises :class:`UnsupportedAdaptGraph`, and
    an adapter compiled with that step takes the eager step instead,
    leaving the bytes ``adaptation_mode(False)`` leaves.  A refusal holds
    for its input kind only: a graph refused ``from_stem`` still steps
    compiled on its images.  Eval-mode BN inside an adaptation trace is
    refused too, but no model reaches it: the entropy-step trace puts
    every BN layer in training mode."""

    @pytest.mark.parametrize("case", sorted(_refusals()))
    def test_refused_step_runs_eager(self, case):
        model, loss_fn, from_stem, match = _refusals()[case]
        twin = _refusals()[case][0]
        model.eval()
        x = np.random.default_rng(8).standard_normal(
            (2, 3, 4, 5)).astype(np.float32)
        step = CompiledAdaptStep(model, loss_fn=loss_fn, backend="numpy")
        with pytest.raises(UnsupportedAdaptGraph, match=match):
            step.plan_for(x, from_stem=from_stem)
        config = LDBNAdaptConfig(batch_size=2, lr=1e-2)
        adapter = LDBNAdapt(model, config, compiled=step)
        oracle = LDBNAdapt(twin, config)
        rows = np.zeros((4, 4, 5), dtype=np.float32) if from_stem else None
        for k in range(2):
            frames = x + k
            for each, compiled in ((adapter, True), (oracle, False)):
                with nn.adaptation_mode(compiled):
                    if from_stem:  # a step whose every frame brings rows
                        for frame in frames:
                            each.observe_frame(frame, rows)
                    else:
                        each.adapt(frames)
        assert adapter._compiled_unsupported == {from_stem}
        # refused from the stem rows, the step falls back to the image plan
        assert step.num_plans == (1 if from_stem else 0)
        want = twin.state_dict()
        for key, value in model.state_dict().items():
            assert value.tobytes() == want[key].tobytes(), key


class TestInputReshape:
    """A reshape of the plan input is no view of a plan buffer: the plan
    copies it into the reshape's own buffer every replay.  Steps compiled
    that way leave the bytes of the eager step on numpy; on ``cgen`` the
    copy is a numpy stage beside rendered ones, which hold the float band
    of their numpy closures (as every rendered adaptation stage does)."""

    @pytest.mark.parametrize("backend", ["numpy", "cgen"])
    def test_two_compiled_steps_match_eager(self, backend):
        from repro.engine.backends import find_cc

        if backend == "cgen" and find_cc() is None:
            pytest.skip("no C compiler")

        def net():
            rng = np.random.default_rng(29)
            return _Net(lambda m, x: m.bn(m.fc(x.flatten(1))),
                        fc=nn.Linear(60, 5, rng=rng), bn=nn.BatchNorm1d(5))

        model, twin = net(), net()
        model.eval()
        twin.eval()
        x = np.random.default_rng(8).standard_normal(
            (2, 3, 4, 5)).astype(np.float32)
        step = CompiledAdaptStep(model, backend=backend)
        config = LDBNAdaptConfig(batch_size=2, lr=1e-2)
        adapter = LDBNAdapt(model, config, compiled=step)
        oracle = LDBNAdapt(twin, config)
        losses = []
        for k in range(2):
            with nn.adaptation_mode(False):
                want = oracle.adapt(x + k).loss
            losses.append((adapter.adapt(x + k).loss, want))
        assert step.num_plans == 1 and not adapter._compiled_unsupported
        info = step.plan_for(x).backend_info
        assert info["backend"] == backend
        got, want = model.state_dict(), twin.state_dict()
        got["losses"], want["losses"] = np.array(losses).T
        for key in want:
            if backend == "numpy":
                assert got[key].tobytes() == want[key].tobytes(), key
            else:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-9,
                                           atol=1e-12, err_msg=key)
        if backend == "cgen":
            assert info["numpy_stages"].get("fwd:reshape") == 1
            assert info["rendered"] > 0

"""Compiled inference engine: parity, retrace, arena and wiring tests.

The engine's contract is *bit-exactness*: a compiled replay must produce
``np.array_equal`` outputs against the eager autograd path in every
serving configuration — pristine and adapted BN state, both backbones,
single-stream and batched multi-stream per-sample BN overrides — while
allocating nothing in steady state.  These tests pin that contract (a
``slow``-marked sweep covers the larger ``small-*`` presets).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig, NoAdapt
from repro.data.dataset import LaneSample
from repro.engine import (
    CompiledAdaptStep,
    CompiledInference,
    compile_model,
    trace,
)
from repro.engine import plan as plan_module
from repro.engine.backends import PARITY_ATOL, PARITY_RTOL, core, find_cc
from repro.engine.backends.core import COLUMNS
from repro.engine.plan import ExecutionPlan
from repro.models import build_model, get_config
from repro.nn.modules import _BatchNormBase
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import FleetConfig, FleetServer
from repro.serve.streams import StreamRegistry, per_stream_inference
from reuse_oracle import (
    CASES,
    assert_columns_sharing_is_invisible,
    assert_reuse_is_invisible,
    case_id,
    private_columns,
)


def _frames(rng, config, batch):
    h, w = config.input_hw
    return rng.standard_normal((batch, 3, h, w)).astype(np.float32)


def _eager(model, x):
    model.eval()
    with nn.no_grad():
        return model(nn.Tensor(x, _copy=False)).numpy().copy()


@contextmanager
def _per_sample_stats(model, batch, rng):
    """Every BN layer normalizes each sample with its own float64
    ``(scale, shift)``, as the fleet's per-stream override does."""
    bns = [m for m in model.modules() if isinstance(m, _BatchNormBase)]
    for m in bns:
        m.per_sample_stats = (
            rng.uniform(0.5, 1.5, (batch, m.num_features)),
            rng.standard_normal((batch, m.num_features)) * 0.1,
        )
    try:
        yield
    finally:
        for m in bns:
            m.per_sample_stats = None


class TestParity:
    @pytest.mark.parametrize("preset", ["tiny-r18", "tiny-r34"])
    def test_pristine_model_bit_exact(self, preset, rng):
        model = build_model(preset, rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        engine = compile_model(model)
        assert np.array_equal(_eager(model, x), engine(x).numpy())

    @pytest.mark.parametrize("preset", ["tiny-r18", "tiny-r34"])
    def test_adapted_bn_state_bit_exact(self, preset, rng):
        """Parity must survive LD-BN-ADAPT rewriting stats and gamma/beta."""
        model = build_model(preset, rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        engine = compile_model(model)
        engine(x)  # plan traced against the pristine state
        adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=2))
        for _ in range(3):
            adapter.adapt(_frames(rng, model.config, 2))
        model.eval()
        assert np.array_equal(_eager(model, x), engine(x).numpy())

    def test_trained_model_and_real_frames(self, trained_tiny_model, tiny_benchmark):
        stream = tiny_benchmark.target_stream(rng=np.random.default_rng(7))
        images = np.stack([s.image for s in stream.take(3).samples])
        engine = compile_model(trained_tiny_model)
        assert np.array_equal(
            _eager(trained_tiny_model, images), engine(images).numpy()
        )

    @pytest.mark.parametrize("batch", [1, 4])
    def test_float32_parameters_bit_exact(self, batch, rng):
        """Conv and linear parameters in float32, BN state float64 and far
        from its pristine values: eager BN runs its running-stats ops in
        float64 and casts once, and so does the fused epilogue — and so
        do both under the per-sample override."""
        model = build_model("tiny-r18", num_lanes=2, rng=rng)
        for m in model.modules():
            if isinstance(m, (nn.Conv2d, nn.Linear)):
                for p in (m.weight, m.bias):
                    if p is not None:
                        p.data = p.data.astype(np.float32)
            elif isinstance(m, _BatchNormBase):
                c = m.num_features
                m.running_mean[...] = rng.standard_normal(c) * 0.3
                m.running_var[...] = rng.uniform(0.5, 2.0, c)
                m.weight.data[...] = rng.uniform(0.5, 1.5, c)
                m.bias.data[...] = rng.standard_normal(c) * 0.1
        model.eval()
        x = _frames(rng, model.config, batch)
        engine = compile_model(model, backend="numpy")
        out = engine(x).numpy()
        assert out.dtype == np.float32
        assert np.array_equal(_eager(model, x), out)
        with _per_sample_stats(model, batch, rng):
            eager, out = _eager(model, x), engine(x).numpy()
        assert eager.dtype == out.dtype == np.float32
        assert np.array_equal(eager, out)

    def test_replay_reuses_output_storage(self, rng):
        """Outputs view plan-owned buffers overwritten by the next replay."""
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        engine = compile_model(model)
        x1, x2 = _frames(rng, model.config, 1), _frames(rng, model.config, 1)
        first = engine(x1).numpy()
        kept = first.copy()
        second = engine(x2).numpy()
        assert second is first or np.shares_memory(second, first)
        assert not np.array_equal(kept, second)  # buffer was overwritten
        assert np.array_equal(second, _eager(model, x2))


class TestPerSampleOverride:
    def test_multi_stream_batched_forward_bit_exact(self, trained_tiny_model):
        """Differently-adapted sessions share one compiled batched replay."""
        rng = np.random.default_rng(11)
        model = trained_tiny_model
        config = model.config
        registry = StreamRegistry(model)
        sessions = []
        for idx in range(3):
            adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=1))
            session = registry.register(
                f"s{idx}", iter(()), adapter, deadline_ms=33.3
            )
            # drift each stream's BN state its own way, then swap it out
            session.swap_in()
            adapter.adapt(_frames(rng, config, 1))
            model.eval()
            session.swap_out()
            sessions.append(session)
        batch = _frames(rng, config, 3)
        engine = compile_model(model)
        with per_stream_inference(sessions):
            eager = _eager(model, batch)
            compiled = engine(batch).numpy().copy()
        assert np.array_equal(eager, compiled)
        # and the override is gone outside the context
        assert np.array_equal(_eager(model, batch), engine(batch).numpy())

    def test_per_sample_batch_mismatch_raises(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        engine = compile_model(model)
        x = _frames(rng, model.config, 2)
        engine(x)
        for module in model.modules():
            if isinstance(module, _BatchNormBase):
                module.per_sample_stats = (
                    np.ones((4, module.num_features)),
                    np.zeros((4, module.num_features)),
                )
        try:
            with pytest.raises(ValueError, match="per_sample_stats"):
                engine(x)
        finally:
            for module in model.modules():
                if isinstance(module, _BatchNormBase):
                    module.per_sample_stats = None


class TestRetraceAndGuards:
    def test_shape_change_retraces(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        engine = compile_model(model)
        for batch in (1, 3, 1):
            x = _frames(rng, model.config, batch)
            assert np.array_equal(_eager(model, x), engine(x).numpy())
        assert engine.num_plans == 2  # batch 1 plan was reused, not retraced

    def test_training_mode_rejected(self, rng):
        model = build_model("tiny-r18", rng=rng)
        engine = compile_model(model)
        model.train()
        with pytest.raises(RuntimeError, match="eval mode"):
            engine(_frames(rng, model.config, 1))

    def test_trace_requires_eval(self, rng):
        model = build_model("tiny-r18", rng=rng)
        with pytest.raises(RuntimeError, match="eval mode"):
            trace(model, _frames(rng, model.config, 1))

    def test_wrong_shape_replay_rejected(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        plan = ExecutionPlan(trace(model, x))
        with pytest.raises(ValueError, match="compiled for input"):
            plan.run(_frames(rng, model.config, 1))


class TestPlanStructure:
    def test_fusion_and_arena_reuse(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        plan = ExecutionPlan(trace(model, x))
        stats = plan.stats
        # conv-BN(-ReLU) chains collapse: fewer stages than traced ops
        assert stats.fused_stages > 0
        assert stats.num_stages < stats.num_ops
        # liveness recycles buffers: the arena holds less than the ops asked
        assert 0 < stats.arena_bytes < stats.requested_bytes
        assert stats.arena_blocks < stats.num_stages

    @pytest.mark.parametrize(
        "preset, infer_arena, adapt_blocks, adapt_arena, workspace, "
        "stem_workspace, pair_arena, pair_workspace",
        [
            pytest.param("tiny-r18", 61440, 49, 369856, 285792, 207360,
                         739392, 571584, id="tiny-r18"),
            pytest.param("small-r18", 491520, 49, 2896768, 1578336, 1299456,
                         5793536, 3156672, id="small-r18"),
        ],
    )
    def test_plan_shape_pin(self, preset, infer_arena, adapt_blocks,
                            adapt_arena, workspace, stem_workspace,
                            pair_arena, pair_workspace):
        """Both plan kinds come out of one lowering; a change to it must
        not silently move stage counts or buffer footprints (batch 1,
        numpy backend, ``groups=1`` unless named).  ``workspace`` is what
        a plan holds alone, its padded images: the column matrices are
        claims on the one shared workspace.  The adaptation arena holds
        values only, no backward stage scratch: a stage's masks, column
        gradients, padded images, winner index and accumulation
        temporary are claims on that workspace too."""
        model = build_model(preset, rng=np.random.default_rng(0))
        model.eval()
        x = _frames(np.random.default_rng(5), model.config, 1)
        infer = compile_model(model, backend="numpy")
        infer.warm(x)
        stats = infer.plan_for(x.shape).stats
        assert (stats.num_stages, stats.fused_stages) == (42, 21)
        assert (stats.arena_blocks, stats.arena_bytes) == (3, infer_arena)
        assert stats.workspace_bytes == workspace
        plan = CompiledAdaptStep(model, backend="numpy").plan_for(x)
        stats = plan.stats
        assert (stats.backward_stages, stats.skipped_backward) == (77, 1)
        assert (stats.arena_blocks, stats.arena_bytes) == (
            adapt_blocks, adapt_arena)
        assert stats.workspace_bytes == workspace
        # 86 gradient stages + the update tail
        assert [len(steps) for steps in plan.sections] == [76, 87]
        # from the stem rows: no stem conv stage or workspace, same arena
        stem = CompiledAdaptStep(model, backend="numpy").plan_for(
            x, from_stem=True
        )
        stats = stem.stats
        assert (stats.backward_stages, stats.skipped_backward) == (77, 1)
        assert (stats.arena_blocks, stats.arena_bytes) == (
            adapt_blocks, adapt_arena)
        assert stats.workspace_bytes == stem_workspace
        assert [len(steps) for steps in stem.sections] == [75, 87]
        # two groups of one frame each
        pair = CompiledAdaptStep(model, backend="numpy").plan_for(
            np.concatenate([x, x]), groups=2
        )
        stats = pair.stats
        assert (stats.backward_stages, stats.skipped_backward) == (77, 1)
        assert (stats.arena_blocks, stats.arena_bytes) == (
            adapt_blocks, pair_arena)
        assert stats.workspace_bytes == pair_workspace
        assert [len(steps) for steps in pair.sections] == [76, 87]

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_arena_reuse_is_invisible(self, monkeypatch, case):
        """A numpy tiny-r18 plan replays the bytes of its twin compiled
        with no arena reuse (``tests/reuse_oracle.py``)."""
        assert_reuse_is_invisible(monkeypatch, "tiny-r18", "numpy", None,
                                  case)

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_column_sharing_is_invisible(self, monkeypatch, case):
        """A numpy tiny-r18 plan replays the bytes of its twin whose every
        column claim has a private buffer (``tests/reuse_oracle.py``)."""
        assert_columns_sharing_is_invisible(
            monkeypatch, "tiny-r18", "numpy", None, case
        )

    def test_a_larger_plan_grows_the_one_column_buffer(self, monkeypatch):
        """Inference at batch 1, then batch 8 grows the column buffer under
        it: batch 1 replayed again and a from-stem step leave the bytes of
        the private-columns twin, every live column view lies in the one
        buffer, and the buffer is the largest live claim (the batch-8
        stem conv's columns: 8 x 147 x 640 doubles)."""

        def run():
            model = build_model("tiny-r18", num_lanes=2,
                                rng=np.random.default_rng(1))
            model.eval()
            gen = np.random.default_rng(2)
            x1, x8 = _frames(gen, model.config, 1), _frames(gen, model.config, 8)
            engine = compile_model(model, backend="numpy")
            out = [engine(x1).numpy().tobytes()]
            engine(x8)
            out.append(engine(x1).numpy().tobytes())
            rows = engine.plan_for(x1.shape, x1.dtype).stem_rows
            adapter = LDBNAdapt(
                model, LDBNAdaptConfig(lr=1e-2),
                compiled=CompiledAdaptStep(model, backend="numpy"),
            )
            plan = adapter._compiled.plan_for(x1, from_stem=True)
            out += [rows.tobytes(),
                    plan.run(rows.copy(), update=[adapter]).tobytes()]
            out += [a.tobytes() for tap in plan.bn_taps for a in (
                tap.batch_mean, tap.batch_var, tap.grad_gamma, tap.grad_beta)]
            out += [np.asarray(v).tobytes()
                    for v in model.state_dict().values()]
            out += [adapter.bn_state.state.tobytes(),
                    adapter.bn_state.counts.tobytes()]
            out += [adapter.optimizer.state[id(p)]["momentum"].tobytes()
                    for p in adapter.optimizer.params]
            return out, (engine, plan)

        gc.collect()
        before = {id(c) for c in COLUMNS.claims()}
        shared, keep = run()
        claims = COLUMNS.claims()
        ours = [c for c in claims if id(c) not in before]
        assert ours
        assert all(np.shares_memory(c[0], COLUMNS.raw) for c in claims)
        assert max(c.end for c in ours) == 8 * 147 * 640 * 8 == 6021120
        assert COLUMNS.raw.nbytes == max(c.end for c in claims)
        del keep
        private_columns(monkeypatch)
        private, _ = run()
        assert private == shared

    def test_noncontiguous_view_not_frozen(self, rng):
        """reshape-of-transpose copies; the plan must recompute it per
        replay instead of freezing the compile-time copy."""

        class PermuteHead(nn.Module):
            def __init__(self, gen):
                super().__init__()
                self.conv = nn.Conv2d(3, 4, 3, padding=1, rng=gen)
                self.fc = nn.Linear(4 * 6 * 8, 5, rng=gen)

            def forward(self, x):
                feat = self.conv(x)  # (N, 4, 6, 8)
                moved = feat.transpose(0, 2, 3, 1)  # non-contiguous view
                return self.fc(moved.reshape(x.shape[0], -1))

        model = PermuteHead(rng)
        model.eval()
        engine = compile_model(model)
        for _ in range(3):  # fresh data every replay must flow through
            x = rng.standard_normal((2, 3, 6, 8)).astype(np.float32)
            assert np.array_equal(_eager(model, x), engine(x).numpy())

    def test_no_autograd_graph_on_replay(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        engine = compile_model(model)
        out = engine(_frames(rng, model.config, 1))
        assert out._ctx is None and not out.requires_grad


def _gathers(monkeypatch, preset, batch):
    """Every gather lowering a numpy inference plan of ``preset`` at
    ``batch`` compiles."""
    seen = []

    def spy(lower):
        def wrapper(*args, **kwargs):
            seen.append(lower(*args, **kwargs))
            return seen[-1]
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("lower_conv", "lower_pool"):
            patch.setattr(plan_module, name, spy(getattr(plan_module, name)))
        model = build_model(preset, num_lanes=2, rng=np.random.default_rng(0))
        model.eval()
        compile_model(model, backend="numpy").warm(
            _frames(np.random.default_rng(1), model.config, batch))
    return seen


class TestWindowGather:
    """A padded gather with output rows of at least ``_WINDOW_MIN_ROW``
    copies its columns from a strided window view; the flat ``take`` it
    replaces is the oracle."""

    @pytest.mark.parametrize("batch", [1, 4, 8])
    @pytest.mark.parametrize("preset", ["tiny-r18", "small-r18"])
    def test_window_is_the_flat_take_byte_for_byte(self, monkeypatch, preset,
                                                   batch):
        gathers = [g for g in _gathers(monkeypatch, preset, batch)
                   if g.padded is not None]
        windowed = [g.window is not None for g in gathers]
        assert windowed == [g.out_w >= core._WINDOW_MIN_ROW for g in gathers]
        if preset == "tiny-r18":
            assert any(windowed) and not all(windowed)
        gen = np.random.default_rng(batch)
        for geo in gathers:
            x = gen.standard_normal((geo.n, geo.c, geo.h, geo.w)).astype(
                geo.x_dtype)
            finite = geo.gather(x).copy()
            planted = x.copy().reshape(-1)
            at = gen.choice(planted.size, 4 * 4, replace=False)
            planted[at] = np.repeat([-0.0, np.nan, np.inf, -np.inf], 4)
            planted = planted.reshape(x.shape)
            for inp in (x, planted):
                got = geo.gather(inp).copy()
                window, geo.window = geo.window, None
                want = geo.gather(inp).copy()
                geo.window = window
                assert got.tobytes() == want.tobytes()
            if isinstance(geo, core.PoolLowering):
                # a window entry past the image reads the -inf border
                border = np.ones(geo.padded.shape[-2:], dtype=bool)
                border[geo.padding[0]:geo.padding[0] + geo.h,
                       geo.padding[1]:geo.padding[1] + geo.w] = False
                assert np.array_equal(
                    np.isneginf(finite),
                    np.broadcast_to(border.reshape(-1)[geo.flat],
                                    finite.shape))


class TestInvStdBank:
    """Every eval-BN epilogue's ``1 / sqrt(var + eps)`` is computed
    over one flat buffer at most once per replay, from the live
    ``running_var``."""

    def test_fresh_on_every_replay(self, rng):
        model = build_model("tiny-r18", num_lanes=2, rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        engine = compile_model(model, backend="numpy")

        def same():
            return engine(x).numpy().tobytes() == _eager(model, x).tobytes()

        assert same()
        # an LD-BN-ADAPT step writes running_var in place
        adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=2, lr=1e-2))
        adapter.adapt(_frames(rng, model.config, 2))
        model.eval()
        assert same()
        bns = [m for m in model.modules() if isinstance(m, _BatchNormBase)]
        for m in bns:
            m.refresh_statistics(nn.Tensor(
                rng.standard_normal((2, m.num_features, 3, 3))))
        assert same()
        for m in bns:  # rebound, not written
            m.running_var = m.running_var * 1.5 + 0.25
        assert same()

    def test_a_stage_rerun_after_a_replay(self, rng):
        """A stage of the plan's table rerun alone (no replay prologue)
        reads the bank the replay before it filled."""
        model = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1, rng=rng),
                              nn.BatchNorm2d(8), nn.ReLU())
        model.eval()
        model[1].running_var[...] = rng.uniform(0.5, 2.0, 8)
        x = rng.standard_normal((2, 3, 6, 10)).astype(np.float32)
        engine = compile_model(model, backend="numpy")
        want = _eager(model, x).tobytes()
        out = engine(x).numpy()
        assert out.tobytes() == want
        [(label, stage)] = engine.plan_for(x.shape).stages[0]
        assert label == "conv+bn+relu"
        out[...] = 0
        stage()
        assert out.tobytes() == want

    def test_once_per_replay_and_never_under_per_sample_stats(
            self, rng, monkeypatch):
        model = build_model("tiny-r18", num_lanes=2, rng=rng)
        model.eval()
        x = _frames(rng, model.config, 2)
        engine = compile_model(model, backend="numpy")
        engine(x)
        calls = []

        def counting(name):
            fn = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("concatenate", "sqrt"):  # the bank's pass, no one else's
            monkeypatch.setattr(np, name, counting(name))
        engine(x)
        assert calls == ["concatenate", "sqrt"]
        bns = [m for m in model.modules() if isinstance(m, _BatchNormBase)]
        for m in bns:
            m.per_sample_stats = (
                rng.uniform(0.5, 2.0, (2, m.num_features)),
                rng.standard_normal((2, m.num_features)),
            )
        calls.clear()
        out = engine(x).numpy().tobytes()
        assert calls == []
        monkeypatch.undo()
        assert out == _eager(model, x).tobytes()


class _LinearBN(nn.Module):
    """Linear -> BatchNorm1d: BN fuses only behind a conv."""

    def __init__(self, gen):
        super().__init__()
        self.fc = nn.Linear(6, 5, rng=gen)
        self.bn = nn.BatchNorm1d(5)

    def forward(self, x):
        return self.bn(self.fc(x))


class _ResidualBN(nn.Module):
    """``relu(bn(y) + y)``: the conv's second reader keeps its BN apart."""

    def __init__(self, gen):
        super().__init__()
        self.conv = nn.Conv2d(3, 4, 3, padding=1, rng=gen)
        self.bn = nn.BatchNorm2d(4)

    def forward(self, x):
        y = self.conv(x)
        return nn.functional.relu(self.bn(y) + y)


class _SigmoidLinear(nn.Module):
    """Linear -> BatchNorm1d -> sigmoid (no stage builder) -> Linear."""

    def __init__(self, gen):
        super().__init__()
        self.fc = nn.Linear(6, 8, rng=gen)
        self.bn = nn.BatchNorm1d(8)
        self.head = nn.Linear(8, 3, rng=gen)

    def forward(self, x):
        return self.head(nn.functional.sigmoid(self.bn(self.fc(x))))


#: case -> (model, input shape past the batch, dtype, the stage it is for)
_OFF_PATH = {
    "linear-bn1d-f64": (_LinearBN, (6,), np.float64, "bn"),
    "linear-bn1d-f32": (_LinearBN, (6,), np.float32, "bn"),
    "conv-bn-residual": (_ResidualBN, (3, 5, 7), np.float32, "bn"),
    "sigmoid-linear": (_SigmoidLinear, (6,), np.float64, "_sigmoid"),
}


def _off_path(case):
    """``(model, inputs(batch))`` of an :data:`_OFF_PATH` case: every
    parameter in the case's dtype, BN state far from pristine."""
    build, shape, dtype, _ = _OFF_PATH[case]
    rng = np.random.default_rng(23)
    model = build(rng)
    for m in model.modules():
        for name in ("weight", "bias"):
            p = getattr(m, name, None)
            if p is not None:
                p.data = p.data.astype(dtype)
        if isinstance(m, _BatchNormBase):
            c = m.num_features
            m.running_mean[...] = rng.standard_normal(c) * 0.3
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
            m.weight.data[...] = rng.uniform(0.5, 1.5, c)
            m.bias.data[...] = rng.standard_normal(c) * 0.1
    model.eval()
    return model, lambda batch: rng.standard_normal(
        (batch,) + shape).astype(dtype)


class TestStagesOffTheServedPath:
    """The inference builders no served model reaches: standalone eval BN
    (behind a Linear, or behind a conv with a second reader) runs the
    fused stage's epilogue, and an op with no stage builder runs its
    eager forward and copies the result into a buffer fixed at compile
    time, which the stages after it read like any other."""

    @pytest.mark.parametrize("case", sorted(_OFF_PATH))
    def test_numpy_plan_is_bitwise_eager(self, case):
        model, inputs = _off_path(case)
        rng = np.random.default_rng(4)
        engine = compile_model(model, backend="numpy")
        batch = 3
        for _ in range(3):
            x = inputs(batch)
            assert np.array_equal(_eager(model, x), engine(x).numpy())
            with _per_sample_stats(model, batch, rng):
                eager, out = _eager(model, x), engine(x).numpy()
            assert eager.dtype == out.dtype == x.dtype
            assert np.array_equal(eager, out)
        plan = engine.plan_for(x.shape, x.dtype)
        assert engine.num_plans == 1
        assert _OFF_PATH[case][3] in [label for label, _ in plan.stages[0]]

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler")
    def test_cgen_renders_the_stage_after_a_builderless_op(self):
        model, inputs = _off_path("sigmoid-linear")
        engine = compile_model(model, backend="cgen", threads=1)
        x = inputs(3)
        out = engine(x).numpy()
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert "linear" not in info["numpy_stages"], info
        assert info["numpy_stages"] == {"bn": 1, "_sigmoid": 1}, info
        np.testing.assert_allclose(
            out, _eager(model, x), rtol=PARITY_RTOL["float64"],
            atol=PARITY_ATOL["float64"],
        )


class TestServingWiring:
    def _stream(self, config, rng, count):
        h, w = config.input_hw
        label_shape = (config.num_anchors, config.num_lanes)
        return [
            LaneSample(
                image=rng.standard_normal((3, h, w)).astype(np.float32),
                label=np.zeros(label_shape, dtype=np.int64),
                gt_cells=np.zeros(label_shape, dtype=np.float64),
                domain="target",
                timestamp=i / 30.0,
            )
            for i in range(count)
        ]

    def test_pipeline_uses_engine_by_default(self, trained_tiny_model, rng):
        config = trained_tiny_model.config
        pipeline = RealTimePipeline(
            trained_tiny_model,
            NoAdapt(trained_tiny_model),
            PipelineConfig(latency_model="wallclock"),
        )
        report = pipeline.run(self._stream(config, rng, 3), 3)
        assert report.num_frames == 3
        engine = pipeline.server._engine
        assert isinstance(engine, CompiledInference) and engine.num_plans == 1

    def test_inference_mode_escape_hatch(self, trained_tiny_model, rng):
        config = trained_tiny_model.config
        pipeline = RealTimePipeline(
            trained_tiny_model,
            NoAdapt(trained_tiny_model),
            PipelineConfig(latency_model="wallclock"),
        )
        with nn.inference_mode(False):
            report = pipeline.run(self._stream(config, rng, 3), 3)
        assert report.num_frames == 3
        assert pipeline.server._engine.num_plans == 0  # eager: no plan compiled
        assert nn.compiled_inference_enabled()  # restored on exit

    def test_fleet_server_engine_matches_eager(self, trained_tiny_model):
        """The full fleet loop must be frame-for-frame identical both ways."""
        config = trained_tiny_model.config
        pristine = trained_tiny_model.state_dict()

        def serve():
            trained_tiny_model.load_state_dict(pristine)
            server = FleetServer(
                trained_tiny_model,
                FleetConfig(latency_model="wallclock", deadline_ms=1e9),
            )
            for idx in range(2):
                server.add_stream(
                    f"s{idx}",
                    iter(
                        self._stream(
                            config, np.random.default_rng(100 + idx), 4
                        )
                    ),
                    adapter_config=LDBNAdaptConfig(batch_size=2),
                )
            return server.run(4)

        compiled_report = serve()
        with nn.inference_mode(False):
            eager_report = serve()
        for sid, stream_report in compiled_report.stream_reports.items():
            twin = eager_report.stream_reports[sid]
            assert [f.accuracy for f in stream_report.frames] == [
                f.accuracy for f in twin.frames
            ]
            assert [f.entropy for f in stream_report.frames] == [
                f.entropy for f in twin.frames
            ]


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["small-r18", "small-r34"])
@pytest.mark.parametrize("batch", [1, 4])
def test_engine_parity_sweep_small_presets(preset, batch):
    """Larger sweep: bit-exactness on the small presets, pristine + adapted."""
    rng = np.random.default_rng(99)
    model = build_model(preset, rng=rng)
    model.eval()
    config = get_config(preset)
    x = _frames(rng, config, batch)
    engine = compile_model(model)
    assert np.array_equal(_eager(model, x), engine(x).numpy())
    adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=1))
    adapter.adapt(_frames(rng, config, 1))
    model.eval()
    assert np.array_equal(_eager(model, x), engine(x).numpy())

"""Per-stream memory is what LD-BN-ADAPT adapts, and compiling a plan
keeps no traced activation alive longer than the plan needs it.

An adapter copies exactly the state it can write — its trainable
parameters and the BN running statistics — so a fleet stream over the
shared model costs its BN state, not the model.  A plan lowers its trace
without the activations the trace recorded: a renderer's parity probe
replays one of them, the plan input's example, and nothing else does.
"""

from __future__ import annotations

import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.adapt import ConvAdapt, FCAdapt, LDBNAdapt, LDBNAdaptConfig, NoAdapt
from repro.adapt.variants import VariantConfig
from repro.engine import AdaptationPlan, CompiledAdaptStep, compile_model
from repro.engine import compile as compile_module
from repro.engine.backends import find_cc
from repro.engine.plan import ExecutionPlan
from repro.models import build_model
from repro.nn.modules import _BatchNormBase
from repro.serve import FleetConfig, FleetServer

_BN_BUFFERS = ("running_mean", "running_var", "num_batches_tracked")


def _bn_modules(model):
    return [m for m in model.modules() if isinstance(m, _BatchNormBase)]


def _buffer_bytes(model) -> int:
    return sum(getattr(m, name).nbytes
               for m in _bn_modules(model) for name in _BN_BUFFERS)


def _bn_bytes(model) -> int:
    """Bytes of every BN layer's gamma, beta and running statistics."""
    return _buffer_bytes(model) + sum(
        p.data.nbytes for m in _bn_modules(model) for p in (m.weight, m.bias))


def _snapshot_bytes(adapter) -> int:
    return sum(saved.nbytes for *_, saved in adapter._initial_state)


def _model(preset="small-r18", seed=0):
    model = build_model(preset, rng=np.random.default_rng(seed))
    model.eval()
    return model


class TestAdapterSnapshot:
    def test_ld_bn_adapt_copies_the_bn_state_only(self):
        model = _model()
        adapter = LDBNAdapt(model)
        assert _snapshot_bytes(adapter) == _bn_bytes(model) == 38_560
        full = sum(v.nbytes for v in model.state_dict().values())
        assert full > 200 * _bn_bytes(model)

    @pytest.mark.parametrize("variant", [ConvAdapt, FCAdapt])
    def test_group_variant_copies_its_group_and_the_bn_buffers(self, variant):
        model = _model("tiny-r18")
        adapter = variant(model)
        group = (model.conv_parameters() if variant is ConvAdapt
                 else model.fc_parameters())
        saved = {(id(owner), name) for owner, name, _ in adapter._initial_state}
        want = {(id(p), "data") for p in group} | {
            (id(m), name) for m in _bn_modules(model) for name in _BN_BUFFERS
        }
        assert saved == want
        assert _snapshot_bytes(adapter) == _buffer_bytes(model) + sum(
            p.data.nbytes for p in group)

    def test_no_adapt_copies_the_bn_buffers(self):
        model = _model("tiny-r18")
        adapter = NoAdapt(model)
        assert not any(p.requires_grad for p in model.parameters())
        assert {name for _, name, _ in adapter._initial_state} == set(
            _BN_BUFFERS)
        assert _snapshot_bytes(adapter) == _buffer_bytes(model)

    @pytest.mark.parametrize("make", [
        lambda m: LDBNAdapt(m, LDBNAdaptConfig(lr=1e-2, batch_size=2)),
        lambda m: ConvAdapt(m, VariantConfig(lr=1e-2, batch_size=2,
                                             refresh_bn_stats=True)),
    ], ids=["ld_bn_adapt", "conv_adapt"])
    def test_reset_after_steps_restores_the_model_bitwise(self, make):
        model = _model("tiny-r18")
        pristine = model.state_dict()
        adapter = make(model)
        x = np.random.default_rng(3).standard_normal(
            (2, 3) + tuple(model.config.input_hw)).astype(np.float32)
        for k in range(2):
            adapter.adapt(x + k)
        moved = model.state_dict()
        assert any(moved[key].tobytes() != pristine[key].tobytes()
                   for key in pristine)
        adapter.reset()
        for key, value in model.state_dict().items():
            assert value.tobytes() == pristine[key].tobytes(), key

    def test_add_stream_retains_a_few_bn_states(self):
        """What one more stream keeps: its adapter's copy and its session's
        BN block (each the BN state's bytes) plus per-array headers — not
        a copy of the model (8.7 MB on small-r18)."""
        model = _model()
        server = FleetServer(model, FleetConfig(latency_model="wallclock"))
        server.add_stream("s0", iter(()))
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            server.add_stream("s1", iter(()))
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert 0 < retained < 4 * _bn_bytes(model)


# ---------------------------------------------------------------------------
# traced activations


@pytest.fixture
def activations(monkeypatch):
    """Weak references to the data of the activations each trace recorded
    (the graph input, the caller's array, left out): ``traces`` holds one
    ``{vid: ref}`` per trace in trace order, ``lowering`` the vids still
    alive as each plan began lowering its graph."""
    spied = SimpleNamespace(traces=[], lowering=[])

    def spy(tracer):
        def traced(*args, **kwargs):
            graph = tracer(*args, **kwargs)
            spied.traces.append({
                vid: weakref.ref(t.data)
                for vid, t in enumerate(graph._keepalive) if vid
            })
            return graph
        return traced

    for kind in (ExecutionPlan, AdaptationPlan):
        def lowering(self, graph, compile=kind._compile):
            spied.lowering.append(_alive(spied.traces[-1]))
            return compile(self, graph)

        monkeypatch.setattr(kind, "_compile", lowering)
    monkeypatch.setattr(compile_module, "trace", spy(compile_module.trace))
    monkeypatch.setattr(compile_module, "trace_entropy_step",
                        spy(compile_module.trace_entropy_step))
    return spied


def _alive(refs):
    return sorted(vid for vid, ref in refs.items() if ref() is not None)


def _compile_each(backend, model, x):
    """Compile the inference plan and both adaptation plans (from the
    images and from the stem rows) of ``x``'s batch."""
    compile_model(model, backend=backend).warm(x)
    step = CompiledAdaptStep(model, backend=backend)
    return [step.plan_for(x), step.plan_for(x, from_stem=True)]


class TestTraceRelease:
    def test_numpy_plans_keep_no_activation(self, activations):
        model = _model("tiny-r18")
        x = np.zeros((2, 3) + tuple(model.config.input_hw), np.float32)
        plans = _compile_each("numpy", model, x)
        assert len(activations.traces) == 3 and len(plans) == 2
        # released before the lowering allocates a buffer
        assert activations.lowering == [[], [], []]
        for refs in activations.traces:
            assert refs and _alive(refs) == []

    @pytest.mark.skipif(find_cc() is None, reason="no C compiler")
    def test_cgen_probe_keeps_the_plan_input_alone(self, activations,
                                                   monkeypatch):
        from repro.engine.backends import cgen

        seen = []
        finalize = cgen.CRenderer.finalize

        def spied(self, plan, graph):
            # vid 0 is the caller's images: no activation of the trace
            seen.append((plan._input_vid, _alive(activations.traces[-1])))
            return finalize(self, plan, graph)

        monkeypatch.setattr(cgen.CRenderer, "finalize", spied)
        model = _model("tiny-r18")
        x = np.zeros((2, 3) + tuple(model.config.input_hw), np.float32)
        plans = _compile_each("cgen", model, x)
        assert plans[1].from_stem and plans[1]._input_vid > 0
        stem = plans[1]._input_vid
        assert activations.lowering == [[], [], [stem]]
        assert seen == [(0, []), (0, []), (stem, [stem])]
        # the table's input address points at the probed example until
        # the first replay binds the caller's array
        assert [_alive(refs) for refs in activations.traces] == [
            [], [], [stem]]
        rows = np.zeros(plans[1]._input_shape, np.float64)
        plans[1].run(rows)
        assert _alive(activations.traces[-1]) == []

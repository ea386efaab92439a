"""One way to step a stream: every compiled LD-BN-ADAPT step is a group.

A fleet steps each stream's BN block where it lives — the plan reads a
session's gamma/beta and its update tail writes that session — so a lone
step is a group of one and no compiled step swaps a session onto the
shared model.  A BN block's ``swap_in`` / ``swap_out`` are left to steps
no plan of the pool's takes (here: an adapter pinned to another engine)
and to ``RealTimePipeline.run``, which writes its session onto the model
once, when the run ends.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.engine.backends import find_cc
from repro.models import build_model
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import FleetConfig, FleetServer
from repro.serve.streams import BNLayout, BNStateSnapshot

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")

BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("cgen", id="cgen", marks=needs_cc),
]


def _model(state):
    model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
    model.load_state_dict(state)
    model.eval()
    return model


def _frames(benchmark, stream, count):
    return benchmark.target_stream(
        rng=np.random.default_rng(700 + stream)
    ).take(count).samples


def _bn_block(model):
    """The model's live BN state as one block (what a new session takes)."""
    return BNStateSnapshot(BNLayout(model)).state


def _state_bytes(model):
    return b"".join(a.tobytes() for a in model.state_dict().values())


@pytest.fixture
def swaps(monkeypatch):
    """Counts of BN-block ``swap_in`` / ``swap_out`` calls (a session's
    swaps go through its block's; a new block captures the model with
    one ``swap_out``)."""
    counts = {"swap_in": 0, "swap_out": 0}
    for name in counts:
        real = getattr(BNStateSnapshot, name)

        def counted(block, real=real, name=name):
            counts[name] += 1
            real(block)

        monkeypatch.setattr(BNStateSnapshot, name, counted)
    return counts


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", [1, 4], ids=["b1", "b4"])
@pytest.mark.parametrize("streams", [1, 2], ids=["one", "fused-pair"])
def test_a_compiled_fleet_never_swaps(
    backend, batch, streams, swaps, _trained_tiny_state, tiny_benchmark,
):
    """Every step of one stream or of a fused pair runs without a swap,
    and the shared model keeps the source BN state throughout."""
    model = _model(_trained_tiny_state)
    source = _state_bytes(model)
    server = FleetServer(
        model, FleetConfig(latency_model="wallclock", deadline_ms=1e9,
                           backend=backend),
    )
    for i in range(streams):
        server.add_stream(
            f"s{i}", iter(_frames(tiny_benchmark, i, 8)),
            adapter_config=LDBNAdaptConfig(lr=1e-2, batch_size=batch),
        )
    assert swaps == {"swap_in": 0, "swap_out": streams}  # registration
    swaps["swap_out"] = 0
    report = server.run(8)
    assert report.adaptation_steps == streams * 8 // batch
    if streams > 1:
        assert report.adapt_batch_sizes == [2] * (8 // batch)
    else:
        assert report.adapt_batch_sizes == []
    assert swaps == {"swap_in": 0, "swap_out": 0}
    assert _state_bytes(model) == source


def test_a_rejected_frame_swaps_nothing_either(
    swaps, _trained_tiny_state, tiny_benchmark
):
    """A frame no step may learn from leaves a lone stream's group empty;
    its adapter rejects it without the session being swapped in."""
    model = _model(_trained_tiny_state)
    frames = _frames(tiny_benchmark, 0, 4)
    image = frames[2].image.copy()
    image[1, 5, 7] = np.nan
    frames[2] = replace(frames[2], image=image)
    server = FleetServer(
        model, FleetConfig(latency_model="wallclock", deadline_ms=1e9),
    )
    server.add_stream("s0", iter(frames),
                      adapter_config=LDBNAdaptConfig(lr=1e-2))
    swaps["swap_out"] = 0  # the registration's capture
    report = server.run(4)
    assert report.stream_reports["s0"].rejected_frames == 1
    assert report.adaptation_steps == 3
    assert swaps == {"swap_in": 0, "swap_out": 0}


def test_a_stream_added_after_a_run_starts_from_the_source_state(
    _trained_tiny_state, tiny_benchmark
):
    """The first stream's steps wrote its own block, not the model, so a
    stream registered after the run starts from the source-trained BN
    state, not from the last stepped stream's."""
    model = _model(_trained_tiny_state)
    source = _bn_block(model)
    server = FleetServer(
        model, FleetConfig(latency_model="wallclock", deadline_ms=1e9),
    )
    first = server.add_stream(
        "first", iter(_frames(tiny_benchmark, 0, 4)),
        adapter_config=LDBNAdaptConfig(lr=1e-2),
    )
    assert server.run(4).adaptation_steps == 4
    assert first.bn_state.state.tobytes() != source.tobytes()
    late = server.add_stream("late", iter(_frames(tiny_benchmark, 1, 4)))
    assert late.bn_state.state.tobytes() == source.tobytes()


def test_the_pipeline_writes_its_session_onto_the_model_once_per_run(
    swaps, _trained_tiny_state, tiny_benchmark
):
    """``RealTimePipeline.run`` swaps nothing while it serves and writes
    the adapted block onto the caller's model once at the end, so the
    model holds what the vehicle's stream learned."""
    model = _model(_trained_tiny_state)
    pipeline = RealTimePipeline(
        model, LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2)),
        PipelineConfig(latency_model="wallclock"),
    )
    frames = _frames(tiny_benchmark, 0, 6)
    for run, (start, stop) in enumerate([(0, 3), (3, 6)], start=1):
        before = _state_bytes(model)
        report = pipeline.run(iter(frames[start:stop]), stop - start)
        assert report.adaptation_steps == 3
        # one registration capture and one write-back per run
        assert swaps == {"swap_in": run, "swap_out": run}
        assert _state_bytes(model) != before


@needs_cc
def test_an_adapter_on_its_own_engine_steps_on_it_in_a_cgen_fleet(
    _trained_tiny_state, tiny_benchmark
):
    """A stream whose ``LDBNAdaptConfig`` pins ``backend="numpy"`` in a
    ``cgen`` fleet keeps its numpy step even when a default stream is due
    in the same batch: its BN state is a standalone numpy twin's, bitwise,
    and the default stream steps alone on the pool's C plan."""
    frames = [_frames(tiny_benchmark, i, 4) for i in range(2)]
    config = LDBNAdaptConfig(lr=1e-2, backend="numpy")

    twin_model = _model(_trained_tiny_state)
    twin = LDBNAdapt(twin_model, config)
    for frame in frames[0]:
        twin.observe_frame(frame.image)

    model = _model(_trained_tiny_state)
    server = FleetServer(
        model, FleetConfig(latency_model="wallclock", deadline_ms=1e9,
                           backend="cgen"),
    )
    pinned = server.add_stream("pinned", iter(frames[0]), adapter_config=config)
    server.add_stream("default", iter(frames[1]))
    report = server.run(4)
    assert report.adaptation_steps == 8
    assert report.batch_sizes.max == 2  # both due in the same batch
    assert report.adapt_batch_sizes == []  # so neither fused
    assert pinned.adapter.step_engine() is not server._adapt_step
    assert pinned.bn_state.state.tobytes() == _bn_block(twin_model).tobytes()

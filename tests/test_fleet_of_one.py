"""A vehicle is a fleet of one: the oracle for the one serving loop.

``RealTimePipeline`` and a one-stream ``FleetServer`` are both held to a
serial reference loop written here from the public pieces: compiled
inference, decode, ``point_accuracy``, then ``observe_frame``.  Per
frame the accuracy, the step's entropy and the adapted / refused /
rejected flags must be the reference's bit for bit, and so must the
model's state after the run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.adapt import LDBNAdapt, LDBNAdaptConfig, NoAdapt
from repro.engine import compile_model
from repro.engine.backends import find_cc
from repro.hw import ORIN_POWER_MODES, ld_bn_adapt_latency
from repro.metrics.lane_accuracy import TUSIMPLE_THRESHOLD_CELLS, point_accuracy
from repro.models import build_model, get_config
from repro.models.ufld import decode_predictions
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import FleetConfig, FleetServer, StreamSession

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")

DEVICE = ORIN_POWER_MODES["orin-60w"]
SPEC = get_config("paper-r18").to_spec()
FRAMES = 8


def _model(state):
    model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
    model.load_state_dict(state)
    model.eval()
    return model


def _adapter(model, batch, backend=None):
    if batch is None:
        return NoAdapt(model)
    return LDBNAdapt(
        model, LDBNAdaptConfig(lr=1e-2, batch_size=batch, backend=backend)
    )


def _frames(benchmark, poison):
    frames = benchmark.target_stream(
        rng=np.random.default_rng(200)
    ).take(FRAMES).samples
    if poison:
        image = frames[3].image.copy()
        image[1, 5, 7] = np.nan
        frames[3] = replace(frames[3], image=image)
    return frames


def _reference(model, adapter, frames, backend):
    """Serve ``frames`` one at a time: infer, decode, score, then step."""
    engine = compile_model(model, backend=backend)
    rows = []
    for frame in frames:
        logits = engine(frame.image[None]).numpy()
        pred = decode_predictions(logits, model.config, method="expectation")
        accuracy = point_accuracy(
            pred, frame.gt_cells[None], TUSIMPLE_THRESHOLD_CELLS
        ).accuracy
        rejected = adapter.rejected_frames
        result = adapter.observe_frame(frame.image)
        rows.append((
            accuracy,
            None if result is None else result.loss,
            result is not None,
            result is not None and result.refused,
            adapter.rejected_frames != rejected,
        ))
    return rows


def _records(frames):
    """What the reference records of each served frame."""
    return [
        (f.accuracy, f.entropy, f.adapted, f.refused, f.rejected)
        for f in frames
    ]


def _priced(latency_model):
    if latency_model == "orin":
        return dict(device=DEVICE, spec=SPEC)
    return {}


def _pipeline(model, adapter, frames, backend, latency_model, splits):
    pipeline = RealTimePipeline(
        model, adapter,
        PipelineConfig(latency_model=latency_model, backend=backend),
        **_priced(latency_model),
    )
    served, start = [], 0
    for stop in splits + [len(frames)]:
        served += pipeline.run(iter(frames[start:stop]), stop - start).frames
        start = stop
    return served


def _fleet(model, adapter, frames, backend, latency_model, splits):
    server = FleetServer(
        model,
        FleetConfig(
            latency_model=latency_model, backend=backend, max_batch_size=1
        ),
        **_priced(latency_model),
    )
    served, start = [], 0
    for stop in splits + [len(frames)]:
        server.add_stream("vehicle", iter(frames[start:stop]), adapter=adapter)
        report = server.run(stop - start)
        served += report.stream_reports["vehicle"].frames
        # the fleet steps the session's BN block, not the model: write it
        # back, as the pipeline does, so the next stream starts from it
        server.remove_stream("vehicle").swap_in()
        start = stop
    return served


LOOPS = pytest.mark.parametrize(
    "loop", [_pipeline, _fleet], ids=["pipeline", "fleet"]
)

CASES = [
    pytest.param("numpy", "wallclock", 1, False, id="numpy-wall-b1"),
    pytest.param("numpy", "orin", 1, False, id="numpy-orin-b1"),
    pytest.param("numpy", "orin", 4, False, id="numpy-orin-b4"),
    pytest.param("numpy", "wallclock", 4, False, id="numpy-wall-b4"),
    pytest.param("numpy", "orin", None, False, id="numpy-orin-noadapt"),
    pytest.param("numpy", "wallclock", 1, True, id="numpy-wall-nan"),
    pytest.param("numpy", "orin", 4, True, id="numpy-orin-b4-nan"),
    # a batch-2 step on orin-60w overruns the camera period
    pytest.param("numpy", "orin", 2, False, id="numpy-orin-b2-overload"),
    pytest.param("cgen", "wallclock", 1, False, id="cgen-wall-b1",
                 marks=needs_cc),
    pytest.param("cgen", "orin", 4, True, id="cgen-orin-b4-nan",
                 marks=needs_cc),
]


@LOOPS
@pytest.mark.parametrize("backend, latency_model, batch, poison", CASES)
def test_serves_the_serial_reference_bitwise(
    loop, backend, latency_model, batch, poison,
    _trained_tiny_state, tiny_benchmark,
):
    frames = _frames(tiny_benchmark, poison)
    model = _model(_trained_tiny_state)
    want = _reference(
        model, _adapter(model, batch, backend), frames, backend
    )
    want_state = model.state_dict()

    model = _model(_trained_tiny_state)
    served = loop(
        model, _adapter(model, batch), frames, backend, latency_model, []
    )
    assert _records(served) == want
    got_state = model.state_dict()
    assert got_state.keys() == want_state.keys()
    for name, array in want_state.items():
        assert got_state[name].tobytes() == array.tobytes(), name
    if poison:
        assert [f.rejected for f in served].count(True) == 1


@LOOPS
def test_two_runs_continue_where_the_first_stopped(
    loop, _trained_tiny_state, tiny_benchmark
):
    """A second ``run()`` resumes the adapted state (and the adapter's
    buffered frames) of the first."""
    frames = _frames(tiny_benchmark, poison=False)
    model = _model(_trained_tiny_state)
    want = _reference(model, _adapter(model, 4), frames, "numpy")
    want_state = model.state_dict()

    model = _model(_trained_tiny_state)
    served = loop(model, _adapter(model, 4), frames, "numpy", "orin", [3])
    assert _records(served) == want
    assert [f.index for f in served] == [0, 1, 2, 0, 1, 2, 3, 4]
    for name, array in want_state.items():
        assert model.state_dict()[name].tobytes() == array.tobytes(), name


@LOOPS
@pytest.mark.parametrize("batch", [1, None], ids=["b1", "noadapt"])
@pytest.mark.parametrize("splits", [[], [3]], ids=["one-run", "two-runs"])
def test_an_unqueued_orin_frame_costs_its_priced_terms_exactly(
    loop, batch, splits, _trained_tiny_state, tiny_benchmark
):
    """The modelled latency of a frame that did not queue (a batch-1
    step fits the camera period on orin-60w) is the sum ``inference +
    adaptation``, to the last bit — in a second run too, whose stream
    arrives from where the first run left the device clock."""
    frames = _frames(tiny_benchmark, poison=False)
    model = _model(_trained_tiny_state)
    served = loop(
        model, _adapter(model, batch), frames, "numpy", "orin", splits
    )
    priced = ld_bn_adapt_latency(SPEC, DEVICE, 1)
    assert [f.latency_ms for f in served] == [
        priced.inference_ms + priced.adaptation_ms if f.adapted
        else priced.inference_ms
        for f in served
    ]


def test_a_no_adapt_stream_is_never_swapped(
    _trained_tiny_state, tiny_benchmark, monkeypatch
):
    """A ``NoAdapt`` step writes no model array, so the fleet does not
    swap its session onto the model: ten frames, ten steps, the serial
    reference's records, and no ``swap_in``."""
    frames = tiny_benchmark.target_stream(
        rng=np.random.default_rng(200)
    ).take(10).samples
    model = _model(_trained_tiny_state)
    want = _reference(model, NoAdapt(model), frames, "numpy")

    model = _model(_trained_tiny_state)
    swaps = []
    swap_in = StreamSession.swap_in
    monkeypatch.setattr(
        StreamSession, "swap_in", lambda self: swaps.append(swap_in(self)))
    server = FleetServer(model, FleetConfig(
        latency_model="wallclock", max_batch_size=1))
    session = server.add_stream("vehicle", iter(frames), adapter=NoAdapt(model))
    report = server.run(len(frames))
    assert swaps == []
    assert session.adapter.steps_taken == report.adaptation_steps == 10
    assert _records(report.stream_reports["vehicle"].frames) == want

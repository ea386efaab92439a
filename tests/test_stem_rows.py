"""Stem once per frame, and the step's finite rail.

An inference plan's second output is its stem conv's pre-BN rows; an
adaptation plan compiled ``from_stem`` starts from them instead of from
the images.  Every step that starts from rows must leave the bytes the
step from the images leaves — losses, taps, BN state, momentum — in the
single-stream pipeline, a batch-4 adapter ring, a fused group gathered
from a launch and a serial fleet step; and wherever a pending frame lost
its rows (a restore) the step falls back to the images.

The rails: a frame with a non-finite pixel, or every pixel equal, never
reaches a step (it is rejected before it is buffered, alone or in a
fused group); and behind that the loss tail flags each group whose loss
is finite, and the update tail writes nothing for a group it did not
flag.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.adapt import base as adapt_base
from repro.data import ScenarioStream, get_scenario
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.adapt_plan import AdaptationPlan
from repro.engine.backends import CGenBackend, PlanBackend, cgen, find_cc
from repro.engine.backends import get_backend
from repro.hw.device import ORIN_POWER_MODES
from repro.models import build_model, get_config
from repro.pipeline import PipelineConfig, RealTimePipeline
from repro.serve import DriftResetConfig, FleetConfig, FleetServer
from repro.serve import adapt_batch
from repro.serve.adapt_batch import FleetAdaptationBatcher
from repro.serve.drift import SessionDriftState
from repro.serve.streams import StreamRegistry

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")

DEVICE = ORIN_POWER_MODES["orin-60w"]
SPEC = get_config("paper-r18").to_spec()

#: (backend, preset, threads): numpy is the bitwise oracle; cgen at one
#: and two pool threads, every stage tiled
ENGINES = [pytest.param("numpy", "tiny-r18", None, id="numpy-tiny")] + [
    pytest.param("cgen", preset, threads, marks=needs_cc,
                 id=f"cgen-{preset.split('-')[0]}-t{threads}")
    for preset in ("tiny-r18", "small-r18") for threads in (1, 2)
]
#: the fleet cases run tiny-r18 only
TINY = [p for p in ENGINES if "small" not in p.id]


@pytest.fixture(autouse=True)
def _tile_everything(monkeypatch):
    monkeypatch.setattr(cgen, "_MT_MIN_US", 0.0)


def _backend(name, threads):
    if name == "cgen":
        return CGenBackend(threads=threads)
    return get_backend("numpy" if name == "eager" else name)


def _model(preset, seed=1):
    model = build_model(preset, num_lanes=2, rng=np.random.default_rng(seed))
    model.eval()
    return model


def _frames(preset, n, seed=2):
    h, w = get_config(preset).input_hw
    return np.random.default_rng(seed).standard_normal(
        (n, 3, h, w)
    ).astype(np.float32)


def _state(adapter):
    """Every byte a step writes: the state dict and the momentum buffers."""
    out = {k: np.array(v).tobytes() for k, v in adapter.model.state_dict().items()}
    for j, param in enumerate(adapter.optimizer.params):
        slot = adapter.optimizer.state.get(id(param), {}).get("momentum")
        if slot is not None:
            out[f"opt.{j}"] = slot.tobytes()
    return out


def _written(session):
    """What a fused step writes of one session: its BN block and counts,
    its adapter's momentum buffers."""
    return [session.bn_state.state.tobytes(),
            session.bn_state.counts.tobytes()] + [
        v for k, v in _state(session.adapter).items() if k.startswith("opt.")
    ]


def _stem(engine, x):
    """The stem rows ``engine``'s last replay on ``x``'s shape wrote."""
    return engine.plan_for(x.shape, x.dtype).stem_rows


def _taps(plan):
    return [
        a.tobytes() for tap in plan.bn_taps
        for a in (tap.batch_mean, tap.batch_var, tap.grad_gamma, tap.grad_beta)
    ]


class _Runs:
    """Records which kind of adaptation plan each replay was."""

    def __init__(self, monkeypatch):
        self.kinds = []
        run = AdaptationPlan.run

        def recording(plan, x, update=None):
            self.kinds.append(plan.from_stem)
            return run(plan, x, update)

        monkeypatch.setattr(AdaptationPlan, "run", recording)


def _no_rows(monkeypatch):
    """Every adapter and batcher refuses stem rows: the image twin."""
    monkeypatch.setattr(LDBNAdapt, "takes_rows_from", lambda self, e: False)
    monkeypatch.setattr(
        FleetAdaptationBatcher, "takes_rows_from", lambda self, e: False
    )


def _twin(monkeypatch, rows, run):
    """``run()`` on the stem rows (``rows``) or with every handoff
    refused, undone afterwards."""
    with monkeypatch.context() as patch:
        if not rows:
            _no_rows(patch)
        return run()


# ---------------------------------------------------------------------------
# the handoff: rows-fed steps leave the image steps' bytes


@pytest.mark.parametrize("backend,preset,threads", ENGINES)
class TestRowsFedStepsAreTheImageSteps:
    def test_batch1_pipeline(self, monkeypatch, backend, preset, threads):
        samples = ScenarioStream(
            get_scenario("night_cut"), get_config(preset, num_lanes=2),
            seed=5, horizon=6,
        ).take(6).samples

        def run():
            model = _model(preset)
            adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2))
            pipeline = RealTimePipeline(
                model, adapter,
                PipelineConfig(backend=backend, threads=threads),
                device=DEVICE, spec=SPEC,
            )
            report = pipeline.run(iter(samples), len(samples))
            plans = adapter._compiled._plans.values()
            return report.frames, _state(adapter), [_taps(p) for p in plans]

        runs = _Runs(monkeypatch)
        got = _twin(monkeypatch, True, run)
        assert runs.kinds == [True] * 6
        want = _twin(monkeypatch, False, run)
        assert runs.kinds[6:] == [False] * 6
        assert got == want

    def test_batch4_adapter_ring(self, monkeypatch, backend, preset, threads):
        x = _frames(preset, 9)
        sides = {}
        runs = _Runs(monkeypatch)
        for rows in (True, False):
            be = _backend(backend, threads)
            model = _model(preset)
            engine = compile_model(model, backend=be, threads=threads)
            adapter = LDBNAdapt(
                model, LDBNAdaptConfig(lr=1e-2, batch_size=4),
                compiled=CompiledAdaptStep(model, backend=be, threads=threads),
            )
            assert adapter.takes_rows_from(engine)
            ring = np.empty_like(x[0])  # the camera hands one buffer over
            losses = []
            for frame in x:
                ring[...] = frame
                engine(ring[None])
                stem = _stem(engine, ring[None])[0] if rows else None
                result = adapter.observe_frame(ring, stem)
                if result is not None:
                    losses.append(np.float64(result.loss).tobytes())
            plan = adapter._compiled.plan_for(x[:4], from_stem=rows)
            sides[rows] = (losses, _taps(plan), _state(adapter))
        assert runs.kinds == [True, True, False, False]
        assert len(sides[True][0]) == 2
        assert sides[True] == sides[False]

    def test_fused_group_from_a_batch4_launch(
        self, monkeypatch, backend, preset, threads
    ):
        """Streams served at launch positions 3 and 1 fuse into one group
        of 2, gathering their rows from the launch by index."""
        x = _frames(preset, 4)
        sides = {}
        for rows in (True, False):
            be = _backend(backend, threads)
            model = _model(preset)
            engine = compile_model(model, backend=be, threads=threads)
            step = CompiledAdaptStep(model, backend=be, threads=threads)
            registry = StreamRegistry(model)
            sessions = [
                registry.register(
                    f"s{i}", iter(()),
                    LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2), compiled=step),
                    deadline_ms=33.3,
                )
                for i in range(2)
            ]
            batcher = FleetAdaptationBatcher(model, compiled=step)
            assert batcher.takes_rows_from(engine)
            out = []
            for _ in range(2):  # the second step runs the C tail
                engine(x)
                stem = _stem(engine, x)
                staged = batcher.stage(
                    sessions, [x[3], x[1]],
                    [stem[3], stem[1]] if rows else None,
                )
                assert staged.plan.from_stem is rows
                results = staged.execute()
                out += [np.float64(results[id(s)].loss).tobytes()
                        for s in sessions]
                out += _taps(staged.plan)
            for session in sessions:
                out += _written(session)
            sides[rows] = out
        assert sides[True] == sides[False]


@pytest.mark.parametrize("backend,preset,threads", TINY)
def test_serial_fleet_step(monkeypatch, groups_of_one, backend, preset,
                           threads):
    """Unfused fleet steps are handed the served sample's rows."""
    groups_of_one()
    pools = [
        ScenarioStream(
            get_scenario(name), get_config(preset, num_lanes=2), seed=7,
            stream_id=f"s{i}", horizon=5,
        ).take(5).samples
        for i, name in enumerate(("night_cut", "fog_glare"))
    ]

    def run():
        model = _model(preset)
        server = FleetServer(
            model,
            FleetConfig(latency_model="orin", backend=backend,
                        threads=threads),
            device=DEVICE, spec=SPEC,
        )
        for i, pool in enumerate(pools):
            server.add_stream(f"s{i}", iter(pool),
                              adapter_config=LDBNAdaptConfig(lr=1e-2))
        report = server.run(5)
        states = [
            _written(server.registry.get(f"s{i}")) for i in range(len(pools))
        ]
        return (
            [r.frames for r in report.stream_reports.values()], states,
            report.adaptation_steps,
        )

    runs = _Runs(monkeypatch)
    got = _twin(monkeypatch, True, run)
    steps = len(runs.kinds)
    assert steps == got[2] > 0 and all(runs.kinds)
    want = _twin(monkeypatch, False, run)
    assert not any(runs.kinds[steps:])
    assert got == want


class TestFallsBackToTheImages:
    """A pending frame that lost its rows puts the step on the images;
    dropping pending frames drops their rows with them.  Every case
    leaves the bytes of a twin that never saw rows."""

    @staticmethod
    def _sides(monkeypatch, between):
        x = _frames("tiny-r18", 4)
        runs = _Runs(monkeypatch)
        sides = {}
        for rows in (True, False):
            model = _model("tiny-r18")
            engine = compile_model(model)
            adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2, batch_size=2))
            session = StreamRegistry(model).register(
                "s0", iter(()), adapter, deadline_ms=33.3
            )
            out = []
            for i, frame in enumerate(x):
                engine(frame[None])
                stem = _stem(engine, frame[None])[0] if rows else None
                if i == 1:
                    between(session, frame)
                result = adapter.observe_frame(frame, stem)
                if result is not None:
                    out.append(np.float64(result.loss).tobytes())
            sides[rows] = (out, _state(adapter))
        return sides, runs.kinds

    def test_checkpoint_restore(self, monkeypatch):
        from repro.serve.checkpoint import (
            capture_session_state, restore_session_state,
        )

        def restore(session, frame):
            arrays, meta = capture_session_state(session)
            restore_session_state(session, arrays, meta)
            assert session.adapter.pending_rows == [None]

        sides, kinds = self._sides(monkeypatch, restore)
        assert sides[True] == sides[False]
        # the restored frame's step runs from the images, the next from rows
        assert kinds == [False, True, False, False]

    def test_drift_reset(self, monkeypatch):
        def reset(session, frame):
            SessionDriftState(DriftResetConfig(), session).reset(session, frame)
            assert session.adapter.pending_frames == 0

        sides, kinds = self._sides(monkeypatch, reset)
        assert sides[True] == sides[False]
        assert kinds == [True, False]  # the frames after it carry rows

    def test_adapter_reset(self, monkeypatch):
        def reset(session, frame):
            session.adapter.reset()
            assert session.adapter.pending_frames == 0

        sides, kinds = self._sides(monkeypatch, reset)
        assert sides[True] == sides[False]
        assert kinds == [True, False]


# ---------------------------------------------------------------------------
# structure


class _Spy(PlanBackend):
    """Declines every stage, recording what the lowering offered."""

    name = "spy"

    def __init__(self):
        self.offers = []

    def _renderer(self, threads):
        spy = self

        class Renderer:
            def offer_stage(self, kind, spec, fallback):
                spy.offers.append((kind, spec.get("x_src")))

            def finalize(self, plan, graph):
                return {"backend": "spy"}

        return Renderer()


def _input_convs(offers):
    return sum(
        kind == "conv" and src is not None and src[0] == "input"
        for kind, src in offers
    )


def test_no_from_stem_plan_has_a_conv_reading_its_input():
    model = _model("tiny-r18")
    x = _frames("tiny-r18", 2)
    for from_stem, want in ((True, 0), (False, 1)):
        spy = _Spy()
        CompiledAdaptStep(model, backend=spy).plan_for(
            x, groups=2, from_stem=from_stem
        )
        assert _input_convs(spy.offers) == want
    spy = _Spy()
    compile_model(model, backend=spy)(x)
    assert _input_convs(spy.offers) == 1


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
def test_no_from_stem_cgen_program_has_an_input_conv_row(threads):
    model = _model("tiny-r18")
    step = CompiledAdaptStep(model, backend=CGenBackend(threads=threads))
    x = _frames("tiny-r18", 2)
    convs = [cgen.KERNEL_ID[f"conv_{a}_{b}"] for a, b in
             (("float", "double"), ("double", "double"), ("float", "float"))]
    for from_stem, want in ((True, 0), (False, 1)):
        plan = step.plan_for(x, from_stem=from_stem)
        rows = plan._cgen_keep[3]
        info = plan.backend_info
        assert info["numpy_stages"] == {"bwd:update": 1}  # the update tail
        assert info["rendered"] == info["offered"] == info["stages"] - 1
        assert int(np.sum(
            np.isin(rows["kernel"], convs) & (rows["slot"][:, 1] == 0)
        )) == want


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
def test_an_inference_program_does_not_depend_on_from_stem_plans(threads):
    model = _model("tiny-r18")
    backend = CGenBackend(threads=threads)
    engine = compile_model(model, backend=backend)
    x = _frames("tiny-r18", 4)
    served = engine(x).numpy().tobytes()
    rows = _stem(engine, x).tobytes()
    program = engine.plan_for(x.shape, x.dtype).backend_info["program"]
    step = CompiledAdaptStep(model, backend=backend)
    step.plan_for(x[:1], from_stem=True).run(_stem(engine, x)[:1].copy())
    step.plan_for(x, groups=2, from_stem=True)
    fresh = compile_model(model, backend=backend)
    assert fresh(x).numpy().tobytes() == served
    assert _stem(fresh, x).tobytes() == rows
    assert engine(x).numpy().tobytes() == served
    assert fresh.plan_for(x.shape, x.dtype).backend_info["program"] == program


# ---------------------------------------------------------------------------
# the pipeline's engine is the adapter's


@needs_cc
def test_a_default_adapter_compiles_with_the_pipelines_backend():
    model = _model("tiny-r18")
    adapter = LDBNAdapt(model)
    pipeline = RealTimePipeline(model, adapter, PipelineConfig(backend="cgen"),
                                device=DEVICE, spec=SPEC)
    pipeline.run(iter(ScenarioStream(
        get_scenario("night_cut"), get_config("tiny-r18", num_lanes=2),
        seed=5, horizon=1,
    ).take(1).samples), 1)
    assert adapter._compiled is pipeline.server._adapt_step
    assert adapter._compiled.backend.name == "cgen"


@needs_cc
def test_an_explicitly_different_adapter_steps_on_the_images(monkeypatch):
    samples = ScenarioStream(
        get_scenario("night_cut"), get_config("tiny-r18", num_lanes=2),
        seed=5, horizon=3,
    ).take(3).samples
    model = _model("tiny-r18")
    adapter = LDBNAdapt(model, LDBNAdaptConfig(backend="numpy"))
    pipeline = RealTimePipeline(
        model, adapter, PipelineConfig(backend="cgen"), device=DEVICE,
        spec=SPEC,
    )
    runs = _Runs(monkeypatch)
    pipeline.run(iter(samples), 3)
    assert adapter._compiled.backend.name == "numpy"
    assert runs.kinds == [False] * 3


# ---------------------------------------------------------------------------
# the rail: a non-finite step writes nothing


def _positions(h, w):
    """Pixel positions a poison is planted at: every corner and edge
    midpoint of every channel, and a seeded spread inside."""
    rng = np.random.default_rng(41)
    edges = [(c, y, x) for c in range(3) for y in (0, h // 2, h - 1)
             for x in (0, w // 2, w - 1)]
    inside = [(int(rng.integers(3)), int(rng.integers(h)),
               int(rng.integers(w))) for _ in range(12)]
    return edges + inside


#: "eager": every adaptation step through the autograd path
#: (``nn.adaptation_mode(False)``, entered by :func:`_eager_steps`)
RAIL_ENGINES = [pytest.param("numpy", None, id="numpy")] + [
    pytest.param("cgen", t, marks=needs_cc, id=f"cgen-t{t}") for t in (1, 2)
] + [pytest.param("eager", None, id="eager")]


@pytest.fixture
def _no_ingest_rail(monkeypatch):
    """Let poisoned frames through to a step: the step's own rail is what
    these tests plant them past (the ingest rail keeps them out of every
    step, and has its tests below)."""
    for module in (adapt_base, adapt_batch):
        monkeypatch.setattr(module, "learnable_frame", lambda image: True)


@pytest.fixture(autouse=True)
def _eager_steps(request):
    callspec = getattr(request.node, "callspec", None)
    eager = callspec is not None and callspec.params.get("backend") == "eager"
    with nn.adaptation_mode(not eager):
        yield


@pytest.mark.usefixtures("_no_ingest_rail")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate
@pytest.mark.parametrize("backend,threads", RAIL_ENGINES)
def test_a_poisoned_group_writes_nothing_and_the_rest_update(
    backend, threads
):
    """Eight streams fused into one step, seven of them handed a frame
    with one NaN / +inf / -inf pixel: those seven keep every BN array
    and momentum buffer byte for byte and count a refused step; the
    clean one steps as it would have alone in the group."""
    groups = 8
    h, w = get_config("tiny-r18").input_hw
    model = _model("tiny-r18")
    step = CompiledAdaptStep(model, backend=_backend(backend, threads))
    registry = StreamRegistry(model)
    sessions = [
        registry.register(
            f"s{i}", iter(()),
            LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2), compiled=step),
            deadline_ms=33.3,
        )
        for i in range(groups)
    ]
    batcher = FleetAdaptationBatcher(model, compiled=step)

    def step_group(frames):
        if backend != "eager":
            return batcher.stage(sessions, list(frames)).execute()
        results = {}  # eager: each step as the pool's lone route runs it
        for session, frame in zip(sessions, frames):
            session.swap_in()
            results[id(session)] = session.adapter.adapt(frame[None])
            session.swap_out()
        return results

    clean = _frames("tiny-r18", groups)
    step_group(clean)  # momentum buffers exist

    poisons = [(pos, value) for pos in _positions(h, w)
               for value in (np.nan, np.inf, -np.inf)]
    for at in range(0, len(poisons), groups - 1):
        frames = clean.copy()
        chunk = poisons[at:at + groups - 1]
        for k, ((c, y, x), value) in enumerate(chunk):
            frames[k, c, y, x] = value
        before = [_written(s) for s in sessions]
        refused = [s.adapter.refused_steps for s in sessions]
        results = step_group(frames)
        for k, session in enumerate(sessions):
            poisoned = k < len(chunk)
            assert results[id(session)].refused is poisoned
            assert (_written(session) == before[k]) is poisoned
            assert session.adapter.refused_steps == refused[k] + poisoned


@pytest.mark.usefixtures("_no_ingest_rail")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate
@pytest.mark.parametrize("backend,threads", RAIL_ENGINES)
def test_a_nan_frame_is_refused_by_a_single_stream_step(backend, threads):
    """On the first step (the closure's tail: no momentum yet) and on a
    later one (the rendered tail), from the images and from the rows."""
    model = _model("tiny-r18")
    be = _backend(backend, threads)
    engine = compile_model(model, backend=be, threads=threads)
    adapter = LDBNAdapt(
        model, LDBNAdaptConfig(lr=1e-2),
        compiled=CompiledAdaptStep(model, backend=be, threads=threads),
    )
    x = _frames("tiny-r18", 3)
    poisoned = x[1].copy()
    poisoned[0, 3, 5] = np.nan
    for image in (poisoned, x[0], poisoned, x[2], poisoned):
        before = _state(adapter)
        engine(image[None])
        for rows in (None, _stem(engine, image[None])[0]):
            result = adapter.observe_frame(image, rows)
            bad = image is poisoned
            assert result.refused is bad
            assert (_state(adapter) == before) is bad
            before = _state(adapter)
    assert adapter.refused_steps == 6 and adapter.steps_taken == 4


@pytest.mark.usefixtures("_no_ingest_rail")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate
def test_reports_count_refused_steps(trained_tiny_model, tiny_benchmark):
    from dataclasses import replace

    def poisoned(stream, at):
        for i, sample in enumerate(stream):
            if i == at:
                image = sample.image.copy()
                image[1, 2, 3] = np.inf
                sample = replace(sample, image=image)
            yield sample

    samples = tiny_benchmark.target_stream(
        rng=np.random.default_rng(0)
    ).take(4).samples
    adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
    report = RealTimePipeline(
        trained_tiny_model, adapter, PipelineConfig(), device=DEVICE,
        spec=SPEC,
    ).run(poisoned(samples, 2), 4)
    assert report.refused_steps == 1 == adapter.refused_steps
    assert [f.refused for f in report.frames] == [False, False, True, False]

    server = FleetServer(
        trained_tiny_model, FleetConfig(latency_model="orin"),
        device=DEVICE, spec=SPEC,
    )
    for i in range(2):
        server.add_stream(f"s{i}", poisoned(samples, 1 + i))
    assert server.run(4).refused_steps == 2


# ---------------------------------------------------------------------------
# the ingest rail: a frame no step may learn from is never buffered

#: one pixel NaN / +inf / -inf, or every pixel equal
SPOILS = ["nan", "+inf", "-inf", "constant"]


def _spoiled(image, how):
    image = image.copy()
    if how == "constant":
        image[...] = 0.25
    else:
        image[1, 2, 3] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[how]
    return image


@pytest.mark.parametrize("how", SPOILS)
@pytest.mark.parametrize("backend,threads", RAIL_ENGINES[:2])
def test_an_unlearnable_frame_never_joins_a_step(backend, threads, how):
    """At batch size 4, three clean frames, a spoiled one and a clean one:
    the spoiled frame is counted and never buffered, and the fifth frame
    steps with the bytes of a step on the four clean ones."""
    frames = _frames("tiny-r18", 4)

    def adapter():
        model = _model("tiny-r18")
        be = _backend(backend, threads)
        return LDBNAdapt(
            model, LDBNAdaptConfig(lr=1e-2, batch_size=4),
            compiled=CompiledAdaptStep(model, backend=be, threads=threads),
        )

    clean = adapter()
    want = [clean.observe_frame(image) for image in frames]
    spoiled = adapter()
    for image in frames[:3]:
        assert spoiled.observe_frame(image) is None
    assert spoiled.observe_frame(_spoiled(frames[0], how)) is None
    assert spoiled.pending_frames == 3 and spoiled.rejected_frames == 1
    got = spoiled.observe_frame(frames[3])
    assert want[:3] == [None] * 3 and clean.rejected_frames == 0
    assert got.num_frames == 4 and not got.refused
    assert np.float64(got.loss).tobytes() == np.float64(want[3].loss).tobytes()
    assert _state(spoiled) == _state(clean)


@pytest.mark.parametrize("backend,threads", RAIL_ENGINES[:2])
def test_fused_staging_leaves_an_unlearnable_frame_out(backend, threads):
    """Three streams, the middle one's frame spoiled: the fused step is
    the two others' group of two, byte for byte, and the spoiled stream's
    own ``observe_frame`` rejects its frame."""

    def fleet():
        model = _model("tiny-r18")
        step = CompiledAdaptStep(model, backend=_backend(backend, threads))
        registry = StreamRegistry(model)
        sessions = [
            registry.register(
                f"s{i}", iter(()),
                LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2), compiled=step),
                deadline_ms=33.3,
            )
            for i in range(3)
        ]
        return sessions, FleetAdaptationBatcher(model, compiled=step)

    frames = list(_frames("tiny-r18", 3))
    spoiled = frames[:1] + [_spoiled(frames[1], "nan")] + frames[2:]
    sessions, batcher = fleet()
    staged = batcher.stage(sessions, spoiled)
    assert [id(s) for s in staged.sessions] == [id(sessions[0]),
                                               id(sessions[2])]
    staged.execute()
    assert sessions[1].adapter.observe_frame(spoiled[1]) is None
    assert sessions[1].adapter.rejected_frames == 1
    assert batcher.stage(sessions[1:2], spoiled[1:2]) is None
    twins, twin_batcher = fleet()
    twin_batcher.stage([twins[0], twins[2]], [frames[0], frames[2]]).execute()
    for session, twin in zip(sessions, twins):
        assert _written(session) == _written(twin)


def test_reports_count_rejected_frames(trained_tiny_model, tiny_benchmark):
    """A constant and a NaN frame are served (one record each, marked
    rejected) and never adapted on; both reports count them, and no step
    is refused."""
    from dataclasses import replace

    def spoiled(stream, spoils):
        for i, sample in enumerate(stream):
            if i in spoils:
                sample = replace(
                    sample, image=_spoiled(sample.image, spoils[i])
                )
            yield sample

    samples = tiny_benchmark.target_stream(
        rng=np.random.default_rng(0)
    ).take(4).samples
    adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
    report = RealTimePipeline(
        trained_tiny_model, adapter, PipelineConfig(), device=DEVICE,
        spec=SPEC,
    ).run(spoiled(samples, {1: "constant", 2: "nan"}), 4)
    assert report.num_frames == 4
    assert [f.rejected for f in report.frames] == [False, True, True, False]
    assert [f.adapted for f in report.frames] == [True, False, False, True]
    assert report.rejected_frames == 2 == adapter.rejected_frames
    assert report.refused_steps == 0 and adapter.steps_taken == 2

    server = FleetServer(
        trained_tiny_model, FleetConfig(latency_model="orin"),
        device=DEVICE, spec=SPEC,
    )
    for i in range(2):
        server.add_stream(f"s{i}", spoiled(samples, {1 + i: "constant"}))
    fleet = server.run(4)
    assert fleet.rejected_frames == 2 and fleet.refused_steps == 0

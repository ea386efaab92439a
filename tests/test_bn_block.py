"""One flat BN block per fleet session.

A session's BN state is a ``(4, C)`` float64 block plus an int64 count
vector; every per-layer array the rest of the code writes is a view into
it, and a launch folds the whole block at once.  Under test:

* **the fold oracle** — after every path that writes a session's state
  (a serial step, a fused group step on numpy and cgen, a drift reset to
  source and to a banked cluster, a checkpoint restore, migration inside
  a live fleet), every ``(scale, shift)`` a launch installs is
  ``tobytes``-equal to the per-layer fold the block replaced, at batch
  1, 2 and 4 and on a backlog batch carrying one session twice.  Each
  case launches every batch right before the write under test, so a
  writer that does not mark its block written serves a stale fold;
* a launch after no write reuses the fold: a block poked without a
  writer still launches the pair of before;
* every per-layer array still shares memory with its session's block;
* a launch of one frame hands the plan the frame's own memory, and
  leaves its bytes as they were;
* the model's own block (its layout's ``home``): every BN module array
  views it, eager writers that mark nothing are refolded, and an array a
  caller rebound (or a float32 one) keeps its identity and is still
  written.
"""

import operator

import numpy as np
import pytest

from repro import nn
from repro.adapt import BNLayout, LDBNAdapt, LDBNAdaptConfig, frame_signature
from repro.data import ScenarioStream, get_scenario
from repro.engine.backends import find_cc
from repro.engine.compile import CompiledInference
from repro.hw import ORIN_POWER_MODES
from repro.models import get_config
from repro.nn.tensor import Tensor
from repro.serve import (
    CheckpointConfig,
    DriftResetConfig,
    FaultSchedule,
    FleetAdaptationBatcher,
    FleetConfig,
    FleetServer,
    MigrationConfig,
    SessionDriftState,
    StreamRegistry,
    capture_session_state,
    per_stream_inference,
    restore_session_state,
)

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")


def _oracle_fold(session, j):
    """Layer ``j``'s per-layer fold, exactly as it was computed before
    the flat block: the reference every installed pair must equal."""
    bn = session.bn_state
    module = bn.layout.modules[j]
    a, b = bn.layout.spans[j]
    mean, var, gamma, beta = bn.state[:, a:b]
    inv_std = 1.0 / np.sqrt(var + module.eps)
    scale = gamma * inv_std
    shift = beta - mean * scale
    return scale, shift


def assert_launch_folds_oracle(sessions):
    """The pairs ``per_stream_inference(sessions)`` installs, bitwise."""
    modules = sessions[0].bn_state.layout.modules
    with per_stream_inference(sessions):
        for j, module in enumerate(modules):
            scale, shift = module.per_sample_stats
            want = [_oracle_fold(s, j) for s in sessions]
            assert scale.tobytes() == np.stack([w[0] for w in want]).tobytes()
            assert shift.tobytes() == np.stack([w[1] for w in want]).tobytes()


def assert_views_of_block(session):
    bn = session.bn_state
    arrays = [row[a:b] for a, b in bn.layout.spans for row in bn.state]
    arrays += [bn.counts[j:j + 1] for j in range(len(bn.counts))]
    for arr in arrays:
        assert arr.flags.c_contiguous
        assert np.shares_memory(arr, bn.state) or np.shares_memory(
            arr, bn.counts
        )


def assert_every_batch_folds_oracle(sessions):
    a, b, c, d = sessions
    for batch in ([a], [a, b], [a, b, c, d], [a, b, a]):
        assert_launch_folds_oracle(batch)
    for session in sessions:
        assert_views_of_block(session)


def _frames(model, rng, n):
    h, w = model.config.input_hw
    return rng.normal(0.6, 0.3, size=(n, 3, h, w)).astype(np.float32)


@pytest.fixture
def sessions(trained_tiny_model):
    registry = StreamRegistry(trained_tiny_model)
    return [
        registry.register(
            f"s{i}", iter(()),
            LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-2)),
            deadline_ms=33.3,
        )
        for i in range(4)
    ]


def _serial_step(session, image):
    session.swap_in()
    assert session.adapter.observe_frame(image) is not None
    session.swap_out()


class TestFoldOracle:
    """Each case launches every batch right before the write under test
    (``assert_every_batch_folds_oracle``), so the launch after it can
    only pass by refolding the written block."""

    def test_fresh_sessions(self, sessions):
        assert_every_batch_folds_oracle(sessions)
        layout = sessions[0].bn_state.layout
        assert all(s.bn_state.layout is layout for s in sessions)
        assert sessions[0].bn_state.state.shape == (4, layout.channels)

    def test_serial_step(self, sessions, trained_tiny_model, rng):
        for session, image in zip(sessions[:2], _frames(trained_tiny_model, rng, 2)):
            assert_every_batch_folds_oracle(sessions)
            _serial_step(session, image)
        assert_every_batch_folds_oracle(sessions)

    @pytest.mark.parametrize(
        "backend", ["numpy", pytest.param("cgen", marks=needs_cc)]
    )
    def test_fused_group_step(self, backend, sessions, trained_tiny_model, rng):
        batcher = FleetAdaptationBatcher(trained_tiny_model, backend=backend)
        group = sessions[1:3]
        # the second step finds momentum buffers
        assert_every_batch_folds_oracle(sessions)
        for _ in range(2):
            staged = batcher.stage(group, _frames(trained_tiny_model, rng, 2))
            assert staged is not None
            staged.execute()
            assert_every_batch_folds_oracle(sessions)

    @pytest.mark.parametrize("mode", ["source", "cluster"])
    def test_drift_reset(self, mode, sessions, trained_tiny_model, rng):
        session = sessions[0]
        drift = SessionDriftState(DriftResetConfig(reset_mode=mode), session)
        here, there = _frames(trained_tiny_model, rng, 2)
        there += 0.8  # a far-away regime
        _serial_step(session, here)
        drift.regime_sig = frame_signature(here)
        assert_every_batch_folds_oracle(sessions)
        assert drift.reset(session, there) == "source"
        assert_every_batch_folds_oracle(sessions)
        if mode == "cluster":
            # come back: the banked regime of ``here`` is restored
            _serial_step(session, there)
            drift.regime_sig = frame_signature(there)
            assert_every_batch_folds_oracle(sessions)
            assert drift.reset(session, here) == "cluster"
            assert_every_batch_folds_oracle(sessions)

    def test_checkpoint_restore(self, sessions, trained_tiny_model, rng):
        session = sessions[2]
        frames = _frames(trained_tiny_model, rng, 2)
        _serial_step(session, frames[0])
        taken = capture_session_state(session)
        _serial_step(session, frames[1])
        assert_every_batch_folds_oracle(sessions)
        restore_session_state(session, *taken)
        assert_every_batch_folds_oracle(sessions)


def _installed(sessions):
    """Copies of the pairs ``per_stream_inference(sessions)`` installs."""
    with per_stream_inference(sessions):
        return [
            tuple(a.copy() for a in m.per_sample_stats)
            for m in sessions[0].bn_state.layout.modules
        ]


def _same_pairs(got, want):
    return all(
        g.tobytes() == w.tobytes()
        for g_pair, w_pair in zip(got, want)
        for g, w in zip(g_pair, w_pair)
    )


def test_a_launch_after_no_write_reuses_the_fold(sessions):
    """The fold is refolded on a write, not on a launch.  A block poked
    without a writer launches the pair of before, every batch size, and
    so does a launch of a new size (each block's fold is reused); a
    launch of the blocks the last launch of its size had reads not even
    those folds.  Once marked written, the oracle again."""
    a, b = sessions[:2]
    batches = ([a], [a, b], [b, a, a])
    before = [_installed(batch) for batch in batches]
    a.bn_state.state[1:] *= 1.5  # var, gamma, beta: no writer sees it
    for batch, pairs in zip(batches, before):
        assert _same_pairs(_installed(batch), pairs)
    # a size not launched yet: each block's own fold, taken into place
    mixed = [tuple(x[[1, 0, 1, 0]] for x in pair) for pair in before[1]]
    assert _same_pairs(_installed([b, a, b, a]), mixed)
    a.bn_state.fold[...] = 0.0  # not even the block's fold is read
    for batch, pairs in zip(batches, before):
        assert _same_pairs(_installed(batch), pairs)
    a.bn_state.written()
    for batch, pairs in zip(batches, before):
        assert not _same_pairs(_installed(batch), pairs)
        assert_launch_folds_oracle(batch)


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("cgen", marks=needs_cc)]
)
def test_a_lone_frame_is_the_plan_input(backend, trained_tiny_model,
                                        monkeypatch):
    """A launch of one float32 frame replays the plan on the frame's own
    memory — no stacked copy — and leaves its bytes as they were."""
    read = []
    call = CompiledInference.__call__

    def spied(engine, x):
        out = call(engine, x)
        read.append(engine.plan_for(x.shape, x.dtype)._input_cell[0])
        return out

    monkeypatch.setattr(CompiledInference, "__call__", spied)
    frames = ScenarioStream(
        get_scenario("fog_bank"), trained_tiny_model.config, seed=5,
        horizon=6,
    ).take(6).samples
    kept = [f.image.copy() for f in frames]
    server = FleetServer(
        trained_tiny_model,
        FleetConfig(latency_model="wallclock", backend=backend,
                    max_batch_size=1, adapt_stride=2),
    )
    server.add_stream("s0", iter(frames))
    report = server.run(6)
    assert report.stream_reports["s0"].adaptation_steps > 0
    assert len(read) == len(frames)
    for frame, image, copy in zip(frames, read, kept):
        assert np.shares_memory(image, frame.image)
        assert frame.image.tobytes() == copy.tobytes()


def test_every_fleet_launch_folds_the_oracle(trained_tiny_model, monkeypatch):
    """A live pool — fused and serial steps, drift resets, checkpoints, a
    crash recovered from them, migration — checked at every launch."""
    from repro.serve import pool

    launches = []
    fold = pool.per_stream_inference

    def checked(sessions):
        launches.append(len(sessions))
        assert_launch_folds_oracle(list(sessions))
        for session in sessions:
            assert_views_of_block(session)
        return fold(sessions)

    monkeypatch.setattr(pool, "per_stream_inference", checked)
    render = get_config("tiny-r18", num_lanes=2)
    period = 1000.0 / 30.0
    server = FleetServer(
        trained_tiny_model,
        FleetConfig(
            latency_model="orin", devices=2, adapt_stride=2,
            drift=DriftResetConfig(),
            checkpoint=CheckpointConfig(interval_frames=2),
            migration=MigrationConfig(cooldown_ms=100.0, min_observations=2),
            faults=FaultSchedule.parse(
                f"crash@{30 * period:g}:0,join@{32 * period:g}:orin-30w"
            ),
        ),
        device=ORIN_POWER_MODES["orin-60w"],
        spec=get_config("paper-r18").to_spec(),
    )
    for i in range(3):
        frames = ScenarioStream(
            get_scenario("fog_bank"), render, seed=77, stream_id=f"s{i}",
            horizon=44,
        ).take(44).samples
        server.add_stream(
            f"s{i}", iter(frames), adapter_config=LDBNAdaptConfig(lr=1e-3)
        )
    report = server.run(44)
    assert max(launches) > 1
    assert report.total_drift_resets >= 1
    assert report.total_drift_cluster_restores >= 1
    assert report.recoveries >= 1
    assert report.total_migrations >= 1
    assert report.adapt_batch_sizes.count > 0
    assert report.checkpoint_refusals == 0


# ---------------------------------------------------------------------------
# the model's home block


def _module_arrays(module):
    return [module.running_mean, module.running_var, module.weight.data,
            module.bias.data, module.num_batches_tracked]


def _fresh_fold(layout):
    """The fold of what the model's BN modules hold, computed apart."""
    mean, var, gamma, beta = (
        np.concatenate([_module_arrays(m)[r] for m in layout.modules])
        for r in range(4)
    )
    scale = gamma * (1.0 / np.sqrt(var + layout.eps))
    return np.stack([scale, beta - mean * scale])


class TestHomeBlock:
    def test_every_bn_array_views_the_home_block(self, trained_tiny_model):
        """After the first layout every BN module array is a view of one
        block, and a second layout of the model finds that block."""
        layout = BNLayout(trained_tiny_model)
        home = layout.home
        for j, module in enumerate(layout.modules):
            a, b = layout.spans[j]
            *rows, count = _module_arrays(module)
            for r, array in enumerate(rows):
                assert np.shares_memory(array, home.state[r, a:b])
            assert np.shares_memory(count, home.counts[j:j + 1])
        assert BNLayout(trained_tiny_model).home is home
        assert StreamRegistry(trained_tiny_model).layout.home is home

    def test_eager_writers_are_refolded(self, trained_tiny_model, rng):
        """Train-mode BN statistics, ``SGD.step`` and ``load_state_dict``
        write the home block without calling ``written()``: its fold and
        a launch of it still read what the modules hold."""
        model = trained_tiny_model
        pristine = model.state_dict()
        layout = BNLayout(model)
        home = layout.home
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2))
        writers = [
            lambda: model.train()(Tensor(_frames(model, rng, 2))),
            lambda: adapter.adapt(_frames(model, rng, 1)),
            lambda: model.load_state_dict(pristine),
        ]
        for write in writers:
            before = home.folded().copy()
            pairs = layout.launch_pairs([home])
            with nn.adaptation_mode(False):
                write()
            model.eval()
            want = _fresh_fold(layout)
            assert want.tobytes() != before.tobytes()
            assert home.folded().tobytes() == want.tobytes()
            assert layout.launch_pairs([home]) is pairs
            for (scale, shift), (a, b) in zip(pairs, layout.spans):
                assert scale.tobytes() == want[0, a:b].tobytes()
                assert shift.tobytes() == want[1, a:b].tobytes()

    def test_a_stray_array_keeps_its_identity(self, trained_tiny_model, rng):
        """A float32 parameter and a rebound ``param.data`` are not views
        of the home block: a compiled standalone step and ``swap_in``
        still write them, in their own dtype, the view a rebinding
        replaced is left unwritten, and no array changes identity."""
        model = trained_tiny_model
        session = StreamRegistry(model).register(
            "s", iter(()), LDBNAdapt(model), deadline_ms=33.3)
        layout = BNLayout(model)
        first, second = layout.modules[:2]
        second.weight.data = second.weight.data.astype(np.float32)
        replaced = first.bias.data
        first.bias.data = replaced.copy()
        kept = replaced.copy()
        held = [a for m in layout.modules for a in _module_arrays(m)]
        adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-1))
        home = adapter.bn_state
        strays = [second.weight.data, first.bias.data]
        before = [s.copy() for s in strays]
        assert not adapter.adapt(_frames(model, rng, 1)).refused
        assert all(map(operator.is_, held, (
            a for m in layout.modules for a in _module_arrays(m))))
        assert strays[0].dtype == np.float32
        for stray, was in zip(strays, before):
            assert np.abs(stray - was).max() > 0
        (a, b), (c, d) = layout.spans[:2]
        assert strays[1].tobytes() == home.state[3, a:b].tobytes()
        assert replaced.tobytes() == kept.tobytes()
        session.swap_in()
        assert all(map(operator.is_, held, (
            a for m in layout.modules for a in _module_arrays(m))))
        assert strays[0].tobytes() == session.bn_state.state[2, c:d].astype(
            np.float32).tobytes()
        assert strays[1].tobytes() == session.bn_state.state[3, a:b].tobytes()
        assert replaced.tobytes() == kept.tobytes()

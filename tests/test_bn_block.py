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
  leaves its bytes as they were.
"""

import numpy as np
import pytest

from repro.adapt import LDBNAdapt, LDBNAdaptConfig, frame_signature
from repro.data import ScenarioStream, get_scenario
from repro.engine.backends import find_cc
from repro.engine.compile import CompiledInference
from repro.hw import ORIN_POWER_MODES
from repro.models import get_config
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
    module = bn.modules[j]
    mean, var = bn.buffers[j]["running_mean"], bn.buffers[j]["running_var"]
    gamma, beta = bn.params.saved[2 * j:2 * j + 2]
    inv_std = 1.0 / np.sqrt(var + module.eps)
    scale = gamma * inv_std
    shift = beta - mean * scale
    return scale, shift


def assert_launch_folds_oracle(sessions):
    """The pairs ``per_stream_inference(sessions)`` installs, bitwise."""
    modules = sessions[0].bn_state.modules
    with per_stream_inference(sessions):
        for j, module in enumerate(modules):
            scale, shift = module.per_sample_stats
            want = [_oracle_fold(s, j) for s in sessions]
            assert scale.tobytes() == np.stack([w[0] for w in want]).tobytes()
            assert shift.tobytes() == np.stack([w[1] for w in want]).tobytes()


def assert_views_of_block(session):
    bn = session.bn_state
    arrays = list(bn.params.saved)
    arrays += [arr for bufs in bn.buffers for arr in bufs.values()]
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
            for m in sessions[0].bn_state.modules
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

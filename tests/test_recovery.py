"""Elastic-pool fault tolerance: checkpoints, fault schedules, recovery.

The acceptance claims under test:

* a seeded 2-device run with one mid-run crash recovers every hosted
  session from its durable checkpoint with zero post-recovery
  divergence (bitwise), and the adapted-state frames lost stay under
  the checkpoint interval per stream;
* the identical :class:`FaultSchedule` replays bitwise;
* a fault-free run with checkpointing enabled matches the fault-free
  baseline exactly (captures copy, they never touch live state);
* session checkpoints are atomic (tmp + ``os.replace``) flat buffers;
  a load rejects a file whose manifest, length or CRC does not check
  out *before* touching the session, and a crash that finds such a file
  falls back (counted, replayable) instead of raising;
* a joining device is priced from the roofline prior immediately and a
  drained one is re-priced by the canary probe within a bounded number
  of idle-decay ticks.
"""

import os
import zlib

import numpy as np
import pytest

from repro.adapt import LDBNAdaptConfig
from repro.experiments.bench_serve import per_stream_outputs
from repro.hw import ORIN_POWER_MODES
from repro.models import get_config
from repro.nn.serialization import save_arrays
from repro.serve import (
    CheckpointConfig,
    CheckpointCorrupt,
    FaultEvent,
    FaultSchedule,
    FleetConfig,
    FleetServer,
    MigrationConfig,
    SessionCheckpointStore,
    capture_session_state,
    pack_checkpoint,
    restore_session_state,
    unpack_checkpoint,
)
from repro.serve.checkpoint import _PREFIX, _TRAILER

DEVICE = ORIN_POWER_MODES["orin-60w"]
SPEC = get_config("paper-r18").to_spec()
PERIOD_MS = 1000.0 / 30.0


def _frame_lists(benchmark, count, frames, seed=320):
    return [
        benchmark.target_stream(rng=np.random.default_rng(seed + i))
        .take(frames)
        .samples
        for i in range(count)
    ]


def _serve(model, pristine, frame_lists, ticks, prepare=None, **cfg):
    model.load_state_dict(pristine)
    server = FleetServer(
        model,
        FleetConfig(latency_model="orin", **cfg),
        device=DEVICE,
        spec=SPEC,
    )
    if prepare is not None:
        prepare(server)
    for i, frames in enumerate(frame_lists):
        server.add_stream(
            f"s{i}", iter(list(frames)), adapter_config=LDBNAdaptConfig(lr=1e-3)
        )
    return server.run(ticks), server


def _assert_same_state(left, right):
    assert set(left) == set(right)
    for key in left:
        np.testing.assert_array_equal(left[key], right[key])


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", 10.0)
        with pytest.raises(ValueError):
            FaultEvent("crash", -1.0, device=0)
        with pytest.raises(ValueError):
            FaultEvent("crash", 10.0)  # no device
        with pytest.raises(ValueError):
            FaultEvent("stall", 10.0, device=0, duration_ms=0.0)
        with pytest.raises(ValueError):
            FaultEvent("slow", 10.0, device=0, factor=0.0)
        with pytest.raises(ValueError):
            FaultEvent("join", 10.0)  # no profile

    def test_as_row_is_kind_specific(self):
        assert FaultEvent("crash", 5.0, device=1).as_row() == {
            "kind": "crash", "time_ms": 5.0, "device": 1,
        }
        assert FaultEvent("stall", 5.0, device=0, duration_ms=7.0).as_row() == {
            "kind": "stall", "time_ms": 5.0, "device": 0, "duration_ms": 7.0,
        }
        assert FaultEvent("join", 5.0, profile="orin-30w").as_row() == {
            "kind": "join", "time_ms": 5.0, "profile": "orin-30w",
        }


class TestFaultSchedule:
    SPEC_STR = "crash@400:0,stall@600:1:50,slow@700:1:1.5,join@800:orin-30w"

    def test_parse_spec_roundtrip(self):
        schedule = FaultSchedule.parse(self.SPEC_STR)
        assert len(schedule) == 4
        assert schedule.crash_count == 1
        assert schedule.spec() == self.SPEC_STR
        assert FaultSchedule.parse(schedule.spec()) == schedule

    def test_events_sort_by_time(self):
        schedule = FaultSchedule(
            [
                FaultEvent("crash", 500.0, device=0),
                FaultEvent("join", 100.0, profile="orin-30w"),
            ]
        )
        assert [e.kind for e in schedule] == ["join", "crash"]

    def test_parse_rejects_malformed_specs(self):
        for bad in ("crash@x:0", "crash@400", "stall@1:0", "warp@4:0"):
            with pytest.raises(ValueError):
                FaultSchedule.parse(bad)

    def test_parse_tolerates_empty_segments(self):
        assert len(FaultSchedule.parse("crash@5:0,,")) == 1
        assert len(FaultSchedule.parse("")) == 0

    def test_random_is_seed_deterministic(self):
        kwargs = dict(horizon_ms=1000.0, devices=2, crashes=2, joins=1)
        first = FaultSchedule.random(7, **kwargs)
        again = FaultSchedule.random(7, **kwargs)
        other = FaultSchedule.random(8, **kwargs)
        assert first == again
        assert first != other
        assert first.crash_count == 2
        for event in first:
            assert 200.0 <= event.time_ms <= 800.0  # the middle band
            if event.kind == "crash":
                assert event.device in (0, 1)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(0, 1000.0, devices=0)
        with pytest.raises(ValueError):
            FaultSchedule.random(0, 1000.0, devices=1, margin=0.5)


class TestCheckpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval_frames=0)
        with pytest.raises(ValueError):
            CheckpointConfig(mode="lazy")
        with pytest.raises(ValueError):
            CheckpointConfig(interval_frames=8, max_staleness_frames=4)

    def test_fleet_config_guards(self):
        crash = FaultSchedule([FaultEvent("crash", 10.0, device=0)])
        with pytest.raises(ValueError):
            # a crash without a checkpoint store cannot recover anything
            FleetConfig(latency_model="orin", devices=2, faults=crash)
        with pytest.raises(ValueError):
            # faults are scheduled on the simulated launch clock only
            FleetConfig(
                latency_model="wallclock",
                devices=2,
                faults=crash,
                checkpoint=CheckpointConfig(),
            )


class TestCheckpointStore:
    def _serve_with_store(
        self, model, benchmark, streams=2, ticks=8, **ckpt_kwargs
    ):
        pristine = model.state_dict()
        frame_lists = _frame_lists(benchmark, streams, ticks)
        ckpt_kwargs.setdefault("interval_frames", 2)
        return _serve(
            model, pristine, frame_lists, ticks,
            devices=1, checkpoint=CheckpointConfig(**ckpt_kwargs),
        )

    def test_atomic_writes_leave_no_tmp_files(
        self, trained_tiny_model, tiny_benchmark
    ):
        report, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark
        )
        store = server.checkpoints
        names = os.listdir(store.root)
        assert names and all(n.endswith(".ckpt") for n in names)
        assert report.checkpoint_writes == store.writes > 0

    def test_interval_bounds_checkpoint_staleness(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, interval_frames=2
        )
        store = server.checkpoints
        for session in server.registry:
            meta = store.metadata(session.stream_id)
            assert meta is not None
            assert session.frames_seen - meta["frames_seen"] < 2

    def test_async_mode_stages_then_flushes(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, mode="async"
        )
        store = server.checkpoints
        assert store.staged_writes > 0
        assert not store._staged  # end-of-run flush drained the stage
        for session in server.registry:
            assert store.has_checkpoint(session.stream_id)

    def test_restore_rolls_session_back_bitwise(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=1
        )
        store = server.checkpoints
        session = server.registry.get("s0")
        store.checkpoint(session, {"debt": 3, "deferrals": 1}, now_ms=123.0)
        reference, _ = capture_session_state(session)

        # vandalize everything the checkpoint protects
        for saved in session.bn_state.params.saved:
            saved += 1.0
        for bufs in session.bn_state.buffers:
            for arr in bufs.values():
                arr[...] = arr + 1  # ints (batch counters) included
        session.adapter.optimizer.state.clear()
        session.adapter.clear_pending()
        session.adapter._step += 7

        meta = store.restore(session)
        assert meta is not None
        assert meta["admission"] == {"debt": 3, "deferrals": 1}
        restored, _ = capture_session_state(session)
        assert set(restored) == set(reference)
        for key in reference:
            np.testing.assert_array_equal(restored[key], reference[key])

    def test_restore_rejects_foreign_checkpoint(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=2
        )
        store = server.checkpoints
        arrays, meta = store.load("s0")
        with pytest.raises(ValueError):
            restore_session_state(
                server.registry.get("s1"), arrays, meta
            )
        with pytest.raises(ValueError):
            restore_session_state(
                server.registry.get("s0"), arrays, dict(meta, schema="?")
            )

    def test_strict_load_rejects_manifest_mismatch(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=1
        )
        store = server.checkpoints
        arrays, meta = store.load("s0")

        # re-frame the file with one manifested array's bytes missing
        # from the payload and a CRC that matches the torn file: only
        # the manifest-vs-payload size check can catch it
        good = pack_checkpoint(arrays, meta)
        dropped = sorted(arrays)[0]
        short = pack_checkpoint(
            {k: v for k, v in arrays.items() if k != dropped}, meta
        )
        good_payload = _PREFIX.size + _PREFIX.unpack_from(good)[2]
        short_payload = _PREFIX.size + _PREFIX.unpack_from(short)[2]
        torn = good[:good_payload] + short[short_payload:-_TRAILER.size]
        torn += _TRAILER.pack(zlib.crc32(torn))
        with open(store.path_for("s0"), "wb") as fh:
            fh.write(torn)
        with pytest.raises(CheckpointCorrupt, match="manifest"):
            store.load("s0")
        # the header alone still parses
        assert store.metadata("s0") == meta

    def test_corrupt_file_is_rejected_before_any_write(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=1
        )
        store = server.checkpoints
        session = server.registry.get("s0")
        path = store.path_for("s0")
        with open(path, "rb") as fh:
            good = fh.read()
        # move the live session off the checkpoint, so a partial restore
        # would show
        for saved in session.bn_state.params.saved:
            saved += 0.5
        before, _ = capture_session_state(session)

        header_end = _PREFIX.size + _PREFIX.unpack_from(good)[2]
        trailer = len(good) - _TRAILER.size
        damaged = {
            f"truncated at {cut}": good[:cut]
            for cut in (0, _PREFIX.size, header_end, trailer, len(good) - 1)
        }
        for where, at in (
            ("magic", 0),
            ("header", (_PREFIX.size + header_end) // 2),
            ("payload", (header_end + trailer) // 2),
            ("trailer", trailer + 1),
        ):
            flipped = bytearray(good)
            flipped[at] ^= 0x10
            damaged[f"flipped in {where}"] = bytes(flipped)
        damaged["an old .npz archive"] = b"PK\x03\x04" + good[4:]
        for what, blob in damaged.items():
            with open(path, "wb") as fh:
                fh.write(blob)
            with pytest.raises(CheckpointCorrupt):
                store.restore(session)
            after, _ = capture_session_state(session)
            _assert_same_state(after, before)

        assert issubclass(CheckpointCorrupt, ValueError)
        with open(path, "wb") as fh:
            fh.write(good)
        assert store.restore(session) is not None

    def test_async_flush_writes_the_staged_capture_not_live_state(
        self, trained_tiny_model, tiny_benchmark, tmp_path
    ):
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=1
        )
        session = server.registry.get("s0")
        store = SessionCheckpointStore(
            CheckpointConfig(
                interval_frames=1, mode="async", dir=str(tmp_path / "wb")
            )
        )
        assert store.observe(session) == 0  # staged, nothing durable yet
        assert store.staged_writes == 1 and not store.has_checkpoint("s0")
        staged, _ = capture_session_state(session)
        for saved in session.bn_state.params.saved:
            saved += 1.0
        assert store.flush() == 1
        durable, meta = store.load("s0")
        _assert_same_state(durable, staged)
        assert meta["frames_seen"] == session.frames_seen
        live, _ = capture_session_state(session)
        assert any(
            not np.array_equal(live[key], durable[key]) for key in durable
        )

    def test_a_v2_checkpoint_is_rejected_typed(
        self, trained_tiny_model, tiny_benchmark
    ):
        """v2 kept the BN state as per-layer arrays; v3 keeps the flat
        block.  A v2 file fails its version check, and a v2 meta in a v3
        container fails the schema check — both before any write."""
        _, server = self._serve_with_store(
            trained_tiny_model, tiny_benchmark, streams=1
        )
        store = server.checkpoints
        session = server.registry.get("s0")
        arrays, meta = store.load("s0")
        v2_meta = dict(meta, schema="repro-session-checkpoint-v2")
        v2_arrays = {k: v for k, v in arrays.items() if not k.startswith("bn.")}
        bn = session.bn_state
        for i, saved in enumerate(bn.params.saved):
            v2_arrays[f"bn.param.{i}"] = saved
        for i, bufs in enumerate(bn.buffers):
            for name, arr in bufs.items():
                v2_arrays[f"bn.buffer.{i}.{name}"] = arr
        blob = bytearray(pack_checkpoint(v2_arrays, v2_meta)[:-_TRAILER.size])
        _, _, header_len = _PREFIX.unpack_from(blob)
        _PREFIX.pack_into(blob, 0, b"RPCKPT", 2, header_len)
        blob += _TRAILER.pack(zlib.crc32(blob))
        with open(store.path_for("s0"), "wb") as fh:
            fh.write(bytes(blob))
        for saved in bn.params.saved:
            saved += 0.5
        before, _ = capture_session_state(session)
        with pytest.raises(CheckpointCorrupt, match="not a v3"):
            store.restore(session)
        with pytest.raises(CheckpointCorrupt, match="schema"):
            restore_session_state(session, arrays, v2_meta)
        _assert_same_state(capture_session_state(session)[0], before)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_non_finite_bn_block_is_never_made_durable(
        self, mode, trained_tiny_model, tiny_benchmark
    ):
        """The rail: one NaN running variance and the due capture is
        refused — nothing written or staged, counted in the report,
        traced with its reason — so a crash restores the last finite
        state bitwise."""
        from repro.telemetry import SpanTracer

        server = FleetServer(
            trained_tiny_model,
            FleetConfig(
                latency_model="orin", devices=2,
                checkpoint=CheckpointConfig(interval_frames=2, mode=mode),
            ),
            device=DEVICE, spec=SPEC, tracer=SpanTracer(),
        )
        for i, frames in enumerate(_frame_lists(tiny_benchmark, 2, 6)):
            server.add_stream(
                f"s{i}", iter(frames), adapter_config=LDBNAdaptConfig(lr=1e-3)
            )
        server.run(6)
        store = server.checkpoints
        store.flush()
        assert store.refusals == 0
        session = server.registry.get("s0")
        worker = server.workers[server.device_of("s0")]
        durable, _ = store.load("s0")
        with open(store.path_for("s0"), "rb") as fh:
            durable_bytes = fh.read()
        writes, staged = store.writes, store.staged_writes

        session.bn_state.buffers[3]["running_var"][1] = np.nan
        session.frames_seen += 2  # a capture is due
        worker._observe_checkpoints([session], worker.device_free_ms)
        assert (store.writes, store.staged_writes) == (writes, staged)
        assert store.refusals == 1 and not store._staged
        with open(store.path_for("s0"), "rb") as fh:
            assert fh.read() == durable_bytes
        (refused,) = server.tracer.instants("checkpoint_refused")
        assert refused.args == {"stream": "s0", "reason": "non-finite BN state"}
        assert server._build_report(0.0).checkpoint_refusals == 1

        server.crash_device(worker.index, now_ms=worker.device_free_ms + 1.0)
        restored, _ = capture_session_state(session)
        _assert_same_state(restored, durable)
        assert np.isfinite(session.bn_state.state).all()

    def test_save_arrays_reserves_the_meta_key(self, tmp_path):
        with pytest.raises(ValueError):
            save_arrays(
                str(tmp_path / "x.npz"),
                {"__repro_meta__": np.zeros(1)},
            )

    def test_store_without_checkpoint_returns_none(self, tmp_path):
        store = SessionCheckpointStore(
            CheckpointConfig(dir=str(tmp_path / "ckpt"))
        )
        assert not store.has_checkpoint("ghost")
        assert store.metadata("ghost") is None


class TestCrashRecovery:
    """End-to-end elastic pool: crash, recover, join, replay."""

    def _fleet(
        self, model, benchmark, streams=3, ticks=10, seed=320,
        pristine=None, **cfg
    ):
        # serving leaves the shared model carrying the last stream's BN
        # state, so repeat runs must reload the SAME pristine snapshot
        pristine = model.state_dict() if pristine is None else pristine
        frame_lists = _frame_lists(benchmark, streams, ticks, seed=seed)
        return _serve(model, pristine, frame_lists, ticks, **cfg)

    def test_crash_recovers_every_hosted_session(
        self, trained_tiny_model, tiny_benchmark
    ):
        interval = 2
        crash_ms = 4.0 * PERIOD_MS
        report, server = self._fleet(
            trained_tiny_model, tiny_benchmark,
            devices=2,
            checkpoint=CheckpointConfig(interval_frames=interval),
            faults=FaultSchedule([FaultEvent("crash", crash_ms, device=0)]),
        )
        assert report.crashes == 1
        assert not server.workers[0].alive
        assert server.workers[0].crashed_ms == crash_ms
        assert not server.workers[0].sessions
        assert report.recoveries >= 1
        # every recovered session landed on the survivor and kept serving
        for event in report.recovery_events:
            assert event["source"] == 0
            assert event["target"] == 1
            assert event["recovery_latency_ms"] >= 0.0
            assert 0 <= event["frames_lost"] < interval
        assert report.total_frames_lost <= interval * report.recoveries
        # no frame served twice, per-stream order preserved
        for stream_report in report.stream_reports.values():
            indices = [f.index for f in stream_report.frames]
            assert indices == sorted(set(indices))

    def test_post_recovery_state_is_bitwise_the_checkpoint(
        self, trained_tiny_model, tiny_benchmark
    ):
        report, server = self._fleet(
            trained_tiny_model, tiny_benchmark,
            devices=2,
            checkpoint=CheckpointConfig(interval_frames=2),
        )
        store = server.checkpoints
        crashed = next(w for w in server.workers if w.sessions)
        hosted = list(crashed.sessions)
        records = server.crash_device(
            crashed.index, now_ms=crashed.device_free_ms + 1.0
        )
        assert {r["stream"] for r in records} == set(hosted)
        for sid in hosted:
            session = server.registry.get(sid)
            arrays, meta = store.load(sid)
            live, _ = capture_session_state(session)
            assert set(live) == set(arrays)
            for key in arrays:
                np.testing.assert_array_equal(live[key], arrays[key])
            assert session.adapter.steps_taken == meta["adapter_step"]
            # counters were NOT rolled back: the frames are lost, not
            # rewound, so report record indices can never collide
            assert session.frames_seen >= meta["frames_seen"]

    def test_identical_schedule_replays_bitwise(
        self, trained_tiny_model, tiny_benchmark
    ):
        schedule = FaultSchedule.parse(
            f"crash@{4 * PERIOD_MS:g}:0,join@{6 * PERIOD_MS:g}:orin-30w"
        )
        pristine = trained_tiny_model.state_dict()
        runs = [
            self._fleet(
                trained_tiny_model, tiny_benchmark,
                devices=2,
                pristine=pristine,
                checkpoint=CheckpointConfig(interval_frames=2),
                faults=schedule,
                migration=MigrationConfig(),
            )[0]
            for _ in range(2)
        ]
        assert per_stream_outputs(runs[0]) == per_stream_outputs(runs[1])
        assert runs[0].summary() == runs[1].summary()
        assert runs[0].recovery_events == runs[1].recovery_events

    def test_corrupt_checkpoint_is_a_counted_replayable_fallback(
        self, trained_tiny_model, tiny_benchmark
    ):
        schedule = FaultSchedule.parse(
            f"crash@{4 * PERIOD_MS:g}:0,join@{6 * PERIOD_MS:g}:orin-30w"
        )
        pristine = trained_tiny_model.state_dict()
        cfg = dict(
            devices=2,
            pristine=pristine,
            checkpoint=CheckpointConfig(interval_frames=2),
            faults=schedule,
            migration=MigrationConfig(),
        )
        clean, _ = self._fleet(trained_tiny_model, tiny_benchmark, **cfg)
        victim = clean.recovery_events[0]["stream"]
        assert clean.corrupt_checkpoints == 0

        def bad_disk(server):
            # every write of the victim's checkpoint lands with one
            # payload bit flipped
            store = server.checkpoints
            write = store._write

            def rotten(stream_id, blob, frames_seen):
                if stream_id == victim:
                    blob = bytearray(blob)
                    blob[len(blob) // 2] ^= 0x01
                return write(stream_id, bytes(blob), frames_seen)

            store._write = rotten

        runs = [
            self._fleet(
                trained_tiny_model, tiny_benchmark, prepare=bad_disk, **cfg
            )[0]
            for _ in range(2)
        ]
        report = runs[0]
        assert report.corrupt_checkpoints == 1
        assert report.summary()["corrupt_checkpoints"] == 1.0
        assert report.recoveries == clean.recoveries
        for event in report.recovery_events:
            assert event["checkpoint_corrupt"] == (event["stream"] == victim)
            if event["stream"] == victim:
                # handled as "no durable checkpoint": everything since
                # registration counts as lost
                assert event["checkpoint_frames"] == 0
                assert event["frames_lost"] > 0
        assert report.total_frames == clean.total_frames
        assert per_stream_outputs(runs[0]) == per_stream_outputs(runs[1])
        assert runs[0].summary() == runs[1].summary()
        assert runs[0].recovery_events == runs[1].recovery_events

    def test_checkpointing_is_inert_without_faults(
        self, trained_tiny_model, tiny_benchmark
    ):
        pristine = trained_tiny_model.state_dict()
        baseline, _ = self._fleet(
            trained_tiny_model, tiny_benchmark, devices=2, pristine=pristine
        )
        for mode in ("sync", "async"):
            checkpointed, _ = self._fleet(
                trained_tiny_model, tiny_benchmark,
                devices=2,
                pristine=pristine,
                checkpoint=CheckpointConfig(interval_frames=2, mode=mode),
            )
            assert per_stream_outputs(checkpointed) == per_stream_outputs(
                baseline
            )

    def test_join_extends_the_pool_mid_run(
        self, trained_tiny_model, tiny_benchmark
    ):
        join_ms = 3.0 * PERIOD_MS
        report, server = self._fleet(
            trained_tiny_model, tiny_benchmark,
            devices=2,
            migration=MigrationConfig(),
            faults=FaultSchedule(
                [FaultEvent("join", join_ms, profile="orin-30w")]
            ),
        )
        assert report.device_joins == 1
        assert len(server.workers) == 3
        joined = server.workers[2]
        assert joined.alive
        assert joined.joined_ms == join_ms
        assert joined.device.name == "orin-30w"
        # the joined device is priced (traffic may have moved its EWMA
        # off the roofline prior it was seeded with)
        assert joined.slack_ewma_ms is not None
        rows = report.per_device_rows()
        assert rows[2]["joined_ms"] == join_ms
        # the API seeds a fresh join from the roofline prior directly
        late = server.add_device("orin-15w", now_ms=999.0)
        assert late.slack_ewma_ms == late.roofline_slack_prior_ms()
        assert late.joined_ms == 999.0
        assert late.device_free_ms == 999.0

    def test_stall_and_slow_degrade_without_killing(
        self, trained_tiny_model, tiny_benchmark
    ):
        schedule = FaultSchedule.parse(
            f"stall@{2 * PERIOD_MS:g}:1:{2 * PERIOD_MS:g},"
            f"slow@{4 * PERIOD_MS:g}:1:1.5"
        )
        report, server = self._fleet(
            trained_tiny_model, tiny_benchmark, devices=2, faults=schedule
        )
        assert [e["kind"] for e in report.fault_events] == ["stall", "slow"]
        assert server.workers[1].alive
        assert server.workers[1].pricing.slowdown == 1.5
        assert report.crashes == 0 and report.recoveries == 0
        # a 1.5x slower device quotes 1.5x the healthy adaptation price
        healthy = server.workers[0]
        slowed = server.workers[1]
        assert slowed.adapt_cost_fn(1) == pytest.approx(
            1.5 * healthy.adapt_cost_fn(1)
        )

    def test_crash_device_api_guards(
        self, trained_tiny_model, tiny_benchmark
    ):
        _, server = self._fleet(
            trained_tiny_model, tiny_benchmark,
            devices=2,
            checkpoint=CheckpointConfig(interval_frames=2),
        )
        server.crash_device(0, now_ms=server.workers[0].device_free_ms)
        with pytest.raises(ValueError):
            server.crash_device(0, now_ms=1e6)  # already dead
        with pytest.raises(ValueError):
            server.add_stream("late", iter(()), device=0)  # dead pin
        with pytest.raises(RuntimeError):
            # the last alive device cannot crash while hosting sessions
            server.crash_device(1, now_ms=1e6)

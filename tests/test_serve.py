"""Fleet serving subsystem tests: scheduler, stream isolation, server."""

import numpy as np
import pytest

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig, NoAdapt
from repro.hw import ORIN_POWER_MODES, batched_inference_latency_ms
from repro.models import get_config
from repro.pipeline import PipelineConfig, PipelineReport, RealTimePipeline
from repro.serve import (
    AdmissionConfig,
    ArrivalModel,
    DeadlineAwareScheduler,
    FleetConfig,
    FleetReport,
    FleetServer,
    FrameRequest,
    StreamRegistry,
    per_stream_inference,
    plan_adaptation_groups,
    static_fuse_key,
)
from repro.serve.adapt_batch import FleetAdaptationBatcher
from repro.serve.streams import BNLayout, BNStateSnapshot
from repro.telemetry.sketch import exact_percentile
from tick_oracle import run_ticks

#: the event loop and its tick-synchronous reference, by the names the
#: parity tests have always used for the two
INGEST_LOOPS = (("async", FleetServer.run), ("sync", run_ticks))


def _affine(session):
    """A copy of the gamma/beta rows of the session's BN block."""
    return session.bn_state.state[2:].copy()


def _buffers(session):
    """Copies of the session's BN block statistics, by buffer name."""
    state, counts = session.bn_state.read()
    return {"running_mean": state[0].copy(), "running_var": state[1].copy(),
            "num_batches_tracked": counts.copy()}


def _request(sid, arrival, deadline, index=0):
    return FrameRequest(
        stream_id=sid, frame_index=index, arrival_ms=arrival, deadline_ms=deadline
    )


class TestScheduler:
    def test_empty_queue_returns_none(self):
        sched = DeadlineAwareScheduler()
        assert sched.next_batch(0.0) is None

    def test_greedy_when_latency_free(self):
        sched = DeadlineAwareScheduler(latency_fn=None, max_batch_size=8)
        for i in range(5):
            sched.submit(_request(f"s{i}", 0.0, 33.3))
        plan = sched.next_batch(0.0)
        assert plan.batch_size == 5
        assert sched.pending_count == 0

    def test_respects_max_batch_size(self):
        sched = DeadlineAwareScheduler(latency_fn=None, max_batch_size=3)
        for i in range(5):
            sched.submit(_request(f"s{i}", 0.0, 33.3))
        assert sched.next_batch(0.0).batch_size == 3
        assert sched.next_batch(0.0).batch_size == 2

    def test_deadline_bounds_batch_growth(self):
        # batch latency grows 10 ms per member; seed has 25 ms slack, so
        # only batch sizes 1 (10ms) and 2 (20ms) fit
        sched = DeadlineAwareScheduler(latency_fn=lambda b: 10.0 * b, max_batch_size=8)
        for i in range(4):
            sched.submit(_request(f"s{i}", 0.0, 25.0))
        plan = sched.next_batch(0.0)
        assert plan.batch_size == 2
        assert plan.planned_latency_ms == 20.0

    def test_doomed_head_flips_to_throughput_mode(self):
        # even a singleton misses the deadline -> batch fills to the max
        sched = DeadlineAwareScheduler(latency_fn=lambda b: 50.0 + b, max_batch_size=4)
        for i in range(6):
            sched.submit(_request(f"s{i}", 0.0, 33.3))
        assert sched.next_batch(0.0).batch_size == 4

    def test_most_urgent_serves_first(self):
        sched = DeadlineAwareScheduler(latency_fn=lambda b: 100.0, max_batch_size=1)
        sched.submit(_request("late", 0.0, 500.0))
        sched.submit(_request("urgent", 0.0, 40.0))
        assert sched.next_batch(0.0).requests[0].stream_id == "urgent"

    def test_priority_aging_prevents_starvation(self):
        # an old frame with a distant deadline eventually outranks a fresh
        # urgent one thanks to the queue-age credit
        sched = DeadlineAwareScheduler(
            latency_fn=lambda b: 100.0, max_batch_size=1, aging_rate=1.0
        )
        sched.submit(_request("old", arrival=0.0, deadline=10_000.0))
        sched.submit(_request("fresh", arrival=5000.0, deadline=5040.0))
        assert sched.next_batch(5000.0).requests[0].stream_id == "old"

    def test_request_slack_and_wait(self):
        req = _request("s", arrival=10.0, deadline=43.3)
        assert req.slack_ms(20.0) == pytest.approx(23.3)
        assert req.wait_ms(20.0) == pytest.approx(10.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DeadlineAwareScheduler(max_batch_size=0)
        with pytest.raises(ValueError):
            DeadlineAwareScheduler(aging_rate=-1.0)


class TestAdaptationGroupPlanning:
    def test_groups_by_key_preserving_order(self):
        candidates = [
            ("a", 1), ("b", 2), ("a", 3), (None, 4), ("b", 5), ("c", 6),
        ]
        groups, serial = plan_adaptation_groups(candidates)
        assert groups == [[1, 3], [2, 5], [6]]
        assert serial == [4]

    def test_singletons_are_groups_of_one(self):
        groups, serial = plan_adaptation_groups([("a", 1), ("b", 2)])
        assert groups == [[1], [2]]
        assert serial == []


def _learnable_image(model) -> np.ndarray:
    h, w = model.config.input_hw
    return np.arange(3 * h * w, dtype=np.float32).reshape(3, h, w)


def _launch(session, *images):
    """A launch of ``session``'s frames ``images``, in order."""
    from types import SimpleNamespace

    from repro.serve.scheduler import BatchPlan, FrameRequest

    requests = tuple(
        FrameRequest(
            stream_id=session.stream_id, frame_index=k, arrival_ms=0.0,
            deadline_ms=1e9, payload=(session, SimpleNamespace(image=image)),
        )
        for k, image in enumerate(images)
    )
    return BatchPlan(requests=requests, planned_latency_ms=0.0)


class TestBatchedAdaptation:
    def _sessions(self, model, count, lr=1e-3, batch_size=1):
        registry = StreamRegistry(model)
        return [
            registry.register(
                f"s{i}",
                iter(()),
                LDBNAdapt(
                    model,
                    LDBNAdaptConfig(lr=lr, batch_size=batch_size),
                ),
                deadline_ms=33.3,
            )
            for i in range(count)
        ]

    def test_group_key_eligibility(self, trained_tiny_model):
        (sgd, other) = self._sessions(trained_tiny_model, 2)
        step = sgd.adapter.step_engine()
        batcher = FleetAdaptationBatcher(trained_tiny_model, compiled=step)
        assert batcher.group_key(sgd) == ("ldbn-sgd", 1, step)
        # an adapter stepping on another engine never joins this batcher
        assert batcher.group_key(other) is None
        registry = StreamRegistry(trained_tiny_model)
        noop = registry.register(
            "noop", iter(()), NoAdapt(trained_tiny_model), deadline_ms=33.3
        )
        assert batcher.group_key(noop) is None

    def test_buffering_frame_not_fused(self, trained_tiny_model):
        """A frame that only fills the buffer gets no group from the
        worker's adaptation walk; the frame that completes it does."""
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9),
        )
        session = server.add_stream(
            "s0", iter(()), adapter_config=LDBNAdaptConfig(batch_size=2)
        )
        worker = server.workers[0]
        image = _learnable_image(trained_tiny_model)
        plan = _launch(session, image)
        # empty buffer: the incoming frame only buffers, nothing to fuse
        assert worker._plan_adaptation(plan, 0.0, 0.0, 0, None) == ([True], {})
        session.adapter.observe_frame(image)
        assert session.adapter.pending_frames == 1
        # buffered: the next frame completes the batch and is staged
        fed, group_of = worker._plan_adaptation(plan, 0.0, 0.0, 0, None)
        assert fed == [True] and group_of[0].sessions == [session]
        assert session.adapter.pending_frames == 1  # staging consumes none

    def test_fused_step_matches_serial_stepping(self, trained_tiny_model, rng):
        """Acceptance: fused per-stream states == serial stepping."""
        model = trained_tiny_model
        h, w = model.config.input_hw
        frames = [
            rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32)
            for _ in range(3)
        ]

        def snapshot(sessions):
            return [
                (
                    [_affine(s)],
                    [_buffers(s)],
                )
                for s in sessions
            ]

        pristine = model.state_dict()
        serial_sessions = self._sessions(model, 3)
        for session, image in zip(serial_sessions, frames):
            session.swap_in()
            session.adapter.observe_frame(image)
            session.swap_out()
        serial_states = snapshot(serial_sessions)

        # the serial loop leaves the last stream's state on the model;
        # fused sessions must snapshot the same pristine starting point
        model.load_state_dict(pristine)
        fused_sessions = self._sessions(model, 3)
        batcher = FleetAdaptationBatcher(model)
        staged = batcher.stage(fused_sessions, frames)
        assert staged is not None and staged.num_streams == 3
        results = staged.execute()
        fused_states = snapshot(fused_sessions)

        for (sp, sb), (fp, fb), session in zip(
            serial_states, fused_states, fused_sessions
        ):
            for a, b in zip(sp, fp):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
            for a, b in zip(sb, fb):
                for key in a:
                    np.testing.assert_allclose(
                        a[key], b[key], rtol=1e-9, atol=1e-12, err_msg=key
                    )
            assert results[id(session)].step_index == 1
            assert session.adapter.steps_taken == 1

    def test_fleet_server_batched_equals_serial_config(
        self, trained_tiny_model, tiny_benchmark, groups_of_one
    ):
        """A fleet fusing its steps == the same fleet stepping each
        stream in a group of its own."""
        frames = 6
        frame_lists = [
            tiny_benchmark.target_stream(rng=np.random.default_rng(300 + i))
            .take(frames)
            .samples
            for i in range(3)
        ]
        pristine = trained_tiny_model.state_dict()

        def run():
            trained_tiny_model.load_state_dict(pristine)
            server = FleetServer(
                trained_tiny_model,
                FleetConfig(latency_model="wallclock", deadline_ms=1e9),
            )
            sessions = [
                server.add_stream(
                    f"s{i}",
                    iter(list(frame_list)),
                    adapter_config=LDBNAdaptConfig(lr=1e-3),
                )
                for i, frame_list in enumerate(frame_lists)
            ]
            report = server.run(frames)
            states = [
                [_affine(s)] for s in sessions
            ]
            return report, states

        batched_report, batched_states = run()
        groups_of_one()
        serial_report, serial_states = run()
        # every tick fused all three same-phase streams into one step
        assert batched_report.adapt_batch_sizes == [3] * frames
        assert serial_report.adapt_batch_sizes == []
        for sid in batched_report.stream_reports:
            b_frames = batched_report.stream_reports[sid].frames
            s_frames = serial_report.stream_reports[sid].frames
            assert [f.accuracy for f in b_frames] == [
                f.accuracy for f in s_frames
            ]
            np.testing.assert_allclose(
                [f.entropy for f in b_frames],
                [f.entropy for f in s_frames],
                rtol=1e-9,
            )
        for batched, serial in zip(batched_states, serial_states):
            for a, b in zip(batched, serial):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        # fused steps report their amortized per-stream latency share
        assert batched_report.adaptation_percentile(50) > 0
        assert batched_report.mean_adapt_batch_size == pytest.approx(3.0)

    def test_mixed_fleet_fuses_eligible_streams_only(
        self, trained_tiny_model, tiny_benchmark
    ):
        frame_lists = [
            tiny_benchmark.target_stream(rng=np.random.default_rng(400 + i))
            .take(3)
            .samples
            for i in range(3)
        ]
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9),
        )
        server.add_stream("adapt-0", iter(frame_lists[0]))
        server.add_stream("adapt-1", iter(frame_lists[1]))
        server.add_stream(
            "frozen", iter(frame_lists[2]),
            adapter=NoAdapt(trained_tiny_model),
        )
        report = server.run(3)
        assert report.adapt_batch_sizes == [2] * 3  # adapting pair fused
        assert report.stream_reports["frozen"].adaptation_steps == 3


class TestRooflineBatching:
    SPEC = get_config("paper-r18").to_spec()
    DEVICE = ORIN_POWER_MODES["orin-60w"]

    def test_per_frame_cost_decreases_with_batch(self):
        per_frame = [
            batched_inference_latency_ms(self.SPEC, self.DEVICE, b) / b
            for b in (1, 2, 4, 8)
        ]
        assert per_frame == sorted(per_frame, reverse=True)
        assert per_frame[0] > per_frame[-1]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            batched_inference_latency_ms(self.SPEC, self.DEVICE, 0)


class TestStreamIsolation:
    def _two_sessions(self, model):
        registry = StreamRegistry(model)
        a = registry.register(
            "a", iter([]), LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3)), deadline_ms=33.3
        )
        b = registry.register(
            "b", iter([]), LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3)), deadline_ms=33.3
        )
        return registry, a, b

    def test_duplicate_id_rejected(self, trained_tiny_model):
        registry, _, _ = self._two_sessions(trained_tiny_model)
        with pytest.raises(ValueError):
            registry.register(
                "a",
                iter([]),
                NoAdapt(trained_tiny_model),
                deadline_ms=33.3,
            )

    def test_adaptation_stays_private(self, trained_tiny_model, rng):
        """Stream A adapting must not leak into stream B's snapshot."""
        _, a, b = self._two_sessions(trained_tiny_model)
        h, w = trained_tiny_model.config.input_hw
        baseline = [_buffers(b)]

        a.swap_in()
        for _ in range(3):
            frame = rng.normal(0.7, 0.3, size=(3, h, w)).astype(np.float32)
            a.adapter.observe_frame(frame)
        a.swap_out()

        for before, after in zip(baseline, [_buffers(b)]):
            np.testing.assert_array_equal(before["running_mean"], after["running_mean"])
        # but A's own snapshot moved
        moved = any(
            np.abs(bufs["running_mean"] - base["running_mean"]).max() > 1e-6
            for bufs, base in zip([_buffers(a)], baseline)
        )
        assert moved

    def test_swap_roundtrip_restores_model(self, trained_tiny_model, rng):
        snapshot = BNStateSnapshot(BNLayout(trained_tiny_model))
        reference = trained_tiny_model.state_dict()
        # dirty the model's BN state
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-2))
        h, w = trained_tiny_model.config.input_hw
        adapter.observe_frame(rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32))
        # swapping the pristine snapshot back restores every BN tensor
        snapshot.swap_in()
        restored = trained_tiny_model.state_dict()
        for key, value in reference.items():
            np.testing.assert_array_equal(value, restored[key], err_msg=key)

    def test_batched_forward_matches_serial(self, trained_tiny_model, rng):
        """The per-sample BN fold must reproduce per-stream eval forwards."""
        _, a, b = self._two_sessions(trained_tiny_model)
        h, w = trained_tiny_model.config.input_hw
        # diverge stream A
        a.swap_in()
        a.adapter.observe_frame(rng.normal(0.8, 0.4, size=(3, h, w)).astype(np.float32))
        a.swap_out()

        frames = rng.normal(0.5, 0.2, size=(2, 3, h, w)).astype(np.float32)
        serial = []
        for session, frame in zip((a, b), frames):
            session.swap_in()
            with nn.no_grad():
                serial.append(trained_tiny_model(nn.Tensor(frame[None])).numpy()[0])
            session.swap_out()
        with per_stream_inference([a, b]):
            with nn.no_grad():
                batched = trained_tiny_model(nn.Tensor(frames)).numpy()
        np.testing.assert_allclose(batched, np.stack(serial), atol=1e-10)
        # the two streams genuinely differ, so the match is non-trivial
        assert np.abs(serial[0] - serial[1]).max() > 1e-6

    @pytest.mark.parametrize("deadline_ms, met", [
        (float(np.nextafter(33.3, np.inf)), True), (33.3, True),
        (float(np.nextafter(33.3, 0.0)), False),
    ])
    def test_a_latency_at_the_deadline_meets_it(
        self, deadline_ms, met, trained_tiny_model
    ):
        """The fleet loop's frame record: met means ``latency <=
        deadline``, a frame served exactly at its deadline included."""
        from types import SimpleNamespace

        session = StreamRegistry(trained_tiny_model).register(
            "a", iter([]), NoAdapt(trained_tiny_model),
            deadline_ms=deadline_ms,
        )
        frame = SimpleNamespace(timestamp=0.0, domain="d")
        record = session.record(frame, 33.3, 1.0, None)
        assert record.deadline_ms == deadline_ms
        assert record.deadline_met is met
        assert session.report.deadline_miss_rate == (0.0 if met else 1.0)

    def test_a_non_positive_deadline_is_refused(self, trained_tiny_model):
        registry = StreamRegistry(trained_tiny_model)
        for deadline_ms in (0.0, -1.0):
            with pytest.raises(ValueError, match="deadline"):
                registry.register(
                    "a", iter([]), NoAdapt(trained_tiny_model),
                    deadline_ms=deadline_ms,
                )

    def test_per_stream_inference_cleans_up(self, trained_tiny_model):
        _, a, b = self._two_sessions(trained_tiny_model)
        with per_stream_inference([a, b]):
            assert all(
                m.per_sample_stats is not None for m in a.bn_state.layout.modules
            )
        assert all(m.per_sample_stats is None for m in a.bn_state.layout.modules)


class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency_model": "gpu"},
            {"deadline_ms": 0.0},
            {"frame_period_ms": -1.0},
            {"decode_method": "nms"},
            {"max_batch_size": 0},
            {"adapt_stride": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)

    def test_period_defaults_to_deadline(self):
        assert FleetConfig().period_ms == pytest.approx(FleetConfig().deadline_ms)
        assert FleetConfig(frame_period_ms=10.0).period_ms == 10.0


class TestFleetServer:
    DEVICE = ORIN_POWER_MODES["orin-60w"]
    SPEC = get_config("paper-r18").to_spec()

    def _frame_lists(self, benchmark, count, frames):
        return [
            benchmark.target_stream(rng=np.random.default_rng(200 + i))
            .take(frames)
            .samples
            for i in range(count)
        ]

    def _server(self, model, **config_kwargs):
        return FleetServer(
            model,
            FleetConfig(latency_model="orin", **config_kwargs),
            device=self.DEVICE,
            spec=self.SPEC,
        )

    def test_orin_mode_requires_spec(self, trained_tiny_model):
        with pytest.raises(ValueError):
            FleetServer(trained_tiny_model, FleetConfig(latency_model="orin"))

    def test_run_without_streams_rejected(self, trained_tiny_model):
        with pytest.raises(ValueError):
            self._server(trained_tiny_model).run(1)

    def test_accuracy_matches_serial_pipelines(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Acceptance: per-stream accuracy within noise of the serial twin.

        Uses the tick-synchronous oracle (``tick_oracle.run_ticks``):
        serial pipelines adapt between every pair of consecutive frames,
        which only the one-frame-per-stream-per-tick loop guarantees
        (the event loop legitimately folds a backlogged stream's
        consecutive frames into one batch, serving frame i+1 before
        frame i's step applies).
        """
        frames = 8
        frame_lists = self._frame_lists(tiny_benchmark, 3, frames)
        pristine = trained_tiny_model.state_dict()

        serial = []
        for frame_list in frame_lists:
            trained_tiny_model.load_state_dict(pristine)
            adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
            pipeline = RealTimePipeline(
                trained_tiny_model,
                adapter,
                PipelineConfig(latency_model="orin"),
                device=self.DEVICE,
                spec=self.SPEC,
            )
            serial.append(pipeline.run(iter(frame_list), frames).mean_accuracy)

        trained_tiny_model.load_state_dict(pristine)
        server = self._server(trained_tiny_model)
        for i, frame_list in enumerate(frame_lists):
            server.add_stream(
                f"s{i}", iter(frame_list), adapter_config=LDBNAdaptConfig(lr=1e-3)
            )
        report = run_ticks(server, frames)

        fleet = list(report.per_stream_accuracy.values())
        assert fleet == pytest.approx(serial, abs=0.02)
        assert report.total_frames == 3 * frames

    def test_streams_adapt_independently(self, trained_tiny_model, tiny_benchmark):
        frame_lists = self._frame_lists(tiny_benchmark, 2, 4)
        server = self._server(trained_tiny_model)
        a = server.add_stream("a", iter(frame_lists[0]))
        b = server.add_stream("b", iter(frame_lists[1]))
        server.run(4)
        assert a.adapter.steps_taken == 4
        assert b.adapter.steps_taken == 4
        gap = max(
            np.abs(x["running_mean"] - y["running_mean"]).max()
            for x, y in zip([_buffers(a)], [_buffers(b)])
        )
        assert gap > 1e-6  # different streams, different adapted stats

    def test_short_stream_truncates_gracefully(
        self, trained_tiny_model, tiny_benchmark
    ):
        frame_lists = self._frame_lists(tiny_benchmark, 2, 6)
        server = self._server(trained_tiny_model)
        server.add_stream("short", iter(frame_lists[0][:2]))
        server.add_stream("long", iter(frame_lists[1]))
        report = server.run(6)
        assert report.stream_reports["short"].num_frames == 2
        assert report.stream_reports["short"].truncated
        assert report.stream_reports["long"].num_frames == 6
        assert not report.stream_reports["long"].truncated
        assert report.truncated_streams == ["short"]

    def test_adapt_stride_staggers_phases(self, trained_tiny_model, tiny_benchmark):
        frame_lists = self._frame_lists(tiny_benchmark, 2, 6)
        server = self._server(trained_tiny_model, adapt_stride=2)
        a = server.add_stream("a", iter(frame_lists[0]))
        b = server.add_stream("b", iter(frame_lists[1]))
        assert (a.adapt_phase, b.adapt_phase) == (0, 1)
        report = server.run(6)
        adapted_a = [f.adapted for f in report.stream_reports["a"].frames]
        adapted_b = [f.adapted for f in report.stream_reports["b"].frames]
        assert adapted_a == [True, False] * 3
        assert adapted_b == [False, True] * 3

    def test_queueing_latency_visible_under_load(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Paper-scale adaptation for 3 streams overloads one Orin: recorded
        latencies must reflect the queueing, not just service time."""
        frame_lists = self._frame_lists(tiny_benchmark, 3, 6)
        server = self._server(trained_tiny_model)
        for i, frame_list in enumerate(frame_lists):
            server.add_stream(f"s{i}", iter(frame_list))
        report = server.run(6)
        assert report.deadline_miss_rate > 0.5
        assert report.p99_latency_ms > report.p50_latency_ms
        assert report.elapsed_ms > 6 * FleetConfig().deadline_ms

    def test_no_adapt_baseline_stream_served(self, trained_tiny_model, tiny_benchmark):
        """Adapters without observe_frame (NoAdapt) fall back to adapt(),
        exactly like RealTimePipeline — the un-adapted baseline vehicle."""
        frame_lists = self._frame_lists(tiny_benchmark, 2, 3)
        server = self._server(trained_tiny_model)
        server.add_stream("frozen", iter(frame_lists[0]), adapter=NoAdapt(trained_tiny_model))
        server.add_stream("adapting", iter(frame_lists[1]))
        report = server.run(3)
        assert report.stream_reports["frozen"].num_frames == 3
        assert report.stream_reports["frozen"].adaptation_steps == 3  # no-op steps
        assert report.stream_reports["adapting"].adaptation_steps == 3

    def test_wallclock_mode_needs_no_spec(self, trained_tiny_model, tiny_benchmark):
        frame_lists = self._frame_lists(tiny_benchmark, 2, 3)
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9),
        )
        for i, frame_list in enumerate(frame_lists):
            server.add_stream(f"s{i}", iter(frame_list))
        report = server.run(3)
        assert report.total_frames == 6
        assert all(
            f.latency_ms > 0
            for stream_report in report.stream_reports.values()
            for f in stream_report.frames
        )
        assert report.elapsed_ms > 0
        assert report.frames_per_second > 0


# the one definition of "identical per-stream outputs" — shared with the
# benchmark's async/sync parity guard
from repro.experiments.bench_serve import per_stream_outputs as _per_frame_outputs


class TestAsyncIngest:
    DEVICE = ORIN_POWER_MODES["orin-60w"]
    SPEC = get_config("paper-r18").to_spec()

    def _frame_lists(self, benchmark, count, frames, seed=200):
        return [
            benchmark.target_stream(rng=np.random.default_rng(seed + i))
            .take(frames)
            .samples
            for i in range(count)
        ]

    def _run(
        self, model, pristine, frame_lists, ticks, arrivals=None,
        run=FleetServer.run, **cfg
    ):
        model.load_state_dict(pristine)
        config = FleetConfig(**cfg)
        server = (
            FleetServer(model, config, device=self.DEVICE, spec=self.SPEC)
            if config.latency_model == "orin"
            else FleetServer(model, config)
        )
        sessions = []
        for i, frames in enumerate(frame_lists):
            sessions.append(
                server.add_stream(
                    f"s{i}",
                    iter(list(frames)),
                    adapter_config=LDBNAdaptConfig(lr=1e-3),
                    arrival=arrivals[i] if arrivals else None,
                )
            )
        return run(server, ticks), sessions

    def test_zero_jitter_async_matches_sync_exactly(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Satellite acceptance: the refactor guard.  A fleet the device
        keeps up with must produce bit-identical per-stream results
        through both ingest paths."""
        frame_lists = self._frame_lists(tiny_benchmark, 2, 8)
        pristine = trained_tiny_model.state_dict()
        reports = {}
        for ingest, run in INGEST_LOOPS:
            reports[ingest], _ = self._run(
                trained_tiny_model, pristine, frame_lists, 8,
                latency_model="orin", adapt_stride=4, run=run,
            )
        assert _per_frame_outputs(reports["async"]) == _per_frame_outputs(
            reports["sync"]
        )
        assert reports["async"].batch_sizes == reports["sync"].batch_sizes
        assert reports["async"].queue_depths == reports["sync"].queue_depths
        assert reports["async"].total_frames == 16

    def test_wallclock_zero_jitter_parity(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Wallclock serving groups arrivals by timestamp, so zero-jitter
        async reproduces the synchronous cohorts (and their fused
        adaptation groups, hence identical per-stream states)."""
        frame_lists = self._frame_lists(tiny_benchmark, 3, 6)
        pristine = trained_tiny_model.state_dict()
        outputs = {}
        for ingest, run in INGEST_LOOPS:
            report, sessions = self._run(
                trained_tiny_model, pristine, frame_lists, 6,
                latency_model="wallclock", deadline_ms=1e9, run=run,
            )
            outputs[ingest] = (
                [
                    [(f.accuracy, f.entropy) for f in r.frames]
                    for r in report.stream_reports.values()
                ],
                report.batch_sizes,
                report.adapt_batch_sizes,
                [[_affine(s)] for s in sessions],
            )
        a, s = outputs["async"], outputs["sync"]
        assert a[0] == s[0]
        assert a[1] == s[1] and a[2] == s[2]
        for batched, serial in zip(a[3], s[3]):
            for x, y in zip(batched, serial):
                np.testing.assert_array_equal(x, y)

    def test_jittered_arrivals_deterministic_and_accounted(
        self, trained_tiny_model, tiny_benchmark
    ):
        frame_lists = self._frame_lists(tiny_benchmark, 2, 10)
        pristine = trained_tiny_model.state_dict()
        kwargs = dict(
            latency_model="orin", jitter_ms=15.0, drop_rate=0.2,
            phase_spread_ms=5.0, arrival_seed=7,
        )
        first, _ = self._run(trained_tiny_model, pristine, frame_lists, 10, **kwargs)
        again, _ = self._run(trained_tiny_model, pristine, frame_lists, 10, **kwargs)
        # seeded arrival processes: the whole run is exactly repeatable
        assert _per_frame_outputs(first) == _per_frame_outputs(again)
        assert first.total_dropped_frames == again.total_dropped_frames
        # dropped frames are consumed from the camera but never served
        assert first.total_dropped_frames > 0
        assert first.total_frames + first.total_dropped_frames == 2 * 10
        for sid, stream_report in first.stream_reports.items():
            assert (
                stream_report.num_frames + first.dropped_frames[sid] == 10
            )

    def test_phase_spread_staggers_cohorts(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Explicit arrival models: spread phases split the cohort."""
        frame_lists = self._frame_lists(tiny_benchmark, 2, 6)
        pristine = trained_tiny_model.state_dict()
        period = FleetConfig().period_ms
        staggered, _ = self._run(
            trained_tiny_model, pristine, frame_lists, 6,
            latency_model="wallclock", deadline_ms=1e9,
            arrivals=[
                ArrivalModel(period_ms=period, phase_ms=i * period / 2)
                for i in range(2)
            ],
        )
        aligned, _ = self._run(
            trained_tiny_model, pristine, frame_lists, 6,
            latency_model="wallclock", deadline_ms=1e9,
        )
        assert staggered.mean_batch_size == pytest.approx(1.0)
        assert aligned.mean_batch_size == pytest.approx(2.0)

    def test_arrival_model_validation(self):
        with pytest.raises(ValueError):
            ArrivalModel(period_ms=0.0)
        with pytest.raises(ValueError):
            ArrivalModel(period_ms=33.3, jitter_ms=-1.0)
        with pytest.raises(ValueError):
            ArrivalModel(period_ms=33.3, drop_rate=1.0)


class TestSlackAdmissionFleet:
    DEVICE = ORIN_POWER_MODES["orin-60w"]
    SPEC = get_config("paper-r18").to_spec()

    def _run(self, model, pristine, benchmark, ticks, streams=3, **cfg):
        model.load_state_dict(pristine)
        server = FleetServer(
            model,
            FleetConfig(latency_model="orin", **cfg),
            device=self.DEVICE,
            spec=self.SPEC,
        )
        sessions = [
            server.add_stream(
                f"s{i}",
                iter(
                    benchmark.target_stream(rng=np.random.default_rng(600 + i))
                    .take(ticks)
                    .samples
                ),
                adapter_config=LDBNAdaptConfig(lr=1e-3),
            )
            for i in range(streams)
        ]
        return server.run(ticks), sessions

    def test_fused_vs_serial_state_parity_under_admission_skips(
        self, trained_tiny_model, tiny_benchmark, groups_of_one
    ):
        """Satellite acceptance: with the controller pinned permanently
        hot, only debt-forced catch-up steps run — a decision trace that
        is independent of adaptation costs, so the fused and serial
        fleets grant identically and their per-stream states must match
        to float precision."""
        pristine = trained_tiny_model.state_dict()
        always_hot = AdmissionConfig(
            slack_low_ms=float("inf"), slack_high_ms=float("inf"), max_debt=2
        )
        runs = {}
        for fused in (True, False):
            if not fused:
                groups_of_one()
            report, sessions = self._run(
                trained_tiny_model, pristine, tiny_benchmark, 9,
                deadline_ms=1e9, frame_period_ms=33.3,
                admission=always_hot,
            )
            runs[fused] = (
                report,
                [[_affine(s)] for s in sessions],
            )
        fused_report, fused_states = runs[True]
        serial_report, serial_states = runs[False]
        # the always-hot controller skips two frames then force-grants,
        # in lockstep across streams — those catch-up steps fuse
        assert fused_report.adaptation_steps == serial_report.adaptation_steps
        assert fused_report.adaptation_steps == 9  # 3 streams x 3 steps
        assert fused_report.adapt_batch_sizes == [3, 3, 3]
        assert serial_report.adapt_batch_sizes == []
        assert fused_report.admission_grants == serial_report.admission_grants
        assert fused_report.admission_skips == serial_report.admission_skips
        for batched, serial in zip(fused_states, serial_states):
            for a, b in zip(batched, serial):
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_slack_sheds_load_and_protects_deadlines(
        self, trained_tiny_model, tiny_benchmark
    ):
        """An overloaded jittered fleet: slack admission must miss far
        fewer deadlines than adapt-every-frame while still adapting."""
        pristine = trained_tiny_model.state_dict()
        arrival = dict(jitter_ms=10.0, phase_spread_ms=7.0)
        slack, _ = self._run(
            trained_tiny_model, pristine, tiny_benchmark, 12,
            admission=AdmissionConfig(), **arrival,
        )
        static, _ = self._run(
            trained_tiny_model, pristine, tiny_benchmark, 12,
            adapt_stride=1, **arrival,
        )
        assert static.deadline_miss_rate > 0.8  # the fleet is overloaded
        assert slack.deadline_miss_rate < static.deadline_miss_rate / 2
        assert slack.adaptation_steps > 0  # sheds, but never starves out
        assert 0.0 < slack.admission_grant_rate < 1.0
        assert static.admission_grant_rate == pytest.approx(1.0)

    def test_admission_counters_are_consistent(
        self, trained_tiny_model, tiny_benchmark
    ):
        pristine = trained_tiny_model.state_dict()
        report, sessions = self._run(
            trained_tiny_model, pristine, tiny_benchmark, 8,
            jitter_ms=8.0, admission=AdmissionConfig(),
        )
        for session in sessions:
            served = report.stream_reports[session.stream_id].num_frames
            # every served frame got exactly one admission decision
            assert session.adapt_grants + session.adapt_skips == served
            # a step requires a grant (buffering grants may outnumber steps)
            assert (
                report.stream_reports[session.stream_id].adaptation_steps
                <= session.adapt_grants
            )
        rows = {row["stream"]: row for row in report.per_stream_rows()}
        for session in sessions:
            assert rows[session.stream_id]["adapt_grants"] == session.adapt_grants
            assert rows[session.stream_id]["adapt_skips"] == session.adapt_skips

    def test_buffer_drift_refusal_happens_before_staging(
        self, trained_tiny_model, monkeypatch
    ):
        """A feed budgeted as free buffering onto a full buffer (after a
        denied step) must be withheld at plan time, so it can never be
        staged into a fused group and stepped unbudgeted."""
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9,
                        admission=AdmissionConfig()),
        )
        session = server.add_stream(
            "s0", iter(()), adapter_config=LDBNAdaptConfig(batch_size=2)
        )
        worker = server.workers[0]
        image = _learnable_image(trained_tiny_model)
        session.adapter.observe_frame(image)
        assert session.adapter.pending_frames == 1  # buffer full: next feeds step
        # a backlogged launch of two frames: admission plans the first to
        # step and the second to buffer after it
        plan = _launch(session, image, image)
        admit = worker.admission.admit
        monkeypatch.setattr(
            worker.admission, "admit",  # deny the step, grant the buffering
            lambda candidates, *a, **k: [not c.would_step for c in candidates],
        )
        # the denied step left the buffer full: the "free" feed would
        # step, so it is withheld, not silently stepped
        assert worker._plan_adaptation(plan, 0.0, 0.0, 0, None) == (
            [False, False], {}
        )
        # granted as planned, the step is fed and staged, the buffering too
        monkeypatch.setattr(worker.admission, "admit", admit)
        fed, group_of = worker._plan_adaptation(plan, 0.0, 0.0, 0, None)
        assert fed == [True, True] and list(group_of) == [0]
        assert group_of[0].sessions == [session]

    def test_slack_hysteresis_latches_between_thresholds(self):
        from repro.serve import SlackAdmission, StepCandidate

        controller = SlackAdmission(
            AdmissionConfig(slack_low_ms=2.0, slack_high_ms=8.0),
            lambda n: 1.0,
        )
        batch = [StepCandidate(stream_id="s0", would_step=True, serial_cost_ms=1.0)]

        def step_granted():
            return controller.admit(batch, budget_ms=1e9, queue_depth=0)[0]

        assert step_granted()  # no observations yet: not hot
        controller.observe_slack(-5.0)  # EWMA below slack_low -> hot
        assert not step_granted()
        # recovery into the hysteresis band must NOT clear the hot latch
        controller.ewma_slack_ms = 5.0
        assert not step_granted()
        # only recovering past slack_high clears it
        controller.ewma_slack_ms = 10.0
        assert step_granted()

    @staticmethod
    def _packer(partner=True, **config):
        """A controller over one solo fused step of ``s0`` (its group of
        one in the batch), with ``s1`` registered under the same fuse key
        unless ``partner`` is False."""
        from repro.serve import SlackAdmission, StepCandidate

        controller = SlackAdmission(
            AdmissionConfig(pack_patience=2, **config), lambda n: 1.0 + 0.5 * n
        )
        if partner:
            controller.register_stream("s1", "key")
        step = StepCandidate(stream_id="s0", would_step=True, fuse_key="key",
                             serial_cost_ms=1.5)
        return controller, step

    def test_phase_packing_defers_a_solo_step_up_to_its_patience(self):
        controller, step = self._packer()
        grants = [controller.admit([step], budget_ms=1e9, queue_depth=2)[0]
                  for _ in range(3)]
        assert grants == [False, False, True]
        assert controller.peek_stream("s0")["deferrals"] == 0
        assert controller.debt("s0") == 0

    @pytest.mark.parametrize("partner, depth", [(False, 2), (True, 1)],
                             ids=["no-partner", "queue-depth-1"])
    def test_phase_packing_grants_with_nothing_to_pack(self, partner, depth):
        controller, step = self._packer(partner=partner)
        assert controller.admit([step], budget_ms=1e9, queue_depth=depth)
        assert controller.peek_stream("s0")["deferrals"] == 0

    @pytest.mark.parametrize("debt, granted", [(7, False), (8, True), (9, True)])
    def test_phase_packing_yields_to_max_debt(self, debt, granted):
        controller, step = self._packer(max_debt=8)
        controller.import_stream("s0", {"static_key": "key", "debt": debt})
        assert controller.admit(
            [step], budget_ms=1e9, queue_depth=2) == [granted]

    def test_phase_packing_never_grants_an_infeasible_step(self):
        controller, step = self._packer(max_debt=3, headroom_ms=0.0)
        grants = [controller.admit([step], budget_ms=1.4, queue_depth=2)[0]
                  for _ in range(8)]
        assert grants == [False] * 8
        assert controller.debt("s0") == 8

    def test_static_fuse_key(self, trained_tiny_model):
        sgd = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(batch_size=2))
        assert static_fuse_key(sgd) == ("ldbn-sgd", 2, sgd.step_engine())
        assert static_fuse_key(NoAdapt(trained_tiny_model)) is None


class TestDevicePool:
    """Tentpole acceptance: sharding, placement, migration, parity."""

    DEVICE = ORIN_POWER_MODES["orin-60w"]
    SPEC = get_config("paper-r18").to_spec()

    def _frame_lists(self, benchmark, count, frames, seed=200):
        return [
            benchmark.target_stream(rng=np.random.default_rng(seed + i))
            .take(frames)
            .samples
            for i in range(count)
        ]

    def _run(
        self, model, pristine, frame_lists, ticks,
        stream_ids=None, pins=None, device_pool=None,
        run=FleetServer.run, **cfg
    ):
        model.load_state_dict(pristine)
        server = FleetServer(
            model,
            FleetConfig(latency_model="orin", **cfg),
            device=self.DEVICE,
            spec=self.SPEC,
            device_pool=device_pool,
        )
        sessions = []
        for i, frames in enumerate(frame_lists):
            sessions.append(
                server.add_stream(
                    stream_ids[i] if stream_ids else f"s{i}",
                    iter(list(frames)),
                    adapter_config=LDBNAdaptConfig(lr=1e-3),
                    device=pins[i] if pins else None,
                )
            )
        return run(server, ticks), server, sessions

    def test_default_pool_is_single_device(self, trained_tiny_model):
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="orin"),
            device=self.DEVICE,
            spec=self.SPEC,
        )
        assert FleetConfig().devices == 1
        assert len(server.workers) == 1
        assert server.scheduler is server.workers[0].scheduler

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(devices=0)
        with pytest.raises(ValueError):
            FleetConfig(placement="hash-ring")

    def test_pool_size_mismatch_rejected(self, trained_tiny_model):
        with pytest.raises(ValueError):
            FleetServer(
                trained_tiny_model,
                FleetConfig(latency_model="orin", devices=3),
                spec=self.SPEC,
                device_pool=[self.DEVICE, self.DEVICE],
            )
        with pytest.raises(ValueError):
            FleetServer(
                trained_tiny_model,
                FleetConfig(latency_model="orin"),
                spec=self.SPEC,
                device_pool=[],
            )

    def test_pinned_policy_requires_device(self, trained_tiny_model, tiny_benchmark):
        frames = self._frame_lists(tiny_benchmark, 1, 2)
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="orin", devices=2, placement="pinned"),
            device=self.DEVICE,
            spec=self.SPEC,
        )
        with pytest.raises(ValueError):
            server.add_stream("s0", iter(frames[0]))
        session = server.add_stream("s1", iter(frames[0]), device=1)
        assert server.device_of("s1") == 1
        assert server.workers[1].sessions["s1"] is session
        with pytest.raises(ValueError):
            server.add_stream("s2", iter(frames[0]), device=2)  # out of range

    def test_round_robin_placement(self, trained_tiny_model, tiny_benchmark):
        frame_lists = self._frame_lists(tiny_benchmark, 3, 2)
        _, server, _ = self._run(
            trained_tiny_model, trained_tiny_model.state_dict(), frame_lists,
            2, devices=2, placement="round_robin",
        )
        assert [server.device_of(f"s{i}") for i in range(3)] == [0, 1, 0]

    def test_least_loaded_balances_homogeneous_pool(
        self, trained_tiny_model, tiny_benchmark
    ):
        frame_lists = self._frame_lists(tiny_benchmark, 4, 2)
        _, server, _ = self._run(
            trained_tiny_model, trained_tiny_model.state_dict(), frame_lists,
            2, devices=2, placement="least_loaded",
        )
        placements = [server.device_of(f"s{i}") for i in range(4)]
        assert sorted(placements) == [0, 0, 1, 1]

    def test_worker_quotes_the_roofline_once_per_size(
        self, trained_tiny_model, monkeypatch
    ):
        """Pure layer walks are memoised per worker; slow-downs still scale."""
        from repro.serve import pool as pool_module

        calls = {"infer": 0, "adapt": 0}
        infer, adapt = (
            pool_module.batched_inference_latency_ms,
            pool_module.ld_bn_adapt_latency,
        )

        def counted_infer(*args, **kwargs):
            calls["infer"] += 1
            return infer(*args, **kwargs)

        def counted_adapt(*args, **kwargs):
            calls["adapt"] += 1
            return adapt(*args, **kwargs)

        monkeypatch.setattr(
            pool_module, "batched_inference_latency_ms", counted_infer
        )
        monkeypatch.setattr(pool_module, "ld_bn_adapt_latency", counted_adapt)
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="orin", devices=2),
            device=self.DEVICE,
            spec=self.SPEC,
        )
        worker, other = server.workers
        quotes = [(worker.latency_fn(b), worker.adapt_cost_fn(b)) for b in (1, 2)]
        assert calls == {"infer": 2, "adapt": 2}
        for _ in range(3):
            assert [
                (worker.latency_fn(b), worker.adapt_cost_fn(b)) for b in (1, 2)
            ] == quotes
        assert calls == {"infer": 2, "adapt": 2}
        # bitwise the direct walk, and each worker owns its memo
        assert quotes[0] == (
            infer(self.SPEC, self.DEVICE, 1, threads=1),
            adapt(self.SPEC, self.DEVICE, 1, threads=1).adaptation_ms,
        )
        other.latency_fn(1)
        assert calls["infer"] == 3
        # fault injection scales the cached quote without re-walking
        worker.set_slowdown(1.5)
        assert worker.latency_fn(1) == 1.5 * quotes[0][0]
        assert worker.adapt_cost_fn(2) == 1.5 * quotes[1][1]
        assert calls == {"infer": 3, "adapt": 2}

    def test_heterogeneous_pool_prices_per_device(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Mixed power modes: each worker quotes its own roofline costs."""
        from repro.hw import build_device_pool, ld_bn_adapt_latency

        pool = build_device_pool("orin-60w,orin-15w")
        frame_lists = self._frame_lists(tiny_benchmark, 2, 2)
        _, server, sessions = self._run(
            trained_tiny_model, trained_tiny_model.state_dict(), frame_lists,
            2, pins=[0, 1], device_pool=pool,
        )
        fast, slow = (
            server.workers[server.device_of(s.stream_id)].pricing.adapt_ms(
                s.adapter.batch_size)
            for s in sessions
        )
        assert fast == pytest.approx(
            ld_bn_adapt_latency(self.SPEC, pool[0], 1).adaptation_ms
        )
        assert slow == pytest.approx(
            ld_bn_adapt_latency(self.SPEC, pool[1], 1).adaptation_ms
        )
        assert slow > fast
        # the slow device also plans slower batches
        assert server.workers[1].latency_fn(1) > server.workers[0].latency_fn(1)
        # and least-loaded placement would prefer the faster device
        costs = [
            w.estimate_cost_ms(sessions[0].adapter) for w in server.workers
        ]
        assert costs[1] > costs[0]

    def test_all_pinned_to_one_device_matches_single_device_exactly(
        self, trained_tiny_model, tiny_benchmark
    ):
        """A 2-device pool with every session pinned to device 0 must
        reproduce the 1-device fleet bitwise — the coordinator loop adds
        nothing when only one device serves."""
        frame_lists = self._frame_lists(tiny_benchmark, 3, 6)
        pristine = trained_tiny_model.state_dict()
        kwargs = dict(jitter_ms=9.0, drop_rate=0.1, arrival_seed=3)
        single, _, _ = self._run(
            trained_tiny_model, pristine, frame_lists, 6, devices=1, **kwargs
        )
        pooled, _, _ = self._run(
            trained_tiny_model, pristine, frame_lists, 6,
            devices=2, pins=[0, 0, 0], **kwargs,
        )
        assert _per_frame_outputs(pooled) == _per_frame_outputs(single)
        assert pooled.batch_sizes == single.batch_sizes
        assert pooled.queue_depths == single.queue_depths
        assert pooled.device_reports[1].frames_served == 0

    def test_pinned_split_equals_independent_fleets_bitwise(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Satellite acceptance (RNG namespacing): stream-id-keyed
        arrival seeds make a sharded fleet decompose exactly — a
        4-stream 2-device pinned pool reproduces two independent
        2-stream single-device fleets bitwise, jitter and drops
        included."""
        frame_lists = self._frame_lists(tiny_benchmark, 4, 6)
        pristine = trained_tiny_model.state_dict()
        kwargs = dict(jitter_ms=12.0, drop_rate=0.15, arrival_seed=11)
        combined, _, _ = self._run(
            trained_tiny_model, pristine, frame_lists, 6,
            devices=2, pins=[0, 0, 1, 1], **kwargs,
        )
        first, _, _ = self._run(
            trained_tiny_model, pristine, frame_lists[:2], 6,
            stream_ids=["s0", "s1"], **kwargs,
        )
        second, _, _ = self._run(
            trained_tiny_model, pristine, frame_lists[2:], 6,
            stream_ids=["s2", "s3"], **kwargs,
        )
        expected = _per_frame_outputs(first) + _per_frame_outputs(second)
        assert _per_frame_outputs(combined) == expected
        # at least one stream actually jittered into a drop somewhere,
        # so the equality exercised the seeded arrival processes
        assert combined.total_dropped_frames > 0
        assert (
            combined.total_dropped_frames
            == first.total_dropped_frames + second.total_dropped_frames
        )

    def test_sync_ingest_parity_on_pool(self, trained_tiny_model, tiny_benchmark):
        """Pool-of-N async/sync parity: the per-worker tick drain and
        the merged event loop see identical arrivals at zero jitter."""
        frame_lists = self._frame_lists(tiny_benchmark, 4, 6)
        pristine = trained_tiny_model.state_dict()
        reports = {}
        for ingest, run in INGEST_LOOPS:
            reports[ingest], _, _ = self._run(
                trained_tiny_model, pristine, frame_lists, 6,
                devices=2, adapt_stride=4, run=run,
            )
        assert _per_frame_outputs(reports["async"]) == _per_frame_outputs(
            reports["sync"]
        )
        assert reports["async"].batch_sizes == reports["sync"].batch_sizes

    def test_migration_drains_hot_device(self, trained_tiny_model, tiny_benchmark):
        """Three paper-scale streams pinned onto a 30 W device overrun it;
        the planner must move load to the idle 60 W device, and the
        moved session's state must survive bitwise."""
        from repro.hw import build_device_pool
        from repro.serve import MigrationConfig

        pool = build_device_pool("orin-60w,orin-30w")
        frame_lists = self._frame_lists(tiny_benchmark, 3, 20)
        report, server, sessions = self._run(
            trained_tiny_model, trained_tiny_model.state_dict(), frame_lists,
            20, pins=[1, 1, 1], device_pool=pool, devices=2,
            jitter_ms=8.0, phase_spread_ms=11.0,
            admission=AdmissionConfig(),
            migration=MigrationConfig(cooldown_ms=300.0, min_observations=6),
        )
        assert report.total_migrations >= 1
        event = report.migration_events[0]
        assert event["source"] == 1 and event["target"] == 0
        moved = server.registry.get(event["stream"])
        assert moved.migrations >= 1
        assert server.device_of(event["stream"]) != 1 or moved.migrations >= 2
        # per-device accounting matches the event log
        assert (
            sum(d.migrations_out for d in report.device_reports)
            == sum(d.migrations_in for d in report.device_reports)
            == report.total_migrations
        )
        # the fleet-wide frame accounting survived the moves
        assert report.total_frames + report.total_dropped_frames == 3 * 20
        assert report.summary()["migrations"] == float(report.total_migrations)

    def test_migrate_preserves_session_state_bitwise(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Unit-level: _migrate moves snapshot/optimizer/admission state
        untouched and re-prices only the modeled adaptation cost."""
        from repro.hw import build_device_pool, ld_bn_adapt_latency

        pool = build_device_pool("orin-60w,orin-15w")
        frame_lists = self._frame_lists(tiny_benchmark, 1, 4)
        _, server, (session,) = self._run(
            trained_tiny_model, trained_tiny_model.state_dict(), frame_lists,
            4, pins=[0], device_pool=pool, devices=2,
            admission=AdmissionConfig(),
        )
        params_before = [_affine(session)]
        buffers_before = [_buffers(session)]
        opt_state_before = {
            key: {k: np.array(v) for k, v in slot.items()}
            for key, slot in session.adapter.optimizer.state.items()
        }
        server.workers[0].admission._debt["s0"] = 5
        server._migrate("s0", 0, 1)
        assert server.device_of("s0") == 1
        assert "s0" not in server.workers[0].sessions
        assert server.workers[1].sessions["s0"] is session
        for before, after in zip(params_before, [_affine(session)]):
            np.testing.assert_array_equal(before, after)
        for before, after in zip(buffers_before, [_buffers(session)]):
            for key in before:
                np.testing.assert_array_equal(before[key], after[key])
        for key, slot in opt_state_before.items():
            for k, v in slot.items():
                np.testing.assert_array_equal(
                    v, session.adapter.optimizer.state[key][k]
                )
        # admission debt followed the session to the new controller
        assert server.workers[1].admission.debt("s0") == 5
        assert server.workers[0].admission.debt("s0") == 0
        # the adaptation price is the slower device's
        worker = server.workers[server.device_of("s0")]
        assert worker.pricing.adapt_ms(session.adapter.batch_size) == (
            pytest.approx(ld_bn_adapt_latency(self.SPEC, pool[1], 1).adaptation_ms)
        )


class TestBuildsEachThingOnce:
    """ISSUE 18: one event loop, one compiled engine pair per pool,
    pricing that holds no worker."""

    DEVICE = ORIN_POWER_MODES["orin-60w"]
    SPEC = get_config("paper-r18").to_spec()

    def _frames(self, benchmark, stream, count):
        return iter(
            benchmark.target_stream(rng=np.random.default_rng(900 + stream))
            .take(count)
            .samples
        )

    def _server(self, model, tracer=None, **cfg):
        return FleetServer(
            model, FleetConfig(latency_model="orin", **cfg),
            device=self.DEVICE, spec=self.SPEC, tracer=tracer,
        )

    def test_dropped_server_is_freed_by_refcount(
        self, trained_tiny_model, tiny_benchmark, tmp_path
    ):
        """No reference cycle in ``repro.serve``: dropping the server
        frees every worker, session, adapter and the model at once, with
        the cyclic collector switched off."""
        import gc
        import weakref

        from repro.models import build_model
        from repro.serve import CheckpointConfig, DriftResetConfig

        model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
        model.load_state_dict(trained_tiny_model.state_dict())
        model.eval()
        gc.collect()
        gc.disable()
        try:
            server = self._server(
                model, devices=2, admission=AdmissionConfig(),
                drift=DriftResetConfig(),
                checkpoint=CheckpointConfig(interval_frames=2, dir=str(tmp_path)),
            )
            for i in range(3):
                server.add_stream(f"s{i}", self._frames(tiny_benchmark, i, 6))
            assert server.run(6).total_frames == 18
            refs = [weakref.ref(model)]
            refs += [weakref.ref(worker) for worker in server.workers]
            for session in server.registry:
                refs += [weakref.ref(session), weakref.ref(session.adapter)]
            del server, model, session
            assert [ref() for ref in refs] == [None] * len(refs)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leftovers = [
                type(obj).__qualname__ for obj in gc.garbage
                if type(obj).__module__.startswith("repro.serve")
            ]
            assert leftovers == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_pool_lowers_each_plan_once(self, trained_tiny_model, tiny_benchmark):
        """A 3-device fleet with a join: every worker replays the
        coordinator's one engine pair, so the pool holds one plan per
        batch size served; default adapters inherit the pool's step,
        caller-built ones and one naming the pool's own pair too, an
        adapter configured with another pair keeps its own."""
        from repro.serve import FaultSchedule
        from repro.telemetry import SpanTracer

        tracer = SpanTracer()
        server = self._server(
            trained_tiny_model, tracer=tracer, devices=3,
            faults=FaultSchedule.parse("join@70:orin-30w"),
        )
        defaults = [
            server.add_stream(f"s{i}", self._frames(tiny_benchmark, i, 6))
            for i in range(4)
        ]
        explicit = server.add_stream(
            "explicit", self._frames(tiny_benchmark, 4, 6),
            adapter_config=LDBNAdaptConfig(backend="numpy", threads=1),
        )
        built = server.add_stream(
            "built", self._frames(tiny_benchmark, 5, 6),
            adapter=LDBNAdapt(trained_tiny_model),
        )
        same_pair = server.add_stream(
            "same-pair", self._frames(tiny_benchmark, 6, 6),
            adapter_config=LDBNAdaptConfig(backend="numpy"),
        )
        server.run(6)
        assert len(server.workers) == 4  # the join arrived
        engine, step = server._engine, server._adapt_step
        assert all(worker._compiled is engine for worker in server.workers)
        assert all(
            worker._adapt_batcher._compiled is step for worker in server.workers
        )
        served = {e.args["batch"] for e in tracer.spans("forward", tid="device")}
        assert engine.num_plans == len(served)
        assert all(
            session.adapter._compiled is step
            for session in defaults + [built, same_pair]
        )
        assert step.num_plans >= 1  # the defaults' steps went through it
        own = explicit.adapter._compiled
        assert own is not None and own is not step and own.num_plans == 1

    def test_cgen_fleet_serves_singleton_steps_in_c(
        self, trained_tiny_model, tiny_benchmark, tmp_path, monkeypatch
    ):
        """``backend=None`` inherits: under ``FleetConfig(backend="cgen")``
        a default adapter's serial fallback step replays a C plan, not a
        numpy one of its own."""
        from repro.engine.backends import find_cc

        if find_cc() is None:
            pytest.skip("NOTICE: no C compiler — cgen fleet step not exercised")
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        server = self._server(trained_tiny_model, backend="cgen")
        session = server.add_stream("s0", self._frames(tiny_benchmark, 0, 2))
        report = server.run(2)
        assert report.adaptation_steps == 2 and not report.adapt_batch_sizes
        step = session.adapter._compiled
        assert step is server._adapt_step and step.num_plans == 1
        (plan,) = step._plans.values()
        assert plan.backend_info["backend"] == "cgen"
        assert plan.backend_info["rendered"] > 0

    def test_a_caller_built_default_adapter_steps_on_the_pools_step(
        self, trained_tiny_model, tiny_benchmark, tmp_path, monkeypatch
    ):
        """One rule for every registered adapter: an ``LDBNAdapt()`` the
        caller built (``backend`` and ``threads`` left at ``None``)
        replays the pool's C step on a ``cgen`` server, as one
        ``add_stream`` creates does."""
        from repro.engine.backends import find_cc

        if find_cc() is None:
            pytest.skip("NOTICE: no C compiler — cgen fleet step not exercised")
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path))
        server = self._server(trained_tiny_model, backend="cgen")
        adapter = LDBNAdapt(trained_tiny_model)
        server.add_stream(
            "s0", self._frames(tiny_benchmark, 0, 2), adapter=adapter
        )
        assert adapter._compiled is server._adapt_step
        assert server.run(2).adaptation_steps == 2
        (plan,) = server._adapt_step._plans.values()
        assert plan.backend_info["backend"] == "cgen"

    def test_zero_jitter_cohorts_in_closed_form(
        self, trained_tiny_model, tiny_benchmark
    ):
        """What the tick loop used to witness, stated directly: a fleet
        whose devices finish every cohort inside its camera period (10
        FPS cameras here) launches frame k of every hosted stream at
        ``k * period`` in one batch."""
        from repro.telemetry import SpanTracer

        tracer = SpanTracer()
        server = self._server(
            trained_tiny_model, tracer=tracer, devices=2, adapt_stride=2,
            frame_period_ms=100.0, deadline_ms=100.0,
        )
        for i, device in enumerate((0, 0, 0, 1, 1)):
            server.add_stream(
                f"s{i}", self._frames(tiny_benchmark, i, 5), device=device
            )
        report = server.run(5)
        period = server.config.period_ms
        for worker, hosted in zip(server.workers, (3, 2)):
            launches = tracer.spans("forward", pid=worker.name, tid="device")
            assert [e.ts_ms for e in launches] == [k * period for k in range(5)]
            assert [e.args["batch"] for e in launches] == [hosted] * 5
            assert worker.queue_depths == [hosted] * 5
        assert report.total_frames == 25 and report.deadline_misses == 0

    def test_group_adapter_billed_one_step_per_batch(
        self, trained_tiny_model, tiny_benchmark, monkeypatch
    ):
        """A buffering non-LDBN adapter reports its real buffer phase:
        ``ConvAdapt(batch_size=4)`` offers admission one billable step
        per four feeds, not one per feed."""
        from repro.adapt import ConvAdapt
        from repro.adapt.variants import VariantConfig

        server = self._server(
            trained_tiny_model, admission=AdmissionConfig(),
            deadline_ms=1e6, frame_period_ms=1e6,
        )
        session = server.add_stream(
            "conv", self._frames(tiny_benchmark, 0, 8),
            adapter=ConvAdapt(trained_tiny_model, VariantConfig(batch_size=4)),
        )
        offered = []
        admit = server.admission.admit

        def recording(candidates, *args, **kwargs):
            offered.extend(c.would_step for c in candidates)
            return admit(candidates, *args, **kwargs)

        monkeypatch.setattr(server.admission, "admit", recording)
        report = server.run(8)
        assert offered == [False, False, False, True] * 2
        assert session.adapter.steps_taken == report.adaptation_steps == 2
        assert report.admission_grants["conv"] == 8


class TestMixedAdapters:
    """Streams of different adapter kinds on one fleet: a session holds
    BN state only, and every adapter descends on the one shared model."""

    TICKS = 4

    def _frames(self, benchmark, seed):
        return list(
            benchmark.target_stream(rng=np.random.default_rng(seed))
            .take(self.TICKS).samples
        )

    def test_eager_step_beside_a_no_adapt_stream(
        self, trained_tiny_model, tiny_benchmark
    ):
        """``NoAdapt``'s constructor, run after LD-BN-ADAPT's, freezes
        every parameter of the shared model; the eager LD-BN-ADAPT step
        beside it still descends on its own, to the bytes the stream
        reaches served alone."""
        model = trained_tiny_model
        pristine = model.state_dict()

        def served(beside):
            model.load_state_dict(pristine)
            server = FleetServer(
                model, FleetConfig(latency_model="wallclock", deadline_ms=1e9)
            )
            for sid in ["ldbn", "noop"] if beside else ["ldbn"]:
                server.add_stream(
                    sid, iter(self._frames(tiny_benchmark, 700)),
                    adapter=NoAdapt(model) if sid == "noop" else None,
                )
            with nn.adaptation_mode(False):
                server.run(self.TICKS)
            block = server.registry.get("ldbn").bn_state
            steps = server.registry.get("ldbn").adapter.steps_taken
            return steps, block.state.tobytes(), block.counts.tobytes()

        alone = served(False)
        assert alone[0] == self.TICKS
        assert served(True) == alone

    def test_a_non_bn_adapter_serves_only_alone(
        self, trained_tiny_model, tiny_benchmark
    ):
        """An adapter training parameters outside the BN affine writes
        the shared model: ``add_stream`` refuses it beside another stream,
        in either order, before a default adapter is built (whose
        constructor would freeze its weights); alone it adapts them."""
        from repro.adapt import ConvAdapt
        from repro.adapt.variants import VariantConfig

        model = trained_tiny_model
        config = FleetConfig(latency_model="wallclock", deadline_ms=1e9)
        server = FleetServer(model, config)
        server.add_stream("ldbn", iter(()))
        with pytest.raises(ValueError, match="outside the BN affine"):
            server.add_stream("conv", iter(()), adapter=ConvAdapt(model))
        assert server.registry.stream_ids == ["ldbn"]

        server = FleetServer(model, config)
        adapter = ConvAdapt(model, VariantConfig(lr=1e-2))
        session = server.add_stream(
            "conv", iter(self._frames(tiny_benchmark, 701)), adapter=adapter
        )
        with pytest.raises(ValueError, match="outside the BN affine"):
            server.add_stream("ldbn", iter(()))
        assert server.registry.stream_ids == ["conv"]
        weights = model.conv_parameters()
        assert all(p.requires_grad for p in weights)
        before = [p.data.copy() for p in weights]
        report = server.run(self.TICKS)
        assert session.adapter.steps_taken == report.adaptation_steps
        assert report.adaptation_steps == self.TICKS
        assert any(
            np.abs(p.data - was).max() > 0 for p, was in zip(weights, before)
        )


class TestEmptyWindowPercentiles:
    """Regression tests: percentile families over empty/array windows.

    A stream that never receives an adaptation grant produces empty
    percentile windows everywhere downstream; the family must report
    0.0, never raise.
    """

    def test_latency_percentile_accepts_numpy_arrays(self):
        # regression: `if not <ndarray>` raised "truth value is ambiguous"
        assert exact_percentile(np.asarray([3.0, 1.0]), 50) == pytest.approx(2.0)
        assert exact_percentile(np.asarray([]), 95) == 0.0

    def test_empty_fleet_report_percentile_family(self):
        report = FleetReport(deadline_ms=33.3)
        assert report.slack_percentile(10) == 0.0
        assert report.queue_depth_percentile(95) == 0.0
        assert report.adaptation_percentile(50) == 0.0
        assert report.mean_queue_depth == 0.0
        assert report.max_queue_depth == 0
        assert report.admission_grant_rate == 0.0
        assert report.adapting_streams == 0
        summary = report.summary()
        assert summary["slack_p10_ms"] == 0.0
        assert summary["adapting_streams"] == 0.0

    def test_never_granted_stream_reports_zero_not_raise(
        self, trained_tiny_model, tiny_benchmark
    ):
        """A fleet where one stream's steps are all skipped still builds
        every percentile row."""
        frames = tiny_benchmark.target_stream(
            rng=np.random.default_rng(0)
        ).take(3).samples
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9,
                        adapt_stride=4),
        )
        # the 4th stream of a stride-4 fleet has phase 3: its first
        # adaptation slot is frame 3, past the end of a 3-frame stream
        for i in range(3):
            server.add_stream(f"granted-{i}", iter(list(frames)))
        never = server.add_stream("never", iter(list(frames)))
        assert never.adapt_phase == 3
        report = server.run(3)
        stream_report = report.stream_reports["never"]
        assert stream_report.adaptation_steps == 0
        assert stream_report.adaptation_percentile(50) == 0.0
        assert stream_report.slack_percentile(10) != 0.0  # frames exist
        assert report.adaptation_percentile(95) >= 0.0
        rows = {row["stream"]: row for row in report.per_stream_rows()}
        assert rows["never"]["adapt_p50_ms"] == 0.0
        assert rows["never"]["adapt_p95_ms"] == 0.0

    def test_pipeline_report_slack_percentile(self):
        report = PipelineReport(deadline_ms=33.3)
        assert report.slack_percentile(50) == 0.0  # empty window


class TestFleetReport:
    def test_empty_report(self):
        report = FleetReport(deadline_ms=33.3)
        assert report.num_streams == 0
        assert report.total_frames == 0
        assert report.p50_latency_ms == 0.0
        assert report.deadline_miss_rate == 0.0
        assert report.mean_accuracy == 0.0
        assert report.frames_per_second == 0.0
        assert report.summary()["streams"] == 0.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            FleetReport(deadline_ms=33.3).latency_percentile(101)

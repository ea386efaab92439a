"""Telemetry tests: sketches, metrics, span tracing, and profiling hooks.

Covers the observability stack end to end:

* :class:`~repro.telemetry.QuantileSketch` — the DDSketch-style bound
  (every interior percentile within ``alpha`` relative error of a
  neighbouring order statistic, property-tested with hypothesis), merge
  associativity/commutativity, exact endpoints, bounded bucket count
  under collapse, and JSON state round-trips;
* :class:`~repro.telemetry.MetricsRegistry` / :class:`Histogram` — the
  get-or-create contract and the list-compatible surface that let the
  sketches replace per-frame lists without touching call sites;
* :class:`~repro.telemetry.SpanTracer` — Chrome ``trace_event`` / JSONL
  round-trips, and the fleet invariants: tracing is **bitwise inert**,
  each frame's span chain tiles [arrival, completion] and sums to the
  frame's reported latency, device-lane spans never overlap, and
  span-derived percentiles reconcile with the report's sketches;
* the engine's per-stage times (``plan.stage_ms``: the plan's own stage
  table replayed stage by stage) — bit-exact outputs/losses, one entry
  per stage label, slowest first;
* the drained-device slack-EWMA decay and the structured JSONL logger.
"""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import CompiledAdaptStep, compile_model
from repro.hw import ORIN_POWER_MODES
from repro.models import build_model, get_config
from repro.serve import FleetConfig, FleetServer, FrameRequest
from repro.serve.pool import DeviceWorker
from repro.telemetry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    QuantileSketch,
    SpanTracer,
    exact_percentile,
    load_chrome_trace,
    load_jsonl_trace,
    render_dashboard,
)
from repro.utils.logging import Logger, get_json_output, set_json_output

ALPHA = 0.005
SETTINGS = dict(max_examples=60, deadline=None)

# magnitudes small enough that float-summation order cannot push `sum`
# outside QuantileSketch.__eq__'s tolerance in the merge tests
values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=200,
)
merge_values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=0,
    max_size=50,
)


class TestExactPercentile:
    def test_matches_numpy(self):
        values = [5.0, 1.0, 9.0, 3.0]
        for q in (0, 25, 50, 90, 100):
            assert exact_percentile(values, q) == float(np.percentile(values, q))

    def test_empty_is_zero(self):
        assert exact_percentile([], 95) == 0.0
        assert exact_percentile(np.array([]), 50) == 0.0

    def test_validates_q(self):
        with pytest.raises(ValueError):
            exact_percentile([1.0], -1)
        with pytest.raises(ValueError):
            exact_percentile([1.0], 100.5)


class TestQuantileSketch:
    @given(values=values_strategy, q=st.floats(min_value=0.0, max_value=100.0))
    @settings(**SETTINGS)
    def test_relative_error_bound(self, values, q):
        """Every percentile lands within the alpha band of the true
        order statistics bracketing its rank."""
        sketch = QuantileSketch.of(values, alpha=ALPHA)
        approx = sketch.percentile(q)
        ordered = sorted(values)
        rank = q / 100.0 * (len(ordered) - 1)
        lo = ordered[math.floor(rank)]
        hi = ordered[math.ceil(rank)]
        tol = 2.0 * ALPHA * max(abs(lo), abs(hi)) + 1e-9
        assert min(lo, hi) - tol <= approx <= max(lo, hi) + tol

    @given(a=merge_values, b=merge_values, c=merge_values)
    @settings(**SETTINGS)
    def test_merge_is_associative_and_matches_concatenation(self, a, b, c):
        left = QuantileSketch.of(a).merge(QuantileSketch.of(b))
        left.merge(QuantileSketch.of(c))
        right = QuantileSketch.of(a)
        right.merge(QuantileSketch.of(b).merge(QuantileSketch.of(c)))
        concat = QuantileSketch.of(list(a) + list(b) + list(c))
        assert left == right
        assert left == concat

    @given(a=merge_values, b=merge_values)
    @settings(**SETTINGS)
    def test_merge_commutes(self, a, b):
        ab = QuantileSketch.of(a).merge(QuantileSketch.of(b))
        ba = QuantileSketch.of(b).merge(QuantileSketch.of(a))
        assert ab == ba

    def test_exact_moments_and_endpoints(self):
        values = [3.0, -1.5, 0.0, 42.0, 7.25]
        sketch = QuantileSketch.of(values)
        assert sketch.count == len(values)
        assert len(sketch) == len(values)
        assert sketch.sum == pytest.approx(sum(values), rel=1e-12)
        assert sketch.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert sketch.min == -1.5
        assert sketch.max == 42.0
        # q=0 / q=100 read the tracked extremes: no sketch error at all
        assert sketch.percentile(0) == -1.5
        assert sketch.percentile(100) == 42.0

    def test_empty_contract(self):
        sketch = QuantileSketch()
        assert not sketch
        assert len(sketch) == 0
        assert sketch.percentile(50) == 0.0
        assert sketch.mean == 0.0

    def test_validates_q(self):
        sketch = QuantileSketch.of([1.0])
        with pytest.raises(ValueError):
            sketch.percentile(-0.1)
        with pytest.raises(ValueError):
            sketch.percentile(100.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(float("nan"))

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.005).merge(QuantileSketch(alpha=0.01))
        with pytest.raises(TypeError):
            QuantileSketch().merge([1.0, 2.0])

    def test_collapse_bounds_memory(self):
        """Wildly spread magnitudes cannot grow the sketch past its
        bucket cap; exact moments and endpoints survive the collapse."""
        values = [2.0 ** k for k in range(64)]
        sketch = QuantileSketch.of(values, alpha=0.05, max_buckets=8)
        assert sketch.num_buckets <= 8
        assert sketch.count == 64
        assert sketch.percentile(0) == 1.0
        assert sketch.percentile(100) == 2.0 ** 63
        # the upper buckets were never folded, so the tail stays tight
        assert sketch.percentile(99) >= 2.0 ** 60

    def test_state_round_trip(self):
        sketch = QuantileSketch.of([-3.0, 0.0, 1.0, 2.5, 2.5, 900.0])
        blob = json.dumps(sketch.state())  # must be JSON-serializable
        restored = QuantileSketch.from_state(json.loads(blob))
        assert restored == sketch
        assert restored.percentile(50) == sketch.percentile(50)

    def test_order_insensitive_equality(self):
        a = QuantileSketch.of([1.0, 2.0, 3.0])
        b = QuantileSketch.of([3.0, 1.0, 2.0])
        assert a == b
        assert a != QuantileSketch.of([1.0, 2.0])


class TestMetrics:
    def test_registry_accessors_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("frames") is registry.counter("frames")
        assert registry.gauge("load") is registry.gauge("load")
        assert registry.histogram("lat") is registry.histogram("lat")
        assert "frames" in registry
        assert registry.names() == ["frames", "lat", "load"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("frames")
        with pytest.raises(TypeError):
            registry.histogram("frames")

    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(3)
        assert int(counter) == 4
        assert counter == 4
        counter.merge(Counter(6))
        assert counter == 10

    def test_histogram_list_compatibility(self):
        """Histogram replaced List[int] report fields — existing
        ``== [3]*n`` / truthiness / len call sites must read unchanged."""
        hist = Histogram.of([3, 3, 4])
        assert hist == [3, 4, 3]  # multiset equality, order-free
        assert hist != [3, 3]
        assert len(hist) == 3
        assert bool(hist)
        assert not Histogram()
        assert Histogram() == []

    def test_registry_merge_rolls_up_devices(self):
        fleet, dev0, dev1 = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        dev0.counter("misses").inc(2)
        dev1.counter("misses").inc(5)
        dev0.histogram("lat").record(10.0)
        dev1.histogram("lat").record(30.0)
        dev1.gauge("load").set(0.7)
        fleet.merge(dev0).merge(dev1)
        assert fleet.counter("misses") == 7
        assert fleet.histogram("lat") == [10.0, 30.0]
        assert float(fleet.gauge("load")) == 0.7

    def test_snapshot_is_json_friendly(self):
        registry = MetricsRegistry()
        registry.counter("misses").inc()
        registry.gauge("load").set(0.5)
        registry.histogram("lat").record(12.0)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["misses"] == 1
        assert snap["load"] == 0.5
        assert snap["lat"]["count"] == 1.0
        assert snap["lat"]["p50"] == pytest.approx(12.0, rel=2 * ALPHA)


class TestLoggerJson:
    @pytest.fixture(autouse=True)
    def _detach_sink(self):
        yield
        set_json_output(None)

    def test_stream_sink_sees_suppressed_records(self):
        sink = io.StringIO()
        set_json_output(sink)
        assert get_json_output() is sink
        visible = io.StringIO()
        log = Logger("fleet", stream=visible)
        log.info("served %d frames", 7)
        log.debug("queue depth %d", 3)  # below default verbosity
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [r["level"] for r in records] == ["info", "debug"]
        assert records[0]["message"] == "served 7 frames"
        assert records[0]["name"] == "fleet"
        assert records[0]["elapsed_s"] >= 0.0
        # verbosity still gates the human stream: debug stayed silent
        assert "served 7 frames" in visible.getvalue()
        assert "queue depth" not in visible.getvalue()

    def test_path_sink_appends_and_detaches(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        set_json_output(path)
        log = Logger("cli", stream=io.StringIO())
        log.warning("spilled %s", "arena")
        set_json_output(None)  # closes the owned handle
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0] == {
            "elapsed_s": lines[0]["elapsed_s"],
            "name": "cli",
            "level": "warn",
            "message": "spilled arena",
        }


class TestTraceEvents:
    def _tracer(self):
        tracer = SpanTracer()
        tracer.span("queue", 1.25, 0.5, pid="orin-60w#0", tid="cam-0",
                    cat="frame", frame=0)
        tracer.span("forward", 1.75, 2.5, pid="orin-60w#0", tid="cam-0",
                    cat="frame", frame=0, batch=2)
        tracer.instant("emit", 4.25, pid="orin-60w#0", tid="cam-0",
                       cat="frame", frame=0)
        tracer.instant("migrate", 9.0, pid="orin-60w#0", tid="cam-1",
                       cat="migration", source=0, target=1)
        return tracer

    def test_filtering_by_name_and_lane(self):
        tracer = self._tracer()
        assert len(tracer) == 4
        assert len(tracer.spans()) == 2
        assert len(tracer.spans("forward")) == 1
        assert tracer.spans("forward")[0].args["batch"] == 2
        assert len(tracer.instants(cat="migration")) == 1
        assert tracer.instants(tid="cam-0") == tracer.instants("emit")
        assert tracer.spans(tid="cam-1") == []

    def test_frame_spans_grouping(self):
        tracer = self._tracer()
        groups = tracer.frame_spans()
        assert list(groups) == [("cam-0", 0)]
        chain = groups[("cam-0", 0)]
        assert [e.name for e in chain] == ["queue", "forward"]
        assert chain[0].end_ms == chain[1].ts_ms

    def test_chrome_json_round_trip(self, tmp_path):
        tracer = self._tracer()
        path = str(tmp_path / "trace.json")
        tracer.write_chrome(path)
        with open(path) as handle:
            document = json.load(handle)
        assert {e["ph"] for e in document["traceEvents"]} == {"X", "i"}
        assert document["traceEvents"][0]["ts"] == 1250.0  # microseconds
        restored = load_chrome_trace(path)
        assert restored == tracer.events

    def test_jsonl_round_trip(self):
        tracer = self._tracer()
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        assert len(buffer.getvalue().splitlines()) == 4
        buffer.seek(0)
        assert load_jsonl_trace(buffer) == tracer.events

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.span("queue", 0.0, 1.0)
        NULL_TRACER.instant("emit", 0.0)
        assert len(NULL_TRACER) == 0


DEVICE = ORIN_POWER_MODES["orin-60w"]
SPEC = get_config("paper-r18").to_spec()


def _frame_lists(benchmark, count, frames):
    return [
        benchmark.target_stream(rng=np.random.default_rng(500 + i))
        .take(frames)
        .samples
        for i in range(count)
    ]


def _run_fleet(model, frame_lists, frames, tracer=None, **config_kwargs):
    server = FleetServer(
        model,
        FleetConfig(latency_model="orin", **config_kwargs),
        device=DEVICE,
        spec=SPEC,
        tracer=tracer,
    )
    for i, frame_list in enumerate(frame_lists):
        server.add_stream(f"s{i}", iter(frame_list))
    return server.run(frames)


def _frame_rows(report):
    return [
        (sid, f.index, f.latency_ms, f.accuracy, f.adapted, f.deadline_met)
        for sid, stream in report.stream_reports.items()
        for f in stream.frames
    ]


class TestFleetTelemetry:
    def test_tracing_is_bitwise_inert(self, trained_tiny_model, tiny_benchmark):
        """The acceptance gate: identical serving results with the
        tracer on vs off — per-frame latency, accuracy, adaptation and
        deadline outcomes compare exactly, not approximately."""
        frames = 6
        frame_lists = _frame_lists(tiny_benchmark, 3, frames)
        pristine = trained_tiny_model.state_dict()

        untraced = _run_fleet(trained_tiny_model, frame_lists, frames)

        trained_tiny_model.load_state_dict(pristine)
        tracer = SpanTracer()
        traced = _run_fleet(trained_tiny_model, frame_lists, frames, tracer=tracer)

        assert _frame_rows(untraced) == _frame_rows(traced)
        assert untraced.latency_histogram == traced.latency_histogram
        assert untraced.summary() == traced.summary()
        assert len(tracer) > 0

    def test_frame_span_chains_tile_the_latency(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Each frame's ``queue -> forward [-> adapt_wait] [-> adapt]``
        chain is contiguous and its durations sum exactly to the frame's
        reported latency."""
        frames = 6
        frame_lists = _frame_lists(tiny_benchmark, 3, frames)
        tracer = SpanTracer()
        report = _run_fleet(trained_tiny_model, frame_lists, frames, tracer=tracer)

        groups = tracer.frame_spans()
        assert len(groups) == report.total_frames
        for (stream_id, frame_index), chain in groups.items():
            record = report.stream_reports[stream_id].frames[frame_index]
            assert record.index == frame_index
            total = sum(e.dur_ms for e in chain)
            assert total == pytest.approx(record.latency_ms, rel=1e-9)
            assert chain[0].name == "queue"
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt.ts_ms == pytest.approx(prev.end_ms, abs=1e-6)
        # every served frame also emitted its terminal instant
        assert len(tracer.instants("emit")) == report.total_frames
        assert len(tracer.instants("ingest")) >= report.total_frames

    def test_device_lane_spans_never_overlap(
        self, trained_tiny_model, tiny_benchmark
    ):
        """A device is one executor: its batch/adapt spans must be
        sequential on the simulated clock."""
        frames = 6
        frame_lists = _frame_lists(tiny_benchmark, 4, frames)
        tracer = SpanTracer()
        _run_fleet(
            trained_tiny_model, frame_lists, frames, tracer=tracer, devices=2
        )
        lanes = {}
        for event in tracer.spans(tid="device"):
            lanes.setdefault(event.pid, []).append(event)
        assert lanes  # the pool emitted device-lane work
        for events in lanes.values():
            events.sort(key=lambda e: e.ts_ms)
            for prev, nxt in zip(events, events[1:]):
                assert nxt.ts_ms >= prev.end_ms - 1e-6

    def test_spans_reconcile_with_report_sketches(
        self, trained_tiny_model, tiny_benchmark
    ):
        """Percentiles recomputed from raw span chains agree with the
        report's streaming sketches within the sketch's error bound."""
        frames = 8
        frame_lists = _frame_lists(tiny_benchmark, 3, frames)
        tracer = SpanTracer()
        report = _run_fleet(trained_tiny_model, frame_lists, frames, tracer=tracer)
        span_latencies = [
            sum(e.dur_ms for e in chain)
            for chain in tracer.frame_spans().values()
        ]
        assert len(span_latencies) == report.latency_histogram.count
        for q in (50, 95):
            assert report.latency_percentile(q) == pytest.approx(
                exact_percentile(span_latencies, q), rel=3 * ALPHA
            )
        assert report.latency_histogram.max == pytest.approx(
            max(span_latencies), rel=1e-9
        )

    def test_dashboard_renders(self, trained_tiny_model, tiny_benchmark):
        frames = 4
        frame_lists = _frame_lists(tiny_benchmark, 2, frames)
        tracer = SpanTracer()
        report = _run_fleet(trained_tiny_model, frame_lists, frames, tracer=tracer)
        text = render_dashboard(report, tracer)
        assert "fleet:" in text
        assert "distributions" in text
        assert render_dashboard(report)  # tracer-less rendering also works

    def test_wallclock_mode_traces(self, trained_tiny_model, tiny_benchmark):
        """The host-clock path emits per-frame spans too, but no
        device-lane batch spans (overlapping host launches would break
        the non-overlap invariant)."""
        frames = 3
        frame_lists = _frame_lists(tiny_benchmark, 2, frames)
        tracer = SpanTracer()
        server = FleetServer(
            trained_tiny_model,
            FleetConfig(latency_model="wallclock", deadline_ms=1e9),
            tracer=tracer,
        )
        for i, frame_list in enumerate(frame_lists):
            server.add_stream(f"s{i}", iter(frame_list))
        report = server.run(frames)
        assert report.total_frames == 2 * frames
        assert len(tracer.frame_spans()) == report.total_frames
        assert tracer.spans(tid="device") == []


class TestIdleSlackDecay:
    def _worker(self, model, tracer=NULL_TRACER, metrics=None, **config_kwargs):
        return DeviceWorker(
            0,
            model,
            FleetConfig(latency_model="orin", **config_kwargs),
            device=DEVICE,
            spec=SPEC,
            metrics=metrics,
            tracer=tracer,
        )

    def test_never_served_never_decays(self, trained_tiny_model):
        worker = self._worker(trained_tiny_model)
        assert not worker.decay_idle_slack(1e6)

    def test_within_grace_period_holds(self, trained_tiny_model):
        worker = self._worker(trained_tiny_model)
        period = worker.config.period_ms
        worker.slack_ewma_ms = worker.roofline_slack_prior_ms() - 10.0
        worker._last_served_ms = 0.0
        assert not worker.decay_idle_slack(2.5 * period)
        assert worker.slack_ewma_ms == worker.roofline_slack_prior_ms() - 10.0

    def test_already_at_prior_holds(self, trained_tiny_model):
        worker = self._worker(trained_tiny_model)
        worker.slack_ewma_ms = worker.roofline_slack_prior_ms()
        worker._last_served_ms = 0.0
        assert not worker.decay_idle_slack(1e6)

    def test_pending_work_pins_the_ewma(self, trained_tiny_model):
        worker = self._worker(trained_tiny_model)
        worker.slack_ewma_ms = worker.roofline_slack_prior_ms() - 10.0
        worker._last_served_ms = 0.0
        worker.scheduler.submit(
            FrameRequest(
                stream_id="s0", frame_index=0, arrival_ms=0.0,
                deadline_ms=33.3, payload=None,
            )
        )
        assert not worker.decay_idle_slack(1e6)

    def test_decays_toward_roofline_prior(self, trained_tiny_model):
        metrics = MetricsRegistry()
        worker = self._worker(trained_tiny_model, metrics=metrics)
        prior = worker.roofline_slack_prior_ms()
        period = worker.config.period_ms
        old = prior - 12.0
        worker.slack_ewma_ms = old
        worker._last_served_ms = 0.0
        now = 4.0 * period  # 2 whole periods past the grace window
        assert worker.decay_idle_slack(now)
        expected = prior + (old - prior) * (1.0 - worker.IDLE_DECAY_RATE) ** 2
        assert worker.slack_ewma_ms == pytest.approx(expected, rel=1e-12)
        assert old < worker.slack_ewma_ms < prior
        assert worker.slack_decays == 1
        assert metrics.counter("fleet/slack_decays") == 1
        # re-anchored so the next idle period decays incrementally
        anchor = now - worker.IDLE_DECAY_GRACE_PERIODS * period
        assert worker._last_served_ms == pytest.approx(anchor)

    def test_repeated_decay_converges_without_overshoot(self, trained_tiny_model):
        worker = self._worker(trained_tiny_model)
        prior = worker.roofline_slack_prior_ms()
        worker.slack_ewma_ms = prior - 20.0
        worker._last_served_ms = 0.0
        period = worker.config.period_ms
        # start past the grace window so every call below actually decays
        now = worker.IDLE_DECAY_GRACE_PERIODS * period
        previous = worker.slack_ewma_ms
        for _ in range(worker.CANARY_PROBE_DECAYS - 1):
            now += 2.0 * period
            assert worker.decay_idle_slack(now)
            assert previous < worker.slack_ewma_ms < prior
            previous = worker.slack_ewma_ms
        # the canary probe bounds convergence: the next decay installs
        # the prior exactly instead of creeping toward it asymptotically
        now += 2.0 * period
        assert worker.decay_idle_slack(now)
        assert worker.slack_ewma_ms == prior
        assert worker.canary_probes == 1
        # at the prior the EWMA is fresh — further idle ticks are no-ops
        assert not worker.decay_idle_slack(now + 2.0 * period)

    def test_decay_emits_telemetry_event(self, trained_tiny_model):
        tracer = SpanTracer()
        worker = self._worker(trained_tiny_model, tracer=tracer)
        prior = worker.roofline_slack_prior_ms()
        worker.slack_ewma_ms = prior - 12.0
        worker._last_served_ms = 0.0
        assert worker.decay_idle_slack(4.0 * worker.config.period_ms)
        events = tracer.instants("slack_decay", tid="device")
        assert len(events) == 1
        assert events[0].args["old_ewma_ms"] == prior - 12.0
        assert events[0].args["new_ewma_ms"] == worker.slack_ewma_ms
        assert events[0].args["prior_ms"] == prior


def _engine_frames(rng, config, batch):
    h, w = config.input_hw
    return rng.standard_normal((batch, 3, h, w)).astype(np.float32)


class TestPlanProfiling:
    def test_profiled_inference_is_bit_exact(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _engine_frames(rng, model.config, 2)
        engine = compile_model(model)
        out = engine(x).numpy()
        want = out.copy()
        engine(_engine_frames(rng, model.config, 2))
        engine.plan_for(x.shape).stage_ms(x)
        assert np.array_equal(out, want)

    def test_inference_stage_table(self, rng):
        model = build_model("tiny-r18", rng=rng)
        model.eval()
        x = _engine_frames(rng, model.config, 1)
        engine = compile_model(model)
        engine(x)
        plan = engine.plan_for(x.shape)
        table = plan.stage_ms(x)
        assert set(table) == {label for label, _ in plan.stages[0]}
        assert "conv+bn+relu" in table and "maxpool" in table
        ms = list(table.values())
        assert ms == sorted(ms, reverse=True) and sum(ms) > 0.0

    def test_profiled_adapt_step_matches_losses(self):
        model = build_model("tiny-r18", rng=np.random.default_rng(0))
        model.eval()
        rng = np.random.default_rng(7)
        x = _engine_frames(rng, model.config, 2)
        plan = CompiledAdaptStep(model).plan_for(x)
        losses = plan.run(x)
        want = losses.copy()
        plan.run(_engine_frames(rng, model.config, 2))
        labels = set(plan.stage_ms(x))
        assert np.array_equal(losses, want)
        assert any(label.startswith("fwd:") for label in labels)
        assert any(label.startswith("bwd:") for label in labels)

"""Real-time pipeline and report tests."""

import numpy as np
import pytest

from repro.adapt import LDBNAdapt, LDBNAdaptConfig, NoAdapt
from repro.hw import ORIN_POWER_MODES
from repro.models import get_config
from repro.pipeline import PipelineConfig, PipelineReport, RealTimePipeline
from repro.pipeline.monitor import FrameRecord


class TestPipelineReport:
    def _record(self, i, acc, latency=10.0, adapted=True):
        return FrameRecord(
            index=i, timestamp=i / 30.0, domain="d", latency_ms=latency,
            deadline_ms=33.3, deadline_met=latency <= 33.3, accuracy=acc,
            adapted=adapted,
        )

    def test_summary(self):
        report = PipelineReport(
            frames=[self._record(0, 0.5), self._record(1, 1.0, latency=50.0)],
            deadline_ms=33.3,
        )
        assert report.mean_accuracy == 0.75
        assert report.deadline_miss_rate == 0.5
        assert report.adaptation_steps == 2
        summary = report.summary()
        assert summary["frames"] == 2.0

    def test_accuracy_over_range(self):
        report = PipelineReport(
            frames=[self._record(i, float(i)) for i in range(4)]
        )
        assert report.accuracy_over(2) == 2.5

    def test_empty(self):
        report = PipelineReport()
        assert report.mean_accuracy == 0.0
        assert report.deadline_miss_rate == 0.0

    def test_empty_summary_is_all_zeros(self):
        summary = PipelineReport().summary()
        assert summary["frames"] == 0.0
        assert summary["mean_accuracy"] == 0.0
        assert summary["mean_latency_ms"] == 0.0
        assert summary["deadline_miss_rate"] == 0.0
        assert summary["adaptation_steps"] == 0.0
        assert summary["truncated"] == 0.0
        assert PipelineReport().latency_percentile(99) == 0.0
        assert PipelineReport().accuracy_over(0, 10) == 0.0


class TestPipelineConfig:
    def test_invalid_latency_model(self):
        with pytest.raises(ValueError):
            PipelineConfig(latency_model="gpu")

    def test_invalid_deadline_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineConfig(deadline_ms=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(deadline_ms=-5.0)

    def test_invalid_decode_method_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineConfig(decode_method="nms")

    def test_invalid_threshold_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineConfig(accuracy_threshold_cells=0.0)

    def test_valid_alternatives_accepted(self):
        assert PipelineConfig(decode_method="argmax").decode_method == "argmax"


class TestRealTimePipeline:
    def test_orin_mode_requires_spec(self, trained_tiny_model):
        adapter = NoAdapt(trained_tiny_model)
        with pytest.raises(ValueError):
            RealTimePipeline(trained_tiny_model, adapter)

    def _run(self, model, adapter, benchmark, frames=6, **cfg_kwargs):
        config = PipelineConfig(latency_model="orin", **cfg_kwargs)
        pipeline = RealTimePipeline(
            model,
            adapter,
            config,
            device=ORIN_POWER_MODES["orin-60w"],
            spec=get_config("paper-r18").to_spec(),
        )
        stream = benchmark.target_stream(rng=np.random.default_rng(0))
        return pipeline.run(stream, frames)

    def test_runs_and_records(self, trained_tiny_model, tiny_benchmark):
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
        report = self._run(trained_tiny_model, adapter, tiny_benchmark, frames=6)
        assert report.num_frames == 6
        assert all(0.0 <= f.accuracy <= 1.0 for f in report.frames)
        assert report.adaptation_steps == 6  # bs=1 adapts every frame

    def test_batch2_adapts_every_other_frame(self, trained_tiny_model, tiny_benchmark):
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3, batch_size=2))
        report = self._run(trained_tiny_model, adapter, tiny_benchmark, frames=6)
        assert report.adaptation_steps == 3
        adapted_flags = [f.adapted for f in report.frames]
        assert adapted_flags == [False, True] * 3

    def test_orin_latency_attached(self, trained_tiny_model, tiny_benchmark):
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
        report = self._run(trained_tiny_model, adapter, tiny_benchmark, frames=3)
        # R18@60W inference+adapt fits 30 FPS in the hardware model
        assert all(f.deadline_met for f in report.frames)
        assert all(25.0 < f.latency_ms < 33.4 for f in report.frames)

    def test_non_adapted_frames_cost_inference_only(
        self, trained_tiny_model, tiny_benchmark
    ):
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3, batch_size=2))
        report = self._run(trained_tiny_model, adapter, tiny_benchmark, frames=4)
        slow = [f.latency_ms for f in report.frames if f.adapted]
        fast = [f.latency_ms for f in report.frames if not f.adapted]
        assert min(slow) > max(fast)

    def test_wallclock_mode(self, trained_tiny_model, tiny_benchmark):
        adapter = NoAdapt(trained_tiny_model)
        config = PipelineConfig(latency_model="wallclock", deadline_ms=1e9)
        pipeline = RealTimePipeline(trained_tiny_model, adapter, config)
        stream = tiny_benchmark.target_stream(rng=np.random.default_rng(1))
        report = pipeline.run(stream, 3)
        assert all(f.latency_ms > 0 for f in report.frames)

    def test_wallclock_mode_with_adaptation(self, trained_tiny_model, tiny_benchmark):
        """Wallclock accounting must also cover real adaptation steps."""
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
        config = PipelineConfig(latency_model="wallclock", deadline_ms=1e9)
        pipeline = RealTimePipeline(trained_tiny_model, adapter, config)
        stream = tiny_benchmark.target_stream(rng=np.random.default_rng(2))
        report = pipeline.run(stream, 4)
        assert report.adaptation_steps == 4
        assert all(f.latency_ms > 0 for f in report.frames)
        assert all(f.deadline_met for f in report.frames)
        assert not report.truncated

    def test_engine_warms_once_per_frame_signature(
        self, _trained_tiny_state, tiny_benchmark
    ):
        """``_warm_engine`` sits in the frame gap: it must trace/compile
        once per (shape, dtype), not walk the model and allocate a zero
        batch on every frame — and skipping it changes nothing served."""
        from dataclasses import replace

        from repro import nn
        from repro.models import build_model

        class RewarmEveryFrame(RealTimePipeline):
            def _warm_engine(self, frame):
                self._warmed.clear()
                super()._warm_engine(frame)

        reports, warm_calls = [], []
        for cls in (RewarmEveryFrame, RealTimePipeline):
            model = build_model(
                "tiny-r18", num_lanes=2, rng=np.random.default_rng(1)
            )
            model.load_state_dict(_trained_tiny_state)
            adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3))
            calls, real_warm = [], adapter.warm
            adapter.warm = lambda image, **kw: (
                calls.append(image.shape), real_warm(image, **kw)
            )
            pipeline = cls(
                model, adapter, PipelineConfig(latency_model="orin"),
                device=ORIN_POWER_MODES["orin-60w"],
                spec=get_config("paper-r18").to_spec(),
            )
            stream = tiny_benchmark.target_stream(rng=np.random.default_rng(0))
            reports.append(pipeline.run(stream, 10))
            warm_calls.append(calls)
        assert len(warm_calls[0]) == 10 and len(warm_calls[1]) == 1
        assert reports[0].frames == reports[1].frames

        # a new frame shape warms again, exactly once (eager inference so
        # the fixed-size head is not traced at the odd shape)
        adapter.warm = lambda image, **kw: calls.append(image.shape)
        frame = next(iter(tiny_benchmark.target_stream(
            rng=np.random.default_rng(0)
        )))
        cropped = replace(frame, image=frame.image[:, :-2, :])
        before = len(calls)
        with nn.inference_mode(False):
            pipeline._warm_engine(cropped)
            pipeline._warm_engine(cropped)
        assert calls[before:] == [cropped.image.shape]

    def test_short_stream_returns_truncated_report(
        self, trained_tiny_model, tiny_benchmark
    ):
        """A stream shorter than num_frames yields a partial report, not a
        bare StopIteration escaping the run loop."""
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
        config = PipelineConfig(latency_model="orin")
        pipeline = RealTimePipeline(
            trained_tiny_model,
            adapter,
            config,
            device=ORIN_POWER_MODES["orin-60w"],
            spec=get_config("paper-r18").to_spec(),
        )
        frames = tiny_benchmark.target_stream(
            rng=np.random.default_rng(3)
        ).take(4).samples
        report = pipeline.run(iter(frames), num_frames=10)
        assert report.truncated
        assert report.num_frames == 4
        assert report.summary()["truncated"] == 1.0

    def test_exact_length_stream_not_truncated(
        self, trained_tiny_model, tiny_benchmark
    ):
        adapter = NoAdapt(trained_tiny_model)
        config = PipelineConfig(latency_model="wallclock", deadline_ms=1e9)
        pipeline = RealTimePipeline(trained_tiny_model, adapter, config)
        frames = tiny_benchmark.target_stream(
            rng=np.random.default_rng(4)
        ).take(3).samples
        report = pipeline.run(iter(frames), num_frames=3)
        assert not report.truncated
        assert report.num_frames == 3

    @pytest.mark.parametrize("deadline, met", [
        ("above", True), ("at", True), ("below", False),
    ])
    def test_a_latency_at_the_deadline_meets_it(
        self, deadline, met, trained_tiny_model, tiny_benchmark
    ):
        """Met means ``latency <= deadline``: the modelled latency of a
        frame set as the deadline itself counts as met, one ulp less
        does not."""
        adapter = NoAdapt(trained_tiny_model)
        latency = self._run(
            trained_tiny_model, adapter, tiny_benchmark, frames=1
        ).frames[0].latency_ms
        deadline_ms = float({
            "above": np.nextafter(latency, np.inf), "at": latency,
            "below": np.nextafter(latency, 0.0),
        }[deadline])
        report = self._run(
            trained_tiny_model, adapter, tiny_benchmark, frames=3,
            deadline_ms=deadline_ms,
        )
        assert [f.latency_ms for f in report.frames] == [latency] * 3
        assert [f.deadline_met for f in report.frames] == [met] * 3
        assert report.deadline_miss_rate == (0.0 if met else 1.0)

    def test_online_adaptation_improves_over_stream(
        self, trained_tiny_model, tiny_benchmark
    ):
        """The paper's deployment story: accuracy later in the stream should
        be at least as good as at the start (model adapts online)."""
        adapter = LDBNAdapt(trained_tiny_model, LDBNAdaptConfig(lr=1e-3))
        report = self._run(trained_tiny_model, adapter, tiny_benchmark, frames=40)
        early = report.accuracy_over(0, 10)
        late = report.accuracy_over(30, 40)
        assert late >= early - 0.05  # no degradation; typically improves

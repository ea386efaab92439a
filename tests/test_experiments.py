"""Experiment-harness tests: configs, reporting, fig1/fig3, censuses.

The heavy Fig. 2 grid is exercised end-to-end by the benchmarks; here we
run a reduced slice to validate the harness logic itself.
"""

import numpy as np
import pytest

from repro.experiments import (
    BENCHMARK_NAMES,
    PAPER_FEASIBILITY,
    RUN_SCALES,
    Fig2Cell,
    Fig2Result,
    format_markdown_table,
    format_table,
    get_run_scale,
    load_json,
    run_fig1,
    run_fig3,
    run_param_census,
    run_sota_cost,
    save_json,
)
from repro.experiments.config import RunScale


class TestRunScales:
    def test_registered(self):
        assert set(RUN_SCALES) == {"tiny", "small"}

    def test_preset_naming(self):
        scale = RUN_SCALES["tiny"]
        assert scale.preset("r18") == "tiny-r18"
        assert scale.preset("r34") == "tiny-r34"

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_run_scale().name == "small"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_run_scale("tiny").name == "tiny"

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_run_scale("huge")


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bb", "value": 22.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "22.25" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_bool(self):
        text = format_table([{"ok": True}])
        assert "yes" in text

    def test_markdown_table(self):
        rows = [{"a": 1.0, "b": "x"}]
        md = format_markdown_table(rows)
        assert md.startswith("| a | b |")
        assert "|---|---|" in md

    def test_json_roundtrip(self, tmp_path):
        payload = {"x": np.float64(1.5), "y": np.arange(3), "z": [1, 2]}
        path = str(tmp_path / "out" / "r.json")
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["x"] == 1.5
        assert loaded["y"] == [0, 1, 2]


class TestFig3Harness:
    def test_full_grid(self):
        result = run_fig3()
        assert len(result.rows) == 8
        assert result.all_match_paper

    def test_each_expected_flag(self):
        result = run_fig3()
        for (backbone, mode), (m30, m18) in PAPER_FEASIBILITY.items():
            row = result.get(backbone, mode)
            assert row.meets_30fps == m30, (backbone, mode)
            assert row.meets_18fps == m18, (backbone, mode)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            run_fig3().get("r50", "orin-60w")

    def test_summary_rows_serializable(self, tmp_path):
        save_json(str(tmp_path / "fig3.json"), run_fig3().summary_rows())


class TestFig1Harness:
    def test_stats_cover_all_benchmarks(self):
        result = run_fig1(frames_per_split=6)
        benchmarks = {r.benchmark for r in result.rows}
        assert benchmarks == set(BENCHMARK_NAMES)

    def test_shift_magnitude_positive(self):
        result = run_fig1(frames_per_split=6)
        for bench in BENCHMARK_NAMES:
            assert result.shift_magnitude(bench) > 0.05

    def test_mulane_has_two_target_domains(self):
        result = run_fig1(frames_per_split=6)
        targets = {
            r.domain for r in result.rows
            if r.benchmark == "mulane" and r.split == "target"
        }
        assert targets == {"model_vehicle", "tusimple_highway"}

    def test_unknown_benchmark_in_shift(self):
        result = run_fig1(frames_per_split=4, benchmarks=("molane",))
        with pytest.raises(KeyError):
            result.shift_magnitude("tulane")

    def test_gallery_export(self, tmp_path):
        from repro.experiments import export_gallery

        paths = export_gallery(str(tmp_path), frames_per_domain=1)
        assert paths
        sample = np.load(paths[0])
        assert sample.ndim == 3 and sample.shape[0] == 3


class TestFig2Result:
    def _cells(self):
        return [
            Fig2Cell("molane", "r18", "no_adapt", None, 70.0, 0.1, 0.1),
            Fig2Cell("molane", "r18", "ld_bn_adapt", 1, 92.0, 0.0, 0.0),
            Fig2Cell("molane", "r34", "ld_bn_adapt", 1, 91.0, 0.0, 0.0),
            Fig2Cell("molane", "r18", "carlane_sota", None, 93.0, 0.0, 0.0),
            Fig2Cell("tulane", "r18", "ld_bn_adapt", 1, 88.0, 0.0, 0.0),
        ]

    def test_get(self):
        result = Fig2Result(cells=self._cells())
        assert result.get("molane", "r18", "ld_bn_adapt", 1).accuracy_percent == 92.0
        with pytest.raises(KeyError):
            result.get("molane", "r18", "ld_bn_adapt", 8)

    def test_best_per_benchmark_picks_max(self):
        result = Fig2Result(cells=self._cells())
        best = result.best_per_benchmark("ld_bn_adapt")
        assert best["molane"].backbone == "r18"
        assert best["molane"].accuracy_percent == 92.0

    def test_average_best(self):
        result = Fig2Result(cells=self._cells())
        assert result.average_best("ld_bn_adapt") == pytest.approx(90.0)

    def test_paper_comparison_rows(self):
        result = Fig2Result(cells=self._cells())
        rows = result.paper_comparison_rows()
        molane = next(r for r in rows if r["benchmark"] == "molane")
        assert molane["paper_ldbn"] == 92.68
        assert molane["ours_ldbn"] == 92.0

    def test_label(self):
        cell = Fig2Cell("molane", "r18", "ld_bn_adapt", 2, 90.0, 0, 0)
        assert cell.label == "ld_bn_adapt(bs=2)"
        assert Fig2Cell("molane", "r18", "no_adapt", None, 70.0, 0, 0).label == "no_adapt"


class TestCensusHarness:
    def test_param_census_rows(self):
        rows = run_param_census()
        assert {r["preset"] for r in rows} == {"paper-r18", "paper-r34"}
        for row in rows:
            assert row["bn_fraction_of_model"] < 0.01
            assert row["bn_fraction_of_backbone"] < 0.01
            assert row["bn_params"] > 0

    def test_sota_cost_rows(self):
        rows = run_sota_cost()
        assert {r["benchmark"] for r in rows} == set(BENCHMARK_NAMES)
        for row in rows:
            assert row["epoch_vs_step_ratio"] > 1e4
        mulane = next(r for r in rows if r["benchmark"] == "mulane")
        assert mulane["sota_epoch_hours"] > 1.0


class TestFig2HarnessSlice:
    """A reduced live run of the Fig. 2 grid (single benchmark/backbone,
    no SOTA, micro data sizes) validating the orchestration."""

    @pytest.mark.slow
    def test_slice_runs_and_orders(self):
        from repro.experiments import run_fig2

        scale = RunScale(
            name="micro",
            preset_prefix="tiny",
            source_frames=60,
            target_train_frames=30,
            target_test_frames=30,
            train_epochs=4,
            train_lr=0.02,
            train_batch_size=16,
            adapt_lr=1e-3,
            sota_epochs=1,
            seed=11,
        )
        result = run_fig2(
            scale=scale,
            benchmarks=("molane",),
            backbones=("r18",),
            batch_sizes=(1,),
            include_sota=False,
        )
        no_adapt = result.get("molane", "r18", "no_adapt")
        adapted = result.get("molane", "r18", "ld_bn_adapt", 1)
        assert adapted.accuracy_percent > no_adapt.accuracy_percent
        assert 0 <= no_adapt.fp_rate <= 1


def _train_once(prepare):
    """``prepare`` that trains on its first call per scale and afterwards
    hands out the same model, reset to the trained state."""
    trained = {}

    def cached(scale):
        if scale not in trained:
            benchmark, model = prepare(scale)
            trained[scale] = benchmark, model, model.state_dict()
        benchmark, model, state = trained[scale]
        model.load_state_dict(state)
        return benchmark, model

    return cached


@pytest.fixture(scope="module")
def studies():
    """The serving-study modules, each training its source model once.

    Every study reloads the state it was handed before each fleet it
    serves, so a model shared between studies changes none of their
    rows; it saves ~3 s of training per test.
    """
    from repro.experiments import bench_scenarios, bench_serve

    with pytest.MonkeyPatch.context() as patch:
        for module in (bench_serve, bench_scenarios):
            patch.setattr(module, "_prepare", _train_once(module._prepare))
        yield bench_serve, bench_scenarios


class TestStudyProperties:
    """Each serving study's acceptance claim on its ``--quick`` size.

    Simulated clock and seeded arrivals throughout, so every assertion
    is deterministic: these are properties, not timings.
    """

    def test_slack_admission_dominates_static_stride(self, studies):
        serve, _ = studies
        serve.check_slack_dominates(
            serve.run_bench_serve(**serve.QUICK_ADMISSION)
        )

    def test_two_devices_sustain_1_8x_one(self, studies):
        serve, _ = studies
        serve.check_device_scaling(
            serve.run_bench_devices(
                device_counts=(1, 2), **serve.QUICK_SCALING
            )
        )

    def test_tracing_is_bitwise_inert(self, studies):
        serve, _ = studies
        serve.check_trace_overhead(
            serve.run_bench_overhead(**serve.QUICK_OVERHEAD)
        )

    def test_crash_recovery_replays_bitwise_with_bounded_loss(self, studies):
        serve, _ = studies
        serve.check_recovery(serve.run_bench_recovery(**serve.QUICK_RECOVERY))

    def test_drift_resets_recover_faster(self, studies):
        _, scenarios = studies
        scenarios.check_scenarios(
            scenarios.run_bench_scenarios(**scenarios.QUICK_MATRIX)
        )

    def test_thread_pricing_admits_more_steps(self, studies):
        serve, _ = studies
        serve.check_thread_pricing(serve.run_bench_thread_pricing())

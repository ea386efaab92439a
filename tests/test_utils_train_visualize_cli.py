"""Coverage for utils (rng/logging/profiling), the trainer, visualization
and the experiments CLI."""

import io
from pathlib import Path

import numpy as np
import pytest

from repro.data.visualize import ascii_frame, ascii_lanes, frame_report
from repro.experiments.cli import main as cli_main
from repro.models import decode_predictions, get_config
from repro.train import SourceTrainer, TrainConfig, TrainReport
from repro.utils import Logger, make_rng, rng_stream, set_verbosity, split_rng
from repro.utils.rng import child_seed


class TestRngUtils:
    def test_make_rng_deterministic(self):
        a = make_rng(42).random(3)
        b = make_rng(42).random(3)
        np.testing.assert_array_equal(a, b)

    def test_child_seed_stable_and_distinct(self):
        assert child_seed(7, 3) == child_seed(7, 3)
        assert child_seed(7, 3) != child_seed(7, 4)
        assert child_seed(8, 3) != child_seed(7, 3)
        with pytest.raises(ValueError):
            child_seed(7, -1)

    def test_child_seed_string_namespace(self):
        """Stream-id-keyed seeds: stable, distinct, disjoint from ints.

        The fleet derives arrival-process seeds from stream ids, so a
        stream's realization is invariant to registration order and to
        how sessions are sharded across a device pool.
        """
        assert child_seed(7, "vehicle-0") == child_seed(7, "vehicle-0")
        assert child_seed(7, "vehicle-0") != child_seed(7, "vehicle-1")
        assert child_seed(8, "vehicle-0") != child_seed(7, "vehicle-0")
        # string keys never collide with the integer namespace; integer
        # keys stay single-word (and therefore disjoint) by validation
        assert child_seed(7, "0") != child_seed(7, 0)
        assert child_seed(7, "") != child_seed(7, 0)
        assert child_seed(7, "") != child_seed(7, 2**32 - 1)
        with pytest.raises(ValueError):
            child_seed(7, 2**32)

    def test_split_rng_independent_and_stable(self):
        parent1 = make_rng(0)
        parent2 = make_rng(0)
        kids1 = split_rng(parent1, 3)
        kids2 = split_rng(parent2, 3)
        for k1, k2 in zip(kids1, kids2):
            np.testing.assert_array_equal(k1.random(4), k2.random(4))
        # siblings differ
        assert not np.allclose(kids1[0].random(4), kids1[1].random(4))

    def test_split_rng_negative_count(self):
        with pytest.raises(ValueError):
            split_rng(make_rng(0), -1)

    def test_rng_stream_yields_fresh_generators(self):
        stream = rng_stream(make_rng(7))
        g1, g2 = next(stream), next(stream)
        assert not np.allclose(g1.random(4), g2.random(4))


class TestLogger:
    def test_info_respects_verbosity(self):
        buf = io.StringIO()
        log = Logger("test", stream=buf)
        set_verbosity(0)
        try:
            log.info("hidden")
            assert buf.getvalue() == ""
            set_verbosity(1)
            log.info("shown %d", 42)
            assert "shown 42" in buf.getvalue()
        finally:
            set_verbosity(1)

    def test_debug_needs_level_2(self):
        buf = io.StringIO()
        log = Logger("t", stream=buf)
        set_verbosity(1)
        log.debug("quiet")
        assert buf.getvalue() == ""
        set_verbosity(2)
        try:
            log.debug("loud")
            assert "loud" in buf.getvalue()
        finally:
            set_verbosity(1)

    def test_warning_always_prints(self):
        buf = io.StringIO()
        log = Logger("t", stream=buf)
        set_verbosity(0)
        try:
            log.warning("danger")
            assert "danger" in buf.getvalue()
        finally:
            set_verbosity(1)


class TestTrainer:
    def test_report_shape(self, tiny_benchmark):
        from repro.models import build_model

        model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(0))
        trainer = SourceTrainer(model, TrainConfig(epochs=2, lr=0.02))
        calls = []

        def hook(m):
            calls.append(1)
            return {"metric": 1.0}

        report = trainer.fit(
            tiny_benchmark.source_train.subset(range(32)),
            np.random.default_rng(0),
            eval_fn=hook,
        )
        assert len(report.epoch_losses) == 2
        assert len(report.eval_history) == 2
        assert len(calls) == 2
        assert report.final_loss == report.epoch_losses[-1]

    def test_loss_decreases_across_epochs(self, tiny_benchmark):
        from repro.models import build_model

        model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
        trainer = SourceTrainer(model, TrainConfig(epochs=4, lr=0.02))
        report = trainer.fit(
            tiny_benchmark.source_train.subset(range(64)), np.random.default_rng(0)
        )
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_model_left_in_eval(self, tiny_benchmark):
        from repro.models import build_model

        model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(2))
        SourceTrainer(model, TrainConfig(epochs=1)).fit(
            tiny_benchmark.source_train.subset(range(16)), np.random.default_rng(0)
        )
        assert all(not m.training for m in model.modules())

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_report_final_loss_nan(self):
        assert np.isnan(TrainReport().final_loss)


class TestVisualize:
    def test_ascii_frame_dimensions(self, tiny_benchmark):
        image = tiny_benchmark.source_train.images[0]
        art = ascii_frame(image, width=40)
        lines = art.splitlines()
        assert all(len(line) == 40 for line in lines)
        assert len(lines) >= 4

    def test_ascii_frame_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ascii_frame(np.zeros((32, 80)))

    def test_ascii_frame_brightness_mapping(self):
        dark = np.zeros((3, 8, 16), dtype=np.float32)
        bright = np.ones((3, 8, 16), dtype=np.float32)
        assert set(ascii_frame(dark, width=16).replace("\n", "")) == {" "}
        assert set(ascii_frame(bright, width=16).replace("\n", "")) == {"@"}

    def test_ascii_lanes_marks_matches(self):
        cfg = get_config("tiny-r18", num_lanes=2)
        gt = np.full((cfg.num_anchors, 2), np.nan)
        gt[:, 0] = 3.0
        art = ascii_lanes(cfg, gt.copy(), gt_cells=gt, width=40)
        assert "*" in art  # prediction == truth renders as overlap
        assert art.count("\n") == cfg.num_anchors - 1

    def test_ascii_lanes_prediction_only(self):
        cfg = get_config("tiny-r18", num_lanes=2)
        pred = np.full((cfg.num_anchors, 2), np.nan)
        pred[:, 1] = 7.0
        art = ascii_lanes(cfg, pred, width=40)
        assert "1" in art and "*" not in art

    def test_frame_report_combines(self, trained_tiny_model, tiny_benchmark):
        from repro import nn

        sample = tiny_benchmark.target_test[0]
        with nn.no_grad():
            logits = trained_tiny_model(nn.Tensor(sample.image[None]))
        pred = decode_predictions(logits.numpy(), trained_tiny_model.config)[0]
        report = frame_report(
            sample.image, trained_tiny_model.config, pred, sample.gt_cells
        )
        assert "-" * 10 in report
        assert len(report.splitlines()) > 10


class TestCLI:
    def test_fig3(self, capsys):
        assert cli_main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "FIG3" in out and "MATCHES" in out

    def test_census(self, capsys):
        assert cli_main(["census"]) == 0
        assert "paper-r18" in capsys.readouterr().out

    def test_sota_cost(self, capsys):
        assert cli_main(["sota-cost"]) == 0
        assert "mulane" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert cli_main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "model_vehicle" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig9"])

    def test_bench_infer_quick(self, capsys):
        """Quick engine benchmark: parity asserted, nothing written."""
        before = _results_snapshot()
        assert cli_main(["bench-infer", "--quick"]) == 0
        assert "BENCH-INFER" in capsys.readouterr().out
        assert _results_snapshot() == before

    @pytest.mark.slow
    def test_bench_serve_quick(self, capsys):
        """Quick jittered-admission study through the CLI: it prints its
        table, asserts its claim and leaves the committed archive alone."""
        before = _results_snapshot()
        assert cli_main(["bench-serve", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "BENCH-SERVE" in out
        assert "stride-1" in out and "slack" in out
        assert _results_snapshot() == before


#: one row set per bench-serve / bench-scenarios study that breaks its
#: property: (argv, the cli-module study function, its --quick kwargs,
#: rows, the failure banner the subcommand prints)
_VIOLATIONS = {
    "admission": (
        ["bench-serve"], "run_bench_serve", "QUICK_ADMISSION",
        [  # the slack fleet is out-adapted at an equal miss rate
            {"policy": "stride-1", "miss_rate": 0.0, "steps_per_tick": 1.0,
             "adapting_streams": 4},
            {"policy": "slack", "miss_rate": 0.0, "steps_per_tick": 0.5,
             "adapting_streams": 4},
        ],
        "ADMISSION FAILURE",
    ),
    "devices": (
        ["bench-serve", "--devices", "2"], "run_bench_devices",
        "QUICK_SCALING",
        [  # two devices sustain no more streams than one
            {"devices": d, "streams": s, "sustained": s == 1}
            for d in (1, 2) for s in (1, 2)
        ],
        "SCALING FAILURE",
    ),
    "trace": (
        ["bench-serve", "--trace"], "run_bench_overhead", "QUICK_OVERHEAD",
        [  # tracing changed the per-stream outputs
            {"mode": mode, "spans": 5, "p95_latency_ms": 30.0,
             "parity_ok": False}
            for mode in ("untraced", "traced")
        ],
        "TELEMETRY FAILURE",
    ),
    "recovery": (
        ["bench-serve", "--recovery"], "run_bench_recovery", "QUICK_RECOVERY",
        [  # checkpointing changed a fault-free fleet's outputs
            {"scenario": "checkpointed", "checkpoint_inert": False,
             "checkpoint_writes": 3},
            {"scenario": "crash", "replay_ok": True},
            {"scenario": "store", "bank": 2, "tmp_left": 0},
        ],
        "RECOVERY FAILURE",
    ),
    "scenarios": (
        ["bench-scenarios"], "run_bench_scenarios", "QUICK_MATRIX",
        [  # no drift alarm fired on a scheduled shift
            {"scenario": "night_cut", "policy": policy, "drift_events": 0,
             "accuracy": 0.9, "cluster_restores": 0, "shifts": 1,
             "recovery_frames": 4.0}
            for policy in ("none", "reset")
        ],
        "SCENARIO FAILURE",
    ),
}


def _stub_study(monkeypatch, name):
    """Swap the study a bench subcommand runs for canned violating rows;
    returns (argv, the study's --quick kwargs, the banner, the kwargs
    each call received)."""
    from repro.experiments import cli

    argv, runner, quick, rows, banner = _VIOLATIONS[name]
    calls = []

    def study(**kwargs):
        calls.append(kwargs)
        return [dict(row) for row in rows]

    monkeypatch.setattr(cli, runner, study)
    return argv, getattr(cli, quick), banner, calls


class TestBenchExitCodes:
    """A bench subcommand prints its table, asserts its study's property
    and returns its exit code; it writes nothing."""

    @pytest.mark.parametrize("name", sorted(_VIOLATIONS))
    def test_broken_property_exits_1(self, name, monkeypatch, capsys):
        argv, quick, banner, calls = _stub_study(monkeypatch, name)
        before = _results_snapshot()
        assert cli_main(argv + ["--quick"]) == 1
        assert banner in capsys.readouterr().out
        (kwargs,) = calls
        assert quick.items() <= kwargs.items()
        assert _results_snapshot() == before

    @pytest.mark.parametrize("name", sorted(_VIOLATIONS))
    def test_full_size_without_quick(self, name, monkeypatch, capsys):
        argv, quick, _, calls = _stub_study(monkeypatch, name)
        assert cli_main(argv) == 1
        (kwargs,) = calls
        assert not set(quick) & set(kwargs), kwargs


RESULTS =Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _results_snapshot():
    """Every file under ``benchmarks/results``: its bytes and mtime."""
    return {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in RESULTS.rglob("*")
        if path.is_file()
    }

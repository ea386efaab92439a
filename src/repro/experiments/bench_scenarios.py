"""SCENARIO MATRIX — drift-aware adaptation resets across shift schedules.

Serves every named scenario in :data:`repro.data.SCENARIOS` through the
simulated-Orin fleet twice — once with drift detection + adaptation
resets enabled (``reset``) and once without (``none``) — and reports,
per (scenario, policy) pair:

* frame-weighted lane **accuracy** and deadline **miss rate**;
* the drift counters (alarms, resets applied, cluster warm-starts);
* **recovery_frames** — the mean number of frames after each scheduled
  shift until rolling accuracy returns to within
  :data:`RECOVERY_FRACTION` of that segment's own settled level (the
  mean over the segment's last :data:`RECOVERY_WINDOW` frames, i.e. the
  freshly-adapted baseline).  A shift whose segment never recovers is
  censored at the segment length.

:func:`check_scenarios` asserts the acceptance claims: the detector
fires on every scheduled-shift scenario and never on the stationary
control, resets never cost more than :data:`ACCURACY_TOLERANCE` mean
accuracy, recurring scenarios warm-start from the cluster bank, and at
least one scenario recovers strictly faster with resets than without.

Everything is simulated and seeded (scenario streams derive per-stream
seeds via ``utils.rng.child_seed``), so every row is exactly
reproducible and the claims are a deterministic test
(``tests/test_experiments.py``, on :data:`QUICK_MATRIX`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..adapt import LDBNAdaptConfig
from ..data import ScenarioStream, get_scenario
from ..data.benchmarks import make_benchmark
from ..data.domains import SCENARIOS
from ..hw.device import get_power_mode
from ..models.registry import get_config
from ..serve import DriftResetConfig, FleetConfig, FleetServer
from ..utils.logging import Logger
from .config import RunScale, get_run_scale
from .fig2_accuracy import train_source_model

log = Logger("bench-scenarios")

#: the 3-scenario subset of ``--quick`` (one novel cut, one recurring
#: oscillation exercising the cluster bank, one compound degradation),
#: and the whole quick configuration, shared by the CLI and the tests
QUICK_SCENARIOS = ("night_cut", "tunnel_strobe", "fog_glare")
QUICK_MATRIX = dict(scenario_names=QUICK_SCENARIOS, num_ticks=36)

#: adaptation cadence of the study: long enough that a shift landing
#: mid-stride leaves the no-reset policy serving stale statistics for
#: several frames — the gap the drift reset exists to close
ADAPT_STRIDE = 12

#: recovery metric: rolling window length, and the fraction of the
#: segment's settled accuracy that counts as "recovered"
RECOVERY_WINDOW = 4
RECOVERY_FRACTION = 0.95

#: resets may not cost more than this much mean accuracy on any scenario
ACCURACY_TOLERANCE = 0.05

#: display order of the matrix table
COLUMNS = (
    "scenario", "policy", "frames", "accuracy", "miss_rate",
    "drift_events", "drift_resets", "cluster_restores",
    "shifts", "recovery_frames", "fleet_fps",
)


def _prepare(scale: RunScale):
    benchmark = make_benchmark(
        "molane",
        get_config(scale.preset("r18")),
        source_frames=scale.source_frames,
        target_train_frames=2,
        target_test_frames=2,
        seed=scale.seed,
    )
    model = train_source_model(benchmark, "r18", scale)
    return benchmark, model


def _serve_scenario(
    model,
    pristine,
    scale: RunScale,
    scenario_name: str,
    num_streams: int,
    num_ticks: int,
    drift: Optional[DriftResetConfig],
):
    model.load_state_dict(pristine)
    scenario = get_scenario(scenario_name)
    render_config = get_config(
        scale.preset("r18"), num_lanes=model.config.num_lanes
    )
    server = FleetServer(
        model,
        FleetConfig(
            latency_model="orin", adapt_stride=ADAPT_STRIDE, drift=drift
        ),
        device=get_power_mode("orin-60w"),
        spec=get_config("paper-r18").to_spec(),
    )
    for i in range(num_streams):
        frames = (
            ScenarioStream(
                scenario,
                render_config,
                seed=scale.seed,
                stream_id=f"s{i}",
                horizon=num_ticks,
            )
            .take(num_ticks)
            .samples
        )
        server.add_stream(
            f"s{i}", iter(frames), adapter_config=LDBNAdaptConfig(lr=scale.adapt_lr)
        )
    return server.run(num_ticks)


def recovery_spans(
    accuracies: Sequence[float], shift_frames: Sequence[int], horizon: int
) -> List[int]:
    """Frames-to-recovery for each scheduled shift in one stream.

    For a shift at ``s`` whose segment runs to the next shift (or the
    horizon), the settled baseline is the mean accuracy over the
    segment's last :data:`RECOVERY_WINDOW` frames; recovery is the first
    frame index ``i >= s`` whose forward rolling window meets
    :data:`RECOVERY_FRACTION` of it.  A segment that never recovers is
    censored at its own length.  Segments shorter than the window are
    skipped (no settled baseline to measure against).
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    spans: List[int] = []
    boundaries = list(shift_frames) + [horizon]
    for pos, start in enumerate(shift_frames):
        end = boundaries[pos + 1]
        if end - start < RECOVERY_WINDOW or end > len(acc):
            continue
        settled = float(acc[end - RECOVERY_WINDOW : end].mean())
        target = RECOVERY_FRACTION * settled
        span = end - start  # censored
        for i in range(start, end - RECOVERY_WINDOW + 1):
            if float(acc[i : i + RECOVERY_WINDOW].mean()) >= target:
                span = i - start
                break
        spans.append(span)
    return spans


def _matrix_row(
    scenario_name: str,
    policy: str,
    report,
    scale: RunScale,
    num_ticks: int,
) -> Dict[str, object]:
    scenario = get_scenario(scenario_name)
    spans: List[int] = []
    for sid, stream_report in report.stream_reports.items():
        phase = scenario.phase_offset(scale.seed, sid)
        shifts = scenario.shift_frames(phase, num_ticks)
        accuracies = [f.accuracy for f in stream_report.frames]
        spans.extend(recovery_spans(accuracies, shifts, num_ticks))
    return {
        "scenario": scenario_name,
        "policy": policy,
        "frames": report.total_frames,
        "accuracy": report.mean_accuracy,
        "miss_rate": report.deadline_miss_rate,
        "drift_events": report.total_drift_events,
        "drift_resets": report.total_drift_resets,
        "cluster_restores": report.total_drift_cluster_restores,
        "shifts": len(spans),
        "recovery_frames": float(np.mean(spans)) if spans else 0.0,
        "fleet_fps": report.frames_per_second,
    }


def run_bench_scenarios(
    scale: Optional[RunScale] = None,
    scenario_names: Optional[Sequence[str]] = None,
    num_streams: int = 2,
    num_ticks: int = 48,
) -> List[Dict[str, object]]:
    """Serve the scenario matrix; returns table-ready rows.

    Each scenario is served twice from the same pristine source model:
    ``none`` (no drift detection — recovery waits for the stride-granted
    adaptation step) and ``reset`` (signature-CUSUM alarms trigger
    immediate adaptation resets with cluster warm-starts).
    """
    scale = scale if scale is not None else get_run_scale()
    names = tuple(scenario_names) if scenario_names else tuple(sorted(SCENARIOS))
    _, model = _prepare(scale)
    pristine = model.state_dict()

    rows: List[Dict[str, object]] = []
    for name in names:
        for policy, drift in (("none", None), ("reset", DriftResetConfig())):
            log.info("bench-scenarios: %s / %s", name, policy)
            report = _serve_scenario(
                model, pristine, scale, name, num_streams, num_ticks, drift
            )
            rows.append(_matrix_row(name, policy, report, scale, num_ticks))
    return rows


def check_scenarios(rows: List[Dict[str, object]]) -> None:
    """Assert the scenario-matrix acceptance claims over one run."""
    by = {(str(r["scenario"]), str(r["policy"])): r for r in rows}
    names = sorted({str(r["scenario"]) for r in rows})
    for name in names:
        assert (name, "none") in by and (name, "reset") in by, (
            f"scenario {name} is missing a policy row"
        )
        none_row, reset_row = by[(name, "none")], by[(name, "reset")]
        scheduled = bool(get_scenario(name).events)
        if scheduled:
            assert reset_row["drift_events"] >= 1, (
                f"{name}: no drift alarm fired on a scheduled shift",
                reset_row,
            )
        else:
            assert reset_row["drift_events"] == 0, (
                f"{name}: false drift alarm on the stationary control",
                reset_row,
            )
        assert (
            reset_row["accuracy"] >= none_row["accuracy"] - ACCURACY_TOLERANCE
        ), (f"{name}: resets cost accuracy", reset_row, none_row)
    recurring = [n for n in names if n in ("tunnel_strobe", "fog_bank")]
    if recurring:
        assert any(by[(n, "reset")]["cluster_restores"] >= 1 for n in recurring), (
            "no recurring scenario warm-started from the cluster bank",
            [by[(n, "reset")] for n in recurring],
        )
    shifted = [
        n
        for n in names
        if get_scenario(n).events and by[(n, "reset")]["shifts"]
    ]
    assert any(
        by[(n, "reset")]["recovery_frames"] < by[(n, "none")]["recovery_frames"]
        for n in shifted
    ), (
        "drift resets never recovered faster than stride-waiting",
        [(by[(n, "reset")], by[(n, "none")]) for n in shifted],
    )

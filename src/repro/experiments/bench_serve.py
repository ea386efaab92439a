"""SERVE-ADMIT — jittered-arrival fleet: admission policies + device scaling.

The regime the tick-synchronous loop could not express: frames arrive
with per-stream phase offsets, transmission jitter and in-flight drops,
so the queue builds and drains stochastically and deadline-aware
scheduling actually earns its keep.  On that arrival process this
module hosts two studies on the simulated Jetson Orin:

* :func:`run_bench_serve` — adaptation admission policies: ``stride-k``
  (the legacy static stagger, load-blind) vs. ``slack``
  (:class:`repro.serve.admission.SlackAdmission`: steps granted from
  observed deadline slack and the roofline feasibility budget, shed
  when hot, caught up when idle, phase-packed when fusing helps).  The
  asserted claim is Pareto dominance: at equal deadline-miss rate,
  slack admission sustains at least the static fleet's adaptation
  throughput.
* :func:`run_bench_devices` — device-pool scaling: for each pool size,
  grow the number of always-adapting streams until the fleet misses
  more than :data:`SCALING_MISS_BUDGET` of its deadlines; the largest
  fleet still under budget is the pool's *sustained* capacity.
  :func:`check_device_scaling` asserts the acceptance claim: at equal
  deadline-miss rate, a 2-device pool sustains >= 1.8x the adapting
  streams of one device.

* :func:`run_bench_recovery` — elastic-pool fault tolerance: the same
  jittered 2-device fleet served fault-free, fault-free with session
  checkpointing enabled (must be bitwise inert), and through a seeded
  mid-run crash + device join (run twice — the replay must be bitwise
  identical, every hosted session must recover, and the adapted-state
  frames lost must stay under the checkpoint interval per recovered
  stream).  :func:`check_recovery` asserts all three claims.

Everything is simulated (roofline service times, seeded arrivals), so
every row but the host-timed ones (``host_wall_ms``, the checkpoint
store's ``*_ms_p50/p95``) is exactly reproducible, and each ``check_*``
is a deterministic property: ``tests/test_experiments.py`` asserts every
one of them on its ``QUICK_*`` configuration.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from ..adapt import LDBNAdaptConfig
from ..data import ScenarioStream, get_scenario
from ..data.benchmarks import make_benchmark
from ..hw.device import get_power_mode
from ..models.registry import get_config
from ..hw.deadline import DEADLINE_30FPS_MS
from ..serve import (
    AdmissionConfig,
    CheckpointConfig,
    DriftResetConfig,
    FaultSchedule,
    FleetConfig,
    FleetServer,
    MigrationConfig,
)
from ..telemetry import SpanTracer
from ..utils.logging import Logger
from .bench_infer import _time_ms
from .config import RunScale, get_run_scale
from .fig2_accuracy import train_source_model

log = Logger("bench-serve")

#: arrival process of the study: ~1/3 period jitter, light drops, phases
#: spread across the period so cohorts never align
JITTER_MS = 10.0
PHASE_SPREAD_MS = 7.0
DROP_RATE = 0.05
STRIDES = (1, 2, 4, 8, 16)
MISS_RATE_TOLERANCE = 0.02

#: device-scaling study: pool sizes swept, the deadline-miss budget a
#: fleet must stay under to count as sustained, and the stream-count
#: scan ceiling
DEVICE_COUNTS = (1, 2, 4)
SCALING_MISS_BUDGET = 0.15
SCALING_MAX_STREAMS = 10
SCALING_FACTOR = 1.8  # 2 devices must sustain >= 1.8x the streams of 1

#: ``--quick``: the CI-sized configuration of each study, shared by the
#: CLI and the property tests (the functions' defaults are the full runs)
QUICK_ADMISSION = dict(num_ticks=24, strides=(1, 8, 16))
QUICK_SCALING = dict(num_ticks=16, max_streams=6)
QUICK_OVERHEAD = dict(num_ticks=16)
QUICK_RECOVERY = dict(num_ticks=12)

#: display order of the study's table, shared by the CLI and the
#: benchmark harness (the archived rows additionally carry every
#: _policy_row key)
COLUMNS = (
    "policy", "frames", "dropped", "miss_rate", "adapt_steps",
    "steps_per_tick", "adapting_streams", "grant_rate",
    "mean_queue_depth", "slack_p10_ms", "fleet_fps",
)

#: display order of the device-scaling table
DEVICE_COLUMNS = (
    "devices", "streams", "frames", "miss_rate", "adapt_steps",
    "adapting_streams", "mean_queue_depth", "max_device_utilization",
    "fleet_fps", "sustained",
)


def _prepare(scale: RunScale):
    benchmark = make_benchmark(
        "mulane",
        get_config(scale.preset("r18")),
        source_frames=scale.source_frames,
        target_train_frames=2,
        target_test_frames=2,
        seed=scale.seed,
    )
    model = train_source_model(benchmark, "r18", scale)
    return benchmark, model


def _run_fleet(
    model,
    pristine,
    benchmark,
    scale: RunScale,
    num_streams: int,
    num_ticks: int,
    tracer: Optional[SpanTracer] = None,
    **config_kwargs,
):
    model.load_state_dict(pristine)
    server = FleetServer(
        model,
        FleetConfig(latency_model="orin", **config_kwargs),
        device=get_power_mode("orin-60w"),
        spec=get_config("paper-r18").to_spec(),
        tracer=tracer,
    )
    for i in range(num_streams):
        stream = (
            benchmark.target_stream(rng=np.random.default_rng(scale.seed + 700 + i))
            .take(num_ticks)
            .samples
        )
        server.add_stream(
            f"s{i}", iter(stream), adapter_config=LDBNAdaptConfig(lr=scale.adapt_lr)
        )
    return server.run(num_ticks)


def _policy_row(policy: str, report, num_ticks: int) -> Dict[str, object]:
    return {
        "policy": policy,
        "frames": report.total_frames,
        "dropped": report.total_dropped_frames,
        "miss_rate": report.deadline_miss_rate,
        "adapt_steps": report.adaptation_steps,
        "steps_per_tick": report.adaptation_steps / num_ticks,
        "adapting_streams": report.adapting_streams,
        "grant_rate": report.admission_grant_rate,
        "mean_queue_depth": report.mean_queue_depth,
        "slack_p10_ms": report.slack_percentile(10),
        "fleet_fps": report.frames_per_second,
        "mean_adapt_batch": report.mean_adapt_batch_size,
    }


def per_stream_outputs(report) -> List[tuple]:
    """Everything a fleet's frames record, flattened for exact parity
    comparisons — the one definition of "identical per-stream outputs"
    shared by the benchmark guard and the test suite."""
    return [
        (sid, f.latency_ms, f.accuracy, f.entropy, f.adapted, f.adapt_ms)
        for sid, stream_report in report.stream_reports.items()
        for f in stream_report.frames
    ]


def check_slack_dominates(rows: List[Dict[str, object]]) -> None:
    """Assert the acceptance claim over one set of policy rows.

    * every static row serving at-or-under the slack fleet's miss rate
      (plus tolerance) must not out-adapt it, and
    * at least one static row is Pareto-dominated outright: it adapts no
      more than the slack fleet yet misses strictly more deadlines —
      the non-vacuous half of "at equal miss rate, slack sustains >=
      the static fleet's adaptation".
    """
    slack = next(r for r in rows if r["policy"] == "slack")
    static = [r for r in rows if str(r["policy"]).startswith("stride")]
    for row in static:
        if row["miss_rate"] <= slack["miss_rate"] + MISS_RATE_TOLERANCE:
            assert slack["steps_per_tick"] >= row["steps_per_tick"], (slack, row)
            assert slack["adapting_streams"] >= row["adapting_streams"], (
                slack,
                row,
            )
    assert any(
        row["steps_per_tick"] <= slack["steps_per_tick"]
        and row["miss_rate"] > slack["miss_rate"] + MISS_RATE_TOLERANCE
        for row in static
    ), rows


def run_bench_serve(
    scale: Optional[RunScale] = None,
    num_streams: int = 4,
    num_ticks: int = 36,
    strides=STRIDES,
    devices: int = 1,
    placement: str = "least_loaded",
    backend: str = "numpy",
) -> List[Dict[str, object]]:
    """The jittered-arrival admission study; returns table-ready rows.

    ``devices``/``placement`` shard every fleet of the study across a
    homogeneous pool.
    """
    scale = scale if scale is not None else get_run_scale()
    benchmark, model = _prepare(scale)
    pristine = model.state_dict()
    shard = dict(devices=devices, placement=placement, backend=backend)
    arrival = dict(
        jitter_ms=JITTER_MS,
        phase_spread_ms=PHASE_SPREAD_MS,
        drop_rate=DROP_RATE,
    )

    rows: List[Dict[str, object]] = []
    for stride in strides:
        log.info("bench-serve: static stride-%d fleet", stride)
        report = _run_fleet(
            model, pristine, benchmark, scale, num_streams, num_ticks,
            adapt_stride=stride, **arrival, **shard,
        )
        rows.append(_policy_row(f"stride-{stride}", report, num_ticks))
    log.info("bench-serve: slack-admission fleet")
    report = _run_fleet(
        model, pristine, benchmark, scale, num_streams, num_ticks,
        admission=AdmissionConfig(), **arrival, **shard,
    )
    rows.append(_policy_row("slack", report, num_ticks))
    return rows


#: display order of the thread-pricing table
THREAD_PRICING_COLUMNS = (
    "policy", "frames", "miss_rate", "adapt_steps", "steps_per_tick",
    "adapting_streams", "grant_rate", "slack_p10_ms", "fleet_fps",
)


def run_bench_thread_pricing(
    scale: Optional[RunScale] = None,
    num_streams: int = 4,
    num_ticks: int = 24,
    threads: int = 2,
    backend: str = "numpy",
) -> List[Dict[str, object]]:
    """Thread-aware roofline re-pricing: does honesty buy adaptation?

    Serves the same jittered slack-admission fleet twice on one
    simulated Orin: once priced single-thread (``FleetConfig.threads``
    unset) and once with the ``threads``-wide kernel pool re-pricing the
    roofline's compute term (:func:`repro.hw.deadline.parallel_speedup`).
    The admission controller budgets steps from modeled slack, so a
    device the model *knows* is faster can grant strictly more
    adaptation at the same deadline-miss budget — that claim
    (:func:`check_thread_pricing`) is the gate.  Everything is simulated
    and seeded, so the rows are exactly reproducible.
    """
    scale = scale if scale is not None else get_run_scale()
    benchmark, model = _prepare(scale)
    pristine = model.state_dict()
    arrival = dict(
        jitter_ms=JITTER_MS,
        phase_spread_ms=PHASE_SPREAD_MS,
        drop_rate=DROP_RATE,
    )
    rows: List[Dict[str, object]] = []
    for label, nt in (("threads-1", None), (f"threads-{threads}", threads)):
        log.info("bench-serve: thread-pricing fleet (%s)", label)
        report = _run_fleet(
            model, pristine, benchmark, scale, num_streams, num_ticks,
            admission=AdmissionConfig(), threads=nt, backend=backend,
            **arrival,
        )
        rows.append(_policy_row(label, report, num_ticks))
    return rows


def check_thread_pricing(rows: List[Dict[str, object]]) -> None:
    """Assert the re-pricing claim over one thread-pricing row pair.

    The threaded-priced fleet must grant strictly more adaptation steps
    than the single-thread-priced one without buying them with missed
    deadlines (miss rate within tolerance of the single-thread fleet's).
    """
    single = next(r for r in rows if r["policy"] == "threads-1")
    threaded = next(r for r in rows if r["policy"] != "threads-1")
    assert threaded["adapt_steps"] > single["adapt_steps"], (
        "thread-aware pricing should admit strictly more adaptation "
        f"steps: {rows}"
    )
    assert (
        threaded["miss_rate"] <= single["miss_rate"] + MISS_RATE_TOLERANCE
    ), f"threaded pricing bought steps with deadline misses: {rows}"


#: traced serving may cost at most this fraction over untraced, on both
#: the simulated p95 (must in fact be identical — the clock never sees
#: the tracer) and the measured host wall time of the whole run
TRACE_OVERHEAD_BUDGET = 0.05

#: display order of the telemetry-overhead table
OVERHEAD_COLUMNS = (
    "mode", "frames", "spans", "p95_latency_ms", "fleet_fps",
    "host_wall_ms", "parity_ok",
)


def run_bench_overhead(
    scale: Optional[RunScale] = None,
    num_streams: int = 4,
    num_ticks: int = 24,
    devices: int = 2,
    placement: str = "least_loaded",
    backend: str = "numpy",
) -> List[Dict[str, object]]:
    """Telemetry-overhead study: the same jittered fleet traced vs not.

    Serves an identical 4-stream, 2-device fleet twice from a pristine
    model — once with :data:`~repro.telemetry.NULL_TRACER` (the default)
    and once with a live :class:`~repro.telemetry.SpanTracer` — and
    returns one row per mode.  Telemetry must be provably inert: the
    traced run's per-stream outputs are compared bitwise against the
    untraced run's (``parity_ok``), its simulated percentiles are the
    same numbers, and the measured host wall time carries the only real
    cost (reported, not asserted: host timings are nondeterministic).
    """
    scale = scale if scale is not None else get_run_scale()
    benchmark, model = _prepare(scale)
    pristine = model.state_dict()
    arrival = dict(
        jitter_ms=JITTER_MS,
        phase_spread_ms=PHASE_SPREAD_MS,
        drop_rate=DROP_RATE,
    )

    rows: List[Dict[str, object]] = []
    outputs: Dict[str, List[tuple]] = {}
    for mode in ("untraced", "traced"):
        log.info("bench-serve: telemetry overhead, %s fleet", mode)
        tracer = SpanTracer() if mode == "traced" else None
        start = time.perf_counter()
        report = _run_fleet(
            model, pristine, benchmark, scale, num_streams, num_ticks,
            adapt_stride=1, devices=devices, placement=placement,
            backend=backend, tracer=tracer, **arrival,
        )
        wall_ms = 1e3 * (time.perf_counter() - start)
        outputs[mode] = per_stream_outputs(report)
        rows.append(
            {
                "mode": mode,
                "frames": report.total_frames,
                "spans": len(tracer) if tracer is not None else 0,
                "p95_latency_ms": report.p95_latency_ms,
                "fleet_fps": report.frames_per_second,
                "host_wall_ms": wall_ms,
            }
        )
    parity = outputs["traced"] == outputs["untraced"]
    for row in rows:
        row["parity_ok"] = parity
    return rows


def check_trace_overhead(rows: List[Dict[str, object]]) -> None:
    """Assert the telemetry acceptance claims over one overhead run."""
    by_mode = {str(r["mode"]): r for r in rows}
    untraced, traced = by_mode["untraced"], by_mode["traced"]
    assert traced["parity_ok"], (
        "tracing changed per-stream serving outputs"
    )
    assert traced["spans"] > 0, "traced run collected no telemetry"
    budget = 1.0 + TRACE_OVERHEAD_BUDGET
    assert traced["p95_latency_ms"] <= untraced["p95_latency_ms"] * budget, (
        traced,
        untraced,
    )


def _scaling_row(
    devices: int, streams: int, report, sustained: bool
) -> Dict[str, object]:
    return {
        "devices": devices,
        "streams": streams,
        "frames": report.total_frames,
        "miss_rate": report.deadline_miss_rate,
        "adapt_steps": report.adaptation_steps,
        "adapting_streams": report.adapting_streams,
        "mean_queue_depth": report.mean_queue_depth,
        "max_device_utilization": report.max_device_utilization,
        "fleet_fps": report.frames_per_second,
        "sustained": sustained,
    }


def run_bench_devices(
    scale: Optional[RunScale] = None,
    device_counts=DEVICE_COUNTS,
    num_ticks: int = 24,
    max_streams: int = SCALING_MAX_STREAMS,
    placement: str = "least_loaded",
    backend: str = "numpy",
) -> List[Dict[str, object]]:
    """The device-pool scaling study; returns table-ready rows.

    For each pool size, adds always-adapting jittered streams one at a
    time until the fleet's deadline-miss rate exceeds
    :data:`SCALING_MISS_BUDGET` (or ``max_streams`` is reached); every
    probed fleet becomes one row, flagged ``sustained`` when it stayed
    under budget with every stream adapting.
    """
    scale = scale if scale is not None else get_run_scale()
    benchmark, model = _prepare(scale)
    pristine = model.state_dict()
    arrival = dict(
        jitter_ms=JITTER_MS,
        phase_spread_ms=PHASE_SPREAD_MS,
        drop_rate=DROP_RATE,
    )
    rows: List[Dict[str, object]] = []
    for devices in device_counts:
        for streams in range(1, max_streams + 1):
            log.info(
                "bench-serve: %d-device pool, %d adapting streams",
                devices,
                streams,
            )
            report = _run_fleet(
                model, pristine, benchmark, scale, streams, num_ticks,
                adapt_stride=1, devices=devices, placement=placement,
                backend=backend, **arrival,
            )
            sustained = (
                report.deadline_miss_rate <= SCALING_MISS_BUDGET
                and report.adapting_streams == streams
            )
            rows.append(_scaling_row(devices, streams, report, sustained))
            if not sustained:
                break  # the pool saturated; larger fleets only miss more
    return rows


def sustained_streams(rows: List[Dict[str, object]]) -> Dict[int, int]:
    """Largest sustained fleet per pool size from scaling-study rows."""
    capacity: Dict[int, int] = {}
    for row in rows:
        devices = int(row["devices"])
        capacity.setdefault(devices, 0)
        if row["sustained"]:
            capacity[devices] = max(capacity[devices], int(row["streams"]))
    return capacity


def _censored_capacities(rows: List[Dict[str, object]]) -> Dict[int, bool]:
    """Pool sizes whose scan ended still sustained (capacity is only a
    lower bound: the stream scan hit its ceiling before saturating)."""
    last_sustained: Dict[int, bool] = {}
    last_streams: Dict[int, int] = {}
    for row in rows:
        devices = int(row["devices"])
        if int(row["streams"]) >= last_streams.get(devices, -1):
            last_streams[devices] = int(row["streams"])
            last_sustained[devices] = bool(row["sustained"])
    return last_sustained


def check_device_scaling(rows: List[Dict[str, object]]) -> None:
    """Assert the scaling acceptance claim over one set of study rows.

    At equal deadline-miss budget, a 2-device pool must sustain at least
    :data:`SCALING_FACTOR` (1.8x) the adapting streams of one device,
    and capacity must never shrink as the pool grows.  A scan that hit
    its stream ceiling still sustained measured only a *lower bound*,
    so the gate distinguishes "did not scale" from "ceiling too low to
    tell" instead of failing spuriously on censored capacity.
    """
    capacity = sustained_streams(rows)
    censored = _censored_capacities(rows)
    assert capacity.get(1, 0) >= 1, capacity
    assert not censored.get(1, False), (
        f"1-device scan never saturated (capacity right-censored at "
        f"{capacity.get(1)}): raise max_streams so the baseline capacity "
        f"is actually measured; capacities={capacity}"
    )
    assert 2 in capacity, capacity
    if capacity[2] < SCALING_FACTOR * capacity[1]:
        assert not censored.get(2, False), (
            f"2-device capacity right-censored at {capacity[2]} — the "
            f"scan ceiling is too low to verify the >= {SCALING_FACTOR}x "
            f"claim; raise max_streams; capacities={capacity}"
        )
        raise AssertionError(
            f"2-device pool sustains {capacity[2]} adapting streams "
            f"< {SCALING_FACTOR} x the 1-device {capacity[1]}: {capacity}"
        )
    ordered = sorted(capacity)
    for smaller, larger in zip(ordered, ordered[1:]):
        assert capacity[larger] >= capacity[smaller], capacity


#: recovery study: checkpoint every N served frames, crash device 0 at
#: 45% of the horizon, join a 30 W device at 60%
RECOVERY_INTERVAL = 4
RECOVERY_CRASH_AT = 0.45
RECOVERY_JOIN_AT = 0.60

#: display order of the crash-recovery table
RECOVERY_COLUMNS = (
    "scenario", "frames", "miss_rate", "crashes", "recoveries",
    "device_joins", "frames_lost", "crash_dropped", "checkpoint_writes",
    "fleet_fps", "checkpoint_inert", "replay_ok", "loss_bounded",
)


#: checkpoint-store timing: a recurring-shift stream served until the
#: session's drift bank holds two regimes (the shape a fleet session
#: checkpoints at steady state), then timed writes / verified loads of it
STORE_SCENARIO = "tunnel_strobe"
STORE_TICKS = 48
STORE_SAMPLES = 200

#: display order of the checkpoint-store table
STORE_COLUMNS = (
    "scenario", "bank", "checkpoint_arrays", "checkpoint_bytes",
    "checkpoint_write_ms_p50", "checkpoint_write_ms_p95",
    "checkpoint_load_ms_p50", "checkpoint_load_ms_p95", "tmp_left",
)


def _store_row(model, pristine, scale: RunScale, backend: str) -> Dict[str, object]:
    """Write / load timings of the session store on a full-bank session."""
    model.load_state_dict(pristine)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as root:
        server = FleetServer(
            model,
            FleetConfig(
                latency_model="orin",
                drift=DriftResetConfig(),
                checkpoint=CheckpointConfig(
                    interval_frames=RECOVERY_INTERVAL, dir=root
                ),
                backend=backend,
            ),
            device=get_power_mode("orin-60w"),
            spec=get_config("paper-r18").to_spec(),
        )
        frames = (
            ScenarioStream(
                get_scenario(STORE_SCENARIO),
                get_config(
                    scale.preset("r18"), num_lanes=model.config.num_lanes
                ),
                seed=scale.seed,
                stream_id="s0",
                horizon=STORE_TICKS,
            )
            .take(STORE_TICKS)
            .samples
        )
        server.add_stream(
            "s0", iter(frames), adapter_config=LDBNAdaptConfig(lr=scale.adapt_lr)
        )
        server.run(STORE_TICKS)
        session, store = server.registry.get("s0"), server.checkpoints
        write_ms = _time_ms(lambda: store.checkpoint(session), STORE_SAMPLES)
        load_ms = _time_ms(lambda: store.load("s0"), STORE_SAMPLES)
        arrays, _ = store.load("s0")
        return {
            "scenario": "store",
            "bank": len(session.drift.bank),
            "checkpoint_arrays": len(arrays),
            "checkpoint_bytes": os.path.getsize(store.path_for("s0")),
            "checkpoint_write_ms_p50": float(np.percentile(write_ms, 50)),
            "checkpoint_write_ms_p95": float(np.percentile(write_ms, 95)),
            "checkpoint_load_ms_p50": float(np.percentile(load_ms, 50)),
            "checkpoint_load_ms_p95": float(np.percentile(load_ms, 95)),
            "tmp_left": sum(n.endswith(".tmp") for n in os.listdir(root)),
        }


def _recovery_row(scenario: str, report) -> Dict[str, object]:
    return {
        "scenario": scenario,
        "frames": report.total_frames,
        "miss_rate": report.deadline_miss_rate,
        "crashes": report.crashes,
        "recoveries": report.recoveries,
        "device_joins": report.device_joins,
        "frames_lost": report.total_frames_lost,
        "crash_dropped": report.total_crash_dropped_frames,
        "checkpoint_writes": report.checkpoint_writes,
        "fleet_fps": report.frames_per_second,
    }


def run_bench_recovery(
    scale: Optional[RunScale] = None,
    num_streams: int = 3,
    num_ticks: int = 24,
    backend: str = "numpy",
) -> List[Dict[str, object]]:
    """The crash-recovery study; returns table-ready rows.

    Serves the same jittered ``num_streams``-stream 2-device fleet four
    times from a pristine model:

    * ``baseline`` — fault-free, no checkpointing;
    * ``checkpointed`` — fault-free with the session checkpoint store
      on.  Captures copy state, so its per-stream outputs must be
      *bitwise* identical to the baseline (``checkpoint_inert``);
    * ``crash`` (x2) — a seeded :class:`FaultSchedule` kills device 0
      mid-run and joins an ``orin-30w`` device after; the second run
      replays the identical schedule and must reproduce the first
      bitwise (``replay_ok``).  Every session hosted by the dead device
      must recover, and the adapted-state frames lost must stay under
      ``RECOVERY_INTERVAL`` per recovered stream (``loss_bounded``).

    A fifth ``store`` row (:data:`STORE_COLUMNS`) times the session
    checkpoint store itself — durable write and verified load, p50/p95
    over :data:`STORE_SAMPLES` calls, and bytes per write — on a session
    whose drift bank holds two regimes, so the row times the checkpoint
    path at its steady-state size, not a fresh session's.
    """
    scale = scale if scale is not None else get_run_scale()
    benchmark, model = _prepare(scale)
    pristine = model.state_dict()
    arrival = dict(
        jitter_ms=JITTER_MS,
        phase_spread_ms=PHASE_SPREAD_MS,
        drop_rate=DROP_RATE,
    )
    shard = dict(devices=2, backend=backend)
    horizon_ms = num_ticks * DEADLINE_30FPS_MS
    schedule = FaultSchedule.parse(
        f"crash@{RECOVERY_CRASH_AT * horizon_ms:g}:0,"
        f"join@{RECOVERY_JOIN_AT * horizon_ms:g}:orin-30w"
    )

    log.info("bench-serve: recovery baseline (no faults, no checkpoints)")
    baseline = _run_fleet(
        model, pristine, benchmark, scale, num_streams, num_ticks,
        adapt_stride=1, **arrival, **shard,
    )
    rows = [_recovery_row("baseline", baseline)]

    log.info("bench-serve: recovery inertness (checkpoints, no faults)")
    checkpointed = _run_fleet(
        model, pristine, benchmark, scale, num_streams, num_ticks,
        adapt_stride=1,
        checkpoint=CheckpointConfig(interval_frames=RECOVERY_INTERVAL),
        **arrival, **shard,
    )
    inert = per_stream_outputs(checkpointed) == per_stream_outputs(baseline)
    row = _recovery_row("checkpointed", checkpointed)
    row["checkpoint_inert"] = inert
    rows.append(row)

    crash_outputs = []
    for attempt in ("crash", "crash-replay"):
        log.info("bench-serve: seeded crash+join fleet (%s)", attempt)
        report = _run_fleet(
            model, pristine, benchmark, scale, num_streams, num_ticks,
            adapt_stride=1,
            checkpoint=CheckpointConfig(interval_frames=RECOVERY_INTERVAL),
            faults=schedule,
            migration=MigrationConfig(),
            **arrival, **shard,
        )
        crash_outputs.append(per_stream_outputs(report))
        row = _recovery_row(attempt, report)
        row["loss_bounded"] = (
            report.total_frames_lost
            <= RECOVERY_INTERVAL * max(report.recoveries, 1)
        )
        rows.append(row)
    replay_ok = crash_outputs[0] == crash_outputs[1]
    for row in rows[2:]:
        row["replay_ok"] = replay_ok
    log.info("bench-serve: checkpoint store on a full-bank session")
    rows.append(_store_row(model, pristine, scale, backend))
    return rows


def check_recovery(rows: List[Dict[str, object]]) -> None:
    """Assert the fault-tolerance acceptance claims over one study run."""
    by_scenario = {str(r["scenario"]): r for r in rows}
    checkpointed = by_scenario["checkpointed"]
    crash = by_scenario["crash"]
    assert checkpointed["checkpoint_inert"], (
        "checkpointing changed a fault-free fleet's per-stream outputs"
    )
    assert checkpointed["checkpoint_writes"] > 0, checkpointed
    assert crash["replay_ok"], (
        "identical FaultSchedule seed did not replay bitwise"
    )
    assert crash["crashes"] == 1 and crash["device_joins"] == 1, crash
    assert crash["recoveries"] >= 1, (
        "the crashed device hosted no recovered session"
    )
    store = by_scenario["store"]
    assert store["bank"] >= 2, (
        f"the store was timed on a session with {store['bank']} banked "
        "regimes, not a full-bank one"
    )
    assert store["tmp_left"] == 0, "the store left *.tmp files behind"
    assert crash["loss_bounded"], (
        f"frames lost {crash['frames_lost']} exceeded the checkpoint "
        f"interval x recovered streams bound"
    )

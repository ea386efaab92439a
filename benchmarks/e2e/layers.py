"""Per-layer metrics of one traced run, by the names in BENCHMARK.json.

Layers are the repo's modules.  Timings come from the spans of the two
traced segments' timed windows (pooled) and are, like the end-to-end
clocks, in reference-host time: each segment's spans divided by its
``host_speed``.  Counts come from the first traced segment and from
public reports (``FleetReport``, plan ``stats`` and ``backend_info``);
FLOPs and bytes are *computed* from ``repro.models.flops``, not measured.
A layer a workload never enters reports 0 for all of its metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.models.flops import forward_bytes, forward_flops
from repro.models.registry import get_config

import spans as tracing
import workloads
from spans import ARG, END, NAME, START


def _p(values: Sequence[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _compile_s(segment) -> float:
    """Trace + lowering + C compile time of one segment: every
    ``engine.compile`` span that built a plan, warm-up ticks included."""
    return sum(
        row[END] - row[START] for row in segment.spans
        if row[NAME] == "engine.compile" and row[ARG]
    ) / segment.host_speed


def per_layer(run, e2e: Dict[str, float]) -> Dict[str, float]:
    """``run`` is a traced :class:`workloads.Run`; ``e2e`` its end-to-end
    metrics (taken from the untraced segment)."""
    spec = run.spec
    cold, warm = run.traced[0], run.traced[1]
    windows = [tracing.Window(s.spans, s.warmup, s.host_speed) for s in run.traced]
    counts = cold.counts
    frames = sum(s.window_frames for s in run.traced)
    first_frames = cold.window_frames

    def pooled(read: Callable[[tracing.Window], list]) -> list:
        return [v for w in windows for v in read(w)]

    def durations(name: str, keep: Optional[Callable] = None) -> list:
        return pooled(lambda w: w.durations(name, keep))

    def own(name: str, keep: Optional[Callable] = None) -> list:
        return pooled(lambda w: w.own(name, keep))

    def calls(name: str) -> float:
        return float(len(windows[0].durations(name)))

    infer_batch = _mean(pooled(lambda w: w.args("engine.infer")))
    model_spec = get_config(spec.preset, num_lanes=2).to_spec()
    stepping = lambda row: row[ARG] == 1  # noqa: E731 - observe calls that stepped
    wrote = lambda row: bool(row[ARG])  # noqa: E731 - checkpoint calls that wrote
    groups = pooled(lambda w: w.args("serve.adapt_batch.execute"))
    serial_steps = len(durations("adapt.observe", stepping))

    infos = [p.backend_info for p in cold.plans]
    stages = sum(int(i.get("stages", 0)) for i in infos)
    rendered = sum(int(i.get("rendered", 0)) for i in infos)
    layer_s = {layer: 0.0 for layer in tracing.LAYERS}
    for window in windows:
        for layer, seconds in window.layer_self_s().items():
            layer_s[layer] += seconds
    total_s = sum(layer_s.values())

    untraced_frames = sum(s.window_frames for s in run.untraced)
    yard_s = sum(s.yard_s for s in run.untraced)

    out = {
        # engine
        "engine.infer.replay_ms_p50": _p(durations("engine.infer"), 50, 1e3),
        "engine.infer.replay_ms_p95": _p(durations("engine.infer"), 95, 1e3),
        "engine.infer.calls": calls("engine.infer"),
        "engine.infer.batch_mean": infer_batch,
        "engine.adapt.replay_ms_p50": _p(durations("engine.adapt"), 50, 1e3),
        "engine.adapt.replay_ms_p95": _p(durations("engine.adapt"), 95, 1e3),
        "engine.adapt.calls": calls("engine.adapt"),
        "engine.adapt.group_mean": _mean(pooled(lambda w: w.args("engine.adapt"))),
        "engine.compile.cold_s": _compile_s(cold),
        "engine.compile.warm_cache_s": _compile_s(warm),
        "engine.compile.plans": float(len(cold.plans)),
        "engine.cgen.rendered_share": rendered / stages if stages else 0.0,
        "engine.plan.arena_mb": sum(p.stats.arena_bytes for p in cold.plans) / 1e6,
        "engine.plan.workspace_mb": sum(
            p.stats.workspace_bytes for p in cold.plans) / 1e6,
        "engine.infer.gflop_per_call": forward_flops(model_spec, 1) * infer_batch / 1e9,
        "engine.infer.mbytes_per_call": forward_bytes(model_spec, 1) * infer_batch / 1e6,
        # models / adapt / metrics / pipeline
        "models.decode_ms_p50": _p(durations("models.decode"), 50, 1e3),
        "adapt.observe_ms_p50": _p(durations("adapt.observe", stepping), 50, 1e3),
        "adapt.update_self_ms_p50": _p(own("adapt.observe", stepping), 50, 1e3),
        "adapt.steps": float(counts["adapt_steps"]),
        "metrics.accuracy_ms_p50": _p(durations("metrics.accuracy"), 50, 1e3),
        "pipeline.self_ms_p50": _p(own("pipeline.frame"), 50, 1e3),
        # serve
        "serve.launch_ms_p50": _p(durations("serve.launch"), 50, 1e3),
        "serve.launch.calls": calls("serve.launch"),
        "serve.batch_mean": float(cold.extras.get("batch_mean", 0.0)),
        "serve.scheduler.submit_us_p50": _p(
            durations("serve.scheduler.submit"), 50, 1e6),
        "serve.scheduler.next_batch_us_p50": _p(
            durations("serve.scheduler.next_batch"), 50, 1e6),
        "serve.admission.admit_us_p50": _p(
            durations("serve.admission.admit"), 50, 1e6),
        "serve.admission.grant_share": float(cold.extras.get("grant_share", 0.0)),
        "serve.streams.fold_ms_p50": _p(own("serve.streams.fold"), 50, 1e3),
        "serve.streams.swap_us_p50": _p(durations("serve.streams.swap"), 50, 1e6),
        "serve.adapt_batch.execute_ms_p50": _p(
            durations("serve.adapt_batch.execute"), 50, 1e3),
        "serve.adapt_batch.group_mean": _mean(groups),
        "serve.adapt_batch.fused_share": (
            sum(g for g in groups if g >= 2) / (sum(groups) + serial_steps)
            if groups else 0.0
        ),
        "serve.checkpoint.write_ms_p50": _p(
            durations("serve.checkpoint.observe", wrote), 50, 1e3),
        "serve.checkpoint.writes": float(counts.get("checkpoint_writes", 0)),
        "serve.checkpoint.kb_per_write": float(cold.extras.get("ckpt_kb", 0.0)),
        "serve.drift.observe_us_p50": _p(durations("serve.drift.observe"), 50, 1e6),
        "serve.drift.reset_ms_p50": _p(durations("serve.drift.reset"), 50, 1e3),
        "serve.drift.resets": float(counts.get("drift_resets", 0)),
        "serve.migration.plan_us_p50": _p(
            durations("serve.migration.plan"), 50, 1e6),
        "serve.migration.moves": float(counts.get("migrations", 0)),
        "serve.recovery_ms": 1e3 * sum(windows[0].durations("serve.recovery")),
        "serve.recovery.frames_lost": float(counts.get("frames_lost", 0)),
        "serve.recovery.crash_dropped": float(counts.get("crash_dropped", 0)),
        "serve.worker_self_ms_per_frame": 1e3 * sum(own("serve.launch")) / frames,
        "serve.coordinator_self_ms_per_frame": 1e3
        * sum(own("serve.coordinator")) / frames,
        # hw
        "hw.roofline.calls_per_frame": calls("hw.roofline.quote") / first_frames,
        "hw.roofline.quote_us_p50": _p(durations("hw.roofline.quote"), 50, 1e6),
        # data / host
        "data.render_ms_per_frame": run.render_ms_per_frame,
        "host.cpu_ms_per_frame": 1e3
        * sum(s.window_cpu_s / s.host_speed for s in run.untraced) / untraced_frames,
        "host.gc_collections": float(run.gc_collections),
        "host.loadavg_start": run.loadavg_start,
        "host.tracing_overhead_share": workloads.clocks(run.traced)["frame_ms_p50"]
        / e2e["frame_ms_p50"] - 1.0,
        # wall time = reported time x speed_factor
        "host.speed_factor": float(np.median([s.host_speed for s in run.untraced])),
        "host.yardstick_share": yard_s
        / (yard_s + sum(s.window_s for s in run.untraced)),
        # the seeded end-to-end counts BENCHMARK.json cannot bound (they
        # may be 0, must repeat exactly, or vary with the seed alone)
        "online_accuracy": e2e["online_accuracy"],
        "adapt_steps_per_frame": e2e["adapt_steps_per_frame"],
        "sim_deadline_miss_share": e2e["sim_deadline_miss_share"],
        "failed_share": e2e["failed_share"],
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_share"] = layer_s[layer] / total_s
    return out


def tiling_gap_share(run) -> float:
    """|sum of span self times - window wall| / window wall over the
    traced segments: 0 when the spans tile the timed windows."""
    self_s = sum(
        sum(tracing.Window(s.spans, s.warmup).layer_self_s().values())
        for s in run.traced
    )
    wall_s = sum(s.window_s for s in run.traced)
    return abs(self_s - wall_s) / wall_s


def cgen_fallback_stages(run) -> int:
    """Stages the renderer was offered but that replay as numpy closures
    (declined, demoted by the parity probe, or the whole plan when no
    compiler was found): the silent fallback a cgen workload warns about."""
    return sum(
        int(p.backend_info.get("offered", 0)) - int(p.backend_info.get("rendered", 0))
        for p in run.traced[0].plans
    )

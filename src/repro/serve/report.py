"""Fleet-level aggregation of per-stream serving reports.

A fleet run produces one :class:`~repro.pipeline.monitor.PipelineReport`
per stream (the same record type the single-vehicle pipeline emits, so
per-stream numbers are directly comparable to serial
:class:`~repro.pipeline.RealTimePipeline` baselines).  This module rolls
them up into what a serving operator watches: tail latency (p50/p95/p99)
and deadline-slack percentiles across the whole fleet, per-stream
accuracy, deadline-miss rate, queue depth at batch launch, adaptation
admission grants/skips, in-flight frame drops, sustained throughput
against the serial alternative, and — for device pools — one
:class:`DeviceReport` row per pool member (utilization, queue depth,
session count, migrations) plus the migration event log.

The fleet-wide distributions are **streaming sketches**
(:class:`~repro.telemetry.Histogram`, DDSketch-style): device workers
record each frame's latency / slack / adaptation cost and each batch's
size / queue depth into mergeable O(1)-memory histograms as they serve,
so the fleet aggregate never holds a per-frame Python list and a
million-frame run reports percentiles in constant memory.  Per-stream
``PipelineReport`` records stay exact — they are bounded by one
stream's length and the bitwise parity guards diff them directly.

Every percentile family keeps the shared convention of
:func:`repro.telemetry.sketch.exact_percentile`: ``q`` in [0, 100],
0.0 for empty windows — a stream that never received an adaptation
grant, a run with no fused steps — instead of raising.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..pipeline.monitor import PipelineReport
from ..telemetry.metrics import Histogram


@dataclass
class DeviceReport:
    """One device's share of a fleet serving run.

    ``utilization`` is modeled busy time over the run's makespan (how
    much of the pool's wall this device actually worked); ``streams``
    is the *final* placement — sessions that migrated away mid-run show
    up in ``migrations_out`` instead.
    """

    device: str
    streams: List[str] = field(default_factory=list)
    frames_served: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0
    busy_ms: float = 0.0
    utilization: float = 0.0
    mean_queue_depth: float = 0.0
    max_queue_depth: int = 0
    migrations_in: int = 0
    migrations_out: int = 0
    alive: bool = True
    crashed_ms: Optional[float] = None  # death time on the fleet clock
    joined_ms: float = 0.0  # 0 = pool member since launch

    def as_row(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "streams": len(self.streams),
            "frames": self.frames_served,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "busy_ms": self.busy_ms,
            "utilization": self.utilization,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "migrations_in": self.migrations_in,
            "migrations_out": self.migrations_out,
            "alive": self.alive,
            "joined_ms": self.joined_ms,
        }


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet serving run.

    ``elapsed_ms`` is the makespan on the run's latency clock: simulated
    device time in ``"orin"`` mode, measured host time in ``"wallclock"``
    mode.  Throughput derives from it, so batched-vs-serial comparisons
    stay within one clock.

    The distribution-valued fields (``batch_sizes``,
    ``adapt_batch_sizes``, ``queue_depths`` and the ``*_histogram``
    family) are streaming sketches, populated by the device workers
    while serving; ``latency_percentile`` and friends read from them.
    ``Histogram`` keeps a list-like surface (length, truthiness,
    equality against a plain sequence), so existing call sites read
    unchanged.
    """

    deadline_ms: float
    latency_model: str = "orin"
    elapsed_ms: float = 0.0
    batch_sizes: Histogram = field(default_factory=Histogram)
    adapt_batch_sizes: Histogram = field(default_factory=Histogram)  # fused steps
    queue_depths: Histogram = field(default_factory=Histogram)  # at batch launch
    latency_histogram: Histogram = field(default_factory=Histogram)  # per frame
    slack_histogram: Histogram = field(default_factory=Histogram)  # per frame
    adapt_histogram: Histogram = field(default_factory=Histogram)  # adapted frames
    accuracy_histogram: Histogram = field(default_factory=Histogram)  # per frame
    deadline_misses: int = 0
    admission_grants: Dict[str, int] = field(default_factory=dict)
    admission_skips: Dict[str, int] = field(default_factory=dict)
    dropped_frames: Dict[str, int] = field(default_factory=dict)
    stream_reports: "OrderedDict[str, PipelineReport]" = field(
        default_factory=OrderedDict
    )
    device_reports: List[DeviceReport] = field(default_factory=list)
    migration_events: List[Dict[str, object]] = field(default_factory=list)
    # elastic-pool outcome: injected faults, per-crash recovery records,
    # and the quantified cost of each crash (adapted-state frames rolled
    # back to the checkpoint + queued frames that died with the device)
    fault_events: List[Dict[str, object]] = field(default_factory=list)
    recovery_events: List[Dict[str, object]] = field(default_factory=list)
    frames_lost: Dict[str, int] = field(default_factory=dict)
    crash_dropped_frames: Dict[str, int] = field(default_factory=dict)
    checkpoint_writes: int = 0
    checkpoint_refusals: int = 0  # captures of a non-finite BN block
    canary_probes: int = 0
    # drift detection outcome (per stream; empty when detection is off)
    drift_events: Dict[str, int] = field(default_factory=dict)
    drift_resets: Dict[str, int] = field(default_factory=dict)
    drift_cluster_restores: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_streams(self) -> int:
        return len(self.stream_reports)

    @property
    def total_frames(self) -> int:
        return sum(r.num_frames for r in self.stream_reports.values())

    def latency_percentile(self, q: float) -> float:
        """Fleet-wide per-frame latency percentile, ``q`` in [0, 100]."""
        return self.latency_histogram.percentile(q)

    @property
    def p50_latency_ms(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_latency_ms(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_latency_ms(self) -> float:
        return self.latency_percentile(99)

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_histogram.mean

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of all served frames that missed their deadline."""
        served = self.latency_histogram.count
        if served == 0:
            return 0.0
        return self.deadline_misses / served

    @property
    def mean_accuracy(self) -> float:
        """Frame-weighted mean accuracy across the fleet."""
        return self.accuracy_histogram.mean

    @property
    def frames_per_second(self) -> float:
        """Sustained fleet throughput over the run's makespan."""
        if self.elapsed_ms <= 0:
            return 0.0
        return 1e3 * self.total_frames / self.elapsed_ms

    @property
    def mean_batch_size(self) -> float:
        return self.batch_sizes.mean

    @property
    def mean_adapt_batch_size(self) -> float:
        """Mean number of streams fused per grouped adaptation step."""
        return self.adapt_batch_sizes.mean

    def adaptation_percentile(self, q: float) -> float:
        """Fleet-wide adaptation-step latency percentile (adapted frames)."""
        return self.adapt_histogram.percentile(q)

    def slack_percentile(self, q: float) -> float:
        """Fleet-wide deadline-slack percentile (negative = missed).

        The low tail (p10) shows how hot the fleet runs, the signal the
        admission controller sheds adaptation on.
        """
        return self.slack_histogram.percentile(q)

    def queue_depth_percentile(self, q: float) -> float:
        """Percentile of pending-queue depth observed at batch launches."""
        return self.queue_depths.percentile(q)

    @property
    def mean_queue_depth(self) -> float:
        return self.queue_depths.mean

    @property
    def max_queue_depth(self) -> int:
        return int(self.queue_depths.max)

    @property
    def total_admission_grants(self) -> int:
        return sum(self.admission_grants.values())

    @property
    def total_admission_skips(self) -> int:
        return sum(self.admission_skips.values())

    @property
    def admission_grant_rate(self) -> float:
        """Fraction of adaptation-admission decisions that granted."""
        total = self.total_admission_grants + self.total_admission_skips
        if total == 0:
            return 0.0
        return self.total_admission_grants / total

    @property
    def total_dropped_frames(self) -> int:
        return sum(self.dropped_frames.values())

    @property
    def adaptation_steps(self) -> int:
        """Adaptation steps actually taken across the fleet."""
        return sum(r.adaptation_steps for r in self.stream_reports.values())

    @property
    def refused_steps(self) -> int:
        """Steps whose loss was not finite, so they wrote nothing."""
        return sum(r.refused_steps for r in self.stream_reports.values())

    @property
    def adapting_streams(self) -> int:
        """Streams that took at least one adaptation step."""
        return sum(
            1 for r in self.stream_reports.values() if r.adaptation_steps > 0
        )

    @property
    def num_devices(self) -> int:
        """Devices in the serving pool (1 = the legacy single device)."""
        return max(len(self.device_reports), 1)

    @property
    def total_migrations(self) -> int:
        """Sessions moved between devices during the run."""
        return len(self.migration_events)

    @property
    def max_device_utilization(self) -> float:
        """Busy fraction of the pool's hottest device."""
        if not self.device_reports:
            return 0.0
        return max(d.utilization for d in self.device_reports)

    @property
    def crashes(self) -> int:
        """Devices that died during the run."""
        return sum(1 for e in self.fault_events if e.get("kind") == "crash")

    @property
    def device_joins(self) -> int:
        """Devices that joined the pool mid-run."""
        return sum(1 for e in self.fault_events if e.get("kind") == "join")

    @property
    def recoveries(self) -> int:
        """Sessions restored from checkpoints after a crash."""
        return len(self.recovery_events)

    @property
    def corrupt_checkpoints(self) -> int:
        """Recoveries that fell back because the checkpoint failed its checks."""
        return sum(
            1 for e in self.recovery_events if e.get("checkpoint_corrupt")
        )

    @property
    def total_frames_lost(self) -> int:
        """Served frames whose adaptation effect was rolled back by crashes."""
        return sum(self.frames_lost.values())

    @property
    def total_crash_dropped_frames(self) -> int:
        """Queued frames that died with a crashed device."""
        return sum(self.crash_dropped_frames.values())

    @property
    def total_drift_events(self) -> int:
        """Drift alarms fired across the fleet."""
        return sum(self.drift_events.values())

    @property
    def total_drift_resets(self) -> int:
        """Adaptation resets applied across the fleet."""
        return sum(self.drift_resets.values())

    @property
    def total_drift_cluster_restores(self) -> int:
        """Resets warm-started from a banked cluster state."""
        return sum(self.drift_cluster_restores.values())

    @property
    def per_stream_accuracy(self) -> Dict[str, float]:
        return {
            sid: report.mean_accuracy
            for sid, report in self.stream_reports.items()
        }

    @property
    def truncated_streams(self) -> List[str]:
        return [
            sid for sid, report in self.stream_reports.items() if report.truncated
        ]

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """The fleet dashboard row."""
        return {
            "streams": float(self.num_streams),
            "devices": float(self.num_devices),
            "frames": float(self.total_frames),
            "frames_per_second": self.frames_per_second,
            "mean_batch_size": self.mean_batch_size,
            "mean_accuracy": self.mean_accuracy,
            "mean_latency_ms": self.mean_latency_ms,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "deadline_ms": self.deadline_ms,
            "deadline_miss_rate": self.deadline_miss_rate,
            "slack_p10_ms": self.slack_percentile(10),
            "slack_p50_ms": self.slack_percentile(50),
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": float(self.max_queue_depth),
            "adapt_p50_ms": self.adaptation_percentile(50),
            "adapt_p95_ms": self.adaptation_percentile(95),
            "mean_adapt_batch_size": self.mean_adapt_batch_size,
            "adaptation_steps": float(self.adaptation_steps),
            "adapting_streams": float(self.adapting_streams),
            "admission_grant_rate": self.admission_grant_rate,
            "dropped_frames": float(self.total_dropped_frames),
            "migrations": float(self.total_migrations),
            "max_device_utilization": self.max_device_utilization,
            "crashes": float(self.crashes),
            "recoveries": float(self.recoveries),
            "device_joins": float(self.device_joins),
            "frames_lost": float(self.total_frames_lost),
            "crash_dropped_frames": float(self.total_crash_dropped_frames),
            "checkpoint_writes": float(self.checkpoint_writes),
            "checkpoint_refusals": float(self.checkpoint_refusals),
            "corrupt_checkpoints": float(self.corrupt_checkpoints),
            "canary_probes": float(self.canary_probes),
            "drift_events": float(self.total_drift_events),
            "drift_resets": float(self.total_drift_resets),
            "drift_cluster_restores": float(self.total_drift_cluster_restores),
        }

    def per_device_rows(self) -> List[Dict[str, object]]:
        """One table row per pool device (load / queue / migrations)."""
        return [d.as_row() for d in self.device_reports]

    def per_stream_rows(self) -> List[Dict[str, object]]:
        """One table row per stream (accuracy / latency / misses)."""
        rows: List[Dict[str, object]] = []
        for sid, report in self.stream_reports.items():
            rows.append(
                {
                    "stream": sid,
                    "frames": report.num_frames,
                    "accuracy": report.mean_accuracy,
                    "mean_latency_ms": report.mean_latency_ms,
                    "p95_latency_ms": report.latency_percentile(95),
                    "miss_rate": report.deadline_miss_rate,
                    "adapt_steps": report.adaptation_steps,
                    "adapt_p50_ms": report.adaptation_percentile(50),
                    "adapt_p95_ms": report.adaptation_percentile(95),
                    "adapt_grants": self.admission_grants.get(sid, 0),
                    "adapt_skips": self.admission_skips.get(sid, 0),
                    "dropped": self.dropped_frames.get(sid, 0),
                    "truncated": report.truncated,
                }
            )
        return rows

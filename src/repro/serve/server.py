"""The fleet coordinator: place sessions on a device pool, drive the
event-driven ingest, and rebalance by migration.

One :class:`FleetServer` now fronts a *pool* of devices.  Each pool
member is a :class:`~repro.serve.pool.DeviceWorker` owning everything a
single device needs — its :class:`~repro.hw.device.DeviceProfile`, its
:class:`~repro.serve.scheduler.DeadlineAwareScheduler` and queue, its
:class:`~repro.serve.admission.SlackAdmission` budget and its pricing —
while the coordinator owns what spans devices:

* **the compiled engines** — LD-BN-ADAPT adapts only the BN parameters,
  so every stream shares one frozen network and one plan per input
  shape.  One :class:`~repro.engine.CompiledInference` and one
  :class:`~repro.engine.CompiledAdaptStep`, built from
  ``FleetConfig.backend`` / ``threads``, go to every worker (joins
  included) and to every adapter created here with ``backend`` /
  ``threads`` left at ``None``.  Safe because the event loop replays
  batches serially on one host thread, plans read weights and BN state
  live from the shared model, and logits and BN taps are consumed
  before the next launch.
* **placement** — at registration each stream is placed by
  ``FleetConfig(placement=...)``: ``"least_loaded"`` (argmin projected
  utilization from the roofline-estimated per-stream cost *on each
  device* — heterogeneous pools price the same stream differently per
  power mode), ``"round_robin"``, or ``"pinned"`` (explicit
  ``add_stream(..., device=k)``).
* **ingest** — a single fleet-wide time-ordered arrival heap.  Every
  stream owns a seeded :class:`~repro.serve.streams.ArrivalProcess`
  (per-stream phase offset, jitter, drops; seeds derived via
  ``utils.rng.child_seed(arrival_seed, stream_id)``, so a stream's
  arrival realization is invariant to device count and placement).
  Arrivals route to the session's *current* device; each worker
  launches a deadline-feasible batch the moment it is free and frames
  are pending, at ``max(device_free, earliest pending arrival)`` — the
  same event-driven discipline as before, generalized to many device
  clocks.  With zero jitter, drops and phase spread the arrivals form
  one cohort per camera period (``tests/tick_oracle.py`` keeps the
  former tick-synchronous drain as the parity tests' reference).
* **migration** — with ``FleetConfig(migration=MigrationConfig(...))``
  each worker's observed-slack EWMA feeds a
  :class:`~repro.serve.pool.MigrationPlanner`; when one device runs
  sustainedly hot while another is cooler by more than the configured
  gap, the hot device's heaviest movable session (no frames queued)
  migrates: the session object — `ParameterSnapshot`, BN buffers,
  optimizer slots, report — moves bitwise untouched, its admission
  debt transfers between controllers, and its modeled adaptation cost
  is re-priced on the target device.  A cooldown keeps sessions from
  thrashing.

A pool of one device (``FleetConfig(devices=1)``, the default)
reproduces the former single-device ``FleetServer`` outputs exactly —
the per-batch serving path moved verbatim into ``DeviceWorker`` and the
merged event loop degenerates to the old one; the test suite guards
that parity.

Latency accounting is unchanged (see ``DeviceWorker.serve_batch``):
``latency_model="orin"`` is a discrete-event simulation over roofline
service times per device, ``"wallclock"`` measures the host numpy cost
of the shared implementation.  The shared forward runs through the
compiled engine by default; granted same-batch adaptation steps fuse
into grouped replays per device (:mod:`repro.serve.adapt_batch`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..adapt.base import Adapter
from ..adapt.bn_adapt import LDBNAdapt, LDBNAdaptConfig
from ..data.dataset import LaneSample
from ..engine import CompiledAdaptStep, compile_model
from ..engine.backends import available_backends
from ..engine.backends.threading import serving_threads
from ..hw.deadline import DEADLINE_30FPS_MS, stream_utilization
from ..hw.device import DeviceProfile, get_power_mode
from ..metrics.lane_accuracy import TUSIMPLE_THRESHOLD_CELLS
from ..models.spec import ModelSpec
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import NULL_TRACER, SpanTracer
from ..utils.profiling import Timer
from ..utils.rng import child_seed
from .adapt_batch import static_fuse_key
from .admission import AdmissionConfig
from .checkpoint import (
    CheckpointConfig,
    CheckpointCorrupt,
    SessionCheckpointStore,
)
from .drift import DriftResetConfig, SessionDriftState
from .faults import FaultEvent, FaultSchedule
from .pool import (
    PLACEMENT_POLICIES,
    DeviceWorker,
    MigrationConfig,
    MigrationPlanner,
    place_stream,
)
from .report import FleetReport
from .scheduler import FrameRequest
from .streams import (
    ArrivalModel,
    ArrivalProcess,
    StreamRegistry,
    StreamSession,
)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet serving loop configuration."""

    deadline_ms: float = DEADLINE_30FPS_MS
    frame_period_ms: Optional[float] = None  # None → deadline_ms (30 FPS)
    latency_model: str = "orin"  # "orin" | "wallclock"
    decode_method: str = "expectation"
    accuracy_threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS
    max_batch_size: int = 8
    aging_rate: float = 0.1
    adapt_stride: int = 1  # static fallback policy: every k-th frame adapts
    batch_adaptation: bool = True  # fuse same-batch streams' entropy steps
    jitter_ms: float = 0.0  # per-frame arrival delay, uniform in [0, jitter]
    drop_rate: float = 0.0  # probability a frame is lost before the server
    phase_spread_ms: float = 0.0  # stream i's arrival phase = i * spread
    arrival_seed: int = 0  # root seed of the per-stream arrival processes
    admission: Optional[AdmissionConfig] = None  # None → static stride
    devices: int = 1  # pool size (ignored when an explicit pool is passed)
    placement: str = "least_loaded"  # | "round_robin" | "pinned"
    migration: Optional[MigrationConfig] = None  # None → sessions never move
    backend: str = "numpy"  # plan backend for compiled serving/adaptation
    # kernel-pool width for codegen backends.  None prices the roofline
    # at one thread and compiles at the backend's resolved width
    # ($REPRO_CGEN_THREADS, else the host CPUs; served bytes are the same
    # at every width); setting it fixes both, so scheduler/admission/
    # migration see the faster device honestly.
    threads: Optional[int] = None
    checkpoint: Optional[CheckpointConfig] = None  # None → no session store
    faults: Optional[FaultSchedule] = None  # None → nothing ever fails
    drift: Optional[DriftResetConfig] = None  # None → no drift detection

    def __post_init__(self):
        if self.latency_model not in ("orin", "wallclock"):
            raise ValueError(f"unknown latency model {self.latency_model!r}")
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.frame_period_ms is not None and self.frame_period_ms <= 0:
            raise ValueError(
                f"frame_period_ms must be positive, got {self.frame_period_ms}"
            )
        if self.decode_method not in ("argmax", "expectation"):
            raise ValueError(f"unknown decode method {self.decode_method!r}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.adapt_stride < 1:
            raise ValueError(f"adapt_stride must be >= 1, got {self.adapt_stride}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.phase_spread_ms < 0:
            raise ValueError(
                f"phase_spread_ms must be >= 0, got {self.phase_spread_ms}"
            )
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; expected one "
                f"of {PLACEMENT_POLICIES}"
            )
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown plan backend {self.backend!r}; expected one of "
                f"{available_backends()}"
            )
        if self.latency_model == "wallclock" and self.migration is not None:
            raise ValueError(
                "latency_model='wallclock' has no modeled deadline slack, "
                "so the migration planner's heat signal never exists and "
                "migration would silently never fire — rebalancing needs "
                "the simulated 'orin' clock"
            )
        if self.faults is not None and len(self.faults):
            if self.latency_model != "orin":
                raise ValueError(
                    "fault injection is driven through the simulated "
                    "launch clock — it requires latency_model='orin' "
                    "(wallclock serving has no global simulated time to "
                    "schedule faults on)"
                )
            if self.faults.crash_count and self.checkpoint is None:
                raise ValueError(
                    "a FaultSchedule with crash events requires a "
                    "CheckpointConfig: crash recovery restores sessions "
                    "from their durable checkpoints, and without a store "
                    "every hosted stream's adapted state would silently "
                    "be destroyed"
                )

    @property
    def period_ms(self) -> float:
        return self.frame_period_ms if self.frame_period_ms is not None else self.deadline_ms


class FleetServer:
    """Serves N adapting camera streams across a pool of devices."""

    def __init__(
        self,
        model,
        config: Optional[FleetConfig] = None,
        device: Optional[DeviceProfile] = None,
        spec: Optional[ModelSpec] = None,
        device_pool: Optional[Sequence[DeviceProfile]] = None,
        tracer: Optional[SpanTracer] = None,
    ):
        self.model = model
        self.config = config if config is not None else FleetConfig()
        self.spec = spec
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        profiles: Optional[List[DeviceProfile]] = None
        if device_pool is not None:
            profiles = list(device_pool)
            if not profiles:
                raise ValueError("device_pool must not be empty")
            if self.config.devices not in (1, len(profiles)):
                raise ValueError(
                    f"FleetConfig(devices={self.config.devices}) "
                    f"contradicts an explicit pool of {len(profiles)} devices"
                )
        if self.config.latency_model == "orin":
            pool = profiles or [device] * self.config.devices
            if pool[0] is None or spec is None:
                raise ValueError(
                    "latency_model='orin' requires a DeviceProfile (or an "
                    "explicit device_pool) and a paper-size ModelSpec "
                    "(the platform under study)"
                )
        else:
            if profiles is not None:
                raise ValueError(
                    "latency_model='wallclock' serving is unpriced, so an "
                    "explicit device_pool's profiles would be silently "
                    "ignored — use FleetConfig(devices=N) to size an "
                    "unpriced pool"
                )
            pool = [None] * self.config.devices
        self.device = pool[0] if pool[0] is not None else device
        self.timer = Timer()
        self.checkpoints: Optional[SessionCheckpointStore] = (
            SessionCheckpointStore(self.config.checkpoint)
            if self.config.checkpoint is not None
            else None
        )
        # one frozen network, so one plan per input shape for the whole
        # pool: every worker and every default adapter replays these
        threads = serving_threads(self.config.threads)
        self._engine = compile_model(
            model, backend=self.config.backend, threads=threads
        )
        self._adapt_step = CompiledAdaptStep(
            model, backend=self.config.backend, threads=threads
        )
        self.workers: List[DeviceWorker] = [
            self._new_worker(index, profile)
            for index, profile in enumerate(pool)
        ]
        self.registry = StreamRegistry(model)
        self._placements: Dict[str, int] = {}
        self._migration_planner: Optional[MigrationPlanner] = (
            MigrationPlanner(self.config.migration)
            if self.config.migration is not None and len(self.workers) > 1
            else None
        )
        self._migration_events: List[Dict[str, object]] = []
        self._event_seq = 0  # ties arrival events deterministically
        # fault-injection bookkeeping: applied-fault rows, per-crash
        # recovery records, and the quantified per-stream loss
        self._fault_queue: List[FaultEvent] = (
            list(self.config.faults) if self.config.faults is not None else []
        )
        self._fault_cursor = 0
        self._fault_rows: List[Dict[str, object]] = []
        self._recovery_events: List[Dict[str, object]] = []
        self._frames_lost: Dict[str, int] = {}
        self._crash_dropped: Dict[str, int] = {}

    def _new_worker(self, index: int, profile: Optional[DeviceProfile]) -> DeviceWorker:
        """A pool member wired to everything the pool shares."""
        return DeviceWorker(
            index, self.model, self.config, device=profile, spec=self.spec,
            timer=self.timer, metrics=self.metrics, tracer=self.tracer,
            checkpoints=self.checkpoints,
            engine=self._engine, adapt_step=self._adapt_step,
        )

    def _place(
        self, adapter: Adapter, policy: str, index: int,
        device: Optional[int] = None,
    ) -> DeviceWorker:
        """The alive worker ``policy`` puts a stream of ``adapter``'s
        roofline-estimated cost on; ``device`` pins a pool index."""
        alive = self.alive_workers
        period = self.config.period_ms
        costs = [
            stream_utilization(worker.estimate_cost_ms(adapter), period)
            for worker in alive
        ]
        loads = [worker.load for worker in alive]
        pinned = None
        if device is not None:
            pinned = next(
                i for i, worker in enumerate(alive) if worker.index == device
            )
        return alive[place_stream(policy, index, costs, loads, pinned=pinned)]

    # -- single-device compatibility views -----------------------------
    @property
    def scheduler(self):
        """The pool's first scheduler (the only one at ``devices=1``)."""
        return self.workers[0].scheduler

    @property
    def admission(self):
        """The pool's first admission controller (the only one at 1)."""
        return self.workers[0].admission

    # ------------------------------------------------------------------
    def add_stream(
        self,
        stream_id: str,
        stream: Iterator[LaneSample],
        adapter: Optional[Adapter] = None,
        adapter_config: Optional[LDBNAdaptConfig] = None,
        arrival: Optional[ArrivalModel] = None,
        device: Optional[int] = None,
    ) -> StreamSession:
        """Register one camera stream and place it on a pool device.

        The session snapshots the model's *current* BN state, so register
        streams while the model holds the pristine source-trained weights
        each vehicle should start from.  Without an explicit ``adapter``
        a per-stream :class:`LDBNAdapt` is created (optionally from
        ``adapter_config``); every session owns its adapter and therefore
        its optimizer momentum.  A created adapter whose config leaves
        ``backend`` and ``threads`` at ``None`` replays the pool's shared
        adaptation step; one configured explicitly, or built by the
        caller, compiles its own.

        A stream costs a few copies of the model's BN state, not of the
        model: the session's BN block and its adapter's reset copy (an
        :class:`~repro.adapt.base.Adapter` copies only what it can
        write), plus per-array headers — on ``small-r18`` one
        ``add_stream`` retains ~115 kB against 38.6 kB of BN state, where
        the whole model is 8.7 MB.  The adaptation plans are the pool's,
        shared by every stream that inherits its step.

        Without an explicit ``arrival`` model the stream gets the fleet
        default: phase offset ``i * phase_spread_ms`` for the *i*-th
        registered stream, the configured jitter/drop statistics, and a
        per-stream child seed of ``arrival_seed`` keyed by *stream id* —
        deterministic, and invariant to pool size and placement.

        ``device`` pins the session to a pool index; otherwise the
        configured placement policy picks one from the roofline-estimated
        per-device stream cost.  When ``adapt_stride > 1`` (static
        admission) each stream's adaptation phase is auto-staggered by
        registration order, spreading the fleet's adaptation load across
        camera periods.
        """
        if adapter is not None and adapter_config is not None:
            raise ValueError("pass either adapter or adapter_config, not both")
        if adapter is None:
            if adapter_config is None:
                adapter_config = LDBNAdaptConfig()
            # ``None`` inherits: in a fleet, the pool's shared step
            inherits = adapter_config.backend is None and adapter_config.threads is None
            adapter = LDBNAdapt(
                self.model, adapter_config,
                compiled=self._adapt_step if inherits else None,
            )
        index = len(self.registry)
        if arrival is None:
            arrival = ArrivalModel(
                period_ms=self.config.period_ms,
                phase_ms=index * self.config.phase_spread_ms,
                jitter_ms=self.config.jitter_ms,
                drop_rate=self.config.drop_rate,
                seed=child_seed(self.config.arrival_seed, stream_id),
            )
        if device is not None:
            if not 0 <= device < len(self.workers):
                raise ValueError(
                    f"pinned device {device} out of range for a "
                    f"{len(self.workers)}-device pool"
                )
            if not self.workers[device].alive:
                raise ValueError(f"cannot pin stream to dead device {device}")
        target = self._place(adapter, self.config.placement, index, device)
        session = self.registry.register(
            stream_id,
            stream,
            adapter,
            deadline_ms=self.config.deadline_ms,
            adapt_stride=self.config.adapt_stride,
            adapt_phase=index % self.config.adapt_stride,
            arrivals=ArrivalProcess(arrival),
        )
        if self.config.drift is not None:
            # captured now, while the snapshot still holds the pristine
            # source state — that capture is the reset target
            session.drift = SessionDriftState(self.config.drift, session)
        target.attach(session)
        self._placements[stream_id] = target.index
        return session

    @property
    def alive_workers(self) -> List[DeviceWorker]:
        """Pool members that can still launch (placement/migration targets)."""
        return [worker for worker in self.workers if worker.alive]

    def device_of(self, stream_id: str) -> int:
        """Pool index currently serving the stream."""
        return self._placements[stream_id]

    def _worker_of(self, session: StreamSession) -> DeviceWorker:
        return self.workers[self._placements[session.stream_id]]

    # -- elastic pool: join / crash / fault replay ---------------------
    def add_device(
        self,
        profile: Optional[DeviceProfile] = None,
        now_ms: float = 0.0,
    ) -> DeviceWorker:
        """Register a new device with a running fleet.

        ``profile`` is a :class:`DeviceProfile` or a power-mode name
        ("orin-30w"); None inherits the coordinator's base device.  The
        worker's clock starts at ``now_ms`` and its slack EWMA is seeded
        from the roofline prior (the slack a lone batch-1 frame would
        see on it), so the migration planner can rebalance onto the new
        capacity immediately instead of waiting for an observation that
        — with no sessions placed — would never come.
        """
        if isinstance(profile, str):
            profile = get_power_mode(profile)
        if profile is None:
            profile = self.device
        if self.config.latency_model == "orin" and profile is None:
            raise ValueError("latency_model='orin' joins need a DeviceProfile")
        worker = self._new_worker(
            len(self.workers),
            profile if self.config.latency_model == "orin" else None,
        )
        worker.device_free_ms = now_ms
        worker.joined_ms = now_ms
        worker._last_served_ms = now_ms
        worker.slack_ewma_ms = worker.roofline_slack_prior_ms()
        self.workers.append(worker)
        if (
            self.config.migration is not None
            and self._migration_planner is None
            and len(self.alive_workers) > 1
        ):
            # the pool was sized 1 at construction; rebalancing becomes
            # possible the moment a second device exists
            self._migration_planner = MigrationPlanner(self.config.migration)
        self._fault_rows.append(
            {
                "kind": "join",
                "time_ms": now_ms,
                "device": worker.index,
                "profile": profile.name if profile is not None else None,
            }
        )
        self.metrics.counter("fleet/device_joins").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "device_join",
                now_ms,
                pid=worker.name,
                tid="device",
                cat="fault",
                profile=profile.name if profile is not None else "wallclock",
            )
        return worker

    def crash_device(self, index: int, now_ms: float) -> List[Dict[str, object]]:
        """Kill device ``index`` at ``now_ms`` and recover its sessions.

        The crash sequence (all on the simulated clock, so a seeded
        replay reproduces it bitwise):

        1. The device dies at ``now_ms``; a batch already committed on
           its clock completes (the simulation commits batches
           atomically at launch), so the *watchdog* detects the missed
           next launch at ``detect_ms = max(now_ms, device_free_ms)``.
        2. Frames queued on the dead device die with its memory — they
           are counted per stream (``crash_dropped_frames``), never
           served, never re-served.
        3. Every hosted session is restored from its last durable
           checkpoint (async-staged captures are lost, like any
           write-behind store) and re-placed over the surviving pool via
           the normal placement path; its admission debt is re-imported
           from the checkpoint and its adaptation price re-quoted by the
           new device.  Frames served between the checkpoint and the
           crash are **lost, not recomputed**: serving counters stand,
           only the adapted state rolls back (``frames_lost`` row).  A
           checkpoint that fails verification
           (:class:`~repro.serve.checkpoint.CheckpointCorrupt`) is a
           counted fallback, not an error: the session is handled as
           if it had no durable checkpoint (every frame since
           registration lost, live state left as it was) and its record
           carries ``checkpoint_corrupt=True``.

        Returns the per-session recovery records (also appended to the
        run report).
        """
        worker = self.workers[index]
        if not worker.alive:
            raise ValueError(f"device {index} is already dead")
        worker.crash(now_ms)
        detect_ms = max(now_ms, worker.device_free_ms)
        self._fault_rows.append(
            {"kind": "crash", "time_ms": now_ms, "device": index}
        )
        self.metrics.counter("fleet/crashes").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "device_crash",
                now_ms,
                pid=worker.name,
                tid="device",
                cat="fault",
                detect_ms=detect_ms,
                sessions=len(worker.sessions),
            )
        if not self.alive_workers and worker.sessions:
            raise RuntimeError(
                f"device {index} crashed with {len(worker.sessions)} hosted "
                "sessions and no surviving device to recover them onto"
            )
        # queued frames died with the device
        for sid in list(worker.scheduler.pending_stream_ids):
            lost = worker.scheduler.extract_stream(sid)
            if lost:
                self._crash_dropped[sid] = self._crash_dropped.get(
                    sid, 0
                ) + len(lost)
                self.metrics.counter("fleet/crash_dropped_frames").inc(
                    len(lost)
                )
        records: List[Dict[str, object]] = []
        # recovery always re-places by load — a "pinned" fleet's pin
        # died with the device
        placement = (
            self.config.placement
            if self.config.placement != "pinned"
            else "least_loaded"
        )
        for session in list(worker.sessions.values()):
            sid = session.stream_id
            worker.detach(session)  # dead controller's debt is lost too
            meta = None
            corrupt = False
            if self.checkpoints is not None:
                self.checkpoints.drop_staged(sid)
                try:
                    meta = self.checkpoints.restore(session)
                except CheckpointCorrupt:
                    # verified before the first in-place write, so the
                    # session is untouched: same as no durable checkpoint
                    corrupt = True
                    self.metrics.counter("fleet/corrupt_checkpoints").inc()
            if meta is not None:
                frames_lost = session.frames_seen - int(meta["frames_seen"])
                admission_state = {
                    "static_key": static_fuse_key(session.adapter),
                    "debt": meta["admission"]["debt"],
                    "deferrals": meta["admission"]["deferrals"],
                }
            else:  # no durable checkpoint: all adapted state is gone
                frames_lost = session.frames_seen
                admission_state = None
            target = self._place(
                session.adapter, placement, len(self._placements)
            )
            target.attach(
                session, admission_state=admission_state, now_ms=detect_ms
            )
            self._placements[sid] = target.index
            session.migrations += 1
            record = {
                "time_ms": detect_ms,
                "stream": sid,
                "source": index,
                "target": target.index,
                "frames_lost": frames_lost,
                "crash_dropped": self._crash_dropped.get(sid, 0),
                "checkpoint_frames": int(meta["frames_seen"]) if meta else 0,
                "checkpoint_corrupt": corrupt,
                "recovery_latency_ms": detect_ms - now_ms,
            }
            records.append(record)
            self._recovery_events.append(record)
            self._frames_lost[sid] = self._frames_lost.get(sid, 0) + frames_lost
            self.metrics.counter("fleet/recoveries").inc()
            self.metrics.counter("fleet/frames_lost").inc(frames_lost)
            if self.tracer.enabled:
                self.tracer.instant(
                    "session_recovered",
                    detect_ms,
                    pid=target.name,
                    tid=sid,
                    cat="fault",
                    source=index,
                    frames_lost=frames_lost,
                )
        return records

    def _apply_fault(self, event: FaultEvent) -> None:
        """Apply one scheduled fault on the event loop's clock."""
        if event.kind == "join":
            self.add_device(event.profile, now_ms=event.time_ms)
            return
        if event.device is None or not 0 <= event.device < len(self.workers):
            raise ValueError(
                f"fault {event!r} targets device {event.device}, but the "
                f"pool has {len(self.workers)} devices at t={event.time_ms}"
            )
        worker = self.workers[event.device]
        if event.kind == "crash":
            if worker.alive:
                self.crash_device(event.device, event.time_ms)
            return
        if not worker.alive:
            return  # stalling or slowing a dead device is meaningless
        if event.kind == "stall":
            worker.device_free_ms = max(
                worker.device_free_ms, event.time_ms + event.duration_ms
            )
            self._fault_rows.append(event.as_row())
            if self.tracer.enabled:
                self.tracer.instant(
                    "device_stall",
                    event.time_ms,
                    pid=worker.name,
                    tid="device",
                    cat="fault",
                    duration_ms=event.duration_ms,
                )
        elif event.kind == "slow":
            worker.set_slowdown(event.factor)
            self._fault_rows.append(event.as_row())
            if self.tracer.enabled:
                self.tracer.instant(
                    "device_slow",
                    event.time_ms,
                    pid=worker.name,
                    tid="device",
                    cat="fault",
                    factor=event.factor,
                )

    # ------------------------------------------------------------------
    def run(self, num_ticks: int) -> FleetReport:
        """Serve ``num_ticks`` camera periods' worth of frames per stream.

        Each stream contributes up to ``num_ticks`` frames on its own
        arrival process (fewer when frames drop or the source ends early;
        truncated streams simply stop contributing while the fleet keeps
        serving the others).

        Event-driven: one fleet-wide time-ordered event queue holds
        every stream's next arrival; arrivals route to the session's
        current device, and each worker launches a batch whenever it is
        free and frames are pending, at ``max(device_free, earliest
        pending arrival)`` — so batches form from what has actually
        arrived by launch time, and a backlogged device folds late
        arrivals into the draining batches instead of waiting out the
        tick grid.  Launches execute in global time order across workers
        (ties by pool index), which keeps the simulation deterministic
        and the fleet-wide metric streams time-ordered.
        """
        if len(self.registry) == 0:
            raise ValueError("no streams registered")
        wallclock = self.config.latency_model == "wallclock"
        heap: List[Tuple[float, int, bool, StreamSession]] = []
        for session in self.registry:
            self._push_arrival(heap, session, num_ticks)
        while heap or any(w.scheduler.pending_count for w in self.workers):
            ready = [
                (
                    max(
                        worker.device_free_ms,
                        worker.scheduler.earliest_pending_arrival_ms,
                    ),
                    worker.index,
                )
                for worker in self.workers
                if worker.alive and worker.scheduler.pending_count
            ]
            launch_ms, launch_idx = min(ready) if ready else (None, None)
            # scheduled faults drain through the same global clock as
            # arrivals and launches (fault wins ties: a device crashing
            # at exactly its launch instant never launches), which is
            # what makes a seeded faulted run replay bitwise
            if self._fault_cursor < len(self._fault_queue):
                fault = self._fault_queue[self._fault_cursor]
                upcoming = [t for t in (launch_ms,) if t is not None]
                if heap:
                    upcoming.append(heap[0][0])
                if not upcoming or fault.time_ms <= min(upcoming):
                    self._fault_cursor += 1
                    self._apply_fault(fault)
                    continue
            if heap and (launch_ms is None or heap[0][0] <= launch_ms):
                arrival_ms, _, dropped, session = heapq.heappop(heap)
                if dropped:
                    session.drop_frame()
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "ingest_drop",
                            arrival_ms,
                            pid=self._worker_of(session).name,
                            tid=session.stream_id,
                            cat="ingest",
                        )
                else:
                    frame = session.next_frame()
                    if frame is not None:
                        worker = self._worker_of(session)
                        worker.scheduler.submit(
                            FrameRequest(
                                stream_id=session.stream_id,
                                frame_index=session.frames_ingested - 1,
                                arrival_ms=arrival_ms,
                                deadline_ms=arrival_ms + self.config.deadline_ms,
                                payload=(session, frame),
                            )
                        )
                        if self.tracer.enabled:
                            self.tracer.instant(
                                "ingest",
                                arrival_ms,
                                pid=worker.name,
                                tid=session.stream_id,
                                cat="ingest",
                                frame=session.frames_ingested - 1,
                            )
                self._push_arrival(heap, session, num_ticks)
                continue
            if launch_ms is None:
                break  # pragma: no cover - loop condition excludes this
            if self._migration_planner is not None:
                # a drained device's heat signal must cool on the launch
                # clock, or it never re-attracts sessions (idle-decay fix)
                for candidate in self.workers:
                    if candidate.alive:
                        candidate.decay_idle_slack(launch_ms)
            # rebalance on the launch clock BEFORE the batch forms:
            # launch times are monotone across the pool (completions are
            # not), so a migration can never take effect "before"
            # another device's next batch — and at this instant the
            # previous batch's sessions are no longer in flight, so a
            # saturated device genuinely has movable sessions.  A move
            # re-homes queued frames, so the launch plan is re-derived.
            if self._maybe_migrate(launch_ms):
                continue
            worker = self.workers[launch_idx]
            completion_ms = worker.launch(launch_ms)
            # wallclock serving has no modeled service time: sequencing
            # advances with arrivals only (timestamp-grouped batches)
            worker.device_free_ms = launch_ms if wallclock else completion_ms
        return self._build_report(
            max(worker.device_free_ms for worker in self.workers)
        )

    def _push_arrival(self, heap, session: StreamSession, num_ticks: int) -> None:
        """Queue the session's next arrival event, if any frames remain."""
        if session.exhausted or session.arrivals.frames_emitted >= num_ticks:
            return
        _, arrival_ms, dropped = session.arrivals.next_event()
        heapq.heappush(heap, (arrival_ms, self._event_seq, dropped, session))
        self._event_seq += 1

    # -- migration -----------------------------------------------------
    def _maybe_migrate(self, now_ms: float) -> bool:
        """Rebalance once: move a session off a sustained-hot device.

        Called at every batch launch; returns True when a session
        moved (the caller re-derives its launch plan).  A no-op without
        a migration config — wallclock serving, where migration cannot
        work, is rejected at config time.
        """
        planner = self._migration_planner
        if planner is None:
            return False
        # the planner only ever sees the alive sub-pool: a dead device is
        # empty and never-observed, which would otherwise make it look
        # maximally cool — the perfect (and catastrophically wrong)
        # migration target
        alive = self.alive_workers
        if len(alive) < 2:
            return False
        if planner.in_cooldown(now_ms):
            return False  # no decision possible: skip the movable scans
        ewmas = [worker.slack_ewma_ms for worker in alive]
        served = [worker.frames_served for worker in alive]
        if not planner.any_hot(ewmas, served):
            return False  # no sustained-hot source: skip the scans too
        movable = set()
        for worker in alive:
            pending = worker.scheduler.pending_stream_ids
            for sid, session in worker.sessions.items():
                # a session moves only when no batch containing it is
                # still completing — queued frames re-home WITH it, so a
                # saturated device can drain, but in-flight work pins it
                # (it is never served by two devices in overlapping
                # windows).  An exhausted session with an empty queue has
                # nothing left to move.
                if session.busy_until_ms > now_ms:
                    continue
                if session.exhausted and sid not in pending:
                    continue
                movable.add(sid)
        if not movable:
            return False
        period = self.config.period_ms
        costs = {
            sid: stream_utilization(cost, period)
            for worker in alive
            for sid, cost in worker.session_cost_ms.items()
        }
        decision = planner.plan(
            now_ms, ewmas, served,
            [list(worker.sessions) for worker in alive], movable, costs,
        )
        if decision is None:
            return False
        # the decision indexes the alive sub-pool; translate back to
        # global pool indices before touching workers/placements
        source = alive[decision.source].index
        target = alive[decision.target].index
        self._migrate(decision.stream_id, source, target, now_ms)
        planner.commit(decision, now_ms)
        self._migration_events.append(
            {
                "time_ms": now_ms,
                "stream": decision.stream_id,
                "source": source,
                "target": target,
            }
        )
        self.metrics.counter("fleet/migrations").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "migrate",
                now_ms,
                pid=self.workers[source].name,
                tid=decision.stream_id,
                cat="migration",
                source=source,
                target=target,
            )
        return True

    def _migrate(
        self, stream_id: str, source: int, target: int, now_ms: float = 0.0
    ) -> None:
        """Move one session between workers, state and backlog intact.

        The session object carries its own BN snapshot, optimizer slots
        and report, so the move itself is bitwise lossless; what
        changes hands is the admission state (debt/deferrals/fuse key),
        the modeled adaptation price (re-quoted from the target's own
        profile), and the session's *queued frames* — re-submitted to
        the target's scheduler with arrivals and deadlines intact, so a
        saturated device can actually shed its backlog.  ``attach``
        floors the target's clock at the handoff instant: re-homed
        frames can never launch before ``now_ms``, which (with the
        ``busy_until`` movability gate) keeps one session from being
        served by two devices in overlapping windows.
        """
        session = self.registry.get(stream_id)
        state = self.workers[source].detach(session)
        self.workers[target].attach(session, admission_state=state, now_ms=now_ms)
        for request in self.workers[source].scheduler.extract_stream(stream_id):
            self.workers[target].scheduler.submit(request)
        self.workers[source].migrations_out += 1
        self.workers[target].migrations_in += 1
        session.migrations += 1
        self._placements[stream_id] = target

    # ------------------------------------------------------------------
    def _build_report(self, elapsed_ms: float) -> FleetReport:
        if self.checkpoints is not None:
            # end-of-run barrier: staged async captures become durable,
            # so a cold restart can resume every stream's final state
            self.checkpoints.flush()
        metrics = self.metrics
        report = FleetReport(
            deadline_ms=self.config.deadline_ms,
            latency_model=self.config.latency_model,
            elapsed_ms=elapsed_ms
            if self.config.latency_model == "orin"
            else 1e3 * (self.timer.total("inference") + self.timer.total("adaptation")),
            batch_sizes=metrics.histogram("fleet/batch_size"),
            adapt_batch_sizes=metrics.histogram("fleet/adapt_batch_size"),
            queue_depths=metrics.histogram("fleet/queue_depth"),
            latency_histogram=metrics.histogram("fleet/latency_ms"),
            slack_histogram=metrics.histogram("fleet/slack_ms"),
            adapt_histogram=metrics.histogram("fleet/adapt_ms"),
            accuracy_histogram=metrics.histogram("fleet/accuracy"),
            deadline_misses=metrics.counter("fleet/deadline_misses").value,
            migration_events=list(self._migration_events),
            fault_events=list(self._fault_rows),
            recovery_events=list(self._recovery_events),
            frames_lost=dict(self._frames_lost),
            crash_dropped_frames=dict(self._crash_dropped),
            checkpoint_writes=(
                self.checkpoints.writes if self.checkpoints is not None else 0
            ),
            checkpoint_refusals=(
                self.checkpoints.refusals if self.checkpoints is not None else 0
            ),
            canary_probes=sum(w.canary_probes for w in self.workers),
        )
        report.device_reports = [
            worker.report(report.elapsed_ms) for worker in self.workers
        ]
        for session in self.registry:
            report.stream_reports[session.stream_id] = session.report
            report.admission_grants[session.stream_id] = session.adapt_grants
            report.admission_skips[session.stream_id] = session.adapt_skips
            report.dropped_frames[session.stream_id] = session.frames_dropped
            if session.drift is not None:
                report.drift_events[session.stream_id] = session.drift.events
                report.drift_resets[session.stream_id] = session.drift.resets
                report.drift_cluster_restores[session.stream_id] = (
                    session.drift.cluster_restores
                )
        return report

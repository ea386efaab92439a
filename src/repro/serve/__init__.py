"""``repro.serve`` — fleet serving: N adapting vehicles, a pool of devices.

The paper deploys one vehicle adapting online at 30 FPS
(:class:`repro.pipeline.RealTimePipeline`, served here as a fleet of
one stream).  This package scales that deployment story to a *fleet*:
many concurrent camera streams, each with its own domain-shift
schedule, its own LD-BN-ADAPT state and its own frame-arrival process,
sharded across a **pool of devices** — one
simulated Orin saturates at ~2-3 paper-scale adapting streams, so the
serving layer places sessions on devices, serves each device with its
own deadline-aware scheduler, and migrates sessions off sustained-hot
devices.

Architecture
------------
::

    cameras ──► ArrivalProcess ──► FleetServer (coordinator) ── FleetReport
                 (streams.py)      │  placement · one arrival   (report.py)
                 per-stream phase/ │  heap · migration            per-stream +
                 jitter/drop model │  (server.py + pool.py)       per-device
                      │            ▼
                StreamSession   DeviceWorker ×D        (pool.py)
                 per-stream BN   │ DeviceProfile-priced costs
                 state + adapter │ DeadlineAwareScheduler  (scheduler.py)
                                 │ SlackAdmission budget   (admission.py)
                                 │ the pool's ONE compiled engine pair
                                 └ batched fwd + grouped adaptation
                                                           (adapt_batch.py)

* **streams.py** — per-stream isolation *and arrival modelling*.
  Everything LD-BN-ADAPT touches (BN running statistics, gamma/beta,
  optimizer momentum) lives in a :class:`StreamSession`, its BN state
  one flat block (:class:`~repro.adapt.bn_state.BNStateSnapshot`) that
  whose gamma/beta rows every compiled step stacks into its slots as
  they lie and updates with one block formula, its momentum buffers views of one block beside it;
  ``swap_in``/``swap_out`` copy it into the model's own block (which its
  BN modules view) and back only for a step no plan of the pool's
  takes, and when a vehicle's run ends.
  Eval-mode BN folds to per-sample ``(scale, shift)`` vectors, so
  :func:`per_stream_inference` serves many differently-adapted streams
  in ONE batched forward.  The fold belongs to the block
  (:meth:`~repro.adapt.bn_state.BNStateSnapshot.folded`): it is
  recomputed only after one of the block's writers — the compiled update
  tail, ``swap_out``, the drift restore, the checkpoint restore — marked
  it written, so a launch of unchanged sessions does no fold arithmetic.
  Each session owns an :class:`ArrivalProcess` — a seeded realization of
  its :class:`ArrivalModel`, with the seed
  derived from ``child_seed(arrival_seed, stream_id)`` so a stream's
  arrival realization is invariant to pool size and placement.  The
  session is also the unit of migration: re-homing it moves all
  per-stream state bitwise.
* **pool.py** — the device layer.  A :class:`DeviceWorker` owns one
  device's :class:`~repro.hw.device.DeviceProfile` (heterogeneous pools
  price each stream per device), its scheduler + queue, its admission
  budget, its pricing (memoised roofline quotes) and its clock; the
  per-batch serving path (shared forward → decode → admission-gated
  grouped adaptation → per-frame record → drift resets →
  checkpoints, one method each) lives here.  The compiled engines are
  the coordinator's, shared by every worker: one frozen network, so
  each plan is lowered once per pool.  :func:`place_stream` is the
  pure placement policy ("least_loaded" over roofline-estimated stream
  cost, "round_robin", "pinned") and :class:`MigrationPlanner` the pure
  migration rule: when per-device slack EWMAs diverge past
  ``MigrationConfig.slack_gap_ms`` while a device sits below
  ``hot_slack_ms``, the hot device's heaviest movable session moves to
  the coolest device, rate-limited by a cooldown.  Queued frames
  re-home with the session (a saturated device can drain its backlog),
  but a session with a batch still in flight is pinned — it is never
  served by two devices in overlapping windows.
* **scheduler.py** — deadline-aware dynamic batching over a time-ordered
  queue, one instance per device.  Batches amortize per-layer launch
  overhead but must finish inside the camera deadline; the scheduler
  plans batch sizes with the :mod:`repro.hw.roofline` latency model of
  *its* device, orders requests by aged urgency (EDF plus a queue-age
  credit so no stream starves), flips to max-throughput batching once a
  deadline is already unmeetable, and exposes the earliest pending
  arrival so the event loop can launch the instant the device frees up.
  :func:`plan_adaptation_groups` partitions the steps granted in one
  served batch into same-key groups.
* **admission.py** — slack-driven adaptation admission control, one
  controller per device.  :class:`SlackAdmission` grants the optional
  adaptation work from observed deadline slack: steps shed when the
  queue runs hot, skipped streams catch up when it clears (bounded by a
  per-stream debt limit), a step is never granted when the roofline
  model says it would push the served batch past its earliest deadline,
  and solo steps are deferred briefly to share a fused replay (phase
  packing).  Migration transfers a stream's debt/deferral state between
  controllers (``export_stream``/``import_stream``), so moving neither
  erases nor inflates its catch-up claim.  The static ``adapt_stride``
  stagger remains as the legacy policy when no :class:`AdmissionConfig`
  is given.
* **adapt_batch.py** — grouped adaptation, one batcher per device over
  the pool's shared adaptation step (the fused-billing verdict stays per
  device).  Every granted step the pool's plans take is one group of a
  replay of the compiled adaptation plan, which reads each stream's
  gamma/beta from its session and writes its update back there (no
  model swap); same-key steps that land in the same served batch fuse
  into ONE such replay, and a lone step is a group of one.  Per-stream
  results match serial stepping to float precision (bitwise for a
  group of one).
* **server.py** — the fleet coordinator.  It builds the pool's one
  compiled engine pair and runs the one event loop: a fleet-wide
  time-ordered arrival heap; arrivals route to the session's current
  device; each worker launches a deadline-feasible batch at
  ``max(device_free, earliest pending arrival)``, executed in global
  time order across the pool; after each batch the migration planner
  may rebalance.
  ``FleetConfig(devices=N, placement=..., migration=...)`` configures
  the pool (an explicit heterogeneous ``device_pool`` may be passed to
  the server); ``FleetConfig(devices=1)`` — the default — reproduces
  the former single-device server exactly (the tick-synchronous drain
  survives only as ``tests/tick_oracle.py``, the parity reference).
* **drift.py** — drift-aware adaptation resets.  Each session can
  feed its per-frame mean prediction entropy to a one-sided CUSUM
  (:class:`repro.metrics.DriftDetector`); an alarm re-initializes the
  session's BN state from the source snapshot or warm-starts it from a
  per-session bank of previously adapted states keyed by domain
  signature (:func:`repro.adapt.frame_signature`), clears optimizer
  momentum and re-aligns the adaptation stagger so the next frame
  adapts.  Enabled via
  ``FleetConfig(drift=DriftResetConfig(...))``; detection is pure
  observation, so a run in which no alarm fires is bitwise identical
  to one without the detector.
* **checkpoint.py / faults.py** — session durability and deterministic
  failure injection (see the failure model below).
  :class:`SessionCheckpointStore` periodically serializes each
  session's complete adapted state to one flat, CRC-checked buffer per
  stream (schema ``repro-session-checkpoint-v3``, layout in
  :mod:`repro.serve.checkpoint`; model checkpoints stay ``.npz``);
  :class:`FaultSchedule` is a seeded, replayable list of crash / stall
  / slow-down / join events the coordinator drains through its event
  loop like a second arrival stream.

Failure model
-------------
The elastic pool survives devices dying mid-run and admits devices
joining a running fleet (``FleetServer.add_device``, also a ``join``
fault event).  What is durable, what is lost, and how recovery runs:

* **Durable** — each session's last checkpoint: BN statistics and
  gamma/beta (the flat BN block), optimizer slots, the
  adapter's pending-frame buffer and step index, admission
  debt/deferrals, serving counters and the arrival-process cursor.
  Checkpoints are written atomically (tmp + ``os.replace``) as magic +
  version, a JSON header (metadata and a sorted ``[key, dtype, shape]``
  manifest), one contiguous payload and a CRC32 over all of it — a
  torn, truncated or bit-flipped file is rejected with
  :class:`CheckpointCorrupt` before a single array is restored — every
  ``CheckpointConfig.interval_frames`` served frames, plus a baseline
  at attach time.  ``mode="async"`` models a write-behind store: the
  packed capture is staged and only durable at the next opportunity,
  bounded by ``max_staleness_frames``.  A non-finite BN block is never
  captured (``FleetReport.checkpoint_refusals``, traced with why).
* **Lost on a crash** — everything since the last durable checkpoint:
  adapted-state progress of frames served since then (counted per
  stream in ``FleetReport.frames_lost``, bounded by the checkpoint
  interval per stream), frames queued on the dead device
  (``crash_dropped_frames`` — its memory died with it), any staged
  async capture, and the dead controller's live admission state (the
  checkpointed debt is re-imported instead).
* **Drift resets** — a drift alarm is a *logical* failure of the
  stream's adapted state (the world changed under it).  The reset is
  applied at batch completion on the device clock and immediately
  billed as an **unconditional durable checkpoint** (staged async
  captures are dropped): a device crash racing the reset can therefore
  never restore pre-reset BN state from a stale archive.  The detector
  state and the warm-start bank are part of the session checkpoint, so
  a recovered session resumes detection exactly where it left off.
* **Recovery sequence** — the watchdog detects the death at the missed
  next launch (``max(crash_ms, device_free_ms)``: a batch already
  committed on the simulated clock completes); queued frames are
  counted dead; each hosted session is restored from its durable
  checkpoint, re-placed over the surviving pool by the normal placement
  path (from then on priced by the new device), and its admission
  debt re-imported.  A checkpoint that fails verification is a
  *reported fallback*, not a crash: the session is handled as if it had
  no durable checkpoint (its live state untouched, every frame since
  registration counted lost) and the recovery record and
  ``FleetReport.corrupt_checkpoints`` say so.  Nothing is recomputed:
  serving counters stand, only adapted state rolls back, so no frame is
  ever served twice and per-stream frame order is preserved.  Joined or freshly drained
  devices are re-priced within a bounded number of idle-decay ticks by
  a canary probe that snaps their stale slack EWMA to the roofline
  prior.

Checkpointing, fault injection and recovery all run on the simulated
event clock, so a seeded ``FaultSchedule`` replays bitwise — and with
no faults scheduled, a checkpointing run is bitwise identical to a
fault-free baseline (a capture serializes the live arrays into its
own buffer; it never touches live state).
* **report.py** — fleet dashboard: p50/p95/p99 latency, deadline-slack
  percentiles, queue depth at batch launch, per-stream accuracy,
  adaptation-step p50/p95, admission grants/skips, dropped frames,
  fused-step sizes, sustained frames/sec, and per-device
  :class:`DeviceReport` rows (utilization, queue depth, migrations)
  plus the migration event log.  Fleet-wide distributions are streaming
  :class:`~repro.telemetry.Histogram` sketches (mergeable, O(1)
  memory), fed by the device workers as they serve.

Observability is :mod:`repro.telemetry`: every worker records its
metrics into the server's shared :class:`~repro.telemetry.MetricsRegistry`,
and when the server is built with a :class:`~repro.telemetry.SpanTracer`
each frame's life (``ingest → queue → forward → adapt → emit``) plus
batch, fusion, migration and admission events become spans exportable as
Chrome ``trace_event`` JSON.  The default is the no-op
:data:`~repro.telemetry.NULL_TRACER`; serving results are bitwise
identical with tracing on or off.

Entry points: ``python -m repro.experiments fleet`` (heterogeneous-domain
demo harness; ``--devices``/``--placement``/``--jitter``/``--admission``
flags, span tracing + dashboard with ``--trace``), ``python -m
repro.experiments trace`` (the observability run as its own artifact),
``python -m repro.experiments bench-serve`` (jittered-arrival admission
study, the device-scaling study with ``--devices N``, the
telemetry-overhead study with ``--trace`` or the crash-recovery study
with ``--recovery``; each asserts its claim, which
``tests/test_experiments.py`` also asserts on every test run),
``examples/fleet_serving.py`` (device-pool walkthrough with
placement/migration knobs), ``benchmarks/bench_serve_throughput.py``
(batched vs. N serial pipelines, jittered admission, device scaling) and
``benchmarks/bench_adapt_step.py``.  ``tests/test_properties_serve.py``
is the property harness for the scheduler/admission/pool invariants.
"""

from .adapt_batch import FleetAdaptationBatcher, static_fuse_key
from .admission import AdmissionConfig, SlackAdmission, StepCandidate
from .checkpoint import (
    CheckpointConfig,
    CheckpointCorrupt,
    SessionCheckpointStore,
    capture_session_state,
    pack_checkpoint,
    restore_session_state,
    unpack_checkpoint,
)
from .drift import DriftResetConfig, SessionDriftState
from .faults import FaultEvent, FaultSchedule
from .pool import (
    PLACEMENT_POLICIES,
    DeviceWorker,
    MigrationConfig,
    MigrationDecision,
    MigrationPlanner,
    place_stream,
)
from .report import DeviceReport, FleetReport, FrameRecord, PipelineReport
from .scheduler import (
    BatchPlan,
    DeadlineAwareScheduler,
    FrameRequest,
    plan_adaptation_groups,
)
from .server import FleetConfig, FleetServer
from .streams import (
    ArrivalModel,
    ArrivalProcess,
    BNStateSnapshot,
    StreamRegistry,
    StreamSession,
    per_stream_inference,
)

__all__ = [
    "FleetServer",
    "FleetConfig",
    "FleetReport",
    "PipelineReport",
    "FrameRecord",
    "CheckpointConfig",
    "CheckpointCorrupt",
    "SessionCheckpointStore",
    "capture_session_state",
    "restore_session_state",
    "pack_checkpoint",
    "unpack_checkpoint",
    "FaultEvent",
    "FaultSchedule",
    "DriftResetConfig",
    "SessionDriftState",
    "DeviceReport",
    "DeviceWorker",
    "MigrationConfig",
    "MigrationDecision",
    "MigrationPlanner",
    "PLACEMENT_POLICIES",
    "place_stream",
    "FleetAdaptationBatcher",
    "static_fuse_key",
    "AdmissionConfig",
    "SlackAdmission",
    "StepCandidate",
    "DeadlineAwareScheduler",
    "BatchPlan",
    "FrameRequest",
    "plan_adaptation_groups",
    "ArrivalModel",
    "ArrivalProcess",
    "StreamRegistry",
    "StreamSession",
    "BNStateSnapshot",
    "per_stream_inference",
]

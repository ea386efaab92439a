"""Device-pool serving: per-device workers, session placement, migration.

The fleet outgrew one device — a single simulated Orin saturates at
~2-3 paper-scale adapting streams — so :class:`~repro.serve.server.
FleetServer` shards its sessions across a *pool* of devices.  This
module holds the three layers of that sharding:

* :class:`DeviceWorker` — everything ONE device owns: its
  :class:`~repro.hw.device.DeviceProfile` (priced individually, so
  heterogeneous pools of mixed power modes are first-class), its
  :class:`~repro.serve.scheduler.DeadlineAwareScheduler` and queue, its
  own :class:`~repro.serve.admission.SlackAdmission` budget, its
  :class:`DevicePricing` and its device clock plus load metrics.  The
  compiled engines are *not* per device: every stream shares the one
  frozen network, so the coordinator builds one
  :class:`~repro.engine.CompiledInference` and one
  :class:`~repro.engine.CompiledAdaptStep` and hands them to every
  worker — each ``(shape, groups)`` plan is lowered once per pool.  The
  per-batch serving path lives here, one method per ledger line:
  shared forward + decode, admission and staging, fused/serial
  adaptation, the per-frame record, drift resets, checkpoints.
* :func:`place_stream` — pure placement policies over roofline-estimated
  per-stream device cost: ``"least_loaded"`` (argmin of projected
  utilization, the default), ``"round_robin"`` (registration order
  modulo pool size), ``"pinned"`` (the caller names the device).
* :class:`MigrationPlanner` + :class:`MigrationConfig` — pure migration
  logic.  Each worker keeps an EWMA of its observed deadline slack;
  when a device runs sustainedly hot (EWMA below ``hot_slack_ms``)
  while another is cooler by more than ``slack_gap_ms``, the planner
  moves the hot device's heaviest *movable* session (no batch of its
  frames still in flight; queued frames re-home with it, so a
  saturated device can drain) to the coolest device.  A fleet-wide
  ``cooldown_ms`` plus a longer per-session refractory
  (``session_cooldown_ms``, default twice the fleet-wide one) keeps
  sessions from thrashing back and forth.  Migration
  transfers the session object wholesale — its
  :class:`~repro.adapt.base.ParameterSnapshot`, BN buffers and
  optimizer slots move bitwise untouched — plus its admission debt
  (:meth:`SlackAdmission.export_stream`), and re-prices its modeled
  adaptation cost on the target device.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..engine import CompiledAdaptStep, CompiledInference, compile_model
from ..engine.backends.threading import serving_threads
from ..hw.deadline import (
    adaptation_budget_ms,
    deadline_slack_ms,
    stream_utilization,
)
from ..hw.roofline import batched_inference_latency_ms, ld_bn_adapt_latency
from ..metrics.entropy_stats import shannon_entropy
from ..metrics.lane_accuracy import point_accuracy
from ..models.ufld import decode_predictions
from ..telemetry.metrics import Histogram, MetricsRegistry
from ..telemetry.trace import NULL_TRACER, SpanTracer
from .adapt_batch import (
    FleetAdaptationBatcher,
    StagedGroupStep,
    static_fuse_key,
)
from .admission import SlackAdmission, StepCandidate
from .checkpoint import REFUSED_NONFINITE, SessionCheckpointStore
from .report import DeviceReport
from .scheduler import (
    BatchPlan,
    DeadlineAwareScheduler,
    plan_adaptation_groups,
)
from .streams import StreamSession, per_stream_inference

PLACEMENT_POLICIES = ("least_loaded", "round_robin", "pinned")


def place_stream(
    policy: str,
    index: int,
    costs: Sequence[float],
    loads: Sequence[float],
    pinned: Optional[int] = None,
) -> int:
    """Pick the device for a newly registered stream.

    ``costs[d]`` is the stream's estimated utilization *on device d*
    (heterogeneous pools price the same stream differently per power
    mode), ``loads[d]`` the utilization already placed there, ``index``
    the stream's fleet-wide registration index.  An explicit ``pinned``
    device always wins; the ``"pinned"`` policy *requires* one.  Pure
    logic — ties break toward the lowest device index, so placement is
    deterministic.
    """
    if len(costs) != len(loads) or not loads:
        raise ValueError("costs and loads must be equal-length, non-empty")
    if pinned is not None:
        if not 0 <= pinned < len(loads):
            raise ValueError(
                f"pinned device {pinned} out of range for a "
                f"{len(loads)}-device pool"
            )
        return pinned
    if policy == "pinned":
        raise ValueError(
            "placement='pinned' requires an explicit device for every stream"
        )
    if policy == "round_robin":
        return index % len(loads)
    if policy == "least_loaded":
        projected = [load + cost for load, cost in zip(loads, costs)]
        return min(range(len(projected)), key=lambda d: (projected[d], d))
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of "
        f"{PLACEMENT_POLICIES}"
    )


@dataclass(frozen=True)
class MigrationConfig:
    """Tuning of the session-migration planner.

    Attributes
    ----------
    hot_slack_ms:
        A device's slack EWMA must sit below this before any of its
        sessions are considered for migration (the device is actually
        struggling, not just momentarily behind).  The default matches
        the admission controller's ``slack_low_ms`` hot threshold — a
        device fully granting adaptation legitimately rides just above
        it.
    slack_gap_ms:
        Minimum EWMA divergence between the hot source device and the
        cooler target — migration only pays when the pool is genuinely
        imbalanced.  An *empty* device that has never served counts as
        maximally cool; an unobserved device that already holds sessions
        is not a candidate until it has served something.
    cooldown_ms:
        Fleet-wide refractory period after any migration, so the EWMAs
        resettle between moves.
    session_cooldown_ms:
        Per-session refractory: how long a just-moved session stays put
        before it may move again.  None (the default) means twice the
        fleet-wide cooldown — long enough that a session cannot bounce
        straight back on the very next fleet-wide window.
    ewma_alpha:
        Update weight of each worker's observed-slack EWMA.
    min_observations:
        Frames a device must have served before its EWMA counts as
        *sustained* — a cold-start frame or two must not trigger a move.
    """

    hot_slack_ms: float = 2.0
    slack_gap_ms: float = 8.0
    cooldown_ms: float = 500.0
    session_cooldown_ms: Optional[float] = None  # None → 2 * cooldown_ms
    ewma_alpha: float = 0.25
    min_observations: int = 8

    def __post_init__(self):
        if self.slack_gap_ms < 0:
            raise ValueError(
                f"slack_gap_ms must be >= 0, got {self.slack_gap_ms}"
            )
        if self.cooldown_ms < 0:
            raise ValueError(
                f"cooldown_ms must be >= 0, got {self.cooldown_ms}"
            )
        if (
            self.session_cooldown_ms is not None
            and self.session_cooldown_ms < self.cooldown_ms
        ):
            raise ValueError(
                f"session_cooldown_ms ({self.session_cooldown_ms}) must be "
                f">= cooldown_ms ({self.cooldown_ms}); a shorter one could "
                "never take effect"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {self.min_observations}"
            )

    @property
    def effective_session_cooldown_ms(self) -> float:
        """The per-session refractory actually applied."""
        if self.session_cooldown_ms is not None:
            return self.session_cooldown_ms
        return 2.0 * self.cooldown_ms


@dataclass(frozen=True)
class MigrationDecision:
    """One planned session move: ``stream_id`` from ``source`` to ``target``."""

    stream_id: str
    source: int
    target: int


class MigrationPlanner:
    """Decides when to move a session to a cooler device.

    Pure logic over per-device slack EWMAs, current placements and
    per-session costs — no model or session access, so the property
    harness can drive it with synthetic fleets.  The caller owns the
    actual state transfer; :meth:`commit` records a taken decision for
    the cooldown bookkeeping.
    """

    def __init__(self, config: Optional[MigrationConfig] = None):
        self.config = config if config is not None else MigrationConfig()
        self._last_migration_ms: Optional[float] = None
        self._last_moved_ms: Dict[str, float] = {}

    def in_cooldown(self, now_ms: float) -> bool:
        """Whether the fleet-wide refractory period is still running.

        Cheap pre-check the coordinator uses to skip building the
        movable/cost structures on every served batch while no decision
        could be taken anyway.
        """
        return (
            self._last_migration_ms is not None
            and now_ms - self._last_migration_ms < self.config.cooldown_ms
        )

    def _sustained_hot(self, ewma: Optional[float], observations: int) -> bool:
        """The one definition of a sustained-hot device, shared by
        :meth:`plan` and the coordinator's :meth:`any_hot` pre-check so
        the two can never drift apart."""
        return (
            ewma is not None
            and observations >= self.config.min_observations
            and ewma < self.config.hot_slack_ms
        )

    def any_hot(
        self,
        slack_ewmas: Sequence[Optional[float]],
        observations: Sequence[int],
    ) -> bool:
        """Whether any device currently qualifies as a migration source."""
        return any(
            self._sustained_hot(ewma, count)
            for ewma, count in zip(slack_ewmas, observations)
        )

    def plan(
        self,
        now_ms: float,
        slack_ewmas: Sequence[Optional[float]],
        observations: Sequence[int],
        device_sessions: Sequence[Sequence[str]],
        movable: Set[str],
        costs: Dict[str, float],
    ) -> Optional[MigrationDecision]:
        """The next session move, or None.

        ``slack_ewmas[d]`` is device *d*'s observed-slack EWMA (None
        before its first served frame) and ``observations[d]`` how many
        frames fed it — a device is only *sustainedly* hot after
        ``min_observations`` of them.  ``device_sessions[d]`` lists the
        device's sessions in registration order, ``movable`` the streams
        with no batch of theirs still in flight (the only ones that may
        move — their queued frames re-home with them),
        and ``costs`` each stream's estimated utilization on its current
        device (the heaviest movable session moves first).  An empty,
        never-observed device counts as maximally cool; an unobserved
        device that already holds sessions is no target at all.
        """
        config = self.config
        if self.in_cooldown(now_ms):
            return None

        def coolness(d: int) -> float:
            ewma = slack_ewmas[d]
            if ewma is None:
                return float("inf") if not device_sessions[d] else float("-inf")
            return float(ewma)

        hot_devices = sorted(
            (
                d
                for d, ewma in enumerate(slack_ewmas)
                if self._sustained_hot(ewma, observations[d])
            ),
            key=lambda d: (slack_ewmas[d], d),
        )
        session_cooldown = config.effective_session_cooldown_ms
        for source in hot_devices:
            eligible = [
                sid
                for sid in device_sessions[source]
                if sid in movable
                and (
                    sid not in self._last_moved_ms
                    or now_ms - self._last_moved_ms[sid] >= session_cooldown
                )
            ]
            if not eligible:
                continue
            candidates = [
                d
                for d in range(len(slack_ewmas))
                if d != source
                and coolness(d) - slack_ewmas[source] > config.slack_gap_ms
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda d: (-coolness(d), d))
            stream_id = max(eligible, key=lambda sid: costs.get(sid, 0.0))
            return MigrationDecision(stream_id, source, target)
        return None

    def commit(self, decision: MigrationDecision, now_ms: float) -> None:
        """Record a taken decision (starts the cooldown clocks)."""
        self._last_migration_ms = now_ms
        self._last_moved_ms[decision.stream_id] = now_ms


class _Decision(NamedTuple):
    """One frame's admission outcome: feed the adapter or withhold it.

    ``planned_step`` records whether the admission controller budgeted an
    actual optimization step for this feed (as opposed to a free
    buffering frame); :meth:`DeviceWorker._reconcile_buffer_drift` refuses
    any feed whose real buffer state would turn a free plan into an
    unbudgeted step.
    """

    feed: bool
    planned_step: bool


class DevicePricing:
    """One device's modeled service times: memoised roofline quotes
    times the fault-injection ``slowdown``.

    ``spec``, ``device`` and the kernel-pool width ``nt`` never change
    and the roofline walk is pure, so each batch / step size is quoted
    once; ``slowdown`` multiplies outside the memo, read live (1.0 is
    bitwise inert).  Scheduler and admission keep this object's bound
    methods, so it holds no worker: a back-reference would tie worker,
    sessions and model into a cycle only the cyclic collector frees.
    """

    def __init__(self, spec, device, nt: int):
        self.spec = spec
        self.device = device
        self.nt = nt
        self.slowdown = 1.0
        self._infer_quotes: Dict[int, float] = {}
        self._adapt_quotes: Dict[int, float] = {}

    def infer_ms(self, batch_size: int) -> float:
        """Modeled latency of one batched forward."""
        quote = self._infer_quotes.get(batch_size)
        if quote is None:
            quote = self._infer_quotes[batch_size] = (
                batched_inference_latency_ms(
                    self.spec, self.device, batch_size, threads=self.nt
                )
            )
        return self.slowdown * quote

    def adapt_ms(self, num_frames: int) -> float:
        """Modeled cost of one adaptation step over ``num_frames``."""
        quote = self._adapt_quotes.get(num_frames)
        if quote is None:
            quote = self._adapt_quotes[num_frames] = ld_bn_adapt_latency(
                self.spec, self.device, num_frames, threads=self.nt
            ).adaptation_ms
        return self.slowdown * quote


class DeviceWorker:
    """One pool device: its scheduler, queue, budgets and serving path.

    The worker serves whatever sessions the coordinator places on it;
    the model itself stays shared (sessions carry their own BN state),
    but every *modeled* cost — batched inference latency, adaptation
    step price, admission feasibility budget — comes from this worker's
    own :class:`DeviceProfile`, so heterogeneous pools price each stream
    per device.  ``engine`` and ``adapt_step`` are the pool's shared
    compiled engines; a worker constructed without them builds its own.
    """

    def __init__(
        self,
        index: int,
        model,
        config,
        device=None,
        spec=None,
        timer=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: SpanTracer = NULL_TRACER,
        checkpoints: Optional[SessionCheckpointStore] = None,
        engine: Optional[CompiledInference] = None,
        adapt_step: Optional[CompiledAdaptStep] = None,
    ):
        self.index = index
        self.model = model
        self.config = config
        self.device = device
        self.timer = timer
        self.tracer = tracer
        self.checkpoints = checkpoints
        self.alive = True
        self.crashed_ms: Optional[float] = None
        self.joined_ms = 0.0
        # kernel-pool width: an explicit FleetConfig.threads fixes the
        # compiled plans' width AND the roofline pricing; None prices at
        # one thread and compiles at the backend's resolved width
        threads = serving_threads(config.threads)
        self.pricing = DevicePricing(spec, device, threads or 1)
        # wallclock mode measures instead of planning; batch greedily
        priced = config.latency_model == "orin"
        self.latency_fn = self.pricing.infer_ms if priced else None
        self.adapt_cost_fn = self.pricing.adapt_ms if priced else None
        self.scheduler = DeadlineAwareScheduler(
            latency_fn=self.latency_fn,
            max_batch_size=config.max_batch_size,
            aging_rate=config.aging_rate,
        )
        self.admission: Optional[SlackAdmission] = (
            SlackAdmission(config.admission, self.adapt_cost_fn)
            if config.admission is not None
            else None
        )
        # plans are cached per (batch shape, groups) inside the engines,
        # which refuse a model in training mode: set once, here, not by
        # walking the module tree on every batch
        model.eval()
        own = dict(backend=config.backend, threads=threads)
        self._compiled = (
            engine if engine is not None else compile_model(model, **own)
        )
        self._adapt_batcher = FleetAdaptationBatcher(
            model, compiled=adapt_step, **own
        )
        self._slack_alpha = (
            config.migration.ewma_alpha if config.migration is not None else 0.25
        )
        self.slack_ewma_ms: Optional[float] = None
        self.device_free_ms = 0.0
        self.busy_ms = 0.0
        self.frames_served = 0
        self.migrations_in = 0
        self.migrations_out = 0
        self.sessions: "OrderedDict[str, StreamSession]" = OrderedDict()
        self.session_cost_ms: Dict[str, float] = {}
        self.batch_sizes = Histogram()
        self.queue_depths = Histogram()
        self._last_served_ms: Optional[float] = None  # idle-decay anchor
        self.slack_decays = 0
        self.canary_probes = 0
        self._decays_since_served = 0  # canary trigger, reset on serve
        # fleet-wide metric sinks shared with the coordinator via its
        # registry (sketches merge order-independently, and launch order
        # across workers == global time order anyway — the event loop
        # serializes batches).  Instruments are cached here so the hot
        # path never does a registry lookup.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_batch_sizes = metrics.histogram("fleet/batch_size")
        self._m_adapt_batch_sizes = metrics.histogram("fleet/adapt_batch_size")
        self._m_queue_depths = metrics.histogram("fleet/queue_depth")
        self._m_latency = metrics.histogram("fleet/latency_ms")
        self._m_slack = metrics.histogram("fleet/slack_ms")
        self._m_adapt = metrics.histogram("fleet/adapt_ms")
        self._m_accuracy = metrics.histogram("fleet/accuracy")
        self._m_misses = metrics.counter("fleet/deadline_misses")
        self._m_decays = metrics.counter("fleet/slack_decays")
        self._m_canary = metrics.counter("fleet/canary_probes")
        self._m_checkpoints = metrics.counter("fleet/checkpoints")
        self._m_drift_events = metrics.counter("fleet/drift_events")
        self._m_drift_resets = metrics.counter("fleet/drift_resets")
        self._m_drift_cluster = metrics.counter("fleet/drift_cluster_restores")

    @property
    def name(self) -> str:
        profile = self.device.name if self.device is not None else "wallclock"
        return f"{self.index}:{profile}"

    # -- placement / migration -----------------------------------------
    def estimate_cost_ms(self, adapter) -> float:
        """Roofline-estimated per-period service demand of one stream.

        Inference at batch 1 plus the stream's amortized share of its
        adaptation step (step cost over ``batch_size * adapt_stride``
        frames) — the quantity placement policies compare across
        devices.  Unmodeled (wallclock) serving prices every stream at
        one full period, so placement degenerates to stream-count
        balancing.
        """
        if self.latency_fn is None:
            return self.config.period_ms
        batch = adapter.batch_size
        per_frame_adapt = self.adapt_cost_fn(batch) / (
            batch * max(self.config.adapt_stride, 1)
        )
        return self.latency_fn(1) + per_frame_adapt

    def _requote(self, session: StreamSession) -> None:
        """Price ``session`` on this device as it stands now: its modeled
        adaptation step and its per-period service demand (attach, a
        slow-down and a drift reset all re-quote through here)."""
        if self.config.latency_model == "orin":
            session.adapt_latency_ms = self.adapt_cost_fn(
                session.adapter.batch_size
            )
        self.session_cost_ms[session.stream_id] = self.estimate_cost_ms(
            session.adapter
        )

    @property
    def load(self) -> float:
        """Sum of the placed streams' estimated utilizations."""
        period = self.config.period_ms
        return sum(
            stream_utilization(cost, period)
            for cost in self.session_cost_ms.values()
        )

    def attach(
        self,
        session: StreamSession,
        admission_state: Optional[Dict[str, object]] = None,
        now_ms: float = 0.0,
    ) -> None:
        """Place a session on this device (registration or migration).

        Prices the session's modeled adaptation step on *this* device's
        profile and registers (or imports, when migrating) its admission
        state.  The session object itself — BN snapshot, optimizer
        slots, report — moves untouched.  With a checkpoint store
        enabled, the attach immediately writes a durable baseline so
        even a session that crashes before its first interval has
        something to recover from.
        """
        sid = session.stream_id
        self.sessions[sid] = session
        # a session handed over at ``now_ms`` cannot be served earlier
        self.device_free_ms = max(self.device_free_ms, now_ms)
        self._requote(session)
        if self.admission is not None:
            if admission_state is not None:
                self.admission.import_stream(sid, admission_state)
            else:
                self.admission.register_stream(
                    sid, static_fuse_key(session.adapter)
                )
        if self.checkpoints is not None:
            self._store(self.checkpoints.checkpoint, session, now_ms)

    def _store(self, call, session: StreamSession, clock_ms: float) -> int:
        """One checkpoint-store ``call`` (``observe`` / ``checkpoint``) for
        ``session``: its durable writes counted, its refusal traced."""
        refusals = self.checkpoints.refusals
        wrote = call(session, self._admission_view(session.stream_id), clock_ms)
        self._m_checkpoints.inc(wrote)
        if self.tracer.enabled and self.checkpoints.refusals > refusals:
            self.tracer.instant(
                "checkpoint_refused", clock_ms, pid=self.name, tid="device",
                cat="fault", stream=session.stream_id, reason=REFUSED_NONFINITE,
            )
        return wrote

    def _admission_view(self, stream_id: str) -> Optional[Dict[str, object]]:
        """Non-destructive admission state for checkpoint captures."""
        if self.admission is None:
            return None
        return self.admission.peek_stream(stream_id)

    def detach(self, session: StreamSession) -> Optional[Dict[str, object]]:
        """Remove a session from this device; returns its admission state."""
        sid = session.stream_id
        del self.sessions[sid]
        del self.session_cost_ms[sid]
        if self.admission is not None:
            return self.admission.export_stream(sid)
        return None

    # -- fault hooks ----------------------------------------------------
    def set_slowdown(self, factor: float) -> None:
        """Degrade this device's modeled service times by ``factor``.

        Compounds with earlier slow-downs.  The scheduler and the
        admission controller read the pricing's ``slowdown`` live; the
        hosted sessions' cached quotes are refreshed here, so admission
        feasibility and placement see the new prices.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.pricing.slowdown *= factor
        for session in self.sessions.values():
            self._requote(session)

    def crash(self, now_ms: float) -> None:
        """Mark this device dead at ``now_ms``; it never launches again.

        The coordinator owns the recovery sequence (queue extraction,
        checkpoint restore, re-placement) — this only flips the death
        state the event loop and reports read.
        """
        self.alive = False
        self.crashed_ms = now_ms

    def observe_slack(self, slack_ms: float) -> None:
        """Feed one served frame's deadline slack into the worker EWMA.

        This is the migration planner's heat signal — kept separate from
        the admission controller's EWMA, which may not exist (static
        stride fleets migrate too).
        """
        if self.slack_ewma_ms is None:
            self.slack_ewma_ms = float(slack_ms)
        else:
            self.slack_ewma_ms += self._slack_alpha * (
                float(slack_ms) - self.slack_ewma_ms
            )

    # -- idle slack decay ----------------------------------------------
    # A drained device's slack EWMA freezes at its last (hot) reading and
    # keeps repelling the migration planner even though the device now
    # sits idle — so the fleet never re-balances back onto it.  After
    # IDLE_DECAY_GRACE_PERIODS frame periods without serving, the EWMA
    # relaxes toward the roofline prior (the slack a lone batch-1 frame
    # would see) at IDLE_DECAY_RATE per further idle period.  Driven off
    # the simulated launch clock, so it is deterministic and inert for
    # busy devices.
    IDLE_DECAY_GRACE_PERIODS = 2.0
    IDLE_DECAY_RATE = 0.25
    #: after this many consecutive decays without serving, a canary probe
    #: snaps the EWMA to the roofline prior outright — the geometric decay
    #: never *reaches* the prior, so a drained (or crash-recovered) device
    #: would otherwise stay fractionally "hot" forever.  Bounds the
    #: re-pricing of an idle device to a fixed number of decay ticks.
    CANARY_PROBE_DECAYS = 8

    def roofline_slack_prior_ms(self) -> Optional[float]:
        """Best-case slack of an idle device (batch-1 frame, no queueing)."""
        if self.latency_fn is None:
            return None
        return deadline_slack_ms(self.latency_fn(1), self.config.deadline_ms)

    def decay_idle_slack(self, now_ms: float) -> bool:
        """Relax a drained device's stale slack EWMA toward the prior.

        Called by the coordinator on the launch clock; returns True when
        the EWMA moved (at most once per frame period).  Never fires for
        a device with pending or in-flight work.
        """
        if (
            self.slack_ewma_ms is None
            or self._last_served_ms is None
            or self.scheduler.pending_count
        ):
            return False
        prior = self.roofline_slack_prior_ms()
        if prior is None or self.slack_ewma_ms >= prior:
            return False
        period = self.config.period_ms
        idle_ms = now_ms - self._last_served_ms
        periods = int(idle_ms / period - self.IDLE_DECAY_GRACE_PERIODS)
        if periods < 1:
            return False
        old = self.slack_ewma_ms
        self._decays_since_served += 1
        if self._decays_since_served >= self.CANARY_PROBE_DECAYS:
            # canary probe: the modeled cost of one idle batch-1 frame IS
            # the prior, so after enough decays without any real traffic
            # the probe simply installs it — the device is re-priced
            # within a bounded number of decay ticks instead of creeping
            # toward the prior asymptotically
            self.slack_ewma_ms = prior
            self.canary_probes += 1
            self._m_canary.inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "canary_probe",
                    now_ms,
                    pid=self.name,
                    tid="device",
                    cat="migration",
                    old_ewma_ms=old,
                    prior_ms=prior,
                )
        else:
            # closed form of `periods` EWMA pulls toward the prior
            self.slack_ewma_ms = prior + (old - prior) * (
                (1.0 - self.IDLE_DECAY_RATE) ** periods
            )
        # re-anchor so the next idle period decays incrementally
        self._last_served_ms = now_ms - self.IDLE_DECAY_GRACE_PERIODS * period
        self.slack_decays += 1
        self._m_decays.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "slack_decay",
                now_ms,
                pid=self.name,
                tid="device",
                cat="migration",
                old_ewma_ms=old,
                new_ewma_ms=self.slack_ewma_ms,
                prior_ms=prior,
            )
        return True

    def report(self, elapsed_ms: float) -> DeviceReport:
        """This device's row of the fleet report."""
        return DeviceReport(
            device=self.name,
            streams=list(self.sessions),
            frames_served=self.frames_served,
            batches=self.batch_sizes.count,
            mean_batch_size=self.batch_sizes.mean,
            busy_ms=self.busy_ms,
            utilization=self.busy_ms / elapsed_ms if elapsed_ms > 0 else 0.0,
            mean_queue_depth=self.queue_depths.mean,
            max_queue_depth=int(self.queue_depths.max),
            migrations_in=self.migrations_in,
            migrations_out=self.migrations_out,
            alive=self.alive,
            crashed_ms=self.crashed_ms,
            joined_ms=self.joined_ms,
        )

    # -- the per-batch serving path ------------------------------------
    def launch(self, now_ms: float) -> float:
        """Record launch metrics, pop the next batch and serve it.

        The serving path's one entry point: queue depth is captured
        *before* the pop (the pending count at launch, the admission
        controller's pressure signal), then the planned batch is
        served.  Returns the device-clock completion time.
        """
        depth = self.scheduler.pending_count
        self.queue_depths.record(depth)
        self._m_queue_depths.record(depth)
        plan = self.scheduler.next_batch(now_ms)
        if plan is None:  # pragma: no cover - pending implies a plan
            return now_ms
        return self.serve_batch(plan, now_ms, self.scheduler.pending_count)

    def serve_batch(
        self, plan: BatchPlan, start_ms: float, leftover_depth: int
    ) -> float:
        """Run one shared forward + per-stream postprocessing.

        ``leftover_depth`` is the pending count left behind at launch
        (the admission controller's queue-pressure signal).  Returns the
        fleet-clock time at which this device is free again.
        """
        config = self.config
        sessions = [req.payload[0] for req in plan.requests]
        frames = [req.payload[1] for req in plan.requests]
        self.batch_sizes.record(plan.batch_size)
        self._m_batch_sizes.record(plan.batch_size)
        self.frames_served += plan.batch_size

        logits, preds, rows = self._forward(sessions, frames)
        if config.latency_model == "orin":
            infer_ms = plan.planned_latency_ms
        else:
            infer_ms = 1e3 * self.timer.records["inference"][-1]

        # inference completes for the whole batch at once; granted
        # same-batch adaptation steps are then fused into grouped
        # compiled replays (per-stream state slots, no model swap), with
        # remaining granted steps running serially in batch order
        clock_ms = start_ms + infer_ms
        tracer = self.tracer
        if tracer.enabled and config.latency_model == "orin":
            # device-lane batch spans only exist on the simulated clock:
            # wallclock serving reuses the host clock across overlapping
            # launches, which would break the non-overlap invariant
            tracer.span(
                "forward",
                start_ms,
                infer_ms,
                pid=self.name,
                tid="device",
                cat="batch",
                batch=plan.batch_size,
            )
            tracer.instant(
                "decode", clock_ms, pid=self.name, tid="device", cat="batch"
            )
        decisions, group_of = self._plan_adaptation(
            plan, start_ms, infer_ms, leftover_depth, rows
        )
        # drift detection feeds on the forward the batch already paid
        # for; with no session listening this is skipped outright and
        # serving stays bitwise identical (the inertness gate)
        batch_entropy = None
        if any(s.drift is not None for s in sessions):
            raw = logits.numpy()
            batch_entropy = shannon_entropy(raw, axis=1).mean(
                axis=tuple(range(1, raw.ndim - 1))
            )
        drift_fired: Dict[int, Tuple[StreamSession, np.ndarray]] = {}
        for frame_pos, (req, session, frame, pred) in enumerate(
            zip(plan.requests, sessions, frames, preds)
        ):
            fed = decisions[id(req)].feed
            result, adapt_step_ms, completion_ms = None, 0.0, clock_ms
            if fed:
                session.adapt_grants += 1
                result, adapt_step_ms, clock_ms, completion_ms = self._adapt(
                    session, frame, group_of.get(id(req)), clock_ms,
                    None if rows is None else rows[frame_pos],
                )
            else:
                session.adapt_skips += 1
            self._record_frame(
                plan, start_ms, infer_ms, req, pred,
                fed, result, adapt_step_ms, completion_ms,
            )
            if session.drift is not None and session.drift.observe(
                float(batch_entropy[frame_pos]), frame.image
            ):
                # resets apply after the batch completes: detection must
                # never perturb an in-flight fused adaptation group
                drift_fired[id(session)] = (session, frame.image)
        for session in sessions:
            # until the whole batch completes the session counts as in
            # flight on this device — the migration planner's movability
            # gate, so one session is never served by two devices in
            # overlapping windows
            session.busy_until_ms = max(session.busy_until_ms, clock_ms)
        self.busy_ms += clock_ms - start_ms
        self._last_served_ms = clock_ms
        self._decays_since_served = 0  # real traffic resets the canary
        for session, image in drift_fired.values():
            self._reset_drifted(session, image, clock_ms)
        if self.checkpoints is not None:
            self._observe_checkpoints(sessions, clock_ms)
        return clock_ms

    def _forward(self, sessions: List[StreamSession], frames):
        """The batch's one shared forward, decoded: ``(logits, preds,
        rows)`` — ``rows`` the stem rows the replay wrote (None when
        inference ran eager, or the plan has no stem).

        ``logits`` and ``rows`` view storage the pool's engine overwrites
        on its next replay of this batch shape — every reader (decode,
        the drift entropy, the adapters and fused groups copying rows)
        runs before this worker returns to the loop.
        """
        images = np.stack([f.image for f in frames]).astype(np.float32)
        compiled = nn.compiled_inference_enabled()
        if compiled:
            # one-time trace per batch size, outside the timed region
            self._compiled.warm(images)
        else:
            self.model.eval()
        with self.timer.measure("inference"):
            with per_stream_inference(sessions):
                if compiled:
                    logits = self._compiled(images)
                else:
                    with nn.no_grad():
                        logits = self.model(nn.Tensor(images, _copy=False))
            # decode is part of serving a frame, so wallclock inference cost
            # includes it — same accounting as RealTimePipeline._predict
            preds = decode_predictions(
                logits.numpy(), self.model.config,
                method=self.config.decode_method,
            )
        return logits, preds, (
            self._compiled.plan_for(images.shape, images.dtype).stem_rows
            if compiled else None
        )

    def _adapt(
        self, session: StreamSession, frame,
        group: Optional[StagedGroupStep], clock_ms: float, rows,
    ):
        """Feed one granted frame to its adapter — through its fused
        group when staging placed it in one, else the serial stepper,
        handed the frame's stem ``rows`` when it takes them from the
        pool's engine.

        Returns ``(result, adapt_step_ms, clock_ms, completion_ms)``:
        the step's :class:`AdaptResult` (None when the frame only
        buffered), the stream's share of its cost, the advanced device
        clock and the instant this frame's work completed.
        """
        if group is not None:
            if group.results is None:  # first member launches it
                clock_ms = self._run_group(group, clock_ms)
            result = group.results[id(session)]
            return result, group.per_stream_ms, clock_ms, group.done_clock_ms
        adapter = session.adapter
        if rows is not None and not adapter.takes_rows_from(self._compiled):
            rows = None
        session.swap_in()
        with self.timer.measure("adaptation"):
            result = adapter.observe_frame(frame.image, rows)
        session.swap_out()
        if result is None:
            return None, 0.0, clock_ms, clock_ms
        orin = self.config.latency_model == "orin"
        adapt_step_ms = (
            session.adapt_latency_ms
            if orin
            else 1e3 * self.timer.records["adaptation"][-1]
        )
        clock_ms += adapt_step_ms
        if self.tracer.enabled and orin:
            self.tracer.span(
                "adapt",
                clock_ms - adapt_step_ms,
                adapt_step_ms,
                pid=self.name,
                tid="device",
                cat="adapt",
                stream=session.stream_id,
            )
        return result, adapt_step_ms, clock_ms, clock_ms

    def _run_group(self, group: StagedGroupStep, clock_ms: float) -> float:
        """Execute one fused adaptation step; returns the advanced clock."""
        with self.timer.measure("adaptation"):
            group.results = group.execute()
        if self.config.latency_model == "orin":
            fused_ms = self.adapt_cost_fn(group.num_streams * group.group_size)
        else:
            fused_ms = 1e3 * self.timer.records["adaptation"][-1]
        self._m_adapt_batch_sizes.record(group.num_streams)
        group.per_stream_ms = fused_ms / group.num_streams
        group.done_clock_ms = clock_ms + fused_ms
        if self.tracer.enabled and self.config.latency_model == "orin":
            self.tracer.span(
                "adapt_fused",
                clock_ms,
                fused_ms,
                pid=self.name,
                tid="device",
                cat="adapt",
                streams=group.num_streams,
                group_size=group.group_size,
            )
        return group.done_clock_ms

    def _record_frame(
        self, plan: BatchPlan, start_ms: float, infer_ms: float, req, pred,
        fed: bool, result, adapt_step_ms: float, completion_ms: float,
    ) -> None:
        """Book one served frame: accuracy, latency and slack into the
        heat signals, the fleet histograms, the tracer and the
        session's own report."""
        config = self.config
        session, frame = req.payload
        accuracy = point_accuracy(
            pred[None], frame.gt_cells[None], config.accuracy_threshold_cells
        ).accuracy
        if config.latency_model == "orin":
            latency_ms = completion_ms - req.arrival_ms
        else:
            # processing cost only (no simulated queueing): this frame's
            # share of the batched forward plus its adaptation share
            latency_ms = infer_ms / plan.batch_size + adapt_step_ms
        slack_ms = deadline_slack_ms(latency_ms, config.deadline_ms)
        if config.latency_model == "orin":
            self.observe_slack(slack_ms)
            if self.admission is not None:
                self.admission.observe_slack(slack_ms)
        self._m_latency.record(latency_ms)
        self._m_slack.record(slack_ms)
        self._m_accuracy.record(accuracy)
        if result is not None:
            self._m_adapt.record(adapt_step_ms)
        if latency_ms > config.deadline_ms:
            self._m_misses.inc()
        if self.tracer.enabled:
            self._trace_frame(
                plan, start_ms, infer_ms, req, fed, adapt_step_ms, completion_ms
            )
        session.record(
            frame, latency_ms, accuracy, result,
            adapt_ms=adapt_step_ms if result is not None else None,
        )

    def _reset_drifted(
        self, session: StreamSession, image: np.ndarray, clock_ms: float
    ) -> None:
        """Apply one fired drift alarm once its batch has completed."""
        mode = session.drift.reset(session, image)
        sid = session.stream_id
        # the incoming regime re-prices the stream's adaptation step
        self._requote(session)
        self._m_drift_events.inc()
        self._m_drift_resets.inc()
        if mode == "cluster":
            self._m_drift_cluster.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "drift_reset",
                clock_ms,
                pid=self.name,
                tid="device",
                cat="drift",
                stream=sid,
                mode=mode,
                frames_seen=session.frames_seen,
            )
        if self.checkpoints is not None:
            # bill an unconditional durable checkpoint: a crash
            # racing the reset must never restore pre-reset state
            # from a stale archive (staged captures are dropped too)
            self._store(self.checkpoints.checkpoint, session, clock_ms)

    def _observe_checkpoints(
        self, sessions: List[StreamSession], clock_ms: float
    ) -> None:
        """Give the store one opportunity per distinct served session."""
        for session in {id(s): s for s in sessions}.values():
            wrote = self._store(self.checkpoints.observe, session, clock_ms)
            if wrote and self.tracer.enabled:
                self.tracer.instant(
                    "checkpoint",
                    clock_ms,
                    pid=self.name,
                    tid="device",
                    cat="fault",
                    stream=session.stream_id,
                    frames_seen=session.frames_seen,
                )

    def _trace_frame(
        self, plan: BatchPlan, start_ms: float, infer_ms: float, req,
        fed: bool, adapt_step_ms: float, completion_ms: float,
    ) -> None:
        """Emit one frame's span chain on its stream lane.

        The chain's durations sum exactly to the frame's reported
        latency: in ``"orin"`` mode ``queue + forward [+ adapt_wait]
        [+ adapt]`` tiles [arrival, completion]; in ``"wallclock"``
        mode the simulated queue does not exist, so the chain is the
        frame's forward share plus its own adaptation cost.  Pure reads
        of already-computed values — tracing cannot move any clock.
        """
        tracer, batch = self.tracer, plan.batch_size
        lane = dict(pid=self.name, tid=req.stream_id, frame=req.frame_index)
        if self.config.latency_model == "orin":
            tracer.span(
                "queue", req.arrival_ms, start_ms - req.arrival_ms,
                cat="frame", **lane,
            )
            tracer.span(
                "forward", start_ms, infer_ms, cat="frame", **lane, batch=batch
            )
            infer_done_ms = start_ms + infer_ms
            wait_ms = completion_ms - adapt_step_ms - infer_done_ms
            if wait_ms > 1e-9:
                tracer.span(
                    "adapt_wait", infer_done_ms, wait_ms, cat="frame", **lane
                )
        else:
            tracer.span(
                "forward", start_ms, infer_ms / batch,
                cat="frame", **lane, batch=batch,
            )
        if adapt_step_ms > 0.0:
            tracer.span(
                "adapt", completion_ms - adapt_step_ms, adapt_step_ms,
                cat="frame", **lane,
            )
        elif fed:
            tracer.instant(
                "adapt_buffered", completion_ms, cat="admission", **lane
            )
        else:
            tracer.instant("adapt_shed", completion_ms, cat="admission", **lane)
        tracer.instant("emit", completion_ms, cat="frame", **lane)

    # ------------------------------------------------------------------
    def _admission_decisions(
        self, plan: BatchPlan, start_ms: float, infer_ms: float, leftover_depth: int
    ) -> Dict[int, _Decision]:
        """Per-request adaptation grants for one served batch.

        Static policy (no admission controller): the stream's
        ``adapt_stride``/``adapt_phase`` schedule, offset-corrected when
        a backlogged batch carries several frames of one stream.  Slack
        policy: :meth:`SlackAdmission.admit` over the batch's step
        candidates, with the roofline feasibility budget measured from
        the batch's earliest deadline.
        """
        decisions: Dict[int, _Decision] = {}
        requests = plan.requests
        sessions = [req.payload[0] for req in requests]
        if self.admission is None:
            offsets: Dict[int, int] = {}
            for req, session in zip(requests, sessions):
                k = offsets.get(id(session), 0)
                offsets[id(session)] = k + 1
                decisions[id(req)] = _Decision(session.due_for_adaptation(k), True)
            return decisions

        candidates = []
        assumed_pending: Dict[int, int] = {}
        first_step: Dict[int, int] = {}
        for i, (req, session) in enumerate(zip(requests, sessions)):
            adapter = session.adapter
            batch_size = adapter.batch_size
            if id(session) not in assumed_pending:
                assumed_pending[id(session)] = adapter.pending_frames
            pending = assumed_pending[id(session)]
            would_step = pending >= batch_size - 1
            assumed_pending[id(session)] = 0 if would_step else pending + 1
            fuse_key = None
            if would_step and id(session) not in first_step:
                first_step[id(session)] = i
                fuse_key = self._adapt_batcher.group_key(session)
            candidates.append(
                StepCandidate(
                    stream_id=session.stream_id,
                    would_step=would_step,
                    fuse_key=fuse_key,
                    frames_per_step=batch_size,
                    serial_cost_ms=session.adapt_latency_ms,
                )
            )
        if self.config.latency_model == "orin":
            batch_deadline_ms = min(r.deadline_ms for r in requests)
            budget_ms = adaptation_budget_ms(batch_deadline_ms, start_ms + infer_ms)
        else:
            budget_ms = float("inf")
        # fused (sublinear) billing only once grouped staging has proven
        # itself; before that — or if the graph is unlowerable — steps
        # are billed at the serial rate, an over-estimate that keeps the
        # feasibility guarantee hard even when stage() falls back
        allow_fused = (
            self.config.batch_adaptation and self._adapt_batcher.fuse_billable
        )
        grants = self.admission.admit(
            candidates, budget_ms, leftover_depth, allow_fused=allow_fused
        )
        for req, candidate, grant in zip(requests, candidates, grants):
            decisions[id(req)] = _Decision(grant, candidate.would_step)
        return decisions

    def _reconcile_buffer_drift(
        self, plan: BatchPlan, decisions: Dict[int, _Decision]
    ) -> None:
        """Refuse feeds the plan budgeted as free buffering but that the
        adapter's *actual* buffer state would turn into a step.

        Admission predicts buffer phases assuming its grants are taken;
        a denied step leaves the buffer full, so a later frame planned
        as "free buffering" would fire an unbudgeted step.  Decisions
        are reconciled here — before fused staging — so a refused frame
        can never ride along in a grouped replay either.
        """
        sim_pending: Dict[int, int] = {}
        for req in plan.requests:
            session, _ = req.payload
            decision = decisions[id(req)]
            adapter = session.adapter
            if not decision.feed:
                continue
            if id(session) not in sim_pending:
                sim_pending[id(session)] = adapter.pending_frames
            would_step = sim_pending[id(session)] >= adapter.batch_size - 1
            if would_step and not decision.planned_step:
                decisions[id(req)] = _Decision(False, False)
                continue  # refused: buffer state unchanged
            sim_pending[id(session)] = (
                0 if would_step else sim_pending[id(session)] + 1
            )

    def _plan_adaptation(
        self, plan: BatchPlan, start_ms: float, infer_ms: float,
        leftover_depth: int, rows: Optional[np.ndarray],
    ) -> Tuple[Dict[int, _Decision], Dict[int, StagedGroupStep]]:
        """Admission decisions + staged fused steps for this served batch.

        Returns ``(decisions, group_of)``: the per-request admission
        outcome and ``{id(request): StagedGroupStep}`` for every granted
        step joining a fused replay; everything else granted keeps the
        serial path.  Staging (batch assembly + one-time trace/compile)
        happens here, outside the timed region, mirroring the inference
        engine's ``warm``; a group gathers its members' stem rows from
        the launch's ``rows`` by their positions in the batch.
        """
        decisions = self._admission_decisions(plan, start_ms, infer_ms, leftover_depth)
        self._reconcile_buffer_drift(plan, decisions)
        group_of: Dict[int, StagedGroupStep] = {}
        due = []
        seen_sessions = set()
        for pos, req in enumerate(plan.requests):
            session, frame = req.payload
            if not decisions[id(req)].feed or id(session) in seen_sessions:
                continue
            seen_sessions.add(id(session))
            due.append((req, session, frame, pos))
        if self.config.batch_adaptation:
            candidates = [
                (self._adapt_batcher.group_key(member[1]), member)
                for member in due
            ]
            groups, _ = plan_adaptation_groups(candidates)
            gather = rows is not None and self._adapt_batcher.takes_rows_from(
                self._compiled
            )
            for members in groups:
                staged = self._adapt_batcher.stage(
                    [session for _, session, _, _ in members],
                    [frame.image for _, _, frame, _ in members],
                    [rows[pos] for *_, pos in members] if gather else None,
                )
                if staged is None:  # graph not lowerable: serial fallback
                    continue
                for req, *_ in members:
                    group_of[id(req)] = staged
        # serial steppers warm their compiled plan outside the timed region
        for req, session, frame, _ in due:
            if id(req) not in group_of:
                session.adapter.warm(
                    frame.image, from_stem=rows is not None
                    and session.adapter.takes_rows_from(self._compiled),
                )
        return decisions, group_of

"""Deadline-aware dynamic batching for fleet serving.

Pending frames from many streams are grouped into shared forward passes.
Bigger batches amortize per-layer launch overhead (see
:func:`repro.hw.roofline.batched_inference_latency_ms`), but a batch only
helps if it still completes inside its members' deadlines — so the
scheduler plans with the same roofline latency model the rest of the
repo uses:

* requests are ordered by **aged urgency**: slack to deadline minus an
  aging credit proportional to time already spent queued.  Pure EDF
  cannot starve a frame that carries a deadline, and the aging term
  additionally pulls long-waiting frames ahead of urgent newcomers, so
  no stream starves even when deadlines are already blown fleet-wide;
* the batch grows greedily in urgency order while the *modeled* batched
  latency still fits the earliest deadline in the batch (and the batch
  stays under ``max_batch_size``);
* an already-doomed head-of-queue frame (deadline unmeetable even at
  batch size 1) is still served immediately and recorded as a miss —
  shedding it would silently starve its stream.

Besides inference batches, the scheduler module also plans *adaptation*
batching: :func:`plan_adaptation_groups` partitions the streams due for
an adaptation step this tick into same-key groups, each one grouped
compiled step (see :mod:`repro.serve.adapt_batch`; a lone step is a
group of one), leaving the keyless rest to step on their own.

The scheduler is pure logic over :class:`FrameRequest` objects; it never
touches the model, so it is unit-testable with synthetic latency
functions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: planning latency (ms) for a batch of size b; None = batching is free
LatencyFn = Optional[Callable[[int], float]]


@dataclass
class FrameRequest:
    """One frame waiting for a slot in a shared forward pass."""

    stream_id: str
    frame_index: int
    arrival_ms: float  # fleet-clock time the frame became available
    deadline_ms: float  # absolute fleet-clock deadline
    payload: object = None  # opaque to the scheduler (the server's frame)

    def slack_ms(self, now_ms: float) -> float:
        """Time remaining until this frame's deadline (negative = late)."""
        return self.deadline_ms - now_ms

    def wait_ms(self, now_ms: float) -> float:
        """Time this frame has already spent queued."""
        return now_ms - self.arrival_ms


@dataclass(frozen=True)
class BatchPlan:
    """One planned shared forward pass."""

    requests: Tuple[FrameRequest, ...]
    planned_latency_ms: float

    @property
    def batch_size(self) -> int:
        return len(self.requests)


class DeadlineAwareScheduler:
    """Groups pending frames into deadline-feasible shared batches."""

    def __init__(
        self,
        latency_fn: LatencyFn = None,
        max_batch_size: int = 8,
        aging_rate: float = 0.1,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if aging_rate < 0:
            raise ValueError(f"aging_rate must be >= 0, got {aging_rate}")
        self.latency_fn = latency_fn
        self.max_batch_size = max_batch_size
        self.aging_rate = aging_rate
        self._pending: List[FrameRequest] = []

    # ------------------------------------------------------------------
    def submit(self, request: FrameRequest) -> None:
        """Queue one frame for an upcoming batch."""
        self._pending.append(request)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def pending_stream_ids(self) -> set:
        """Stream ids with at least one queued frame."""
        return {r.stream_id for r in self._pending}

    def extract_stream(self, stream_id: str) -> List[FrameRequest]:
        """Remove and return the stream's queued frames, in queue order.

        Device-pool migration re-homes a session's backlog with it: the
        extracted requests are re-submitted to the target device's
        scheduler with arrival timestamps and deadlines intact, so no
        frame is lost or double-served by the move.
        """
        extracted = [r for r in self._pending if r.stream_id == stream_id]
        self._pending = [r for r in self._pending if r.stream_id != stream_id]
        return extracted

    @property
    def earliest_pending_arrival_ms(self) -> Optional[float]:
        """Arrival time of the oldest queued frame; None when idle.

        The event-driven ingest launches its next batch at
        ``max(device_free, earliest_pending_arrival_ms)`` — a batch can
        start the instant the device frees up, *between* camera ticks,
        rather than waiting for a synchronous cohort.
        """
        if not self._pending:
            return None
        return min(r.arrival_ms for r in self._pending)

    def effective_priority(self, request: FrameRequest, now_ms: float) -> float:
        """Aged urgency — smaller is served first.

        ``slack - aging_rate * wait``: plain earliest-deadline-first with a
        credit for time already queued.  With ``aging_rate > 0`` a frame's
        priority decreases without bound while it waits, so it eventually
        outranks every newer frame regardless of deadlines.
        """
        return request.slack_ms(now_ms) - self.aging_rate * request.wait_ms(now_ms)

    def _planned_latency(self, batch_size: int) -> float:
        return self.latency_fn(batch_size) if self.latency_fn is not None else 0.0

    def next_batch(self, now_ms: float) -> Optional[BatchPlan]:
        """Pop the next batch to launch at ``now_ms``; None when idle.

        The most urgent request seeds the batch; requests join in urgency
        order while the grown batch's modeled completion time still meets
        every member's deadline.  Growth stops at the first infeasible
        candidate (modeled latency is monotone in batch size, so later,
        even-less-urgent candidates cannot help the constraint).

        When even a batch of one cannot meet the seed's deadline the miss
        is unavoidable, so the deadline constraint has nothing left to
        protect — the scheduler flips to throughput mode and fills the
        batch to ``max_batch_size``, amortizing overhead to drain the
        backlog (and bound future lateness) as fast as possible.
        """
        if not self._pending:
            return None
        order = sorted(
            self._pending, key=lambda r: self.effective_priority(r, now_ms)
        )
        batch: List[FrameRequest] = [order[0]]
        min_deadline = order[0].deadline_ms
        doomed = now_ms + self._planned_latency(1) > min_deadline
        for candidate in order[1:]:
            size = len(batch) + 1
            if size > self.max_batch_size:
                break
            grown_deadline = min(min_deadline, candidate.deadline_ms)
            if not doomed and now_ms + self._planned_latency(size) > grown_deadline:
                break
            batch.append(candidate)
            min_deadline = grown_deadline
        chosen = {id(r) for r in batch}
        self._pending = [r for r in self._pending if id(r) not in chosen]
        return BatchPlan(
            requests=tuple(batch),
            planned_latency_ms=self._planned_latency(len(batch)),
        )


def plan_adaptation_groups(
    candidates: Sequence[Tuple[object, object]],
) -> Tuple[List[List[object]], List[object]]:
    """Partition adaptation-step candidates into groups.

    ``candidates`` is a sequence of ``(key, item)`` pairs in serving
    order; ``key`` is a hashable batching key (items only share a group
    when keys are equal) or None for items that must step on their own.
    Returns ``(groups, serial)``: ``groups`` holds one list per key, in
    order of first appearance, ``serial`` the None-keyed items — both
    preserving the original order.  Pure logic, no model access: the
    server decides *what* is groupable (via the batcher's key), this
    decides *which* steps share a replay.
    """
    by_key: "OrderedDict[object, List[object]]" = OrderedDict()
    serial: List[object] = []
    for key, item in candidates:
        if key is None:
            serial.append(item)
        else:
            by_key.setdefault(key, []).append(item)
    return list(by_key.values()), serial

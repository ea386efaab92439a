"""Fleet-wide batched adaptation: fuse same-phase streams' entropy steps.

The fleet server's inference already amortizes across streams (one
batched compiled forward with per-sample BN folds); until now every
adapting stream still paid a *serial* entropy step — swap its BN state
onto the shared model, run train-forward + backward + optimizer, swap it
back out.  This module fuses the steps of streams that adapt on the same
tick (same ``adapt_phase``) into ONE grouped replay of the compiled
adaptation plan (:class:`repro.engine.CompiledAdaptStep` with
``groups=K``):

* every stream's frames form one contiguous *group* of the fused batch;
* each BatchNorm normalizes each group with that group's own batch
  statistics and that stream's own gamma/beta (plan-input slots filled
  straight from the stream's :class:`~repro.serve.streams.BNStateSnapshot`
  — no model swap-in/swap-out at all);
* the plan returns one loss per stream, and its update tail — the stage
  a serial step ends in too, armed here with the sessions themselves —
  applies every stream's running-statistics refresh and SGD step
  directly to that stream's snapshot, so the resulting per-stream states
  match serial stepping to float precision (the only divergence is GEMM
  batching at the last-ulp level).

A fused group starts from its members' stem rows — the ones the launch's
inference replay wrote, gathered by the members' positions in the launch
(:meth:`FleetAdaptationBatcher.stage`'s ``rows``), beside each adapter's
buffered ones — and replays the plan compiled ``from_stem``; when any
member frame has none (a restored one) the group starts from the images.

Batching contract: a stream joins a fused step when its adapter is an
:class:`~repro.adapt.LDBNAdapt`, the incoming frame completes its
adaptation batch, and the fused batch sizes agree.  Learning rates,
momenta and stats modes may differ per stream — the update tail reads
them per group.  Everything else (other adapters, unsupported graphs)
falls back to the serial path.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .. import nn
from ..adapt.base import AdaptResult
from ..adapt.bn_adapt import LDBNAdapt
from ..engine import CompiledAdaptStep, UnsupportedAdaptGraph
from .streams import StreamSession


def static_fuse_key(adapter):
    """The fuse key this adapter's steps carry when they run, or None.

    The *static* half of the batching contract — an
    :class:`LDBNAdapt` of a given batch size always fuses under the same
    key; whether a particular frame actually has a step to fuse is the
    dynamic half (:meth:`FleetAdaptationBatcher.group_key`).  The
    admission controller uses the static key to know which streams could
    ever share a fused replay (phase packing).
    """
    if isinstance(adapter, LDBNAdapt):
        return ("ldbn-sgd", adapter.config.batch_size)
    return None


class StagedGroupStep:
    """One fused adaptation step of a served batch.

    Staging (batch assembly + plan lookup, which traces on first use)
    happens outside the serving loop's timed region; :meth:`execute`
    is the measured work.  The first member the worker's record loop
    meets launches it and fills in ``results`` and the completion
    bookkeeping the other members then read.
    """

    __slots__ = (
        "batcher", "sessions", "inputs", "plan", "group_size",
        "results", "per_stream_ms", "done_clock_ms",
    )

    def __init__(self, batcher, sessions, inputs, plan, group_size):
        self.batcher = batcher
        self.sessions = sessions
        self.inputs = inputs  # the plan input: images, or their stem rows
        self.plan = plan
        self.group_size = group_size
        self.results: Optional[Dict[int, AdaptResult]] = None
        self.per_stream_ms = 0.0
        self.done_clock_ms = 0.0

    @property
    def num_streams(self) -> int:
        return len(self.sessions)

    def execute(self) -> Dict[int, AdaptResult]:
        return self.batcher._execute(self)


class FleetAdaptationBatcher:
    """Plans and runs fused same-phase adaptation steps for one model.

    Stages from ``compiled``'s plan cache — a device pool passes the one
    :class:`~repro.engine.CompiledAdaptStep` its workers share — or from
    a step of its own built from ``backend`` / ``threads``; the
    ``fuse_billable`` verdict is per batcher either way.
    """

    def __init__(self, model, backend=None, threads=None, compiled=None):
        self._compiled = (
            compiled
            if compiled is not None
            else CompiledAdaptStep(model, backend=backend, threads=threads)
        )
        self._unsupported = False
        self._fused_proven = False  # a grouped stage has succeeded

    @property
    def unsupported(self) -> bool:
        """True once a stage attempt found the graph unlowerable."""
        return self._unsupported

    @property
    def fuse_billable(self) -> bool:
        """Whether admission may bill steps at the fused (sublinear) rate.

        Until a grouped stage has actually succeeded, fused costing would
        be speculative: if the graph then turns out unlowerable, granted
        steps fall back to serial execution and a fused-priced budget
        would overrun the deadline it guaranteed.  Serial pricing is
        always an over-estimate of the fused cost, so billing serially
        before the first proof (and forever after an ``unsupported``
        verdict) keeps the feasibility invariant hard.
        """
        return self._fused_proven and not self._unsupported

    # ------------------------------------------------------------------
    def group_key(self, session: StreamSession):
        """Hashable fuse key for this session's next step, or None.

        None means the session cannot join a fused step now: its adapter
        is not a SGD-driven :class:`LDBNAdapt`, this frame does not
        complete its adaptation batch, or compiled adaptation is off.
        """
        if self._unsupported or not nn.compiled_adaptation_enabled():
            return None
        adapter = session.adapter
        key = static_fuse_key(adapter)
        if key is None:
            return None
        if adapter.pending_frames != adapter.config.batch_size - 1:
            return None  # this frame only buffers; no step to fuse
        return key

    def takes_rows_from(self, engine) -> bool:
        """Whether stem rows ``engine`` wrote can start this batcher's
        fused steps (see :meth:`CompiledAdaptStep.takes_rows_from`)."""
        return self._compiled.takes_rows_from(engine)

    def stage(
        self, sessions: Sequence[StreamSession], frames: Sequence[np.ndarray],
        rows: Optional[Sequence[np.ndarray]] = None,
    ) -> Optional[StagedGroupStep]:
        """Assemble one fused step (trace/compile outside timed regions).

        ``frames`` holds each session's incoming frame image and ``rows``
        (optional) its stem rows, as the launch's inference replay wrote
        them; buffered frames from previous ticks complete each stream's
        batch.  Both are copied.  Returns None when the step cannot be
        compiled — the caller falls back to serial stepping (nothing has
        been consumed from the adapters).
        """
        if self._unsupported:
            return None
        group_size = sessions[0].adapter.config.batch_size
        images, stems = [], []
        for k, (session, image) in enumerate(zip(sessions, frames)):
            image = np.asarray(image, dtype=np.float32)
            if image.ndim != 3:
                raise ValueError(
                    f"expected a single (3, H, W) frame, got {image.shape}"
                )
            images += session.adapter.pending_images + [image]
            stems += session.adapter.pending_rows + [
                None if rows is None else rows[k]
            ]
        images = np.stack(images)
        from_stem = all(r is not None for r in stems)
        try:
            plan = self._compiled.plan_for(
                images, groups=len(sessions), from_stem=from_stem
            )
        except UnsupportedAdaptGraph:
            self._unsupported = True
            return None
        self._fused_proven = True
        return StagedGroupStep(
            self, list(sessions), np.stack(stems) if from_stem else images,
            plan, group_size,
        )

    # ------------------------------------------------------------------
    def _execute(self, staged: StagedGroupStep) -> Dict[int, AdaptResult]:
        """Run one fused step; its update tail steps every stream's state."""
        sessions, plan = staged.sessions, staged.plan
        # parameter slots: row k is stream k's adapted gamma/beta
        for tap in plan.bn_taps:
            for k, session in enumerate(sessions):
                *_, gamma, beta = session.bn_arrays(tap.module)
                tap.gamma_slot[k] = gamma
                tap.beta_slot[k] = beta
        losses = plan.run(staged.inputs, update=sessions)

        results: Dict[int, AdaptResult] = {}
        for k, session in enumerate(sessions):
            adapter = session.adapter
            adapter.clear_pending()
            results[id(session)] = adapter.record_step(
                float(losses[k]), staged.group_size,
                refused=not plan.finite[k],
            )
        return results

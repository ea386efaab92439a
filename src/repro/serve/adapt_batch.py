"""Fleet adaptation: every compiled LD-BN-ADAPT step of a served batch.

A stream's LD-BN-ADAPT state is its BN block
(:class:`~repro.adapt.bn_state.BNStateSnapshot`), and an adaptation plan
(:class:`repro.engine.CompiledAdaptStep`) reads and writes the blocks its
caller hands it.  So a fleet never materializes a session on the shared
model to step it: this module stages the steps of a served batch as
*groups* — one replay of the plan compiled with ``groups=K`` for K
same-key streams, K = 1 included:

* every stream's frames form one contiguous group of the replayed batch;
* each BatchNorm normalizes each group with that group's own batch
  statistics and that stream's own gamma/beta, which
  :meth:`~repro.engine.AdaptationPlan.run` gathers from the sessions'
  blocks, the destinations it is handed, in one ``np.stack``;
* the plan returns one loss per stream, and its update tail applies
  every stream's running-statistics refresh and SGD step to that
  stream's whole block at once (the momentum buffers views of one block
  beside it), so the resulting per-stream states match serial stepping
  to float precision (the only divergence is GEMM batching at the
  last-ulp level; a group of one is the serial step, bitwise).

A group starts from its members' stem rows — the ones the launch's
inference replay wrote, gathered by the members' positions in the launch
(:meth:`FleetAdaptationBatcher.stage`'s ``rows``), beside each adapter's
buffered ones — and replays the plan compiled ``from_stem``; when any
member frame has none (a restored one) the group starts from the images.

Grouping contract: a stream's step is staged when its adapter is an
:class:`~repro.adapt.LDBNAdapt` stepping on the batcher's own engine
(:meth:`~repro.adapt.LDBNAdapt.step_engine`: the pool's, shared by
:meth:`~repro.serve.FleetServer.add_stream`), compiled adaptation is
on, and the incoming frame completes its adaptation batch; streams fuse
when their batch sizes agree too.  Learning rates, momenta and stats
modes may differ per stream — the update tail reads them per group.
Everything else (other adapters, an adapter on another engine, graphs
the plan cannot lower, every step under
``repro.nn.adaptation_mode(False)``) steps on its own, swapped onto the
model by the device worker.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .. import nn
from ..adapt.base import AdaptResult, learnable_frame
from ..adapt.bn_adapt import LDBNAdapt
from ..engine import CompiledAdaptStep, UnsupportedAdaptGraph
from .streams import StreamSession


def static_fuse_key(adapter):
    """The fuse key this adapter's steps carry when they run, or None.

    The *static* half of the batching contract — an
    :class:`LDBNAdapt` of a given batch size on a given engine (its
    :class:`~repro.engine.CompiledAdaptStep`) always fuses under the same
    key; whether a particular frame actually has a step to fuse is the
    serving loop's to decide (it follows the adapter's buffer).  The
    admission controller uses the static key to know which streams could
    ever share a fused replay (phase packing).
    """
    if isinstance(adapter, LDBNAdapt):
        return ("ldbn-sgd", adapter.config.batch_size, adapter.step_engine())
    return None


class StagedGroupStep:
    """One grouped adaptation step of a served batch (one member or more).

    Staging (batch assembly + plan lookup, which traces on first use)
    happens outside the serving loop's timed region; :meth:`execute`
    is the measured work.  The first member the worker's record loop
    meets launches it and fills in ``results`` and the completion
    bookkeeping the other members then read.
    """

    __slots__ = (
        "batcher", "sessions", "inputs", "plan", "group_size",
        "results", "per_stream_ms", "done",
    )

    def __init__(self, batcher, sessions, inputs, plan, group_size):
        self.batcher = batcher
        self.sessions = sessions
        self.inputs = inputs  # the plan input: images, or their stem rows
        self.plan = plan
        self.group_size = group_size
        self.results: Optional[Dict[int, AdaptResult]] = None
        self.per_stream_ms = 0.0
        self.done = (0.0, 0.0)  # (device clock, batch service) at completion

    @property
    def num_streams(self) -> int:
        return len(self.sessions)

    def execute(self) -> Dict[int, AdaptResult]:
        return self.batcher._execute(self)


class FleetAdaptationBatcher:
    """Plans and runs the grouped adaptation steps of one model.

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
        self._fused_proven = False  # a stage of 2+ streams has succeeded

    @property
    def fuse_billable(self) -> bool:
        """Whether admission may bill steps at the fused (sublinear) rate.

        Until a stage of two or more streams has succeeded, fused
        costing would be speculative: if the graph then turns out
        unlowerable, granted steps fall back to serial execution and a
        fused-priced budget would overrun the deadline it guaranteed.
        Serial pricing is always an over-estimate of the fused cost, so
        billing serially before the first proof (and forever after an
        ``unsupported`` verdict) keeps the feasibility invariant hard.
        """
        return self._fused_proven and not self._unsupported

    # ------------------------------------------------------------------
    def group_key(self, session: StreamSession):
        """Hashable fuse key for this session's steps, or None.

        None means the session cannot join a group now: its adapter is
        not a SGD-driven :class:`LDBNAdapt` stepping on this batcher's
        engine, the graph proved unlowerable, or compiled adaptation is
        off.  Whether the frame at hand steps is the caller's to follow.
        """
        if self._unsupported or not nn.compiled_adaptation_enabled():
            return None
        key = static_fuse_key(session.adapter)
        if key is None or key[2] is not self._compiled:
            return None
        return key

    def takes_rows_from(self, engine) -> bool:
        """Whether stem rows ``engine`` wrote can start this batcher's
        fused steps (see :meth:`CompiledAdaptStep.takes_rows_from`)."""
        return self._compiled.takes_rows_from(engine)

    def stage(
        self, sessions: Sequence[StreamSession], frames: Sequence[np.ndarray],
        rows: Optional[Sequence[np.ndarray]] = None,
    ) -> Optional[StagedGroupStep]:
        """Assemble one grouped step (trace/compile outside timed regions).

        ``frames`` holds each session's incoming frame image and ``rows``
        (optional) its stem rows, as the launch's inference replay wrote
        them; buffered frames from previous ticks complete each stream's
        batch.  Both are copied.  A session whose frame no step may learn
        from (:func:`~repro.adapt.base.learnable_frame`) is left out of
        the group: its own ``observe_frame`` rejects and counts it.
        Returns None when the step cannot be compiled (compiled
        adaptation is off, or the graph is unlowerable), or no session
        is left — the caller falls back to stepping each session on its
        own (nothing has been consumed from the adapters).
        """
        if self._unsupported or not nn.compiled_adaptation_enabled():
            return None
        group_size = sessions[0].adapter.config.batch_size
        members, images, stems = [], [], []
        for k, (session, image) in enumerate(zip(sessions, frames)):
            image = np.asarray(image, dtype=np.float32)
            if image.ndim != 3:
                raise ValueError(
                    f"expected a single (3, H, W) frame, got {image.shape}"
                )
            if not learnable_frame(image):
                continue
            members.append(session)
            images += session.adapter.pending_images + [image]
            stems += session.adapter.pending_rows + [
                None if rows is None else rows[k]
            ]
        if not members:
            return None
        from_stem = all(r is not None for r in stems)
        # a from-stem step reads only the rows: its images key the plan,
        # and are stacked only to build it
        plan = self._compiled.cached(
            (len(images),) + images[0].shape, groups=len(members),
            from_stem=True,
        ) if from_stem else None
        if plan is None:
            images = np.stack(images)
            try:
                plan = self._compiled.plan_for(
                    images, groups=len(members), from_stem=from_stem
                )
            except UnsupportedAdaptGraph:
                self._unsupported = True
                return None
        self._fused_proven |= len(members) > 1
        return StagedGroupStep(
            self, members, np.stack(stems) if from_stem else images,
            plan, group_size,
        )

    # ------------------------------------------------------------------
    def _execute(self, staged: StagedGroupStep) -> Dict[int, AdaptResult]:
        """Run one grouped step: the plan reads each member's gamma/beta
        from its session's block and its update tail steps that block."""
        sessions, plan = staged.sessions, staged.plan
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

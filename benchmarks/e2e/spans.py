"""Outside-in span tracing for the frame-budget benchmark.

Nothing under ``src/`` is edited: the traced pass swaps timing wrappers
onto each layer's public entry points (:data:`PATCHES`), records
``[name, start, end, parent, tick, arg]`` rows in memory and restores the
originals afterwards.  Functions the serving code imported *by name*
(``decode_predictions``, ``point_accuracy``, ``per_stream_inference``,
the roofline quotes) are patched where they are looked up —
``repro.pipeline.realtime`` and ``repro.serve.pool`` — not where they are
defined.

Every span nests under a *tick* root the benchmark's own reference frame
source opens when it hands a frame over and closes when the next pull
enters (one tick per vehicle frame / per fleet camera period; the time
inside the source, its yardstick included, is in no tick), so the self
times of a window's spans tile the window's wall time exactly: self time
= a span's duration minus the part its children cover.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# span row layout
NAME, START, END, PARENT, TICK, ARG = range(6)

#: layer of a span = the part of its name before the first dot
LAYERS = ("engine", "models", "adapt", "metrics", "pipeline", "serve", "hw")


class Tracer:
    """In-memory span store with an explicit nesting stack."""

    def __init__(self, tick_name: str):
        self.tick_name = tick_name
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.tick = -1  # id of the open tick root; -1 before the first pull
        self.nesting_errors = 0
        self.plans: List[object] = []  # every plan compiled while installed

    def open(self, name: str, now: Optional[float] = None) -> list:
        row = [
            name,
            time.perf_counter() if now is None else now,
            0.0,
            self._stack[-1] if self._stack else -1,
            self.tick,
            None,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def close(self, row: list, now: Optional[float] = None) -> None:
        row[END] = time.perf_counter() if now is None else now
        if self.spans[self._stack.pop()] is not row:
            self.nesting_errors += 1

    def mark(self, now: float, tick: int) -> None:
        """Open tick ``tick`` at ``now``: the reference frame source calls
        it as every pull leaves."""
        self.end_tick(now)
        self.tick = tick
        self.open(self.tick_name, now)

    def end_tick(self, now: float) -> None:
        """Close the open tick root: the reference frame source calls it
        as every pull enters, the segment when run() returns.  A pull made
        while a layer span is still open would break the tiling, so it is
        counted instead of silently mis-nesting."""
        if not self._stack:
            return
        if len(self._stack) != 1:
            self.nesting_errors += 1
        self.close(self.spans[self._stack[0]], now)
        del self._stack[:]


def _wrap(tracer: Tracer, name: str, fn: Callable, arg: Optional[Callable]):
    def traced(*args, **kwargs):
        row = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(row)
        if arg is not None:
            row[ARG] = arg(args, out)
        return out

    traced.__wrapped__ = fn
    return traced


def _wrap_context(tracer: Tracer, name: str, fn: Callable, arg=None):
    """Wrapper for a context-manager factory: the span covers the body."""

    @contextmanager
    def traced(*args, **kwargs):
        row = tracer.open(name)
        try:
            with fn(*args, **kwargs) as value:
                yield value
        finally:
            tracer.close(row)

    traced.__wrapped__ = fn
    return traced


def _wrap_compile(tracer: Tracer, name: str, fn: Callable, plan_of: Callable):
    """Wrapper for the engines' compile entry points.

    ``warm``/``plan_for`` are called on every frame but only trace +
    lower + compile when the shape is new; the object's public
    ``num_plans`` tells the two apart.  The span's arg is the number of
    plans the call built, and each new plan is kept so its stats can be
    read after the run.
    """

    def traced(owner, *args, **kwargs):
        before = owner.num_plans
        row = tracer.open(name)
        try:
            out = fn(owner, *args, **kwargs)
        finally:
            tracer.close(row)
        row[ARG] = owner.num_plans - before
        if row[ARG]:
            tracer.plans.append(plan_of(owner, args, out))
        return out

    traced.__wrapped__ = fn
    return traced


def _warmed_plan(engine, args, out):
    x = args[0]
    arr = x.data if hasattr(x, "numpy") else x  # Tensor or ndarray
    return engine.plan_for(arr.shape, arr.dtype)


#: (module, owner or None for a module-level name, attribute, span name,
#: arg hook, wrapper kind).  A ``_wrap`` arg hook sees ``(call args,
#: result)`` and returns the count stored on the span.
PATCHES: Tuple[tuple, ...] = (
    # engine
    ("repro.engine.compile", "CompiledInference", "__call__", "engine.infer",
     lambda a, out: int(out.shape[0]), _wrap),
    ("repro.engine.compile", "CompiledInference", "warm", "engine.compile",
     _warmed_plan, _wrap_compile),
    ("repro.engine.compile", "CompiledAdaptStep", "plan_for", "engine.compile",
     lambda step, args, out: out, _wrap_compile),
    ("repro.engine.adapt_plan", "AdaptationPlan", "run", "engine.adapt",
     lambda a, out: int(a[0].groups), _wrap),
    # models / metrics: imported by name into the two serving loops
    ("repro.pipeline.realtime", None, "decode_predictions", "models.decode",
     None, _wrap),
    ("repro.serve.pool", None, "decode_predictions", "models.decode",
     None, _wrap),
    ("repro.pipeline.realtime", None, "point_accuracy", "metrics.accuracy",
     None, _wrap),
    ("repro.serve.pool", None, "point_accuracy", "metrics.accuracy",
     None, _wrap),
    # adapt
    ("repro.adapt.bn_adapt", "LDBNAdapt", "observe_frame", "adapt.observe",
     lambda a, out: int(out is not None), _wrap),
    # serve
    ("repro.serve.pool", "DeviceWorker", "launch", "serve.launch", None, _wrap),
    ("repro.serve.scheduler", "DeadlineAwareScheduler", "submit",
     "serve.scheduler.submit", None, _wrap),
    ("repro.serve.scheduler", "DeadlineAwareScheduler", "next_batch",
     "serve.scheduler.next_batch", None, _wrap),
    ("repro.serve.admission", "SlackAdmission", "admit",
     "serve.admission.admit", None, _wrap),
    ("repro.serve.pool", None, "per_stream_inference", "serve.streams.fold",
     None, _wrap_context),
    ("repro.serve.streams", "StreamSession", "swap_in", "serve.streams.swap",
     None, _wrap),
    ("repro.serve.streams", "StreamSession", "swap_out", "serve.streams.swap",
     None, _wrap),
    ("repro.serve.adapt_batch", "StagedGroupStep", "execute",
     "serve.adapt_batch.execute", lambda a, out: int(a[0].num_streams), _wrap),
    ("repro.serve.checkpoint", "SessionCheckpointStore", "observe",
     "serve.checkpoint.observe", lambda a, out: int(out), _wrap),
    ("repro.serve.checkpoint", "SessionCheckpointStore", "checkpoint",
     "serve.checkpoint.observe", lambda a, out: int(out), _wrap),
    ("repro.serve.drift", "SessionDriftState", "observe", "serve.drift.observe",
     None, _wrap),
    ("repro.serve.drift", "SessionDriftState", "reset", "serve.drift.reset",
     None, _wrap),
    ("repro.serve.pool", "MigrationPlanner", "plan", "serve.migration.plan",
     None, _wrap),
    ("repro.serve.server", "FleetServer", "crash_device", "serve.recovery",
     None, _wrap),
    ("repro.serve.server", "FleetServer", "add_device", "serve.join",
     None, _wrap),
    # hw: the worker's pricing closures look these up in repro.serve.pool
    ("repro.serve.pool", None, "ld_bn_adapt_latency", "hw.roofline.quote",
     None, _wrap),
    ("repro.serve.pool", None, "batched_inference_latency_ms",
     "hw.roofline.quote", None, _wrap),
)


@contextmanager
def installed(tracer: Tracer):
    """Swap the :data:`PATCHES` wrappers in for the body; always restore."""
    undo = []
    try:
        for module_name, owner_name, attr, span, arg, kind in PATCHES:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, kind(tracer, span, original, arg))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# reading a finished trace
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Per-span self time in seconds, index-aligned with ``spans``."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own


def nesting_violations(spans: List[list]) -> int:
    """Spans that are not contained in their parent's interval."""
    bad = 0
    for row in spans:
        if row[END] < row[START]:
            bad += 1
        if row[PARENT] >= 0:
            parent = spans[row[PARENT]]
            if row[START] < parent[START] or row[END] > parent[END]:
                bad += 1
    return bad


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Window:
    """The spans of one segment's timed window (tick >= first_tick).

    Every time it returns is divided by ``speed``: the segment's host
    speed reads them in reference-host time, 1.0 as the wall clock did.
    """

    def __init__(self, spans: List[list], first_tick: int, speed: float = 1.0):
        own = self_times(spans)
        self.speed = speed
        self.rows = [
            (row, own[i] / speed) for i, row in enumerate(spans)
            if row[TICK] >= first_tick
        ]

    def durations(self, name: str, keep: Optional[Callable] = None) -> List[float]:
        return [
            (row[END] - row[START]) / self.speed for row, _ in self.rows
            if row[NAME] == name and (keep is None or keep(row))
        ]

    def own(self, name: str, keep: Optional[Callable] = None) -> List[float]:
        return [
            own for row, own in self.rows
            if row[NAME] == name and (keep is None or keep(row))
        ]

    def args(self, name: str) -> list:
        return [row[ARG] for row, _ in self.rows if row[NAME] == name]

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for row, own in self.rows:
            out[layer_of(row[NAME])] += own
        return out


def chrome_trace(segments: Iterable[Tuple[str, List[list]]], pid: str) -> dict:
    """Chrome ``trace_event`` document: one thread row per segment.

    Complete ("X") events on one row nest by time containment, so each
    segment reads as a flame graph; ``args`` carries the tick id and the
    wrapper's count (batch size, group size, writes ...).
    """
    events = []
    for tid, spans in segments:
        if not spans:
            continue
        origin = spans[0][START]
        for row in spans:
            events.append(
                {
                    "name": row[NAME],
                    "cat": layer_of(row[NAME]),
                    "ph": "X",
                    "ts": 1e6 * (row[START] - origin),
                    "dur": 1e6 * (row[END] - row[START]),
                    "pid": pid,
                    "tid": tid,
                    "args": {"tick": row[TICK], "n": row[ARG]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, segments, pid: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(segments, pid), fh)

"""Per-stream adaptation state over one shared model.

A fleet server runs ONE model for N concurrent camera streams, but
LD-BN-ADAPT state is inherently per-vehicle: each stream drifts through
its own domain schedule and accumulates its own BN statistics, gamma/beta
values and optimizer momentum.  This module keeps those states separate:

* :class:`BNStateSnapshot` — a copy of everything BN-related on the model
  as one flat block laid out by the registry's :class:`BNLayout`; every
  per-layer array it hands out is a view into it.  ``swap_in`` writes
  the copy into the model, ``swap_out`` captures the model back into it.
* :class:`StreamSession` — one registered stream: its frame source, its
  adapter (owning the per-stream optimizer state), its BN snapshot and
  its frame report.
* :class:`ArrivalModel` / :class:`ArrivalProcess` — the stream's frame
  *arrival* process for the event-driven fleet loop: a per-stream phase
  offset over the camera period, plus a seeded jitter/drop model
  (:func:`repro.utils.rng.child_seed` keeps every stream exactly
  repeatable), yielding the timestamps frames actually become available
  at instead of assuming one tick-synchronous cohort per period.
* :class:`StreamRegistry` — the session table, all bound to one model.
* :func:`per_stream_inference` — context manager enabling the *batched*
  shared forward pass: eval-mode BN is an affine per channel, so each
  session's state folds into per-sample ``(scale, shift)`` vectors that
  :class:`repro.nn.modules._BatchNormBase` applies sample-wise.  Frames
  from many differently-adapted streams thus share one forward pass with
  bitwise-independent normalization, folded all at once into fixed buffers.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..adapt.base import Adapter, ParameterSnapshot
from ..data.dataset import LaneSample
from ..nn.modules import _BatchNormBase
from ..pipeline.monitor import FrameRecord, PipelineReport
from ..utils.rng import make_rng

_BN_BUFFER_NAMES = ("running_mean", "running_var", "num_batches_tracked")


@dataclass(frozen=True)
class ArrivalModel:
    """One camera stream's frame-arrival statistics.

    Frame *i*'s nominal arrival is ``phase_ms + i * period_ms``; on top
    of that each frame picks up a delay drawn uniformly from
    ``[0, jitter_ms]`` (transmission/encoder delay — jitter never makes
    a frame early), and with probability ``drop_rate`` the frame is lost
    before it reaches the server (the camera still produced it, so the
    content timeline advances).  ``seed`` makes the process exactly
    repeatable per stream.
    """

    period_ms: float
    phase_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.period_ms <= 0:
            raise ValueError(f"period_ms must be positive, got {self.period_ms}")
        if self.phase_ms < 0:
            raise ValueError(f"phase_ms must be >= 0, got {self.phase_ms}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )


class ArrivalProcess:
    """Seeded realization of an :class:`ArrivalModel`, one event at a time.

    Events come out in frame order with non-decreasing timestamps (a
    delayed frame cannot be overtaken by its successor on the same
    camera link, so arrivals are monotonized with a running max).  With
    ``jitter_ms == 0`` and ``drop_rate == 0`` the process degenerates to
    the tick-synchronous schedule — one cohort per camera period — that
    the parity tests' reference drain (``tests/tick_oracle.py``) serves.
    """

    def __init__(self, model: ArrivalModel):
        self.model = model
        self._rng = make_rng(model.seed)
        self._index = 0
        self._last_ms = 0.0

    @property
    def frames_emitted(self) -> int:
        return self._index

    def next_event(self) -> Tuple[int, float, bool]:
        """``(frame_index, arrival_ms, dropped)`` for the next frame."""
        model = self.model
        nominal = model.phase_ms + self._index * model.period_ms
        arrival = nominal
        if model.jitter_ms > 0:
            arrival += float(self._rng.uniform(0.0, model.jitter_ms))
        arrival = max(arrival, self._last_ms)
        dropped = model.drop_rate > 0 and bool(
            self._rng.random() < model.drop_rate
        )
        event = (self._index, arrival, dropped)
        self._index += 1
        self._last_ms = arrival
        return event


class BNLayout:
    """A model's BN layers as one block: layer ``j`` owns the ``spans[j]``
    columns of ``channels``, ``eps`` is each column's layer epsilon."""

    def __init__(self, model):
        self.modules: List[_BatchNormBase] = [
            m for m in model.modules() if isinstance(m, _BatchNormBase)
        ]
        if not self.modules:
            raise ValueError("model has no BatchNorm layers to snapshot")
        widths = [m.num_features for m in self.modules]
        ends = np.cumsum(widths)
        self.spans = list(zip(ends - widths, ends))
        self.channels = int(ends[-1])
        self.eps = np.repeat([float(m.eps) for m in self.modules], widths)
        self.fields = [vars(m) for m in self.modules]  # their instance dicts
        self._folds = {}

    def fold_buffers(self, n: int):
        """``(order, work, folded, pairs)`` of ``n``-sample launches: blocks
        stack into ``work`` (4, n, C), ``order`` takes its scale and shift
        rows into ``folded``, layer ``j``'s ``pairs[j]`` view that."""
        fold = self._folds.get(n)
        if fold is None:
            index = np.arange(n * self.channels).reshape(n, -1)
            order = np.concatenate([index[:, a:b].ravel() for a, b in self.spans])
            folded = np.empty((2, n * self.channels))
            pairs = [
                tuple(folded[:, n * a:n * b].reshape(2, n, -1)) for a, b in self.spans
            ]
            work = np.empty((4, n, self.channels))
            fold = self._folds[n] = (order, work, folded, pairs)
        return fold


class BNStateSnapshot:
    """A model's BN state as ``state`` (running mean, var, gamma, beta over
    the layout's channels) and ``counts``, swappable in and out."""

    def __init__(self, layout: BNLayout):
        self.layout = layout
        self.modules = layout.modules
        self.state = np.empty((4, layout.channels))
        self.counts = np.empty(len(self.modules), dtype=np.int64)
        mean, var, gamma, beta = [
            [row[a:b] for a, b in layout.spans] for row in self.state
        ]
        self.params = ParameterSnapshot(
            [p for m in self.modules for p in (m.weight, m.bias)],
            saved=[v for pair in zip(gamma, beta) for v in pair],
        )
        counts = [self.counts[j:j + 1] for j in range(len(self.modules))]
        self.buffers = [dict(zip(_BN_BUFFER_NAMES, b)) for b in zip(mean, var, counts)]
        self._index = {id(m): j for j, m in enumerate(self.modules)}
        self.swap_out()

    def arrays(self, module: _BatchNormBase):
        """This snapshot's ``(running_mean, running_var,
        num_batches_tracked, gamma, beta)`` of one BN layer."""
        j = self._index[id(module)]
        bufs = self.buffers[j]
        return (
            bufs["running_mean"], bufs["running_var"],
            bufs["num_batches_tracked"],
            self.params.saved[2 * j], self.params.saved[2 * j + 1],
        )

    def swap_in(self) -> None:
        """Write this snapshot's state into the shared model."""
        self.params.restore()
        for module, bufs in zip(self.modules, self.buffers):
            for name, arr in bufs.items():
                module._set_buffer(name, arr)

    def swap_out(self) -> None:
        """Capture the shared model's current state into this snapshot."""
        self.params.capture()
        for module, bufs in zip(self.modules, self.buffers):
            for name, arr in bufs.items():
                arr[...] = getattr(module, name)


class StreamSession:
    """One camera stream's complete serving state.

    The session owns everything that must NOT leak between vehicles: the
    frame iterator, the adapter (and through it the optimizer's momentum),
    the BN state snapshot, and the frame report.  The model itself is
    shared — sessions take turns materializing their state on it via
    ``swap_in``/``swap_out`` around adaptation steps, and contribute
    folded per-sample stats to batched inference in between.

    Because the session is the single container of per-stream state, the
    device pool migrates a stream by *re-homing the session object*: the
    snapshot, optimizer slots and report move bitwise untouched, only
    the modeled adaptation price (``adapt_latency_ms``) is re-quoted by
    the target device.
    """

    def __init__(
        self,
        stream_id: str,
        layout: BNLayout,
        stream: Iterator[LaneSample],
        adapter: Adapter,
        deadline_ms: float,
        adapt_stride: int = 1,
        adapt_phase: int = 0,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        if adapt_stride < 1:
            raise ValueError(f"adapt_stride must be >= 1, got {adapt_stride}")
        self.stream_id = stream_id
        self.stream = iter(stream)
        self.adapter = adapter
        self.adapt_stride = adapt_stride
        self.adapt_phase = adapt_phase
        self.adapt_latency_ms = 0.0  # quoted by the hosting device at attach
        self.arrivals = arrivals
        self.bn_state = BNStateSnapshot(layout)
        if deadline_ms <= 0:
            raise ValueError("deadline must be positive")
        self.deadline_ms = deadline_ms
        self.report = PipelineReport(deadline_ms=deadline_ms)
        self.frames_seen = 0  # frames fully served (decoded + recorded)
        self.frames_ingested = 0  # frames pulled off the camera stream
        self.frames_dropped = 0  # frames the arrival process lost in flight
        self.adapt_grants = 0  # frames admission fed to the adapter
        self.adapt_skips = 0  # frames admission withheld from the adapter
        self.migrations = 0  # times the session moved to another device
        self.busy_until_ms = 0.0  # completion of the last batch serving us
        self.exhausted = False
        # attached by the fleet when drift detection is configured
        # (see serve.drift.SessionDriftState); None keeps serving inert
        self.drift = None
        # frames before this index are unconditionally due for adaptation
        # (a drift reset opens a short burst so the new regime's BN
        # statistics are re-estimated every frame instead of surviving a
        # whole stride on one frame's estimate)
        self.adapt_burst_until = 0

    def next_frame(self) -> Optional[LaneSample]:
        """Pull the next frame; marks the session exhausted at stream end."""
        if self.exhausted:
            return None
        try:
            frame = next(self.stream)
        except StopIteration:
            self.exhausted = True
            self.report.truncated = True
            return None
        self.frames_ingested += 1
        return frame

    def drop_frame(self) -> bool:
        """Consume one frame the arrival process lost; True if one existed.

        The camera produced the frame, so the content timeline advances
        (the iterator is consumed) but nothing is served or recorded.
        """
        if self.next_frame() is None:
            return False
        self.frames_dropped += 1
        return True

    def due_for_adaptation(self, offset: int = 0) -> bool:
        """Whether the frame being served should feed the adapter.

        With ``adapt_stride`` k, every k-th frame adapts; ``adapt_phase``
        offsets which frames those are, so a fleet can stagger its
        adaptation load across streams instead of spiking every stream's
        step onto the same camera period.  ``offset`` counts frames of
        this stream already decided earlier in the *same* served batch
        (a backlogged batch can carry several), keeping the stagger
        aligned with per-stream frame order rather than record order.
        A post-reset burst (``adapt_burst_until``) overrides the stride:
        every frame inside it adapts.
        """
        if self.frames_seen + offset < self.adapt_burst_until:
            return True
        return (
            self.frames_seen + offset - self.adapt_phase
        ) % self.adapt_stride == 0

    def swap_in(self) -> None:
        self.bn_state.swap_in()

    def swap_out(self) -> None:
        self.bn_state.swap_out()

    # A session is its group's destination in a fused adaptation step
    # (see repro.engine.AdaptationPlan.run): the adapter's optimizer
    # stepping the snapshot, no swap onto the model.
    @property
    def optimizer(self):
        return self.adapter.optimizer

    @property
    def effective_momentum(self) -> float:
        return self.adapter.effective_momentum

    def bn_arrays(self, module: _BatchNormBase):
        return self.bn_state.arrays(module)

    def record(
        self,
        frame: LaneSample,
        latency_ms: float,
        accuracy: float,
        adapt_result,
        adapt_ms: Optional[float] = None,
    ) -> FrameRecord:
        """Append one served frame to this stream's report."""
        record = FrameRecord(
            index=self.frames_seen,
            timestamp=frame.timestamp,
            domain=frame.domain,
            latency_ms=latency_ms,
            deadline_ms=self.deadline_ms,
            deadline_met=latency_ms <= self.deadline_ms,
            accuracy=accuracy,
            entropy=adapt_result.loss if adapt_result else None,
            adapted=adapt_result is not None,
            adapt_ms=adapt_ms if adapt_result is not None else None,
            refused=adapt_result is not None and adapt_result.refused,
        )
        self.report.frames.append(record)
        self.frames_seen += 1
        return record


class StreamRegistry:
    """The fleet's session table, all sessions bound to one shared model."""

    def __init__(self, model):
        self.model = model
        self.layout = BNLayout(model)
        self._sessions: "OrderedDict[str, StreamSession]" = OrderedDict()

    def register(
        self,
        stream_id: str,
        stream: Iterator[LaneSample],
        adapter: Adapter,
        deadline_ms: float,
        adapt_stride: int = 1,
        adapt_phase: int = 0,
        arrivals: Optional[ArrivalProcess] = None,
    ) -> StreamSession:
        """Add a stream; its BN snapshot is the model's *current* state."""
        if stream_id in self._sessions:
            raise ValueError(f"stream id {stream_id!r} already registered")
        if adapter.model is not self.model:
            raise ValueError(
                f"adapter for {stream_id!r} is bound to a different model"
            )
        session = StreamSession(
            stream_id,
            self.layout,
            stream,
            adapter,
            deadline_ms=deadline_ms,
            adapt_stride=adapt_stride,
            adapt_phase=adapt_phase,
            arrivals=arrivals,
        )
        self._sessions[stream_id] = session
        return session

    def get(self, stream_id: str) -> StreamSession:
        if stream_id not in self._sessions:
            raise KeyError(
                f"unknown stream {stream_id!r}; registered: {list(self._sessions)}"
            )
        return self._sessions[stream_id]

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[StreamSession]:
        return iter(self._sessions.values())

    @property
    def stream_ids(self) -> List[str]:
        return list(self._sessions)



@contextmanager
def per_stream_inference(sessions: Sequence[StreamSession]):
    """Enable the batched multi-stream eval forward on the shared model.

    Folds the sessions' BN blocks into per-sample ``(scale, shift)``, all
    layers at once, and installs layer ``j``'s ``(B, c_j)`` pair — row
    ``i`` belonging to ``sessions[i]`` — as its stats.  Inside the context,
    ``model(batch)`` with ``batch[i]`` being session ``i``'s frame
    normalizes every sample with its own stream's adapted BN state.  The
    overrides are removed on exit, so plain single-stream forwards (and
    all training-mode adaptation passes) are unaffected.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("per_stream_inference needs at least one session")
    layout = sessions[0].bn_state.layout
    if any(s.bn_state.modules != layout.modules for s in sessions[1:]):
        raise ValueError("sessions must share one model's BN modules")
    order, work, folded, pairs = layout.fold_buffers(len(sessions))
    np.stack([s.bn_state.state for s in sessions], 1, out=work)
    mean, var, gamma, beta = work
    # in place: gamma <- gamma * (1 / sqrt(var + eps)), beta <- beta - mean * gamma
    np.add(var, layout.eps, out=var)
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)
    np.multiply(gamma, var, out=gamma)
    np.multiply(mean, gamma, out=mean)
    np.subtract(beta, mean, out=beta)
    # in range by construction; mode="raise" would buffer ``out``
    np.take(work[2:].reshape(2, -1), order, axis=1, out=folded, mode="clip")
    try:  # instance-dict writes: Module.__setattr__'s effect, a fraction of its price
        for fields, pair in zip(layout.fields, pairs):
            fields["per_sample_stats"] = pair
        yield
    finally:
        for fields in layout.fields:
            fields["per_sample_stats"] = None

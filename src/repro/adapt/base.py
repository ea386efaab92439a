"""Adapter interface and parameter-freezing helpers.

Every adaptation strategy in this package (LD-BN-ADAPT, the conv/FC
ablations, the no-op baseline) implements :class:`Adapter`: a stateful
object bound to one model that consumes batches of **unlabeled** target
images and updates the model in place.  The offline CARLANE-SOTA baseline
has a different signature (it needs labeled source data and many epochs)
and lives in :mod:`repro.adapt.sota`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.modules import _BatchNormBase


@dataclass
class AdaptResult:
    """Outcome of one adaptation step."""

    loss: float  # entropy before the parameter update
    num_frames: int
    step_index: int
    extras: Dict[str, float] = field(default_factory=dict)
    # the loss was not finite, so the step wrote nothing (its update tail
    # refused it: no BN array, momentum buffer or step count moved)
    refused: bool = False


def learnable_frame(image: np.ndarray) -> bool:
    """Whether an adaptation step may learn from ``image``: every pixel
    finite and not all of them equal.  A NaN anywhere makes both
    reductions NaN, and every comparison with NaN is false."""
    lo, hi = image.min(), image.max()
    return bool(-np.inf < lo < hi < np.inf)


class Adapter(abc.ABC):
    """Online test-time adapter bound to a model.

    Lifecycle: construct with the model and the parameters to adapt
    (``trainable``: every other parameter is frozen), call :meth:`adapt`
    with successive unlabeled batches — or feed single frames to
    :meth:`observe_frame`, the stream interface the serving loops use —
    and optionally :meth:`reset` to restore what it adapts.

    An adapter keeps a copy of exactly the state it can write: its
    trainable parameters and every BatchNorm layer's ``running_mean``,
    ``running_var`` and ``num_batches_tracked``.  For LD-BN-ADAPT that is
    the BN state alone: 38.6 kB on ``small-r18``, whose whole state is
    8.7 MB, and that is what a fleet pays per stream for its adapter over
    the one shared model.
    """

    name: str = "adapter"
    config = None  # subclasses with hyper-parameters set a config object

    def __init__(self, model: nn.Module, trainable: Iterable[nn.Parameter] = ()):
        self.model = model
        self._params = freeze_except(model, trainable)
        # what reset() restores, as (owner, attribute, saved copy)
        self._initial_state = [
            (p, "data", p.data.copy()) for p in self._params
        ] + [
            (m, name, np.array(getattr(m, name)))
            for m in model.modules() if isinstance(m, _BatchNormBase)
            for name in ("running_mean", "running_var", "num_batches_tracked")
        ]
        self._step = 0
        self.refused_steps = 0  # steps whose loss was not finite
        self.rejected_frames = 0  # frames no step may learn from
        # frames observed toward the next step, each an (image, stem rows
        # or None) pair of copies: rows of `_frames` / `_rows` unless a
        # restore installed its own.  One list, so a frame and its rows
        # are only ever kept, restored or dropped together.
        self._pending: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._frames: Optional[np.ndarray] = None  # (frames a step, 3, H, W)
        self._rows: Optional[np.ndarray] = None  # (frames a step, F, H', W')

    @abc.abstractmethod
    def adapt(self, images: np.ndarray) -> AdaptResult:
        """Consume one unlabeled batch ``(N, 3, H, W)``; update the model."""

    @property
    def batch_size(self) -> int:
        """Frames per adaptation step (``config.batch_size``, default 1)."""
        return getattr(self.config, "batch_size", 1)

    @property
    def pending_frames(self) -> int:
        """Frames buffered by :meth:`observe_frame` toward the next step."""
        return len(self._pending)

    @property
    def pending_images(self) -> List[np.ndarray]:
        """The buffered frames, oldest first (this adapter's copies)."""
        return [image for image, _ in self._pending]

    @property
    def pending_rows(self) -> List[Optional[np.ndarray]]:
        """The buffered frames' stem rows (``None`` where a frame came
        without them), oldest first."""
        return [rows for _, rows in self._pending]

    def restore_pending(self, images: Sequence[np.ndarray]) -> None:
        """Replace the buffered frames with copies of ``images`` — a
        checkpoint restore — which carry no stem rows, so the step they
        join starts from the images."""
        self._pending = [
            (np.array(image, dtype=np.float32), None) for image in images
        ]

    def clear_pending(self) -> None:
        """Drop every buffered frame (and its rows)."""
        self._pending.clear()

    def takes_rows_from(self, engine) -> bool:
        """Whether :meth:`observe_frame` should be handed the stem rows
        ``engine`` (a :class:`~repro.engine.CompiledInference`) writes.
        Only an adapter whose steps replay a compiled plan of the same
        backend can use them."""
        return False

    def share_engine(self, backend, threads) -> None:
        """Adopt a serving loop's plan backend and kernel-pool width where
        this adapter's own configuration leaves them to it (default: it
        has none to adopt)."""

    def observe_frame(self, image: np.ndarray,
                      rows: Optional[np.ndarray] = None
                      ) -> Optional[AdaptResult]:
        """Stream interface: buffer one frame; adapt when the batch fills.

        Returns the :class:`AdaptResult` on steps where adaptation ran,
        else None.  This implements the paper's "adaptation after every
        image or every 2/4 images" batching.

        The frame is copied into this adapter's own batch array — the
        caller may hand over the same buffer again for the next frame (a
        camera ring) — and that array is what :meth:`adapt` sees, valid
        until the next step.

        ``rows`` are the frame's stem rows as a serving loop's inference
        replay wrote them (``(F, H', W')``; see :meth:`takes_rows_from`).
        They view engine storage the next replay of that batch shape
        overwrites — as the served logits do — so they are copied too,
        into a ring beside the frames.  A step whose every frame carries
        rows starts from them instead of convolving the images again;
        any frame without (a restored one) puts the step on the images.

        A frame no step may learn from (:func:`learnable_frame`: a
        non-finite pixel, or every pixel equal) is rejected before it is
        buffered: it is counted in :attr:`rejected_frames`, the frames
        already buffered wait for the next one, and None is returned —
        the caller has served it with the current state.
        """
        if image.ndim != 3:
            raise ValueError(f"expected a single (3, H, W) frame, got {image.shape}")
        if not learnable_frame(image):
            self.rejected_frames += 1
            return None
        pending = self._pending
        at = len(pending)
        # one step's frames: batch_size, or more when a restore installed
        # that many (a checkpoint taken under a larger batch_size)
        shape = (max(self.batch_size, at + 1),) + image.shape
        frames = self._frames
        if frames is None or frames.shape != shape:
            frames = self._frames = np.empty(shape, dtype=np.float32)
        frame = frames[at]
        frame[...] = image
        ring = self._rows
        if rows is not None:
            shape = (len(frames),) + rows.shape
            if ring is None or ring.shape != shape or ring.dtype != rows.dtype:
                ring = self._rows = np.empty(shape, dtype=rows.dtype)
            ring[at] = rows
            rows = ring[at]
        if at + 1 < self.batch_size:
            pending.append((frame, rows))
            return None
        from_rows = rows is not None
        for k, (held, held_rows) in enumerate(pending):
            if held.base is not frames:  # a restore's, or an outgrown array's
                frames[k] = held
            if held_rows is None:
                from_rows = False
            elif from_rows and held_rows.base is not ring:
                ring[k] = held_rows
        pending.clear()
        return self._step_frames(frames, ring if from_rows else None)

    def _step_frames(self, frames: np.ndarray,
                     rows: Optional[np.ndarray]) -> AdaptResult:
        """One step on a full batch; ``rows`` (their stem rows, or None)
        serve adapters that can start from them."""
        return self.adapt(frames)

    def warm(self, image: np.ndarray, from_stem: bool = False) -> None:
        """Do any one-time work a step on frames like ``image`` needs
        (``from_stem``: a step handed their stem rows).

        Serving loops call this outside their timed regions; adapters
        with nothing to compile inherit this no-op.
        """

    def reset(self) -> None:
        """Restore what this adapter adapts — its trainable parameters and
        the BN running statistics — to their values at construction, and
        forget its steps and buffered frames.  Frozen parameters are not
        copied: no step of this adapter writes them."""
        for owner, name, saved in self._initial_state:
            getattr(owner, name)[...] = saved
        self._step = 0
        self.refused_steps = 0
        self.rejected_frames = 0
        self.clear_pending()

    @property
    def steps_taken(self) -> int:
        return self._step

    def trainable_parameter_count(self) -> int:
        """Number of scalars this adapter updates (paper: BN ≈ 1%)."""
        return sum(p.size for p in self.model.parameters() if p.requires_grad)


class NoAdapt(Adapter):
    """Identity baseline: the un-adapted source model ("UFLD" bars in Fig. 2)."""

    name = "no_adapt"

    def adapt(self, images: np.ndarray) -> AdaptResult:
        self._step += 1
        return AdaptResult(loss=0.0, num_frames=len(images), step_index=self._step)


def freeze_all(model: nn.Module) -> None:
    """Disable gradients for every parameter."""
    for p in model.parameters():
        p.requires_grad = False


def freeze_except(model: nn.Module, trainable: Iterable[nn.Parameter]) -> List[nn.Parameter]:
    """Freeze everything but ``trainable``; returns the trainable list.

    Uses identity comparison, so pass the actual Parameter objects (e.g.
    ``model.bn_parameters()``).
    """
    wanted = {id(p) for p in trainable}
    kept = []
    for p in model.parameters():
        p.requires_grad = id(p) in wanted
        if p.requires_grad:
            kept.append(p)
    return kept


def set_bn_training(model: nn.Module, mode: bool) -> None:
    """Flip *only* the BatchNorm modules' train/eval flag.

    LD-BN-ADAPT runs the adaptation forward with BN in training mode (so
    normalization uses the target batch's statistics) while the rest of
    the network stays in eval mode.
    """
    for module in model.modules():
        if isinstance(module, _BatchNormBase):
            object.__setattr__(module, "training", mode)


class ParameterSnapshot:
    """Save/restore a subset of parameters.

    Used by the failure-recovery tests and, through :meth:`capture` /
    :meth:`restore` round-trips, by the fleet-serving stream sessions to
    swap per-stream BN gamma/beta in and out of a shared model.
    ``saved`` hands it the arrays to keep the copies in (filled by the
    first :meth:`capture`) instead of fresh ones.
    """

    def __init__(
        self,
        params: Iterable[nn.Parameter],
        saved: Optional[List[np.ndarray]] = None,
    ):
        self.params = list(params)
        self.saved = (
            saved if saved is not None else [p.data.copy() for p in self.params]
        )

    def restore(self) -> None:
        for p, data in zip(self.params, self.saved):
            p.data[...] = data

    def capture(self) -> None:
        """Re-save the parameters' *current* values into the snapshot."""
        for p, data in zip(self.params, self.saved):
            data[...] = p.data

    def max_change(self) -> float:
        """Largest absolute parameter change since the snapshot."""
        if not self.params:
            return 0.0
        return max(
            float(np.abs(p.data - saved).max())
            for p, saved in zip(self.params, self.saved)
        )

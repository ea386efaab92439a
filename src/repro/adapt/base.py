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
from typing import Dict, Iterable, List, Optional

import numpy as np

from .. import nn


@dataclass
class AdaptResult:
    """Outcome of one adaptation step."""

    loss: float  # entropy before the parameter update
    num_frames: int
    step_index: int
    extras: Dict[str, float] = field(default_factory=dict)


class Adapter(abc.ABC):
    """Online test-time adapter bound to a model.

    Lifecycle: construct with the model (this configures which parameters
    are trainable), call :meth:`adapt` with successive unlabeled batches
    — or feed single frames to :meth:`observe_frame`, the stream
    interface the serving loops use — and optionally :meth:`reset` to
    restore the pristine model.
    """

    name: str = "adapter"
    config = None  # subclasses with hyper-parameters set a config object

    def __init__(self, model: nn.Module):
        self.model = model
        self._initial_state = model.state_dict()
        self._step = 0
        # frames observed toward the next step: copies, rows of `_frames`
        # unless a restore installed its own
        self._buffer: list = []
        self._frames: Optional[np.ndarray] = None  # (frames a step, 3, H, W)

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
        return len(self._buffer)

    def observe_frame(self, image: np.ndarray) -> Optional[AdaptResult]:
        """Stream interface: buffer one frame; adapt when the batch fills.

        Returns the :class:`AdaptResult` on steps where adaptation ran,
        else None.  This implements the paper's "adaptation after every
        image or every 2/4 images" batching.

        The frame is copied into this adapter's own batch array — the
        caller may hand over the same buffer again for the next frame (a
        camera ring) — and that array is what :meth:`adapt` sees, valid
        until the next step.
        """
        if image.ndim != 3:
            raise ValueError(f"expected a single (3, H, W) frame, got {image.shape}")
        pending = self._buffer
        # one step's frames: batch_size, or more when a restore installed
        # that many (a checkpoint taken under a larger batch_size)
        shape = (max(self.batch_size, len(pending) + 1),) + image.shape
        frames = self._frames
        if frames is None or frames.shape != shape:
            frames = self._frames = np.empty(shape, dtype=np.float32)
        row = frames[len(pending)]
        row[...] = image
        if len(pending) + 1 < self.batch_size:
            pending.append(row)
            return None
        for k, held in enumerate(pending):
            if held.base is not frames:  # a restore's, or an outgrown array's
                frames[k] = held
        pending.clear()
        return self.adapt(frames)

    def warm(self, image: np.ndarray) -> None:
        """Do any one-time work a step on frames like ``image`` needs.

        Serving loops call this outside their timed regions; adapters
        with nothing to compile inherit this no-op.
        """

    def reset(self) -> None:
        """Restore the model to its pre-adaptation state."""
        self.model.load_state_dict(self._initial_state)
        self._step = 0
        self._buffer.clear()

    @property
    def steps_taken(self) -> int:
        return self._step

    def trainable_parameter_count(self) -> int:
        """Number of scalars this adapter updates (paper: BN ≈ 1%)."""
        return sum(p.size for p in self.model.parameters() if p.requires_grad)


class NoAdapt(Adapter):
    """Identity baseline: the un-adapted source model ("UFLD" bars in Fig. 2)."""

    name = "no_adapt"

    def __init__(self, model: nn.Module):
        super().__init__(model)
        freeze_all(model)

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
    from ..nn.modules import _BatchNormBase

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

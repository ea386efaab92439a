"""A model's LD-BN-ADAPT state as one block.

LD-BN-ADAPT adapts the BatchNorm statistics and affine and nothing else
(Bhardwaj et al., Sec. III), so that state is one ``(4, C)`` float64
block over the model's BN channels — running mean, running variance,
gamma, beta — plus one ``num_batches_tracked`` count per layer.  A
compiled adaptation step (:meth:`repro.engine.AdaptationPlan.run`) reads
gamma/beta from a block and writes its update back to it:

* a fleet session's block *is* its stream's state
  (:class:`repro.serve.StreamSession`);
* a standalone :class:`~repro.adapt.LDBNAdapt` steps a block of the
  model it adapts: it captures the block from the model before the step
  and writes it back after it.

The block also owns its eval-mode fold (:meth:`BNStateSnapshot.folded`):
the per-channel ``(scale, shift)`` an eval BatchNorm applies, recomputed
only after the block was written.  Whatever writes ``state`` in place
calls :meth:`BNStateSnapshot.written` after it; the writers are the
compiled update tail (:func:`repro.engine.adapt_plan._update_tail`),
:meth:`BNStateSnapshot.swap_out`, the drift restore
(:func:`repro.serve.drift._restore_bn`) and the checkpoint restore
(:func:`repro.serve.checkpoint.restore_session_state`).  A write that
bypasses them leaves the fold stale.

The optimizer's momentum follows the same shape: one ``(2, C)`` block
(:meth:`BNStateSnapshot.optimizer_slots`) whose rows the optimizer's
per-parameter ``momentum`` buffers view, so eager steps, checkpoints and
drift resets keep reading and writing per-parameter buffers.
"""

from __future__ import annotations

from itertools import count
from operator import is_
from typing import List

import numpy as np

from ..nn.modules import _BatchNormBase
from .base import ParameterSnapshot

_BN_BUFFER_NAMES = ("running_mean", "running_var", "num_batches_tracked")
_EMPTY: dict = {}
# one stamp per block write, unique across blocks: a launch's stamps name
# its blocks and their contents at once
_STAMPS = count()


class _LaunchFold:
    """The fold buffers of ``n``-sample launches (see
    :meth:`BNLayout.launch_pairs`)."""

    __slots__ = ("order", "stack", "folded", "pairs", "stamps")

    def __init__(self, layout: "BNLayout", n: int):
        index = np.arange(n * layout.channels).reshape(n, -1)
        self.order = np.concatenate(
            [index[:, a:b].ravel() for a, b in layout.spans]
        )
        self.stack = np.empty((2, n, layout.channels))
        self.folded = np.empty((2, n * layout.channels))
        self.pairs = [
            tuple(self.folded[:, n * a:n * b].reshape(2, n, -1))
            for a, b in layout.spans
        ]
        self.stamps: List[int] = []  # the blocks ``folded`` holds


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

    def launch_pairs(self, blocks) -> list:
        """Layer ``j``'s ``(scale, shift)`` pair of a launch of ``blocks``
        (:class:`BNStateSnapshot` of this layout), each ``(n, c_j)``, row
        ``i`` from ``blocks[i]``.  The same pair objects every launch of
        ``n`` blocks; a launch of the blocks the last one of its size
        had, none written since, moves no byte.  Otherwise each block's
        fold (refolded only if written) is taken into place."""
        n = len(blocks)
        fold = self._folds.get(n)
        if fold is None:
            fold = self._folds[n] = _LaunchFold(self, n)
        stamps = [block.stamp for block in blocks]
        if stamps != fold.stamps:
            folds = [block.folded() for block in blocks]
            source = folds[0] if n == 1 else np.stack(folds, 1, out=fold.stack)
            # in range by construction; mode="raise" would buffer ``out``
            np.take(source.reshape(2, -1), fold.order, axis=1,
                    out=fold.folded, mode="clip")
            fold.stamps = stamps
        return fold.pairs


class BNStateSnapshot:
    """A model's BN state as ``state`` (running mean, var, gamma, beta over
    the layout's channels) and ``counts``, swappable in and out, with its
    eval fold (:meth:`folded`); ``stamp`` changes on every
    :meth:`written`."""

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
        # sgd_update's state for the gamma/beta rows (see optimizer_slots)
        self.slots = {}
        self.fold = np.empty((2, layout.channels))  # scale, shift
        self._folded_at = None  # the stamp ``fold`` was computed at
        self.swap_out()

    def written(self) -> None:
        """Mark ``state`` written in place: the next :meth:`folded`
        recomputes the fold, and no launch reuses one of before."""
        self.stamp = next(_STAMPS)

    def folded(self) -> np.ndarray:
        """The block's eval-BN fold, ``(2, C)``: ``scale = gamma /
        sqrt(var + eps)`` and ``shift = beta - mean * scale``, recomputed
        only when the block was :meth:`written` since the last call."""
        if self._folded_at != self.stamp:
            mean, var, gamma, beta = self.state
            scale, shift = self.fold
            np.add(var, self.layout.eps, out=scale)
            np.sqrt(scale, out=scale)
            np.divide(1.0, scale, out=scale)
            np.multiply(gamma, scale, out=scale)
            np.multiply(mean, scale, out=shift)
            np.subtract(beta, shift, out=shift)
            self._folded_at = self.stamp
        return self.fold

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
        self.written()

    def optimizer_slots(self, optimizer) -> dict:
        """:func:`~repro.nn.optim.sgd_update`'s state for the block's
        gamma/beta rows under ``optimizer``: ``"work"`` and, with
        momentum, ``"momentum"`` — a ``(2, C)`` block whose row spans are
        the optimizer's per-parameter momentum buffers.

        A buffer that is not a view of the block (``reset()`` cleared it,
        a checkpoint restore or an eager first step made a new one) is
        adopted: copied in, and its entry pointed at the view.  A missing
        one is adopted as the zero whose product with the momentum is
        ``-0.0``, the identity of the blend, so ``-0.0 + grad`` is the
        per-parameter first step's ``grad`` bit for bit."""
        slots = self.slots
        if not optimizer.momentum:
            return slots
        block = slots.get("momentum")
        if block is None:
            block = slots["momentum"] = np.empty((2, self.layout.channels))
            self._views = [
                row[a:b] for a, b in self.layout.spans for row in block
            ]
        state = optimizer.state
        if all(map(is_, [state.get(id(p), _EMPTY).get("momentum")
                         for p in self.params.params], self._views)):
            return slots
        for param, view in zip(self.params.params, self._views):
            entry = state.setdefault(id(param), {})
            held = entry.get("momentum")
            if held is not view:
                view[...] = (
                    np.copysign(0.0, -optimizer.momentum) if held is None
                    else held
                )
                entry["momentum"] = view
        return slots

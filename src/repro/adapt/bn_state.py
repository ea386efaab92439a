"""A model's LD-BN-ADAPT state as one block.

LD-BN-ADAPT adapts the BatchNorm statistics and affine and nothing else
(Bhardwaj et al., Sec. III), so that state is one ``(4, C)`` float64
block over the model's BN channels — running mean, running variance,
gamma, beta — plus one ``num_batches_tracked`` count per layer, which a
compiled adaptation step (:meth:`repro.engine.AdaptationPlan.run`) reads
and writes in place.

A model's own state is its *home* block (:attr:`BNLayout.home`, made by
the first layout over it): every BN module's ``weight.data``,
``bias.data``, running statistics and count view its rows, so eager code
and a standalone :class:`~repro.adapt.LDBNAdapt` step (its ``bn_state``)
write it directly, and any other block — a fleet session's — crosses
onto the model and back as two array copies (``swap_in`` / ``swap_out``).
An array that is no view — a float32 parameter, a ``param.data`` a
caller rebound — keeps its identity and dtype as a *stray*: found by
identity once per crossing (:meth:`BNStateSnapshot.read`), copied in,
and written back after each write; a rebinding moves the block to fresh
rows, every array a stray, so the view it replaced is never written.

A block owns its eval fold (:meth:`BNStateSnapshot.folded`), recomputed
only after a writer called :meth:`~BNStateSnapshot.written`: the update
tail (:func:`repro.engine.adapt_plan._update_tail`) and the one block
copy, :meth:`~BNStateSnapshot.write` (the swaps, ``Adapter.reset``, the
drift and checkpoint restores).  Eager writers (train-mode BN, ``SGD.step``,
``load_state_dict``) call nothing, so the home block refolds on every read.
"""

from __future__ import annotations

import weakref
from itertools import count
from operator import is_
from typing import List, Tuple

import numpy as np

from ..nn.modules import _BatchNormBase

# a module's arrays in block row order (mean, var, gamma, beta), then its count
_ARRAY_NAMES = ("running_mean", "running_var", "data", "data",
                "num_batches_tracked")
# one stamp per block write, unique across blocks: a launch's stamps name
# its blocks and their contents at once
_STAMPS = count()
_HOMES = weakref.WeakKeyDictionary()  # model -> its home block


class _LaunchFold:
    """The fold buffers of ``n``-sample launches (see
    :meth:`BNLayout.launch_pairs`): ``stack`` holds its blocks' folds in
    block column order, and every pair views it at its layer's span."""

    __slots__ = ("stack", "pairs", "stamps")

    def __init__(self, layout: "BNLayout", n: int):
        self.stack = np.empty((2, n, layout.channels))
        self.pairs = [tuple(self.stack[:, :, a:b]) for a, b in layout.spans]
        self.stamps: List[int] = []  # the blocks ``stack`` holds


class BNLayout:
    """A model's BN layers as one block: layer ``j`` owns the ``spans[j]``
    columns of ``channels``, ``eps`` is each column's layer epsilon, and
    ``home`` is the model's own block, made by its first layout."""

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
        self.home = _HOMES.get(model)
        if self.home is None or self.home.layout.modules != self.modules:
            self.home = _HOMES[model] = _HomeBlock(self)

    def launch_pairs(self, blocks) -> list:
        """Layer ``j``'s ``(scale, shift)`` pair of a launch of ``blocks``
        (:class:`BNStateSnapshot` of this layout), each ``(n, c_j)``, row
        ``i`` from ``blocks[i]``: the ``spans[j]`` columns of one
        ``(2, n, C)`` stack of the blocks' folds, rows ``C`` apart.  The
        same pair objects every launch of ``n`` blocks; a launch of the
        blocks the last one of its size had, none written since, moves no
        byte.  Otherwise each block's fold (refolded only if written) is
        stacked into place."""
        n = len(blocks)
        fold = self._folds.get(n)
        if fold is None:
            fold = self._folds[n] = _LaunchFold(self, n)
        stamps = [block.stamp for block in blocks]
        if stamps != fold.stamps:
            np.stack([block.folded() for block in blocks], 1, out=fold.stack)
            fold.stamps = stamps
        return fold.pairs


class BNStateSnapshot:
    """A model's BN state as ``state`` (running mean, var, gamma, beta over
    the layout's channels) and ``counts``, swappable in and out, with its
    eval fold (:meth:`folded`); ``stamp`` changes on every
    :meth:`written`.  A new one holds the model's current state."""

    def __init__(self, layout: BNLayout):
        self.layout = layout
        self.fold = np.empty((2, layout.channels))  # scale, shift
        self._folded_at = None  # the stamp ``fold`` was computed at
        self.state = np.empty((4, layout.channels))
        self.counts = np.empty(len(layout.modules), dtype=np.int64)
        self.swap_out()

    def read(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(state, counts)``, the block's own arrays."""
        return self.state, self.counts

    def write(self, state: np.ndarray, counts: np.ndarray) -> None:
        """The one block copy: ``state`` into the block's leading rows
        (all four, or the statistics alone) and ``counts`` into its
        counts, then :meth:`written`."""
        self.state[:len(state)] = state
        self.counts[...] = counts
        self.written()

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
        """Write this block onto the shared model (into its home block)."""
        self.layout.home.write(*self.read())

    def swap_out(self) -> None:
        """Capture the shared model's current state into this block."""
        self.write(*self.layout.home.read())


class _HomeBlock(BNStateSnapshot):
    """A model's own block: its BN modules' arrays view its rows."""

    def __init__(self, layout: BNLayout):
        self.layout = layout
        self.fold = np.empty((2, layout.channels))
        self._folded_at = None
        # per module: the arrays of block rows 0-3, then its count
        self._owners = [
            owner for m in layout.modules
            for owner in (m, m, m.weight, m.bias, m)
        ]
        self._names = _ARRAY_NAMES * len(layout.modules)
        self._arrays = None  # what the last identity sweep found
        self._move()

    @property
    def stamp(self) -> int:
        # eager writers do not call written(): a new stamp on every read,
        # so every fold, and every launch holding this block, is recomputed
        return next(_STAMPS)

    def _move(self) -> None:
        """Fresh rows holding the modules' arrays' values; the first time,
        every array they can view (its dtype and shape) is pointed at them."""
        first = self._arrays is None
        held = list(map(getattr, self._owners, self._names))
        state = self.state = np.empty((4, self.layout.channels))
        counts = self.counts = np.empty(len(self.layout.modules), np.int64)
        views = [
            view for j, (a, b) in enumerate(self.layout.spans)
            for view in (*state[:, a:b], counts[j:j + 1])
        ]
        for k, (owner, name, array, view) in enumerate(
            zip(self._owners, self._names, held, views)
        ):
            view[...] = array
            if first and array.dtype == view.dtype and array.shape == view.shape:
                held[k] = view
                if name == "data":
                    owner.data = view
                else:
                    owner.register_buffer(name, view)
        self._arrays = held
        self._strays = [(a, v) for a, v in zip(held, views) if a is not v]

    def read(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(state, counts)`` after the crossing's identity sweep: a
        module array rebound since the last one moves the block, and every
        stray is copied in."""
        held = map(getattr, self._owners, self._names)
        if not all(map(is_, held, self._arrays)):
            self._move()
        for array, view in self._strays:
            view[...] = array
        return self.state, self.counts

    def write(self, state: np.ndarray, counts: np.ndarray) -> None:
        self.read()
        super().write(state, counts)

    def written(self) -> None:
        """Copy the rows of every stray back out to it (in its dtype)."""
        for array, view in self._strays:
            array[...] = view

    def folded(self) -> np.ndarray:
        self.read()
        return super().folded()

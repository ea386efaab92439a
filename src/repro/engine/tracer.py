"""Trace one eval-mode forward pass into a flat list of op nodes.

The tracer runs the model once on a representative input with two hooks
installed:

* :data:`repro.nn.tensor._TRACE_HOOK` records every ``Function.apply``
  call (op class, argument references, kwargs, output tensor);
* ``_BatchNormBase.forward`` is temporarily wrapped so each BatchNorm
  layer becomes ONE opaque node referencing the *module object* instead
  of a burst of reshape/sub/mul/add ops.  That keeps the layer's live
  state (gamma/beta, running stats, the per-sample ``(scale, shift)``
  override installed by :func:`repro.serve.streams.per_stream_inference`)
  a *plan input* resolved at replay time, so one traced plan serves both
  single-stream inference and batched multi-stream serving, and picks up
  every LD-BN-ADAPT update without retracing.

Tensor arguments that were not produced by a traced op (model parameters,
constants) are recorded as :class:`ConstRef` holding the Tensor object;
replay fetches ``.data`` through the reference each call, so in-place
parameter updates (optimizer steps, ``load_state_dict``, BN snapshot
swaps) are always visible to the compiled plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..nn import autograd
from ..nn import tensor as tensor_mod
from ..nn.modules import _BatchNormBase
from ..nn.tensor import Tensor


@dataclass(frozen=True)
class ValueRef:
    """Reference to the output of an earlier node (or the graph input)."""

    vid: int


@dataclass(frozen=True)
class ConstRef:
    """Reference to a leaf tensor (parameter/constant) fetched at replay."""

    tensor: Tensor


@dataclass
class OpNode:
    """One traced operation.

    ``function`` is the :class:`~repro.nn.tensor.Function` subclass for
    generic ops, or None for the opaque ``bn`` nodes (which carry the
    live module in ``module`` instead).  ``train_bn`` marks a BatchNorm
    node captured from a *training-mode* forward (the adaptation trace):
    at replay it normalizes with live batch statistics instead of the
    folded eval affine.
    """

    function: Optional[type]
    inputs: List[Any]  # ValueRef | ConstRef | raw python value, in call order
    kwargs: Dict[str, Any]
    out_vid: int
    out_shape: Tuple[int, ...]
    out_dtype: np.dtype
    module: Optional[_BatchNormBase] = None
    train_bn: bool = False


@dataclass
class TraceGraph:
    """Flat static plan source: nodes in execution order plus graph I/O."""

    nodes: List[OpNode]
    input_vid: int
    output_vid: int
    input_shape: Tuple[int, ...]
    input_dtype: np.dtype
    # an entropy step's: the model's BN layers as one block
    # (:class:`~repro.adapt.bn_state.BNLayout`), whose columns the plan's
    # BN rows take
    bn_layout: Any = None
    # traced tensors by vid, kept alive while recording so id()-based
    # vids stay unambiguous; a plan releases them (see `release`)
    _keepalive: List[Optional[Tensor]] = field(default_factory=list,
                                               repr=False)

    def release(self, keep: Optional[int] = None) -> None:
        """Drop every traced activation but value ``keep``'s.  No lowering
        reads them — shapes and dtypes are on the nodes — and a
        renderer's parity probe replays one, the plan input's example; a
        graph is lowered once."""
        for vid in range(len(self._keepalive)):
            if vid != keep:
                self._keepalive[vid] = None


def _record_forward(example: np.ndarray, forward,
                    train_bn: bool) -> TraceGraph:
    """Run ``forward(x_t)`` under both hooks; return the recorded graph.

    The one recorder behind :func:`trace` and :func:`trace_entropy_step`:
    they differ only in the BN mode they run the model in (``train_bn``
    tags the opaque BatchNorm nodes) and in what ``forward`` returns.
    """
    nodes: List[OpNode] = []
    keepalive: List[Tensor] = []
    x_t = Tensor(example, _copy=False)
    vids: Dict[int, int] = {id(x_t): 0}
    keepalive.append(x_t)

    def _ref(arg):
        if isinstance(arg, Tensor):
            vid = vids.get(id(arg))
            if vid is not None:
                return ValueRef(vid)
            return ConstRef(arg)
        return arg

    def _record(function, args, kwargs, out, module=None):
        vid = len(nodes) + 1
        vids[id(out)] = vid
        keepalive.append(out)
        nodes.append(
            OpNode(
                function=function,
                inputs=[_ref(a) for a in args],
                kwargs=dict(kwargs),
                out_vid=vid,
                out_shape=tuple(out.shape),
                out_dtype=out.data.dtype,
                module=module,
                train_bn=train_bn and module is not None,
            )
        )

    bn_orig = _BatchNormBase.forward

    def bn_forward(self, x):
        # run the real layer with generic recording suspended, then emit
        # one opaque node holding the module (state resolved per replay)
        tensor_mod._TRACE_HOOK = None
        try:
            out = bn_orig(self, x)
        finally:
            tensor_mod._TRACE_HOOK = _record
        _record(None, (x,), {}, out, module=self)
        return out

    tensor_mod._TRACE_HOOK = _record
    _BatchNormBase.forward = bn_forward
    try:
        with autograd.no_grad():
            out = forward(x_t)
    finally:
        tensor_mod._TRACE_HOOK = None
        _BatchNormBase.forward = bn_orig

    out_vid = vids.get(id(out))
    if out_vid is None:
        raise RuntimeError(
            "the traced output was not produced by a traced op; cannot "
            "compile"
        )
    return TraceGraph(
        nodes=nodes,
        input_vid=0,
        output_vid=out_vid,
        input_shape=tuple(example.shape),
        input_dtype=example.dtype,
        _keepalive=keepalive,
    )


def trace(model, example: np.ndarray) -> TraceGraph:
    """Run ``model`` once on ``example`` and record the op stream.

    The model must be in eval mode (compiled plans encode inference
    semantics only; training-mode BN depends on batch statistics and
    mutates running buffers, which a static replay must not do).
    """
    if model.training:
        raise RuntimeError(
            "trace() requires eval mode; call model.eval() first "
            "(adaptation steps keep using the eager autograd path)"
        )
    return _record_forward(np.asarray(example), model, False)


def trace_entropy_step(model, example: np.ndarray, loss_fn) -> TraceGraph:
    """Trace one LD-BN-ADAPT entropy-step forward into a static plan source.

    Runs ``loss_fn(model(example))`` once with BatchNorm layers in
    *training* mode (the rest of the model stays in eval, exactly like
    :func:`repro.adapt.base.set_bn_training`) and records the op stream.
    BatchNorm layers become opaque ``train_bn`` nodes: at replay they
    normalize with the live batch statistics of their input (gradients
    flow through the statistics, PyTorch semantics) and read gamma/beta
    from a plan input, so LD-BN-ADAPT's per-step parameter updates — and
    the fleet's per-stream gamma/beta slots — need no retrace.

    The trace forward itself is side-effect free: the running-statistics
    buffers and ``num_batches_tracked`` counters the training forward
    mutates are snapshotted before and restored after.  The graph records
    the model's :class:`~repro.adapt.bn_state.BNLayout` (``bn_layout``),
    whose first making points the BN arrays at the model's home block,
    values unchanged.
    """
    from ..adapt.bn_state import BNLayout  # adapt imports the engine

    layout = BNLayout(model)  # raises with no BN layer to adapt
    bn_modules = layout.modules
    saved_buffers = [
        {
            name: np.array(getattr(m, name))
            for name in ("running_mean", "running_var", "num_batches_tracked")
        }
        for m in bn_modules
    ]
    saved_training = [m.training for m in bn_modules]
    for module in bn_modules:
        object.__setattr__(module, "training", True)
    try:
        graph = _record_forward(
            np.asarray(example), lambda x: loss_fn(model(x)), True
        )
        graph.bn_layout = layout
        return graph
    finally:
        for module, training in zip(bn_modules, saved_training):
            object.__setattr__(module, "training", training)
        for module, bufs in zip(bn_modules, saved_buffers):
            for name, value in bufs.items():
                getattr(module, name)[...] = value

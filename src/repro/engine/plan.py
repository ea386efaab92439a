"""The one lowering: traced graphs become replayable plans here.

A plan is flat lists of zero-argument closures ("stages"), each writing
into buffers fixed at compile time and issuing the eager path's numpy
kernels on the same values in the same order — replay is **bit-exact**
with autograd, only the bookkeeping around the kernels is removed.

:class:`StaticPlan` is everything the inference plan and the adaptation
plan (:mod:`repro.engine.adapt_plan`) share, each piece exactly once:
the op table (:data:`OP_KINDS`: traced ``Function`` -> stage kind), the
values, the renderer offer, the forward stage builders for conv, linear,
max-pool, the elementwise ops and views (numpy closure plus offer spec),
the buffer policy, the replay prologue and the stage table.

**Values** live in one store: every value but the plan input is a buffer
fixed at compile time (``_fixed``) — a view of its source's buffer, or
what its stage writes (an op with no stage builder runs its eager
forward and copies the result in).  A stage input is described once, by
:meth:`StaticPlan._src`: ``("input", cell)``, ``("fixed", array)``,
``("const", tensor)`` or ``("value", v)``.  The numpy step reads it with
:func:`_get`, and the renderer offer carries the same tuple to bind.

**Arena buffer reuse** is one liveness analysis over the plan's sections
(:meth:`StaticPlan._lifetimes`) and one policy assigning buffers from it
(:meth:`StaticPlan._out`): an arena block is recycled once the last use
of every value it backs has run, a view is held by its source's block,
and each plan adds only the uses the shared forward walk cannot see.
The arena holds values only.  A conv/pool layer's padded image is its
own; its im2col column matrix, like every adaptation stage's scratch, is
a claim on the process's one column workspace
(:data:`~repro.engine.backends.core.COLUMNS`), which every plan shares
because scratch never outlives its stage.  Replays allocate nothing
beyond tiny per-channel fold vectors.

:class:`ExecutionPlan` is then just the forward program with no
backward, plus **fusion**: a ``conv -> eval-BN -> relu`` chain (and
``linear -> relu``) becomes one stage — im2col-GEMM via
``np.matmul(..., out=)`` into the stage's arena buffer, then the BN
affine and ReLU applied in place as a GEMM epilogue.  The BN constants
are read from the module's *live* state on every replay (O(C) work,
:class:`_InvStdBank`), so LD-BN-ADAPT updates and the per-sample
``(scale, shift)`` fleet override need no retrace.

A codegen backend passes a *renderer* that is offered every stage as it
is lowered and replaces the accepted ones with compiled-kernel calls at
finalize time — see :mod:`repro.engine.backends.cgen`.  Without one this
module is the pure numpy-closure backend and no autograd ``Context`` (or
``Tensor``) is allocated anywhere on the replay path.

**The stage table** (:attr:`StaticPlan.stages`) names what a plan serves:
per section, one ``(label, step)`` pair per lowered stage — on numpy the
served closure itself, on ``cgen`` a rendered stage's one-row kernel call
(labelled ``cgen:<label>``) where the served section merges runs of
them.  :meth:`StaticPlan.stage_ms` replays an input once through it,
timing each stage alone; nothing is compiled differently to be timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import tensor as T
from ..nn.functional import _pair
from ..nn.tensor import Context
from .backends.core import (
    COLUMNS,
    _Arena,
    _Block,
    lower_conv,
    lower_pool,
)
from .tracer import ConstRef, OpNode, TraceGraph, ValueRef

#: traced ``Function`` -> stage kind, for both plans.  A kind is lowered by
#: the shared ``StaticPlan._lower_<kind>`` builder when there is one, else
#: by the plan's own; anything absent is ``"generic"`` (inference re-runs
#: the op's eager forward, adaptation refuses the graph).
OP_KINDS = {
    F._Conv2d: "conv", F._Linear: "linear", F._MaxPool2d: "maxpool",
    F._ReLU: "relu", F._LogSoftmax: "logsoftmax", T.Add: "add",
    T.Mul: "mul", T.Exp: "exp", T.Neg: "neg", T.Sum: "sum", T.Mean: "mean",
    T.Reshape: "reshape", T.Transpose: "transpose",
}

#: elementwise kinds -> (ufunc, trailing constant operands); the traced
#: node's leading ``ufunc.nin - len(constants)`` inputs are the tensors
_ELEMENTWISE = {
    "relu": (np.maximum, (0.0,)), "exp": (np.exp, ()),
    "neg": (np.negative, ()), "add": (np.add, ()), "mul": (np.multiply, ()),
}

#: a liveness position no replay reaches: a key used there is never freed
_PINNED = float("inf")

#: the kinds an inference plan has stage builders for
_INFER_KINDS = {"conv", "linear", "maxpool", "relu", "add", "reshape",
                "transpose", "bn"}


def op_kind(node: OpNode) -> str:
    if node.module is not None:
        return "bn"
    return OP_KINDS.get(node.function, "generic")


def stem_index(graph: TraceGraph) -> Optional[int]:
    """Position of the graph's *stem*: the conv that is the one reader of
    the graph input (``None`` when the input has another reader or its
    reader is no conv).  An inference plan hands out the stem's pre-BN
    rows; an adaptation plan can start from them instead of the input."""
    readers = [
        index for index, node in enumerate(graph.nodes)
        if any(isinstance(r, ValueRef) and r.vid == graph.input_vid
               for r in node.inputs)
    ]
    if len(readers) == 1 and op_kind(graph.nodes[readers[0]]) == "conv":
        return readers[0]
    return None


@dataclass(frozen=True)
class PlanStats:
    """Introspection summary of a compiled plan."""

    num_ops: int  # traced nodes
    num_stages: int  # replay closures (fused chains collapse)
    fused_stages: int  # stages covering more than one traced node
    arena_blocks: int
    arena_bytes: int  # bytes actually held by the arena
    requested_bytes: int  # bytes the ops would allocate without reuse
    workspace_bytes: int  # held alone: padded images (columns are shared)


def _get(src):
    """The value a stage source (:meth:`StaticPlan._src`) holds now."""
    kind, value = src
    if kind == "input":
        return value[0]
    if kind == "const":
        return value.data
    return value


class _InvStdBank:
    """``1 / sqrt(running_var + eps)`` of every eval-BN epilogue of an
    inference plan, over one flat buffer: computed at most once per replay
    (:meth:`StaticPlan._begin` marks it ``stale``), by the first epilogue
    that asks (under ``per_sample_stats`` none does), from each module's
    live float64 ``running_var`` with the eager path's three ufuncs."""

    def __init__(self):
        self.modules, self.stale = [], True

    def add(self, module) -> int:
        self.modules.append(module)
        return len(self.modules) - 1

    def seal(self) -> None:
        widths = [m.num_features for m in self.modules]
        self.eps = np.repeat([float(m.eps) for m in self.modules], widths)
        self.flat = np.empty(sum(widths))
        self.views = [self.flat[end - w:end].reshape(1, w, 1)
                      for w, end in zip(widths, np.cumsum(widths))]

    def __getitem__(self, index: int) -> np.ndarray:
        if self.stale:
            flat = self.flat
            np.concatenate([m.running_var for m in self.modules], out=flat,
                           casting="no")
            np.add(flat, self.eps, out=flat)
            np.sqrt(flat, out=flat)
            np.divide(1.0, flat, out=flat)
            self.stale = False
        return self.views[index]


def _bn_epilogue(buf3: np.ndarray, module, n: int, src, bank,
                 slot: int, wide=None) -> None:
    """Apply eval-mode BN to a ``(N, C, P)`` GEMM output ``src``, writing
    ``buf3``.

    Mirrors the eager ops exactly: per-sample folded affine when the
    fleet override is installed, else normalize with the running stats
    (subtract mean, scale by ``bank[slot]``, then gamma/beta) — the
    same elementwise kernel sequence :func:`repro.nn.functional.batch_norm`
    runs in eval mode, minus the temporaries.  Only the first op reads
    ``src``; out of place it is the same ufunc on the same values.  Eager
    BN keeps those ops in float64 (the statistics' dtype) and casts once,
    so a narrower ``buf3`` takes them in ``wide`` — a float64 column claim
    of its shape — and one cast.
    """
    if module.training:
        raise RuntimeError(
            "compiled plan replayed with a BatchNorm layer in training "
            "mode; an inference plan replays eval-mode BN only "
            "(adaptation steps go through CompiledAdaptStep)"
        )
    c = buf3.shape[1]
    dst = buf3 if wide is None else wide[0]
    ps = module.per_sample_stats
    if ps is not None:
        scale, shift = ps
        if scale.shape != (n, c):
            raise ValueError(
                f"per_sample_stats shaped {scale.shape}, expected ({n}, {c})"
            )
        np.multiply(src, scale.reshape(n, c, 1), out=dst)
        dst += shift.reshape(n, c, 1)
    else:
        np.subtract(src, module.running_mean.reshape(1, c, 1), out=dst)
        dst *= bank[slot]
        dst *= module.weight.data.reshape(1, c, 1)
        dst += module.bias.data.reshape(1, c, 1)
    if wide is not None:
        np.copyto(buf3, dst, casting="same_kind")


class StaticPlan:
    """What every compiled plan is made of (see the module docstring).

    Subclasses provide ``_compile(graph)`` (analyse lifetimes with
    :meth:`_lifetimes`, walk the nodes, call the builders, label what
    each appended with :meth:`_label_stages`, set ``stats``),
    ``sections`` (their step lists in replay order) and ``run``;
    :attr:`WRITES_IN_PLACE` picks their buffer policy.

    ``renderer`` (optional) is a codegen backend's stage renderer: every
    lowered stage is *offered* to it along with the numpy closure; at the
    end of compilation its ``finalize`` replaces accepted stages with
    compiled-kernel calls (declined or parity-demoted stages keep their
    numpy closures, so fallback is per-stage and structural).
    """

    def __init__(self, graph: TraceGraph, renderer):
        self._input_shape = graph.input_shape
        self._input_vid = graph.input_vid
        shapes: Dict[int, Tuple[int, ...]] = {graph.input_vid: graph.input_shape}
        dtypes: Dict[int, np.dtype] = {graph.input_vid: graph.input_dtype}
        for node in graph.nodes:
            shapes[node.out_vid] = node.out_shape
            dtypes[node.out_vid] = node.out_dtype
        # everything only compilation needs (`_lifetimes` adds the
        # liveness tables): dropped as one object when compilation ends
        self._ct = SimpleNamespace(
            shapes=shapes, dtypes=dtypes, renderer=renderer,
            emitting=None,  # the step list stages are being appended to
            labels={},  # id(section) -> the label of each of its steps
            workspace_bytes=0,
        )
        self._fixed: Dict[int, np.ndarray] = {}  # every value's buffer
        self._input_cell: List[Optional[np.ndarray]] = [None]
        self._arena = _Arena()
        self._pre_replay: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.backend_info: Dict[str, object] = {"backend": "numpy"}
        self._inv_std = _InvStdBank()
        self._compile(graph)
        self._inv_std.seal()
        # per section, (label, step) per lowered stage; a renderer's
        # finalize swaps in the steps it serves
        self.stages: Tuple[List[Tuple[str, Callable[[], None]]], ...] = tuple(
            list(zip(self._ct.labels.get(id(steps), ()), steps))
            for steps in self.sections
        )
        if renderer is not None:
            self.backend_info = renderer.finalize(self, graph)
        # Neither the graph (and its keepalive of every traced activation)
        # nor the compile-time state is retained: closures captured what
        # replay needs, parameters stay reachable through their
        # ConstRef-held tensors.  The renderer holds every offered stage
        # and its numpy fallback closure, which captures the gather
        # workspaces — dropping it is what lets a fused-im2col backend
        # actually free the workspaces it released; and the small tables,
        # allocated between those big transient buffers, would otherwise
        # pin the freed heap for the plan's lifetime (+16 MB peak RSS on
        # the benchmark's fleet workloads when they were kept).
        del self._ct

    # -- value access ---------------------------------------------------
    def _src(self, ref):
        """A stage input as the one source tuple its numpy step reads (with
        :func:`_get`) and its renderer offer carries: ``("input", cell)``
        for the plan input, ``("fixed", array)`` for a buffer fixed at
        compile time, ``("const", tensor)`` for a traced constant or
        parameter (its live ``data``), ``("value", v)`` for a plain
        argument."""
        if isinstance(ref, ValueRef):
            if ref.vid == self._input_vid:
                return ("input", self._input_cell)
            return ("fixed", self._fixed[ref.vid])
        if isinstance(ref, ConstRef):
            return ("const", ref.tensor)
        return ("value", ref)

    def _ref_shape_dtype(self, ref):
        if isinstance(ref, ValueRef):
            return self._ct.shapes[ref.vid], self._ct.dtypes[ref.vid]
        if isinstance(ref, ConstRef):
            return tuple(ref.tensor.shape), ref.tensor.data.dtype
        return None, None

    # -- stage emission -------------------------------------------------
    def _place(self, kind: str, spec: dict, fallback):
        """The renderer's stage for one lowered stage, or ``None`` (no
        renderer, or it declined)."""
        if self._ct.renderer is None:
            return None
        return self._ct.renderer.offer_stage(kind, spec, fallback)

    def _offer(self, kind: str, spec: dict, fallback) -> None:
        """Offer one lowered stage to the renderer; append the step to the
        section being emitted (``self._ct.emitting``)."""
        self._ct.emitting.append(self._place(kind, spec, fallback) or fallback)

    def _label_stages(self, before: int, label: str) -> None:
        """Name the steps appended to the current section since position
        ``before`` (:attr:`stages` / ``numpy_stages`` keys)."""
        steps = self._ct.emitting
        self._ct.labels.setdefault(id(steps), []).extend(
            [label] * (len(steps) - before)
        )

    # -- buffer policy ----------------------------------------------------
    #: an elementwise stage may write its output over a tensor input whose
    #: block dies with it.  Adaptation plans do not: that is bitwise too,
    #: but measured it adds an arena block to every cgen from-stem step.
    WRITES_IN_PLACE = True

    def _lifetimes(self, nodes, reads, tail) -> None:
        """The one liveness analysis: each buffer key's last use over the
        plan's sections in replay order (forward node ``i`` at position
        ``i``, its backward at ``2n - 1 - i``).  A value's key is ``("a",
        vid)``; the walk sees every node's output and forward reads, and
        ``reads(i, node)`` / ``tail`` add the ``(key, position)`` uses only
        the plan knows of."""
        last_use: Dict[object, float] = {}

        def use(key, pos) -> None:
            last_use[key] = max(last_use.get(key, -1), pos)

        for index, node in enumerate(nodes):
            use(("a", node.out_vid), index)  # dead outputs die at birth
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    use(("a", ref.vid), index)
            for key, pos in reads(index, node):
                use(key, pos)
        for key, pos in tail:
            use(key, pos)
        self._ct.dying = {}  # position -> keys whose last use it is
        for key, pos in last_use.items():
            self._ct.dying.setdefault(pos, []).append(key)
        self._ct.last_use = last_use
        self._ct.blocks = {}  # live key -> the arena block backing it

    def _hold(self, key, block: _Block) -> None:
        block.alive.add(key)
        self._ct.blocks[key] = block

    def _alloc(self, key, shape, dtype) -> np.ndarray:
        """An arena buffer held by ``key`` until its last use ran."""
        block, view = self._arena.alloc(shape, dtype)
        self._hold(key, block)
        return view

    def _advance(self, pos) -> None:
        """Position ``pos`` ran: recycle every block it left backing no
        live key."""
        for key in self._ct.dying.get(pos, ()):
            block = self._ct.blocks.pop(key, None)
            if block is not None:
                block.alive.discard(key)
                if not block.alive:
                    self._arena.release(block)

    def _out(self, vid, shape, dtype, reuse=()) -> np.ndarray:
        """The buffer backing value ``vid``: one of the ``reuse`` inputs
        when in-place writes are on and its block backs nothing used after
        this stage (``self._ct.cursor``), else a fresh arena block."""
        ct = self._ct
        for ref in reuse if self.WRITES_IN_PLACE else ():
            key = ("a", getattr(ref, "vid", None))
            block = ct.blocks.get(key)
            if (block is not None and block.alive == {key}
                    and ct.last_use[key] == ct.cursor
                    and ct.shapes[ref.vid] == shape
                    and ct.dtypes[ref.vid] == dtype):
                out = self._fixed[ref.vid]
                self._hold(("a", vid), block)
                break
        else:
            out = self._alloc(("a", vid), shape, dtype)
        self._fixed[vid] = out
        return out

    # -- shared forward stage builders ------------------------------------
    def _lower_conv(self, node, out_vid, bn_module=None, relu=False,
                    rows=False):
        """conv [-> eval-BN] [-> relu] into the buffer backing ``out_vid``;
        returns the layer's :class:`~.backends.core.ConvLowering`.

        ``rows``: the GEMM (bias added) lands in a plan-owned buffer of its
        own, kept as :attr:`ExecutionPlan.stem_rows`, and the epilogue
        reads it from there."""
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        geo = lower_conv(
            x_shape, weight.shape, _pair(node.inputs[3]),
            _pair(node.inputs[4]), node.out_dtype, x_dtype,
        )
        n, f_out, p_total = geo.n, geo.f_out, geo.p_total
        k_total = geo.k_total
        self._ct.workspace_bytes += geo.workspace_nbytes

        out4 = self._out(
            out_vid, (n, f_out, geo.out_h, geo.out_w), geo.compute_dtype
        )
        out3 = out4.reshape(n, f_out, p_total)
        acc3 = np.empty_like(out3) if rows else out3
        if rows:
            self.stem_rows = acc3.reshape(out4.shape)
        x_src = self._src(x_ref)
        if bn_module is not None:
            bank, slot = self._inv_std, self._inv_std.add(bn_module)
            wide = None if out3.dtype == np.float64 else COLUMNS.claim(
                out3.shape, np.float64)

        def run():
            cols = geo.gather(_get(x_src))
            np.matmul(weight.data.reshape(f_out, k_total), cols, out=acc3)
            if bias is not None:
                np.add(acc3, bias.data.reshape(1, -1, 1), out=acc3)
            src = acc3
            if bn_module is not None:
                _bn_epilogue(out3, bn_module, n, src, bank, slot, wide)
                src = out3
            if relu:
                np.maximum(src, 0.0, out=out3)
            elif src is not out3:
                np.copyto(out3, src)

        self._offer(
            "conv",
            dict(
                geo=geo, x_src=x_src, weight=weight,
                bias=bias, bn_module=bn_module, relu=relu, out3=out3,
                rows=acc3 if rows else None,
            ),
            run,
        )
        return geo

    def _lower_linear(self, node, out_vid, relu=False):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        out2 = self._out(out_vid, node.out_shape, node.out_dtype)
        x_src = self._src(x_ref)

        def run():
            np.matmul(_get(x_src), weight.data.T, out=out2)
            if bias is not None:
                np.add(out2, bias.data, out=out2)
            if relu:
                np.maximum(out2, 0.0, out=out2)

        self._offer(
            "linear",
            dict(
                x_src=x_src, x_shape=x_shape,
                x_dtype=x_dtype, out_dtype=node.out_dtype, weight=weight,
                bias=bias, relu=relu, out2=out2,
            ),
            run,
        )

    def _lower_maxpool(self, node, alloc_arg=None):
        """Max-pool forward.  ``alloc_arg(geo)`` (adaptation) provides the
        buffer the window argmax is saved into for the backward; returns
        ``(geo, arg)``."""
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        kernel = _pair(node.inputs[1])
        stride = _pair(node.inputs[2] if node.inputs[2] is not None else kernel)
        geo = lower_pool(
            x_shape, node.out_shape, kernel, stride, _pair(node.inputs[3]),
            x_dtype,
        )
        self._ct.workspace_bytes += geo.workspace_nbytes
        arg = alloc_arg(geo) if alloc_arg is not None else None
        out4 = self._out(node.out_vid, node.out_shape, node.out_dtype)
        out2 = out4.reshape(geo.n * geo.c, geo.p_total)
        x_src = self._src(x_ref)

        def run():
            window = geo.gather(_get(x_src))
            if arg is not None:
                np.argmax(window, axis=1, out=arg)
            np.max(window, axis=1, out=out2)

        self._offer(
            "maxpool",
            dict(
                geo=geo, x_src=x_src, out_dtype=node.out_dtype, out2=out2,
                arg=arg,
            ),
            run,
        )
        return geo, arg

    def _lower_view(self, node) -> bool:
        """reshape / transpose as a view of its source's fixed buffer, held
        by the source's block: no stage, zero replay cost.  False, and
        nothing registered, when the source is the plan input or the
        result would be a copy (a reshape of a non-contiguous view copies:
        freezing that copy would replay stale data)."""
        src = node.inputs[0]
        base = self._fixed.get(src.vid) if isinstance(src, ValueRef) else None
        if base is None:
            return False
        if op_kind(node) == "reshape":
            view = base.reshape(node.kwargs["shape"])
        else:
            view = np.transpose(base, node.kwargs["axes"])
        if not np.shares_memory(view, base):
            return False
        self._fixed[node.out_vid] = view
        block = self._ct.blocks.get(("a", src.vid))
        if block is not None:
            self._hold(("a", node.out_vid), block)
        return True

    def _lower_elementwise(self, node, kind):
        """relu / exp / neg / add / mul: one ufunc call with ``out=``; the
        tensor inputs are in-place candidates where the plan's buffer
        policy allows it."""
        ufunc, consts = _ELEMENTWISE[kind]
        refs = node.inputs[:ufunc.nin - len(consts)]
        out = self._out(node.out_vid, node.out_shape, node.out_dtype, refs)
        a = self._src(refs[0])
        if len(refs) == 1:
            self._offer(
                kind, dict(x_src=a, out=out, dtype=node.out_dtype),
                lambda: ufunc(_get(a), *consts, out=out),
            )
            return
        b = self._src(refs[1])
        self._offer(
            kind,
            dict(
                a_src=a, b_src=b,
                a_shape=self._ref_shape_dtype(refs[0])[0],
                b_shape=self._ref_shape_dtype(refs[1])[0],
                out_shape=node.out_shape, out=out, dtype=node.out_dtype,
            ),
            lambda: ufunc(_get(a), _get(b), out=out),
        )

    # -- replay -----------------------------------------------------------
    def _begin(self, x: np.ndarray) -> None:
        """Replay prologue: check the shape, bind the input (through the
        backend's ``_pre_replay`` when stages were rendered)."""
        if x.shape != self._input_shape:
            raise ValueError(
                f"plan compiled for input {self._input_shape}, "
                f"got {x.shape}"
            )
        if self._pre_replay is not None:
            x = self._pre_replay(x)
        self._input_cell[0] = x
        self._inv_std.stale = True

    def stage_ms(self, x: np.ndarray) -> Dict[str, float]:
        """Replay ``x`` once through :attr:`stages`, each stage timed
        alone: milliseconds per label (stages sharing one summed),
        slowest first.  Leaves the bytes ``run(x)`` leaves."""
        self._begin(x)
        ms: Dict[str, float] = {}
        clock = time.perf_counter
        for section in self.stages:
            for label, step in section:
                start = clock()
                step()
                ms[label] = ms.get(label, 0.0) + 1e3 * (clock() - start)
        return dict(sorted(ms.items(), key=lambda kv: -kv[1]))


class ExecutionPlan(StaticPlan):
    """Executable form of one traced forward at one input shape.

    ``run`` returns a view into plan-owned storage: the contents are
    overwritten by the next ``run`` call, so copy if you need to keep a
    result across frames (serving loops decode immediately and don't).

    The plan's second output is :attr:`stem_rows`: the stem conv's rows
    before its BN epilogue, ``(N, F, H', W')``, what an adaptation plan
    compiled ``from_stem`` takes as its input — plan-owned storage the
    next ``run`` overwrites too (``None``: the graph has no fusable stem).
    """

    def __init__(self, graph: TraceGraph, renderer=None):
        self._steps: List[Callable[[], None]] = []
        self.stem_rows: Optional[np.ndarray] = None
        super().__init__(graph, renderer)

    @property
    def sections(self) -> Tuple[list, ...]:
        return (self._steps,)

    # -- compilation ----------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        self._ct.emitting = self._steps
        consumers: Dict[int, int] = {}
        for node in nodes:
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    consumers[ref.vid] = consumers.get(ref.vid, 0) + 1
        kinds = [self._lowering(node) for node in nodes]

        # the plan output is the caller's: it never dies
        self._lifetimes(nodes, lambda index, node: (),
                        [(("a", graph.output_vid), _PINNED)])
        arena = self._arena
        stem = stem_index(graph)
        fused = 0
        num_stages = 0

        def fuses(scan: int, tail: OpNode, kind: str) -> bool:
            # nodes[scan] is a `kind` node and the sole consumer of `tail`
            if scan >= len(nodes) or kinds[scan] != kind:
                return False
            ref = nodes[scan].inputs[0]
            return (
                isinstance(ref, ValueRef)
                and ref.vid == tail.out_vid
                and consumers.get(tail.out_vid, 0) == 1
                and tail.out_vid != graph.output_vid
                and nodes[scan].out_dtype == tail.out_dtype
            )

        index = 0
        while index < len(nodes):
            node = nodes[index]
            kind = kinds[index]
            end = self._ct.cursor = index
            before = len(self._steps)

            if kind in ("conv", "linear"):
                bn_node = relu_node = None
                # BN fuses only behind a conv: BatchNorm1d after Linear
                # would need a 2-D epilogue
                scan = index + 1
                if kind == "conv" and fuses(scan, node, "bn"):
                    bn_node = nodes[scan]
                    scan += 1
                tail = bn_node or node
                if fuses(scan, tail, "relu"):
                    relu_node = nodes[scan]
                    scan += 1
                end = scan - 1
                out_vid = (relu_node or tail).out_vid
                if kind == "conv":
                    self._lower_conv(
                        node, out_vid,
                        bn_node.module if bn_node is not None else None,
                        relu_node is not None, rows=index == stem,
                    )
                else:
                    self._lower_linear(node, out_vid, relu_node is not None)
                if end > index:
                    fused += 1
            elif kind == "maxpool":
                self._lower_maxpool(node)
            elif kind in ("relu", "add"):
                self._lower_elementwise(node, kind)
            elif kind == "bn":
                self._lower_eval_bn(node)
            elif kind == "generic" or not self._lower_view(node):
                # a view that cannot be fixed is copied every replay
                self._lower_generic(node)

            num_stages += 1
            self._label_stages(before, "+".join(
                self._stage_label(nodes[i]) for i in range(index, end + 1)
            ))
            for pos in range(index, end + 1):
                self._advance(pos)
            index = end + 1

        self._output = self._src(ValueRef(graph.output_vid))

        self.stats = PlanStats(
            num_ops=len(nodes),
            num_stages=num_stages,
            fused_stages=fused,
            arena_blocks=len(arena.blocks),
            arena_bytes=arena.total_bytes,
            requested_bytes=arena.requested_bytes,
            workspace_bytes=self._ct.workspace_bytes,
        )

    def _lowering(self, node: OpNode) -> str:
        """The node's kind, or ``"generic"``: no stage builder for it."""
        kind = op_kind(node)
        if kind in ("conv", "linear") and node.out_dtype != np.result_type(
            self._ref_shape_dtype(node.inputs[0])[1],
            self._ref_shape_dtype(node.inputs[1])[1],
        ):
            return "generic"
        return kind if kind in _INFER_KINDS else "generic"

    @staticmethod
    def _stage_label(node: OpNode) -> str:
        kind = op_kind(node)
        if kind == "generic":
            return getattr(node.function, "__name__", "generic").lower()
        return kind

    # -- inference-only stage builders ------------------------------------
    def _lower_eval_bn(self, node):
        """Standalone eval-mode BN (not behind a conv): the fused stage's
        epilogue over its input, viewed ``(N, C, P)``."""
        module = node.module
        n, c = node.out_shape[:2]
        out3 = self._out(node.out_vid, node.out_shape,
                         node.out_dtype).reshape(n, c, -1)
        x_src = self._src(node.inputs[0])
        bank, slot = self._inv_std, self._inv_std.add(module)
        wide = None if out3.dtype == np.float64 else COLUMNS.claim(
            out3.shape, np.float64)
        self._steps.append(lambda: _bn_epilogue(
            out3, module, n, _get(x_src).reshape(n, c, -1), bank, slot, wide
        ))

    def _lower_generic(self, node):
        """Fallback: re-run the op's forward with a throwaway context and
        copy its result into the value's buffer."""
        fn = node.function
        srcs = [self._src(ref) for ref in node.inputs]
        kwargs = node.kwargs
        out = self._out(node.out_vid, node.out_shape, node.out_dtype)

        def run():
            result = fn.forward(Context(fn, ()), *map(_get, srcs), **kwargs)
            np.copyto(out, result)

        self._steps.append(run)

    # -- replay ---------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        self._begin(x)
        for step in self._steps:
            step()
        return _get(self._output)

"""The one lowering: traced graphs become replayable plans here.

A plan is flat lists of zero-argument closures ("stages"), each writing
into buffers fixed at compile time and issuing the eager path's numpy
kernels on the same values in the same order — replay is **bit-exact**
with autograd, only the bookkeeping around the kernels is removed.

:class:`StaticPlan` is everything the inference plan and the adaptation
plan (:mod:`repro.engine.adapt_plan`) share, each piece exactly once:
the op table (:data:`OP_KINDS`: traced ``Function`` -> stage kind), value
access, the renderer offer, the forward stage builders for conv, linear,
max-pool and the elementwise ops (numpy closure plus offer spec), the
replay prologue and the profile summary.  The builders take their
*output-buffer policy* from the calling plan through :meth:`_out`, which
is the only place the two plans disagree about a shared op: inference
recycles a block as soon as its last consumer ran and writes in place
where it can; adaptation keeps activations alive for the backward.

:class:`ExecutionPlan` is then just the forward program with no
backward, plus the three inference-only optimizations:

* **Fusion** — a ``conv -> eval-BN -> relu`` chain (and ``linear -> relu``)
  becomes one stage: im2col-GEMM via ``np.matmul(..., out=)`` into the
  stage's arena buffer, then the BN affine and ReLU applied in place as a
  GEMM epilogue.  The BN constants are re-folded from the module's *live*
  state on every replay (O(C) work), so LD-BN-ADAPT updates and the
  per-sample ``(scale, shift)`` fleet override need no retrace.
* **Arena buffer reuse** — liveness analysis assigns op outputs to a pool
  of byte arenas; a buffer is recycled as soon as the last consumer of
  every value aliased to it has run.  Steady-state replays allocate
  nothing beyond tiny per-channel fold vectors.
* **Cached im2col workspaces** — gather indices, padded-image buffers and
  column matrices are precomputed per conv/pool layer for the traced
  input shape (:mod:`repro.engine.backends.core`); replays gather with
  ``np.take(..., out=)`` instead of rebuilding indices and columns.

A codegen backend passes a *renderer* that is offered every stage as it
is lowered and replaces the accepted ones with compiled-kernel calls at
finalize time — see :mod:`repro.engine.backends.cgen`.  Without one this
module is the pure numpy-closure backend and no autograd ``Context`` (or
``Tensor``) is allocated anywhere on the replay path.
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
    _Arena,
    _Block,
    PlanProfile,
    _timed_step,
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
    workspace_bytes: int  # dedicated im2col/pool workspaces


def _bn_epilogue(buf3: np.ndarray, module, n: int, src=None) -> None:
    """Apply eval-mode BN to a ``(N, C, P)`` GEMM output ``src`` (default:
    ``buf3`` itself), writing ``buf3``.

    Mirrors the eager ops exactly: per-sample folded affine when the
    fleet override is installed, else normalize with the running stats
    (subtract mean, scale by 1/sqrt(var+eps), then gamma/beta) — the
    same elementwise kernel sequence :func:`repro.nn.functional.batch_norm`
    runs in eval mode, minus the temporaries.  Only the first op reads
    ``src``; out of place it is the same ufunc on the same values.
    """
    if src is None:
        src = buf3
    if module.training:
        raise RuntimeError(
            "compiled plan replayed with a BatchNorm layer in training "
            "mode; adaptation steps must use the eager path"
        )
    c = buf3.shape[1]
    ps = module.per_sample_stats
    if ps is not None:
        scale, shift = ps
        if scale.shape != (n, c):
            raise ValueError(
                f"per_sample_stats shaped {scale.shape}, expected ({n}, {c})"
            )
        np.multiply(src, scale.reshape(n, c, 1), out=buf3)
        buf3 += shift.reshape(n, c, 1)
    else:
        inv_std = 1.0 / np.sqrt(module.running_var + module.eps)
        np.subtract(src, module.running_mean.reshape(1, c, 1), out=buf3)
        buf3 *= inv_std.reshape(1, c, 1)
        buf3 *= module.weight.data.reshape(1, c, 1)
        buf3 += module.bias.data.reshape(1, c, 1)


class StaticPlan:
    """What every compiled plan is made of (see the module docstring).

    Subclasses provide ``_compile(graph)`` (walk the nodes, call the
    builders, set ``stats``), ``_out`` (the output-buffer policy),
    ``sections`` (their step lists in replay order) and ``run``.

    ``renderer`` (optional) is a codegen backend's stage renderer: every
    lowered stage is *offered* to it along with the numpy closure; at the
    end of compilation its ``finalize`` replaces accepted stages with
    compiled-kernel calls (declined or parity-demoted stages keep their
    numpy closures, so fallback is per-stage and structural).
    """

    def __init__(self, graph: TraceGraph, profile: bool, renderer):
        self._input_shape = graph.input_shape
        self._input_vid = graph.input_vid
        shapes: Dict[int, Tuple[int, ...]] = {graph.input_vid: graph.input_shape}
        dtypes: Dict[int, np.dtype] = {graph.input_vid: graph.input_dtype}
        for node in graph.nodes:
            shapes[node.out_vid] = node.out_shape
            dtypes[node.out_vid] = node.out_dtype
        # everything only compilation needs (each plan adds its liveness
        # tables): dropped as one object when compilation ends
        self._ct = SimpleNamespace(
            shapes=shapes, dtypes=dtypes, renderer=renderer,
            emitting=None,  # the step list stages are being appended to
            workspace_bytes=0,
        )
        self._fixed: Dict[int, np.ndarray] = {}  # buffers fixed at compile time
        self._slots: Dict[int, np.ndarray] = {}  # per-replay values
        self._input_cell: List[Optional[np.ndarray]] = [None]
        self._arena = _Arena()
        self._pre_replay: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self.backend_info: Dict[str, object] = {"backend": "numpy"}
        # opt-in profiling must be chosen at compile time: the traced
        # graph is dropped after compilation, so closures cannot be
        # re-instrumented later — and the unprofiled closures carry zero
        # timing code, keeping the disabled path cost-free
        self.profile: Optional[PlanProfile] = PlanProfile() if profile else None
        self._compile(graph)
        if renderer is not None:
            self.backend_info = renderer.finalize(self, graph)
        # Neither the graph (and its keepalive of every traced activation)
        # nor the compile-time state is retained: closures captured what
        # replay needs, parameters stay reachable through their
        # ConstRef-held tensors.  The renderer holds every offered stage
        # and its numpy fallback closure, which captures the im2col
        # workspaces — dropping it is what lets a fused-im2col backend
        # actually free the workspaces it released; and the small tables,
        # allocated between those big transient buffers, would otherwise
        # pin the freed heap for the plan's lifetime (+16 MB peak RSS on
        # the benchmark's fleet workloads when they were kept).
        del self._ct

    # -- value access ---------------------------------------------------
    def _getter(self, ref) -> Callable[[], object]:
        if isinstance(ref, ValueRef):
            vid = ref.vid
            fixed = self._fixed.get(vid)
            if fixed is not None:
                return lambda: fixed
            if vid == self._input_vid:
                cell = self._input_cell
                return lambda: cell[0]
            slots = self._slots
            return lambda: slots[vid]
        if isinstance(ref, ConstRef):
            tensor = ref.tensor
            return lambda: tensor.data
        value = ref
        return lambda: value

    def _render_source(self, ref):
        """Classify a stage input for the renderer.

        Returns ``("input", None)`` for the plan input, ``("fixed", arr)``
        for a compile-time-fixed buffer, ``("const", tensor)`` for a
        traced constant/parameter, or ``None`` when the value is only
        available through a dynamic slot (not renderable).
        """
        if isinstance(ref, ValueRef):
            fixed = self._fixed.get(ref.vid)
            if fixed is not None:
                return ("fixed", fixed)
            if ref.vid == self._input_vid:
                return ("input", None)
            return None
        if isinstance(ref, ConstRef):
            return ("const", ref.tensor)
        return None

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
        """Name the closures appended to the current section since
        position ``before`` (profile ``op_ms`` / ``numpy_stages`` keys)."""
        steps = self._ct.emitting
        if self._ct.renderer is not None:
            # profiling wraps happen at finalize (the renderer decides per
            # stage whether the C kernel or the numpy fallback survived)
            self._ct.renderer.note_stage(steps, before, len(steps), label)
        elif self.profile is not None:
            for pos in range(before, len(steps)):
                steps[pos] = _timed_step(steps[pos], label, self.profile)

    def _gemm_stage(self, load, gemm, epilogue):
        """One GEMM stage closure from its three phases: ``load()`` returns
        the right-hand operand (im2col columns / input rows), ``gemm``
        multiplies it into the output, ``epilogue()`` finishes in place.

        A profiled numpy plan times each phase into ``bucket_ms``
        (``im2col`` / ``gemm`` / ``epilogue``, summing to the stage's
        ``op_ms``); with a renderer the closure is the parity oracle and
        fallback, timed per stage at finalize like any other.
        """
        if self.profile is None or self._ct.renderer is not None:

            def run():
                gemm(load())
                epilogue()

            return run
        add_bucket = self.profile.add_bucket

        def run():
            t0 = time.perf_counter()
            operand = load()
            t1 = time.perf_counter()
            gemm(operand)
            t2 = time.perf_counter()
            epilogue()
            t3 = time.perf_counter()
            add_bucket("im2col", t1 - t0)
            add_bucket("gemm", t2 - t1)
            add_bucket("epilogue", t3 - t2)

        return run

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
        n, c = geo.n, geo.c
        f_out, p_total, k_total = geo.f_out, geo.p_total, geo.k_total
        identity_cols = geo.identity_cols
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        self._ct.workspace_bytes += geo.workspace_nbytes

        out4 = self._out(
            out_vid, (n, f_out, geo.out_h, geo.out_w), geo.compute_dtype
        )
        out3 = out4.reshape(n, f_out, p_total)
        acc3 = np.empty_like(out3) if rows else out3
        if rows:
            self.stem_rows = acc3.reshape(out4.shape)
        get_x = self._getter(x_ref)

        def im2col():
            x = get_x()
            if padded is not None:
                core[...] = x
                np.take(padded.reshape(n, -1), flat, axis=1, out=cols,
                        mode="clip")
                return cols
            if identity_cols:
                return x.reshape(n, c, p_total)
            np.take(x.reshape(n, -1), flat, axis=1, out=cols, mode="clip")
            return cols

        def gemm(cc):
            np.matmul(weight.data.reshape(f_out, k_total), cc, out=acc3)

        def epilogue():
            if bias is not None:
                np.add(acc3, bias.data.reshape(1, -1, 1), out=acc3)
            src = acc3
            if bn_module is not None:
                _bn_epilogue(out3, bn_module, n, src)
                src = out3
            if relu:
                np.maximum(src, 0.0, out=out3)
            elif src is not out3:
                np.copyto(out3, src)

        self._offer(
            "conv",
            dict(
                geo=geo, x_src=self._render_source(x_ref), weight=weight,
                bias=bias, bn_module=bn_module, relu=relu, out3=out3,
                rows=acc3 if rows else None,
            ),
            self._gemm_stage(im2col, gemm, epilogue),
        )
        return geo

    def _lower_linear(self, node, out_vid, relu=False):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        out2 = self._out(out_vid, node.out_shape, node.out_dtype)

        def gemm(x):
            np.matmul(x, weight.data.T, out=out2)

        def epilogue():
            if bias is not None:
                np.add(out2, bias.data, out=out2)
            if relu:
                np.maximum(out2, 0.0, out=out2)

        self._offer(
            "linear",
            dict(
                x_src=self._render_source(x_ref), x_shape=x_shape,
                x_dtype=x_dtype, out_dtype=node.out_dtype, weight=weight,
                bias=bias, relu=relu, out2=out2,
            ),
            self._gemm_stage(self._getter(x_ref), gemm, epilogue),
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
        n, c, h, w = geo.n, geo.c, geo.h, geo.w
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        self._ct.workspace_bytes += geo.workspace_nbytes
        arg = alloc_arg(geo) if alloc_arg is not None else None
        out4 = self._out(node.out_vid, node.out_shape, node.out_dtype)
        out2 = out4.reshape(n * c, geo.p_total)
        get_x = self._getter(x_ref)

        def run():
            x = get_x()
            if padded is not None:
                core[...] = x.reshape(n * c, h, w)
                np.take(padded.reshape(n * c, -1), flat, axis=1, out=cols,
                        mode="clip")
            else:
                np.take(x.reshape(n * c, -1), flat, axis=1, out=cols,
                        mode="clip")
            if arg is not None:
                np.argmax(cols, axis=1, out=arg)
            np.max(cols, axis=1, out=out2)

        self._offer(
            "maxpool",
            dict(
                geo=geo, x_src=self._render_source(x_ref),
                out_dtype=node.out_dtype, out2=out2, arg=arg,
            ),
            run,
        )
        return geo, arg

    def _lower_elementwise(self, node, kind):
        """relu / exp / neg / add / mul: one ufunc call with ``out=``; the
        tensor inputs are in-place candidates where the plan's buffer
        policy allows it."""
        ufunc, consts = _ELEMENTWISE[kind]
        refs = node.inputs[:ufunc.nin - len(consts)]
        out = self._out(node.out_vid, node.out_shape, node.out_dtype, refs)
        get_a = self._getter(refs[0])
        if len(refs) == 1:
            self._offer(
                kind,
                dict(x_src=self._render_source(refs[0]), out=out,
                     dtype=node.out_dtype),
                lambda: ufunc(get_a(), *consts, out=out),
            )
            return
        get_b = self._getter(refs[1])
        self._offer(
            kind,
            dict(
                a_src=self._render_source(refs[0]),
                b_src=self._render_source(refs[1]),
                a_shape=self._ref_shape_dtype(refs[0])[0],
                b_shape=self._ref_shape_dtype(refs[1])[0],
                out_shape=node.out_shape, out=out, dtype=node.out_dtype,
            ),
            lambda: ufunc(get_a(), get_b(), out=out),
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
        if self.profile is not None:
            self.profile.runs += 1

    def profile_summary(self) -> Optional[Dict[str, object]]:
        """Per-op timing plus arena byte counters.

        ``None`` unless the plan was compiled with ``profile=True``.
        """
        if self.profile is None:
            return None
        out = self.profile.summary()
        out["arena_bytes"] = self.stats.arena_bytes
        out["requested_bytes"] = self.stats.requested_bytes
        out["workspace_bytes"] = self.stats.workspace_bytes
        # which stage kinds still replay as Python closures (codegen
        # backends only; on the numpy backend that is every stage)
        out["numpy_stages"] = self.backend_info.get("numpy_stages")
        return out


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

    def __init__(self, graph: TraceGraph, profile: bool = False,
                 renderer=None):
        self._steps: List[Callable[[], None]] = []
        self.stem_rows: Optional[np.ndarray] = None
        super().__init__(graph, profile, renderer)

    @property
    def sections(self) -> Tuple[list, ...]:
        return (self._steps,)

    # -- compilation ----------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        self._ct.emitting = self._steps
        consumers: Dict[int, int] = {}
        last_use: Dict[int, int] = {}
        for index, node in enumerate(nodes):
            last_use.setdefault(node.out_vid, index)  # dead outputs die at birth
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    consumers[ref.vid] = consumers.get(ref.vid, 0) + 1
                    last_use[ref.vid] = index
        last_use[graph.output_vid] = len(nodes)  # plan output never dies

        dying: Dict[int, List[int]] = {}
        for vid, where in last_use.items():
            dying.setdefault(where, []).append(vid)

        arena = self._arena
        blocks: Dict[int, _Block] = {}
        self._ct.blocks, self._ct.last_use = blocks, last_use
        stem = stem_index(graph)
        fused = 0
        num_stages = 0

        def release_after(start: int, end: int) -> None:
            for where in range(start, end + 1):
                for vid in dying.get(where, ()):
                    block = blocks.get(vid)
                    if block is not None:
                        block.alive.discard(vid)
                        if not block.alive:
                            arena.release(block)

        def fuses(scan: int, tail: OpNode, kind: str) -> bool:
            # nodes[scan] is a `kind` node and the sole consumer of `tail`
            if scan >= len(nodes) or op_kind(nodes[scan]) != kind:
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
            kind = op_kind(node)
            end = self._ct.cursor = index
            before = len(self._steps)

            if kind in ("conv", "linear") and node.out_dtype == np.result_type(
                self._ref_shape_dtype(node.inputs[0])[1],
                self._ref_shape_dtype(node.inputs[1])[1],
            ):
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
            elif kind in ("reshape", "transpose"):
                self._lower_view(node, kind)
            elif kind == "bn":
                self._lower_eval_bn(node)
            else:
                self._lower_generic(node)
                # a generic op's output may be a view of any tensor
                # input; its blocks must never be recycled under it
                for ref in node.inputs:
                    if isinstance(ref, ValueRef) and ref.vid in blocks:
                        blocks[ref.vid].pinned = True

            num_stages += 1
            self._label_stages(before, "+".join(
                self._stage_label(nodes[i]) for i in range(index, end + 1)
            ))
            release_after(index, end)
            index = end + 1

        out_fixed = self._fixed.get(graph.output_vid)
        if out_fixed is not None:
            self._fetch_output = lambda: out_fixed
        else:
            slots, ovid = self._slots, graph.output_vid
            self._fetch_output = lambda: slots[ovid]

        self.stats = PlanStats(
            num_ops=len(nodes),
            num_stages=num_stages,
            fused_stages=fused,
            arena_blocks=len(arena.blocks),
            arena_bytes=arena.total_bytes,
            requested_bytes=arena.requested_bytes,
            workspace_bytes=self._ct.workspace_bytes,
        )

    @staticmethod
    def _stage_label(node: OpNode) -> str:
        kind = op_kind(node)
        if kind == "generic":
            return getattr(node.function, "__name__", "generic").lower()
        return kind

    # -- output-buffer policy ---------------------------------------------
    def _out(self, vid, shape, dtype, reuse=()) -> np.ndarray:
        """The buffer backing value ``vid``: one of the ``reuse`` inputs
        written in place when this stage is its last use, else an arena
        block (recycled once every value aliased to it is dead)."""
        for ref in reuse:
            if isinstance(ref, ValueRef) and self._can_write_inplace(
                ref.vid, shape, dtype
            ):
                array, block = self._fixed[ref.vid], self._ct.blocks[ref.vid]
                break
        else:
            block, array = self._arena.alloc(shape, dtype)
        self._register(vid, array, block)
        return array

    def _can_write_inplace(self, vid: int, shape, dtype) -> bool:
        block = self._ct.blocks.get(vid)
        return (
            block is not None
            and not block.pinned
            and block.alive == {vid}
            and self._ct.last_use[vid] == self._ct.cursor
            and self._fixed.get(vid) is not None
            and self._ct.shapes[vid] == shape
            and self._ct.dtypes[vid] == dtype
        )

    def _register(self, vid: int, array: np.ndarray,
                  block: Optional[_Block]) -> None:
        self._fixed[vid] = array
        if block is not None:
            block.alive.add(vid)
            self._ct.blocks[vid] = block

    # -- inference-only stage builders ------------------------------------
    def _lower_view(self, node, kind):
        src = node.inputs[0]
        if kind == "reshape":
            param = node.kwargs["shape"]
            transform = lambda a: a.reshape(param)  # noqa: E731
        else:
            param = node.kwargs["axes"]
            transform = lambda a: np.transpose(a, param)  # noqa: E731
        if isinstance(src, ValueRef):
            fixed = self._fixed.get(src.vid)
            if fixed is not None:
                view = transform(fixed)
                # reshape of a non-contiguous view COPIES: freezing that
                # copy would replay stale data, so only precompute when
                # the result genuinely aliases the live buffer
                if np.shares_memory(view, fixed):
                    self._register(
                        node.out_vid, view, self._ct.blocks.get(src.vid)
                    )
                    return  # pure view of a fixed buffer: zero replay cost
        get_src = self._getter(src)
        slots, vid = self._slots, node.out_vid

        def run():
            slots[vid] = transform(get_src())

        self._steps.append(run)

    def _lower_eval_bn(self, node):
        """Standalone eval-mode BN (not behind a conv): literal eager math.

        Never offered to a renderer: the numpy path allocates fresh
        output arrays into dynamic slots, and rendering it would change
        the fallback's allocation semantics — structural parity keeps
        this stage on the oracle path.
        """
        module = node.module
        get_x = self._getter(node.inputs[0])
        slots, vid = self._slots, node.out_vid

        def run():
            x = get_x()
            if module.training:
                raise RuntimeError(
                    "compiled plan replayed with a BatchNorm layer in "
                    "training mode; adaptation steps must use the eager path"
                )
            if x.ndim == 4:
                stat_shape = (1, x.shape[1], 1, 1)
            else:
                stat_shape = (1, x.shape[1])
            ps = module.per_sample_stats
            if ps is not None:
                scale, shift = ps
                shape = (x.shape[0], x.shape[1]) + (1,) * (x.ndim - 2)
                slots[vid] = x * scale.reshape(shape) + shift.reshape(shape)
                return
            mean = module.running_mean.reshape(stat_shape)
            var = module.running_var.reshape(stat_shape)
            inv_std = 1.0 / np.sqrt(var + module.eps)
            x_hat = (x - mean) * inv_std
            gamma = module.weight.data.reshape(stat_shape)
            beta = module.bias.data.reshape(stat_shape)
            slots[vid] = (gamma * x_hat + beta).astype(x.dtype, copy=False)

        self._steps.append(run)

    def _lower_generic(self, node):
        """Fallback: re-run the op's forward with a throwaway context."""
        fn = node.function
        getters = [self._getter(ref) for ref in node.inputs]
        kwargs = node.kwargs
        slots, vid = self._slots, node.out_vid

        def run():
            ctx = Context(fn, ())
            slots[vid] = fn.forward(ctx, *[g() for g in getters], **kwargs)

        self._steps.append(run)

    # -- replay ---------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        self._begin(x)
        for step in self._steps:
            step()
        return self._fetch_output()

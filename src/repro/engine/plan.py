"""Compile a :class:`~repro.engine.tracer.TraceGraph` into a replayable plan.

The plan is a flat list of zero-argument closures ("stages"), each writing
into buffers fixed at compile time.  Three optimizations make replay fast
while staying **bit-exact** with the eager autograd path (every stage
issues the same numpy kernels on the same values in the same order — only
the bookkeeping around them is removed):

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
  input shape; replays gather with ``np.take(..., out=)`` instead of
  rebuilding indices and materializing fresh columns.

The arena/liveness/workspace machinery lives in
:mod:`repro.engine.backends.core` (shared with the adaptation plan); a
codegen backend may pass a *renderer* that is offered every stage as it
is lowered and replaces the accepted ones with compiled-kernel calls at
finalize time — see :mod:`repro.engine.backends.cgen`.  Without a
renderer this module is the pure numpy-closure backend and no autograd
``Context`` (or ``Tensor``) is allocated anywhere on the replay path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import tensor as T
from ..nn.functional import _pair
from ..nn.tensor import Context
from .backends.core import (  # noqa: F401  (re-exported for compatibility)
    _ALIGN,
    _Arena,
    _Block,
    PlanProfile,
    _timed_step,
    lower_conv,
    lower_pool,
)
from .tracer import ConstRef, OpNode, TraceGraph, ValueRef


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


def _bn_epilogue(buf3: np.ndarray, module, n: int) -> None:
    """Apply eval-mode BN in place on a ``(N, C, P)`` GEMM output.

    Mirrors the eager ops exactly: per-sample folded affine when the
    fleet override is installed, else normalize with the running stats
    (subtract mean, scale by 1/sqrt(var+eps), then gamma/beta) — the
    same elementwise kernel sequence :func:`repro.nn.functional.batch_norm`
    runs in eval mode, minus the temporaries.
    """
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
        buf3 *= scale.reshape(n, c, 1)
        buf3 += shift.reshape(n, c, 1)
    else:
        inv_std = 1.0 / np.sqrt(module.running_var + module.eps)
        buf3 -= module.running_mean.reshape(1, c, 1)
        buf3 *= inv_std.reshape(1, c, 1)
        buf3 *= module.weight.data.reshape(1, c, 1)
        buf3 += module.bias.data.reshape(1, c, 1)


class ExecutionPlan:
    """Executable form of one traced forward at one input shape.

    ``run`` returns a view into plan-owned storage: the contents are
    overwritten by the next ``run`` call, so copy if you need to keep a
    result across frames (serving loops decode immediately and don't).

    ``renderer`` (optional) is a codegen backend's stage renderer: every
    lowered stage is *offered* to it along with the numpy closure; at the
    end of compilation :meth:`finalize` replaces accepted stages with
    compiled-kernel calls (declined or parity-demoted stages keep their
    numpy closures, so fallback is per-stage and structural).
    """

    def __init__(self, graph: TraceGraph, profile: bool = False,
                 renderer=None):
        self._input_shape = graph.input_shape
        self._input_vid = graph.input_vid
        self._steps: List[Callable[[], None]] = []
        self._slots: Dict[int, np.ndarray] = {}
        self._input_cell: List[Optional[np.ndarray]] = [None]
        self._fixed: Dict[int, np.ndarray] = {}
        self._renderer = renderer
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
            # the renderer holds every offered stage (and its numpy
            # fallback closure, which captures the im2col workspaces);
            # dropping it here is what lets a fused-im2col backend
            # actually free the workspaces it released
            self._renderer = None
        # the graph (and its keepalive of every traced activation) is not
        # retained: closures captured what replay needs, parameters stay
        # reachable through their ConstRef-held tensors

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

    def _offer(self, kind: str, spec: dict, fallback):
        """Offer one lowered stage to the renderer; append the step."""
        step = fallback
        if self._renderer is not None:
            placed = self._renderer.offer_stage(kind, spec, fallback)
            if placed is not None:
                step = placed
        self._steps.append(step)

    def _ref_shape_dtype(self, ref, shapes, dtypes):
        if isinstance(ref, ValueRef):
            return shapes[ref.vid], dtypes[ref.vid]
        if isinstance(ref, ConstRef):
            return tuple(ref.tensor.shape), ref.tensor.data.dtype
        return None, None

    # -- compilation ----------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        shapes: Dict[int, Tuple[int, ...]] = {graph.input_vid: graph.input_shape}
        dtypes: Dict[int, np.dtype] = {graph.input_vid: graph.input_dtype}
        consumers: Dict[int, int] = {}
        last_use: Dict[int, int] = {}
        for index, node in enumerate(nodes):
            shapes[node.out_vid] = node.out_shape
            dtypes[node.out_vid] = node.out_dtype
            last_use.setdefault(node.out_vid, index)  # dead outputs die at birth
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    consumers[ref.vid] = consumers.get(ref.vid, 0) + 1
                    last_use[ref.vid] = index
        last_use[graph.output_vid] = len(nodes)  # plan output never dies

        dying: Dict[int, List[int]] = {}
        for vid, where in last_use.items():
            dying.setdefault(where, []).append(vid)

        arena = _Arena()
        self._arena = arena
        blocks: Dict[int, _Block] = {}
        workspace_bytes = [0]
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

        def pin_inputs(node: OpNode) -> None:
            # a generic op's output may be a view of any tensor input;
            # its blocks must never be recycled under it
            for ref in node.inputs:
                if isinstance(ref, ValueRef):
                    block = blocks.get(ref.vid)
                    if block is not None:
                        block.pinned = True

        def can_write_inplace(vid: int, end: int, shape, dtype) -> bool:
            block = blocks.get(vid)
            return (
                block is not None
                and not block.pinned
                and block.alive == {vid}
                and last_use[vid] == end
                and self._fixed.get(vid) is not None
                and shapes[vid] == shape
                and dtypes[vid] == dtype
            )

        index = 0
        while index < len(nodes):
            node = nodes[index]
            kind = self._kind(node)
            end = index
            before = len(self._steps)

            if kind == "conv" or kind == "linear":
                bn_node = relu_node = None
                x_ref = node.inputs[0]
                _, x_dtype = self._ref_shape_dtype(x_ref, shapes, dtypes)
                w_shape, w_dtype = self._ref_shape_dtype(
                    node.inputs[1], shapes, dtypes
                )
                gemm_dtype = np.result_type(x_dtype, w_dtype)
                if gemm_dtype == node.out_dtype:
                    scan = index + 1
                    if (
                        kind == "conv"
                        and scan < len(nodes)
                        and self._kind(nodes[scan]) == "bn"
                        and self._consumes(nodes[scan], node.out_vid)
                        and consumers.get(node.out_vid, 0) == 1
                        and node.out_vid != graph.output_vid
                        and nodes[scan].out_dtype == node.out_dtype
                    ):
                        bn_node = nodes[scan]
                        scan += 1
                    tail = bn_node if bn_node is not None else node
                    if (
                        scan < len(nodes)
                        and self._kind(nodes[scan]) == "relu"
                        and self._consumes(nodes[scan], tail.out_vid)
                        and consumers.get(tail.out_vid, 0) == 1
                        and tail.out_vid != graph.output_vid
                        and nodes[scan].out_dtype == tail.out_dtype
                    ):
                        relu_node = nodes[scan]
                        scan += 1
                    end = scan - 1
                    builder = (
                        self._build_conv_stage
                        if kind == "conv"
                        else self._build_linear_stage
                    )
                    builder(
                        node, bn_node, relu_node, shapes, dtypes, arena,
                        blocks, workspace_bytes,
                    )
                    if end > index:
                        fused += 1
                else:
                    self._build_generic_stage(node)
                    pin_inputs(node)
            elif kind == "maxpool":
                self._build_maxpool_stage(
                    node, shapes, dtypes, arena, blocks, workspace_bytes
                )
            elif kind == "relu":
                self._build_relu_stage(
                    node, shapes, dtypes, arena, blocks, can_write_inplace, index
                )
            elif kind == "add":
                self._build_add_stage(
                    node, shapes, dtypes, arena, blocks, can_write_inplace, index
                )
            elif kind in ("reshape", "transpose"):
                self._build_view_stage(node, kind, blocks)
            elif kind == "bn":
                self._build_bn_stage(node, shapes, dtypes)
            else:
                self._build_generic_stage(node)
                pin_inputs(node)

            num_stages += 1
            if self.profile is not None or self._renderer is not None:
                label = "+".join(
                    self._stage_label(nodes[i]) for i in range(index, end + 1)
                )
                if self._renderer is not None:
                    # profiling wraps happen at finalize (the renderer
                    # decides per stage whether the C kernel or the numpy
                    # fallback survived)
                    self._renderer.note_stage(before, len(self._steps), label)
                else:
                    for pos in range(before, len(self._steps)):
                        self._steps[pos] = _timed_step(
                            self._steps[pos], label, self.profile
                        )
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
            workspace_bytes=workspace_bytes[0],
        )

    @staticmethod
    def _kind(node: OpNode) -> str:
        if node.module is not None:
            return "bn"
        fn = node.function
        if fn is F._Conv2d:
            return "conv"
        if fn is F._Linear:
            return "linear"
        if fn is F._MaxPool2d:
            return "maxpool"
        if fn is F._ReLU:
            return "relu"
        if fn is T.Add:
            return "add"
        if fn is T.Reshape:
            return "reshape"
        if fn is T.Transpose:
            return "transpose"
        return "generic"

    @classmethod
    def _stage_label(cls, node: OpNode) -> str:
        kind = cls._kind(node)
        if kind == "generic":
            return getattr(node.function, "__name__", "generic").lower()
        return kind

    @staticmethod
    def _consumes(node: OpNode, vid: int) -> bool:
        ref = node.inputs[0]
        return isinstance(ref, ValueRef) and ref.vid == vid

    def _register(self, vid: int, array: np.ndarray, block: Optional[_Block],
                  blocks: Dict[int, _Block]) -> None:
        self._fixed[vid] = array
        if block is not None:
            block.alive.add(vid)
            blocks[vid] = block

    # -- stage builders -------------------------------------------------
    def _build_conv_stage(self, node, bn_node, relu_node, shapes, dtypes,
                          arena, blocks, workspace_bytes):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref, shapes, dtypes)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        stride = _pair(node.inputs[3])
        padding = _pair(node.inputs[4])

        geo = lower_conv(
            x_shape, weight.shape, stride, padding, node.out_dtype, x_dtype
        )
        n, c = geo.n, geo.c
        f_out, p_total, k_total = geo.f_out, geo.p_total, geo.k_total
        identity_cols = geo.identity_cols
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        workspace_bytes[0] += geo.workspace_nbytes

        block, out3 = arena.alloc((n, f_out, p_total), geo.compute_dtype)
        out_vid = (relu_node or bn_node or node).out_vid
        out4 = out3.reshape(n, f_out, geo.out_h, geo.out_w)
        self._register(out_vid, out4, block, blocks)

        get_x = self._getter(x_ref)
        bn_module = bn_node.module if bn_node is not None else None
        fuse_relu = relu_node is not None

        if self.profile is None or self._renderer is not None:

            def run():
                x = get_x()
                if padded is not None:
                    core[...] = x
                    np.take(padded.reshape(n, -1), flat, axis=1, out=cols,
                            mode="clip")
                    cc = cols
                elif identity_cols:
                    cc = x.reshape(n, c, p_total)
                else:
                    np.take(x.reshape(n, -1), flat, axis=1, out=cols,
                            mode="clip")
                    cc = cols
                np.matmul(weight.data.reshape(f_out, k_total), cc, out=out3)
                if bias is not None:
                    np.add(out3, bias.data.reshape(1, -1, 1), out=out3)
                if bn_module is not None:
                    _bn_epilogue(out3, bn_module, n)
                if fuse_relu:
                    np.maximum(out3, 0.0, out=out3)

        else:
            profile = self.profile

            def run():
                t0 = time.perf_counter()
                x = get_x()
                if padded is not None:
                    core[...] = x
                    np.take(padded.reshape(n, -1), flat, axis=1, out=cols,
                            mode="clip")
                    cc = cols
                elif identity_cols:
                    cc = x.reshape(n, c, p_total)
                else:
                    np.take(x.reshape(n, -1), flat, axis=1, out=cols,
                            mode="clip")
                    cc = cols
                t1 = time.perf_counter()
                np.matmul(weight.data.reshape(f_out, k_total), cc, out=out3)
                t2 = time.perf_counter()
                if bias is not None:
                    np.add(out3, bias.data.reshape(1, -1, 1), out=out3)
                if bn_module is not None:
                    _bn_epilogue(out3, bn_module, n)
                if fuse_relu:
                    np.maximum(out3, 0.0, out=out3)
                t3 = time.perf_counter()
                profile.add_bucket("im2col", t1 - t0)
                profile.add_bucket("gemm", t2 - t1)
                profile.add_bucket("epilogue", t3 - t2)

        self._offer(
            "conv",
            dict(
                geo=geo, x_src=self._render_source(x_ref), weight=weight,
                bias=bias, bn_module=bn_module, relu=fuse_relu, out3=out3,
            ),
            run,
        )

    def _build_linear_stage(self, node, bn_node, relu_node, shapes, dtypes,
                            arena, blocks, workspace_bytes):
        # bn fusion after linear is not emitted (BatchNorm1d after Linear
        # would need the 2-D epilogue); the scan never pairs them because
        # _build path only fuses bn behind conv.
        del bn_node, workspace_bytes
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref, shapes, dtypes)
        weight = node.inputs[1].tensor
        bias_ref = node.inputs[2]
        bias = bias_ref.tensor if isinstance(bias_ref, ConstRef) else None
        n = x_shape[0]
        out_features = weight.shape[0]

        block, out2 = arena.alloc((n, out_features), node.out_dtype)
        out_vid = (relu_node or node).out_vid
        self._register(out_vid, out2, block, blocks)

        get_x = self._getter(x_ref)
        fuse_relu = relu_node is not None

        if self.profile is None or self._renderer is not None:

            def run():
                np.matmul(get_x(), weight.data.T, out=out2)
                if bias is not None:
                    np.add(out2, bias.data, out=out2)
                if fuse_relu:
                    np.maximum(out2, 0.0, out=out2)

        else:
            profile = self.profile

            def run():
                t0 = time.perf_counter()
                np.matmul(get_x(), weight.data.T, out=out2)
                t1 = time.perf_counter()
                if bias is not None:
                    np.add(out2, bias.data, out=out2)
                if fuse_relu:
                    np.maximum(out2, 0.0, out=out2)
                t2 = time.perf_counter()
                profile.add_bucket("gemm", t1 - t0)
                profile.add_bucket("epilogue", t2 - t1)

        self._offer(
            "linear",
            dict(
                x_src=self._render_source(x_ref), x_shape=x_shape,
                x_dtype=x_dtype, out_dtype=node.out_dtype, weight=weight,
                bias=bias, relu=fuse_relu, out2=out2,
            ),
            run,
        )

    def _build_maxpool_stage(self, node, shapes, dtypes, arena, blocks,
                             workspace_bytes):
        x_ref = node.inputs[0]
        x_shape, x_dtype = self._ref_shape_dtype(x_ref, shapes, dtypes)
        kernel = _pair(node.inputs[1])
        stride = _pair(node.inputs[2] if node.inputs[2] is not None else kernel)
        padding = _pair(node.inputs[3])

        geo = lower_pool(
            x_shape, node.out_shape, kernel, stride, padding, x_dtype
        )
        n, c, h, w = geo.n, geo.c, geo.h, geo.w
        p_total = geo.p_total
        padded, core, cols, flat = geo.padded, geo.core, geo.cols, geo.flat
        workspace_bytes[0] += geo.workspace_nbytes

        block, out4 = arena.alloc(
            (n, c, geo.out_h, geo.out_w), node.out_dtype
        )
        out2 = out4.reshape(n * c, p_total)
        self._register(node.out_vid, out4, block, blocks)
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
            np.max(cols, axis=1, out=out2)

        self._offer(
            "maxpool",
            dict(
                geo=geo, x_src=self._render_source(x_ref),
                out_dtype=node.out_dtype, out2=out2,
            ),
            run,
        )

    def _build_relu_stage(self, node, shapes, dtypes, arena, blocks,
                          can_write_inplace, index):
        x_ref = node.inputs[0]
        if isinstance(x_ref, ValueRef) and can_write_inplace(
            x_ref.vid, index, node.out_shape, node.out_dtype
        ):
            buf = self._fixed[x_ref.vid]
            block = blocks[x_ref.vid]
            self._register(node.out_vid, buf, block, blocks)
            self._offer(
                "relu",
                dict(x_src=("fixed", buf), out=buf, dtype=node.out_dtype),
                lambda: np.maximum(buf, 0.0, out=buf),
            )
            return
        block, out = arena.alloc(node.out_shape, node.out_dtype)
        self._register(node.out_vid, out, block, blocks)
        get_x = self._getter(x_ref)
        self._offer(
            "relu",
            dict(
                x_src=self._render_source(x_ref), out=out,
                dtype=node.out_dtype,
            ),
            lambda: np.maximum(get_x(), 0.0, out=out),
        )

    def _build_add_stage(self, node, shapes, dtypes, arena, blocks,
                         can_write_inplace, index):
        a_ref, b_ref = node.inputs[0], node.inputs[1]
        target = block = None
        for ref in (a_ref, b_ref):
            if isinstance(ref, ValueRef) and can_write_inplace(
                ref.vid, index, node.out_shape, node.out_dtype
            ):
                target = self._fixed[ref.vid]
                block = blocks[ref.vid]
                break
        if target is None:
            block, target = arena.alloc(node.out_shape, node.out_dtype)
        self._register(node.out_vid, target, block, blocks)
        get_a, get_b = self._getter(a_ref), self._getter(b_ref)
        out = target
        a_shape, _ = self._ref_shape_dtype(a_ref, shapes, dtypes)
        b_shape, _ = self._ref_shape_dtype(b_ref, shapes, dtypes)
        self._offer(
            "add",
            dict(
                a_src=self._render_source(a_ref),
                b_src=self._render_source(b_ref),
                a_shape=a_shape, b_shape=b_shape,
                out_shape=node.out_shape, out=out, dtype=node.out_dtype,
            ),
            lambda: np.add(get_a(), get_b(), out=out),
        )

    def _build_view_stage(self, node, kind, blocks):
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
                        node.out_vid, view, blocks.get(src.vid), blocks
                    )
                    return  # pure view of a fixed buffer: zero replay cost
        get_src = self._getter(src)
        slots, vid = self._slots, node.out_vid

        def run():
            slots[vid] = transform(get_src())

        self._steps.append(run)

    def _build_bn_stage(self, node, shapes, dtypes):
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

    def _build_generic_stage(self, node):
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
        for step in self._steps:
            step()
        return self._fetch_output()

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

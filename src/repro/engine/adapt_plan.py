"""Compile the LD-BN-ADAPT entropy step into a replayable static plan.

The adaptation hot path is the *same network* as inference run again —
one train-mode forward (BatchNorm normalizing with live batch
statistics), the Shannon-entropy loss, and a backward pass restricted to
BN gamma/beta.  :class:`AdaptationPlan` is therefore the forward
lowering of :mod:`repro.engine.plan` plus a backward program: conv,
linear, max-pool and the elementwise ops come from the shared
:class:`~repro.engine.plan.StaticPlan` builders (same closures, same
renderer offers), and this module holds only what is adaptation-specific:

* the output-buffer policy — activations, saved-for-backward buffers
  (``x_hat``, pool argmax, ReLU masks) and gradient buffers live in the
  engine's arena with liveness computed over the combined
  forward+backward program, so nothing is written in place;
* the grouped train-mode BN forward and its :class:`BNLayerTap`, and the
  loss tail (log-softmax, sum, per-group mean);
* the backward rules, pruned to the gradient paths that actually reach a
  BN gamma/beta — conv/linear weight gradients and the gradient into the
  stem conv are never computed.  A traced op is supported iff it has a
  ``_bwd_<kind>`` rule here;
* the *update tail*, the backward section's last stage: what a step does
  with the taps — running statistics blended in, one SGD-momentum step
  on gamma/beta — applied per group to the destinations a caller arms
  :meth:`AdaptationPlan.run` with (:func:`_update_tail`), and nothing
  when it does not.  It is the step's rail too: the loss tail flags each
  group whose loss came out finite (:attr:`AdaptationPlan.finite`), and
  the tail skips every group it did not flag, so a non-finite pixel
  writes no BN state at all.

A plan compiled ``from_stem`` is the same lowering with the input cut one
node later: the stem conv (:func:`~repro.engine.plan.stem_index`) is not
lowered, and its output — the pre-BN rows an inference plan hands out as
:attr:`~repro.engine.plan.ExecutionPlan.stem_rows` — is the plan input.
The stem conv has no backward stage (no BN gamma/beta lies behind it), so
the two plans replay the same stages after it on the same values.

Every kernel replays the eager op sequence on the same values in the same
order, so gradients match the autograd oracle, and no autograd
``Context`` or ``Tensor`` is allocated anywhere on the replay path.

**Grouped replay** is the fleet-batching mechanism: with ``groups=G`` the
batch axis is split into G contiguous groups of equal size, every
BatchNorm normalizes each group with that group's own batch statistics
and per-group gamma/beta (read from plan-input *slots*), and the loss is
one mean entropy per group.  A single grouped replay therefore equals G
independent serial adaptation steps — one per stream — sharing every
GEMM.  With ``groups=1`` gamma/beta are read live from the model's BN
modules and the plan is the single-stream compiled step.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.functional import update_running_stat
from ..nn.modules import _BatchNormBase
from ..nn.optim import sgd_update
from .plan import _ELEMENTWISE, StaticPlan, op_kind, stem_index
from .tracer import TraceGraph, ValueRef


class UnsupportedAdaptGraph(RuntimeError):
    """The traced step contains an op the adaptation plan cannot lower.

    Callers fall back to the eager autograd step (which handles every
    op); the compiled path only ever covers graphs it can replay exactly.
    """


def _axis_dims(shape, axis: int) -> Tuple[int, int, int]:
    """``shape`` as ``(outer, len, inner)`` around ``axis``."""
    axis %= len(shape)
    return (
        int(np.prod(shape[:axis], dtype=np.int64)), int(shape[axis]),
        int(np.prod(shape[axis + 1:], dtype=np.int64)),
    )


@dataclass
class BNLayerTap:
    """Plan inputs/outputs of one BatchNorm layer, in execution order.

    ``gamma_slot``/``beta_slot`` are ``(G, C)`` parameter inputs read at
    every replay — the fleet batcher fills row ``g`` with stream ``g``'s
    adapted gamma/beta.  With ``groups == 1`` they are None and the plan
    reads the live module parameters instead (so single-stream LD-BN-ADAPT
    updates are visible without refilling anything).  After ``run``:

    * ``grad_gamma``/``grad_beta`` hold the entropy gradients, ``(G, C)``;
    * ``batch_mean``/``batch_var`` hold the per-group batch statistics the
      forward normalized with — exactly what the statistics-refresh step
      persists into the running buffers.
    """

    module: _BatchNormBase
    gamma_slot: Optional[np.ndarray]
    beta_slot: Optional[np.ndarray]
    grad_gamma: np.ndarray
    grad_beta: np.ndarray
    batch_mean: np.ndarray
    batch_var: np.ndarray


@dataclass(frozen=True)
class AdaptPlanStats:
    """Introspection summary of a compiled adaptation plan."""

    num_ops: int  # traced nodes (forward incl. loss)
    backward_stages: int  # emitted backward closures (pruned program)
    skipped_backward: int  # traced nodes with no surviving gradient path
    arena_blocks: int
    arena_bytes: int
    requested_bytes: int
    workspace_bytes: int  # dedicated im2col/pool workspaces


def _update_tail(armed: list, taps: List[BNLayerTap],
                 finite: np.ndarray) -> Callable[[], None]:
    """The update tail's numpy closure over ``armed[0]``, the per-group
    destinations of the running replay (see :meth:`AdaptationPlan.run`);
    it takes them, so whoever applies an update applies it once.  A group
    whose ``finite`` flag the loss tail cleared is skipped whole.

    Per group and BN layer this is the epilogue every LD-BN-ADAPT step has
    always run: count the batch, persist its statistics through
    :func:`~repro.nn.functional.update_running_stat`, step gamma and beta
    through :func:`~repro.nn.optim.sgd_update` (momentum buffers in the
    optimizer's own ``state``, keyed by the module's parameters wherever
    the stepped arrays live).  It captures no plan: plans stay free of
    reference cycles.
    """

    def apply_update() -> None:
        targets = armed[0]
        if targets is None:
            return
        armed[0] = None
        for k, target in enumerate(targets):
            if not finite[k]:
                continue
            momentum = target.effective_momentum
            optimizer = target.optimizer
            for tap in taps:
                module = tap.module
                mean, var, count, gamma, beta = target.bn_arrays(module)
                count += 1
                update_running_stat(mean, tap.batch_mean[k], momentum)
                update_running_stat(var, tap.batch_var[k], momentum)
                for data, grad, param in (
                    (gamma, tap.grad_gamma[k], module.weight),
                    (beta, tap.grad_beta[k], module.bias),
                ):
                    sgd_update(
                        data,
                        grad,
                        optimizer.state.setdefault(id(param), {}),
                        optimizer.lr,
                        momentum=optimizer.momentum,
                        weight_decay=optimizer.weight_decay,
                        nesterov=optimizer.nesterov,
                    )

    return apply_update


class AdaptationPlan(StaticPlan):
    """Executable entropy step at one (input shape, group count).

    ``run(x)`` replays the compiled forward, computes the loss, replays
    the pruned backward, and returns the per-group losses ``(G,)``.
    Gradients and batch statistics are left in the :class:`BNLayerTap`
    buffers (overwritten by the next ``run``); ``run(x, update=...)``
    also applies them.
    """

    def __init__(self, graph: TraceGraph, groups: int = 1,
                 profile: bool = False, renderer=None,
                 from_stem: bool = False):
        batch = graph.input_shape[0]
        if groups < 1 or batch % groups:
            raise ValueError(
                f"groups={groups} must divide the traced batch size {batch}"
            )
        self.groups = groups
        self.group_size = batch // groups
        self.from_stem = from_stem
        self._fwd: List[Callable[[], None]] = []
        self._bwd: List[Callable[[], None]] = []
        self._grads: Dict[int, np.ndarray] = {}
        self.bn_taps: List[BNLayerTap] = []
        # per group, after `run`: 1 when its loss came out finite
        self.finite = np.ones(groups, dtype=np.int64)
        # what the running replay's update tail writes to (see `run`)
        self._update: List[Optional[Sequence]] = [None]
        self._apply_update = _update_tail(
            self._update, self.bn_taps, self.finite
        )
        super().__init__(graph, profile, renderer)

    @property
    def sections(self) -> Tuple[list, ...]:
        return (self._fwd, self._bwd)

    # ------------------------------------------------------------------
    # output-buffer policy
    # ------------------------------------------------------------------
    def _alloc(self, key, shape, dtype) -> np.ndarray:
        """An arena buffer owned by liveness ``key`` until `_compile`'s
        ``advance`` reaches the key's last use."""
        block, view = self._arena.alloc(shape, dtype)
        block.alive.add(key)
        self._ct.blocks[key] = block
        return view

    def _fallback_scratch(self, tag, shape, dtype) -> np.ndarray:
        """Scratch for the numpy fallback of a stage the renderer took,
        outside the arena (the rendered stage needs none).  Such
        fallbacks fill their scratch anew on every call and never run
        concurrently, so all of them share one buffer per ``tag`` — the
        largest asked for so far — which lives as long as they do (for a
        stage that survives its probe: until compilation ends).  An
        anonymous mapping rather than heap: once the last fallback is
        dropped the pages go back to the OS, where freed heap chunks of
        this size stay resident under the long-lived objects allocated
        after them."""
        buffers = self._ct.fallback_scratch
        need = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if tag not in buffers or buffers[tag].nbytes < need:
            buffers[tag] = np.frombuffer(mmap.mmap(-1, need), dtype=np.uint8)
        return buffers[tag][:need].view(dtype).reshape(shape)

    def _out(self, vid, shape, dtype, reuse=()) -> np.ndarray:
        # the backward reads activations long after their forward
        # consumers ran: always a fresh block, never one of `reuse`
        out = self._fixed[vid] = self._alloc(("a", vid), shape, dtype)
        return out

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        num = len(nodes)
        self._loss_vid = graph.output_vid
        cut = None
        if self.from_stem:
            # the input cut: the stem's output is the plan input
            cut = stem_index(graph)
            if cut is None:
                raise UnsupportedAdaptGraph("the trace has no stem conv")
            self._input_vid = nodes[cut].out_vid
            self._input_shape = nodes[cut].out_shape
        shapes, dtypes = self._ct.shapes, self._ct.dtypes
        blocks = self._ct.blocks = {}  # liveness key -> arena block
        self._ct.fallback_scratch = {}  # tag -> buffer, see the method
        producer: Dict[int, int] = {}
        kinds: List[str] = []
        for index, node in enumerate(nodes):
            kind = op_kind(node)
            if not hasattr(self, f"_bwd_{kind}"):
                raise UnsupportedAdaptGraph(
                    f"op {getattr(node.function, '__name__', kind)} has no "
                    f"adaptation-plan lowering; use the eager step"
                )
            kinds.append(kind)
            producer[node.out_vid] = index
        loss_node = nodes[-1]
        if (
            loss_node.out_vid != self._loss_vid
            or kinds[-1] != "mean"
            or loss_node.kwargs.get("axis") is not None
        ):
            raise UnsupportedAdaptGraph(
                "adaptation plan requires the trace to end in a global "
                "mean loss (entropy_loss does)"
            )

        # -- gradient-path analysis ------------------------------------
        # carries: the value's producing subgraph contains a train-mode BN,
        # i.e. a gradient flowing into it can still reach some gamma/beta.
        carries: set = set()
        for node in nodes:
            if node.train_bn:
                carries.add(node.out_vid)
            elif any(
                isinstance(r, ValueRef) and r.vid in carries
                for r in node.inputs
            ):
                carries.add(node.out_vid)
        # reaches: the value feeds the loss (live branch of the trace)
        reaches = {self._loss_vid}
        for node in reversed(nodes):
            if node.out_vid in reaches:
                for r in node.inputs:
                    if isinstance(r, ValueRef):
                        reaches.add(r.vid)
        grad_vids = {v for v in carries if v in reaches}
        # a node emits a backward stage when its output gradient exists
        # (the loss node seeds instead of consuming a gradient)
        has_bwd = [
            nodes[i].out_vid in grad_vids or nodes[i].out_vid == self._loss_vid
            for i in range(num)
        ]
        # which inputs of node i receive gradient contributions
        def grad_inputs(i: int) -> List[int]:
            if not has_bwd[i]:
                return []
            return [
                r.vid
                for r in nodes[i].inputs
                if isinstance(r, ValueRef) and r.vid in grad_vids
            ]

        # -- liveness over the combined forward+backward program --------
        def bwd_pos(i: int) -> int:
            return 2 * num - 1 - i

        # reshape outputs are views: uses of the view keep the source's
        # arena block alive
        alias: Dict[int, int] = {
            node.out_vid: node.inputs[0].vid
            for index, node in enumerate(nodes)
            if kinds[index] == "reshape" and isinstance(node.inputs[0], ValueRef)
        }

        def root(vid: int) -> int:
            while vid in alias:
                vid = alias[vid]
            return vid

        last_use: Dict[object, int] = {}

        def use(key, pos):
            last_use[key] = max(last_use.get(key, -1), pos)

        for index, node in enumerate(nodes):
            use(("a", root(node.out_vid)), index)  # dead outputs die at birth
            for r in node.inputs:
                if isinstance(r, ValueRef):
                    use(("a", root(r.vid)), index)
            kind = kinds[index]
            pos = bwd_pos(index) if has_bwd[index] else index
            if has_bwd[index]:
                if kind in ("relu", "logsoftmax", "exp"):
                    use(("a", root(node.out_vid)), pos)
                elif kind == "mul":
                    for r in node.inputs:
                        if isinstance(r, ValueRef):
                            use(("a", root(r.vid)), pos)
            # internal saved-for-backward / scratch buffers
            if kind == "bn":
                use(("xh", index), pos)
            elif kind == "logsoftmax":
                use(("ls", index), pos)
            elif kind == "maxpool":
                use(("arg", index), pos)
        use(("a", root(self._loss_vid)), 2 * num)  # returned to caller: pinned
        # gradient buffers: born at the backward stage of their latest
        # consumer, die at the backward stage of their producer
        for vid in grad_vids:
            use(("g", vid), bwd_pos(producer[vid]))

        dying: Dict[int, List[object]] = {}
        for key, pos in last_use.items():
            if pos <= 2 * num - 1:
                dying.setdefault(pos, []).append(key)

        arena, alloc = self._arena, self._alloc

        def advance(pos: int) -> None:
            for key in dying.get(pos, ()):
                block = blocks.pop(key, None)
                if block is not None:
                    block.alive.discard(key)
                    if not block.alive:
                        arena.release(block)

        def grad_buffer(vid: int) -> np.ndarray:
            buf = self._grads.get(vid)
            if buf is None:
                buf = alloc(("g", vid), shapes[vid], dtypes[vid])
                self._grads[vid] = buf
            return buf

        written: Dict[int, bool] = {}

        def sink(vid: int):
            """(buffer, fresh) for one gradient contribution into ``vid``."""
            buf = grad_buffer(vid)
            fresh = not written.get(vid, False)
            written[vid] = True
            return buf, fresh

        # per-node compile-time state shared between fwd and bwd closures
        cells: List[dict] = [dict() for _ in range(num)]

        # -- forward: the shared lowering, buffers per `_out` -------------
        self._ct.emitting = self._fwd
        for index, node in enumerate(nodes):
            kind, cell = kinds[index], cells[index]
            before = len(self._fwd)
            if index == cut:
                pass
            elif kind == "conv":
                cell["geo"] = self._lower_conv(node, node.out_vid)
            elif kind == "linear":
                self._lower_linear(node, node.out_vid)
            elif kind == "maxpool":
                # the argmax is allocated before the pool's output
                cell["geo"], cell["arg"] = self._lower_maxpool(
                    node,
                    lambda geo, index=index: alloc(
                        ("arg", index), (geo.n * geo.c, geo.p_total), np.intp
                    ),
                )
            elif kind in _ELEMENTWISE:
                self._lower_elementwise(node, kind)
            else:
                getattr(self, f"_fwd_{kind}")(node, index, cell)
            self._label_stages(before, f"fwd:{kind}")
            advance(index)

        # -- backward (pruned) ------------------------------------------
        self._ct.emitting = self._bwd
        emitted = 0
        for index in range(num - 1, -1, -1):
            pos = bwd_pos(index)
            if has_bwd[index]:
                kind = kinds[index]
                before = len(self._bwd)

                def scratch(tag, shape, dtype, index=index, pos=pos):
                    # stage-local buffer: born in this backward stage and
                    # released with it, so it never enters the liveness
                    # table and costs arena bytes only when a builder
                    # actually asks for it
                    dying.setdefault(pos, []).append((tag, index))
                    return alloc((tag, index), shape, dtype)

                getattr(self, f"_bwd_{kind}")(
                    nodes[index], index, cells[index], scratch, sink,
                    grad_inputs(index),
                )
                self._label_stages(before, f"bwd:{kind}")
                emitted += 1
            advance(pos)
        before = len(self._bwd)
        self._offer(
            "bn_update",
            dict(update=self._update, taps=self.bn_taps, groups=self.groups,
                 finite=self.finite),
            self._apply_update,
        )
        self._label_stages(before, "bwd:update")

        self._loss_out = self._fixed[self._loss_vid]
        self.stats = AdaptPlanStats(
            num_ops=num,
            backward_stages=emitted,
            skipped_backward=num - emitted,
            arena_blocks=len(arena.blocks),
            arena_bytes=arena.total_bytes,
            requested_bytes=arena.requested_bytes,
            workspace_bytes=self._ct.workspace_bytes,
        )

    # ------------------------------------------------------------------
    # adaptation-only forward stages: the loss tail and train-mode BN
    # ------------------------------------------------------------------
    def _fwd_reshape(self, node, index, cell):
        src = node.inputs[0]
        shape = node.kwargs["shape"]
        if not isinstance(src, ValueRef) or src.vid == self._input_vid:
            raise UnsupportedAdaptGraph("reshape of a non-activation input")
        base = self._fixed[src.vid]
        view = base.reshape(shape)
        if not np.shares_memory(view, base):  # pragma: no cover - arena bufs
            raise UnsupportedAdaptGraph("non-view reshape in adaptation trace")
        # pure view: zero replay cost, no stage emitted — liveness keeps
        # the source alive as long as the view (same arena block)
        self._fixed[node.out_vid] = view

    def _fwd_sum(self, node, index, cell):
        axis = node.kwargs.get("axis")
        keepdims = node.kwargs.get("keepdims", False)
        if not isinstance(axis, int):
            raise UnsupportedAdaptGraph("sum lowering supports a single axis")
        out = self._out(node.out_vid, node.out_shape, node.out_dtype)
        get_x = self._getter(node.inputs[0])
        in_shape, _ = self._ref_shape_dtype(node.inputs[0])
        cell.update(axis=axis, keepdims=keepdims,
                    dims=_axis_dims(in_shape, axis))
        self._offer(
            "reduce",
            dict(x_src=self._render_source(node.inputs[0]), out=out,
                 dims=cell["dims"], mean=False, dtype=node.out_dtype),
            lambda: np.sum(get_x(), axis=axis, keepdims=keepdims, out=out),
        )

    def _fwd_mean(self, node, index, cell):
        # only emitted for the final global-mean loss (validated upfront):
        # lowered as one mean per group so a grouped replay returns each
        # stream's own loss
        in_shape, _ = self._ref_shape_dtype(node.inputs[0])
        groups = self.groups
        per_group = int(np.prod(in_shape)) // groups
        out = self._fixed[node.out_vid] = np.empty(
            (groups,), dtype=node.out_dtype
        )
        get_x = self._getter(node.inputs[0])
        cell.update(per_group=per_group)
        finite = self.finite

        def run():
            np.mean(get_x().reshape(groups, per_group), axis=1, out=out)
            np.isfinite(out, out=finite)

        self._offer(
            "reduce",
            dict(x_src=self._render_source(node.inputs[0]), out=out,
                 dims=(groups, per_group, 1), mean=True, dtype=node.out_dtype,
                 finite=finite),
            run,
        )

    def _fwd_logsoftmax(self, node, index, cell):
        axis = node.inputs[1]
        out = self._out(node.out_vid, node.out_shape, node.out_dtype)
        scratch = self._alloc(("ls", index), node.out_shape, node.out_dtype)
        get_x = self._getter(node.inputs[0])
        cell.update(axis=axis, scratch=scratch,
                    dims=_axis_dims(node.out_shape, axis))

        def run():
            x = get_x()
            mx = x.max(axis=axis, keepdims=True)
            np.subtract(x, mx, out=out)  # shifted
            np.exp(out, out=scratch)
            s = scratch.sum(axis=axis, keepdims=True)
            np.log(s, out=s)
            np.subtract(out, s, out=out)

        self._offer(
            "logsoftmax",
            dict(x_src=self._render_source(node.inputs[0]), out=out,
                 dims=cell["dims"], dtype=node.out_dtype),
            run,
        )

    def _fwd_bn(self, node, index, cell):
        if not node.train_bn:
            raise UnsupportedAdaptGraph(
                "eval-mode BN inside an adaptation trace"
            )
        module = node.module
        x_ref = node.inputs[0]
        x_shape, _ = self._ref_shape_dtype(x_ref)
        groups, group_size = self.groups, self.group_size
        c = module.num_features
        if x_shape[0] != groups * group_size:
            raise UnsupportedAdaptGraph("BN input batch does not match groups")
        if len(x_shape) == 4:
            gshape = (groups, group_size, c, x_shape[2], x_shape[3])
            axes = (1, 3, 4)
            pshape = (groups, 1, c, 1, 1)
        elif len(x_shape) == 2:
            gshape = (groups, group_size, c)
            axes = (1,)
            pshape = (groups, 1, c)
        else:  # pragma: no cover - BN accepts 2-D/4-D only
            raise UnsupportedAdaptGraph(f"BN on {len(x_shape)}-D input")
        m = float(group_size * int(np.prod(x_shape[2:], dtype=np.int64)))
        eps = module.eps

        out = self._out(node.out_vid, node.out_shape, node.out_dtype)
        xhat = self._alloc(("xh", index), node.out_shape, node.out_dtype)
        # inv_std persists in a plan-owned buffer (not a per-run
        # temporary): the rendered backward reads it through a pointer
        # fixed at compile time.  Tiny — (G, C) per BN layer.
        inv_std = np.empty((groups, c), dtype=node.out_dtype)
        inv5 = inv_std.reshape(pshape)
        if groups > 1:
            # ones/zeros (the BN identity), not np.empty: the backend
            # parity probe replays the traced example before the fleet
            # fills the slots, and garbage would make probes flaky
            gamma_slot = np.ones((groups, c), dtype=np.float64)
            beta_slot = np.zeros((groups, c), dtype=np.float64)
            gamma_src, beta_src = ("slot", gamma_slot), ("slot", beta_slot)
            get_gamma = lambda: gamma_slot.reshape(pshape)  # noqa: E731
            get_beta = lambda: beta_slot.reshape(pshape)  # noqa: E731
        else:
            gamma_slot = beta_slot = None
            gamma_src = beta_src = ("module", module)
            stat = (1, 1, c) + (1,) * (len(pshape) - 3)
            get_gamma = lambda: module.weight.data.reshape(stat)  # noqa: E731
            get_beta = lambda: module.bias.data.reshape(stat)  # noqa: E731
        tap = BNLayerTap(
            module=module,
            gamma_slot=gamma_slot,
            beta_slot=beta_slot,
            grad_gamma=np.empty((groups, c), dtype=np.float64),
            grad_beta=np.empty((groups, c), dtype=np.float64),
            batch_mean=np.empty((groups, c), dtype=np.float64),
            batch_var=np.empty((groups, c), dtype=np.float64),
        )
        self.bn_taps.append(tap)
        get_x = self._getter(x_ref)
        hw = int(np.prod(x_shape[2:], dtype=np.int64))
        cell.update(
            gshape=gshape, axes=axes, m=m, tap=tap, xhat=xhat,
            get_gamma=get_gamma, inv_std=inv_std, inv5=inv5, hw=hw,
            gamma_src=gamma_src,
        )

        def run():
            x5 = get_x().reshape(gshape)
            mean = x5.mean(axis=axes, keepdims=True)
            var = x5.var(axis=axes, keepdims=True)
            # same ufunc sequence as `1.0 / np.sqrt(var + eps)`, written
            # into the persistent buffer — bitwise identical values
            np.add(var, eps, out=inv5)
            np.sqrt(inv5, out=inv5)
            np.divide(1.0, inv5, out=inv5)
            xh5 = xhat.reshape(gshape)
            np.subtract(x5, mean, out=xh5)
            np.multiply(xh5, inv5, out=xh5)
            out5 = out.reshape(gshape)
            np.multiply(xh5, get_gamma(), out=out5)
            np.add(out5, get_beta(), out=out5)
            tap.batch_mean[...] = mean.reshape(groups, c)
            tap.batch_var[...] = var.reshape(groups, c)

        self._offer(
            "bn_train",
            dict(
                x_src=self._render_source(x_ref), out=out, xhat=xhat,
                inv_std=inv_std, batch_mean=tap.batch_mean,
                batch_var=tap.batch_var, gamma=gamma_src, beta=beta_src,
                dims=(groups, group_size, c, hw), eps=eps,
                dtype=node.out_dtype,
            ),
            run,
        )

    # ------------------------------------------------------------------
    # backward stage builders (emitted in reverse node order)
    # ------------------------------------------------------------------
    def _contribute(self, vid, sink, compute_fresh, compute_value,
                    offer=None):
        """Emit one gradient contribution into ``vid``'s sunk buffer.

        ``compute_fresh(dst)`` writes the contribution with ``out=``;
        ``compute_value()`` returns it (used in accumulate mode, where the
        eager path also materializes a temporary before ``existing +
        grad``).  ``offer`` is an optional ``(kind, spec)`` renderer
        offer; the destination buffer and ``accumulate`` (add to what
        ``dst`` holds instead of overwriting it) are added to the spec.
        Builders whose scratch needs depend on ``fresh`` sink first and
        go through :meth:`_emit_scratch_free`.
        """
        dst, fresh = sink(vid)
        if fresh:
            step = lambda: compute_fresh(dst)  # noqa: E731
        else:
            step = lambda: np.add(dst, compute_value(), out=dst)  # noqa: E731
        if offer is None:
            self._bwd.append(step)
        else:
            kind, spec = offer
            self._offer(kind, dict(spec, dst=dst, accumulate=not fresh), step)

    def _bwd_mean(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:  # pragma: no cover - loss always carries
            return
        vid = grad_in[0]
        seed = 1.0 / cell["per_group"]
        self._contribute(
            vid, sink,
            lambda dst: dst.fill(seed),
            lambda: seed,
            offer=("fill", dict(value=seed, dtype=self._ct.dtypes[vid])),
        )

    def _bwd_neg(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        self._contribute(
            grad_in[0], sink,
            lambda dst: np.negative(g, out=dst),
            lambda: -g,
            offer=("neg_bwd", dict(g=g, dtype=node.out_dtype)),
        )

    def _bwd_sum(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        axis = cell["axis"]
        keepdims = cell["keepdims"]
        in_shape = self._ct.shapes[grad_in[0]]
        axis_norm = axis % len(in_shape)

        def expanded():
            return g if keepdims else np.expand_dims(g, axis_norm)

        self._contribute(
            grad_in[0], sink,
            lambda dst: np.copyto(dst, expanded()),
            expanded,
            offer=("broadcast", dict(
                g=g, dims=cell["dims"], dtype=node.out_dtype,
            )),
        )

    def _bwd_mul(self, node, index, cell, scratch, sink, grad_in):
        g = self._grads[node.out_vid]
        a_ref, b_ref = node.inputs[0], node.inputs[1]
        for ref, other in ((a_ref, b_ref), (b_ref, a_ref)):
            if isinstance(ref, ValueRef) and ref.vid in grad_in:
                get_other = self._getter(other)
                self._contribute(
                    ref.vid, sink,
                    lambda dst, get=get_other: np.multiply(g, get(), out=dst),
                    lambda get=get_other: g * get(),
                    offer=("mul_bwd", dict(
                        g=g, other=self._render_source(other),
                        dtype=node.out_dtype,
                    )),
                )

    def _bwd_exp(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        self._contribute(
            grad_in[0], sink,
            lambda dst: np.multiply(g, out, out=dst),
            lambda: g * out,
            offer=("mul_bwd", dict(g=g, other=out, dtype=node.out_dtype)),
        )

    def _bwd_logsoftmax(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        axis = cell["axis"]
        scratch = cell["scratch"]

        def value():
            np.exp(out, out=scratch)  # softmax
            s = g.sum(axis=axis, keepdims=True)
            np.multiply(scratch, s, out=scratch)
            return scratch

        self._contribute(
            grad_in[0], sink,
            lambda dst: np.subtract(g, value(), out=dst),
            lambda: g - value(),
            offer=("logsoftmax_bwd", dict(
                g=g, y=out, dims=cell["dims"], dtype=node.out_dtype,
            )),
        )

    def _bwd_reshape(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        in_shape = self._ct.shapes[grad_in[0]]

        def reshaped():
            return g.reshape(in_shape)

        self._contribute(
            grad_in[0], sink,
            lambda dst: np.copyto(dst, reshaped()),
            reshaped,
            offer=("copy", dict(g=g, dtype=node.out_dtype)),
        )

    def _bwd_add(self, node, index, cell, scratch, sink, grad_in):
        g = self._grads[node.out_vid]
        for ref in node.inputs[:2]:
            if isinstance(ref, ValueRef) and ref.vid in grad_in:
                self._contribute(
                    ref.vid, sink,
                    lambda dst: np.copyto(dst, g),
                    lambda: g,
                    offer=("copy", dict(g=g, dtype=node.out_dtype)),
                )

    def _bwd_relu(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        out = self._fixed[node.out_vid]
        mask = scratch("mask", node.out_shape, np.bool_)

        def fresh(dst):
            np.greater(out, 0, out=mask)
            np.multiply(g, mask, out=dst)

        def value():
            np.greater(out, 0, out=mask)
            return g * mask

        self._contribute(
            grad_in[0], sink, fresh, value,
            offer=("relu_bwd", dict(g=g, y=out, dtype=node.out_dtype)),
        )

    def _bwd_linear(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        self._contribute(
            grad_in[0], sink,
            lambda dst: np.matmul(g, weight.data, out=dst),
            lambda: g @ weight.data,
            offer=("linear_bwd", dict(
                g=g, weight=weight,
                g_shape=self._ct.shapes[node.out_vid],
                fin=int(weight.shape[1]), dtype=node.out_dtype,
            )),
        )

    def _bwd_conv(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g4 = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        geo = cell["geo"]  # the forward's lowering: same layer geometry
        n, x_shape = geo.n, (geo.n, geo.c, geo.h, geo.w)
        kernel, stride, padding = geo.kernel, geo.stride, geo.padding
        k_total, p_total, f_out = geo.k_total, geo.p_total, geo.f_out
        dtype = node.out_dtype
        identity = geo.identity_cols
        dst, fresh = sink(grad_in[0])

        def lowering(scratch):
            """The numpy step, its column/image scratch from ``scratch``."""
            # a fresh 1x1 contribution is the GEMM itself, written straight
            # into the gradient buffer; every other case lands the GEMM in
            # column scratch first
            grad_cols = (
                None if identity and fresh
                else scratch("gcols", (n, k_total, p_total), dtype)
            )

            def dgrad(out):
                F._conv_dgrad(
                    weight.data.reshape(f_out, k_total),
                    g4.reshape(n, f_out, p_total),
                    out=out,
                )

            if identity:
                def compute_fresh(dst):
                    dgrad(dst.reshape(n, k_total, p_total))

                def compute_value():
                    dgrad(grad_cols)
                    return grad_cols.reshape(x_shape)
            else:
                # accumulating contributions materialize the image first,
                # as the eager `existing + grad` does
                image = None if fresh else scratch("gpad", x_shape, dtype)

                def compute_fresh(dst):
                    dgrad(grad_cols)
                    dst.fill(0.0)
                    F._col2im_accumulate(
                        dst, grad_cols, kernel, stride, padding
                    )

                def compute_value():
                    compute_fresh(image)
                    return image

            if fresh:
                return lambda: compute_fresh(dst)
            return lambda: np.add(dst, compute_value(), out=dst)

        self._emit_scratch_free(
            "conv_dgrad",
            dict(g=g4, weight=weight, geo=geo, dtype=dtype, dst=dst,
                 accumulate=not fresh),
            lowering, scratch,
        )

    def _emit_scratch_free(self, kind, spec, lowering, scratch):
        """Emit a backward stage whose rendered form needs no scratch
        (it accumulates in registers, or in place, and stores once).
        ``lowering(scratch)`` builds the numpy step with its column /
        image scratch drawn from ``scratch``: when the renderer takes
        the stage that step is only its probe oracle and fallback, and
        keeps its scratch out of the arena."""
        placed = self._ct.renderer is not None and self._place(
            kind, spec, lowering(self._fallback_scratch)
        )
        self._bwd.append(placed or lowering(scratch))

    def _bwd_maxpool(self, node, index, cell, scratch, sink, grad_in):
        if not grad_in:
            return
        g4 = self._grads[node.out_vid]
        geo = cell["geo"]
        nc, h, w = geo.n * geo.c, geo.h, geo.w
        arg = cell["arg"]
        dtype = node.out_dtype
        dst, fresh = sink(grad_in[0])

        def lowering(scratch):
            grad_cols = scratch(
                "gcols", (nc, geo.kernel[0] * geo.kernel[1], geo.p_total),
                dtype,
            )
            image = None if fresh else scratch("gpad", dst.shape, dtype)

            def compute_fresh(dst):
                grad_cols.fill(0.0)
                np.put_along_axis(
                    grad_cols, arg[:, None, :], g4.reshape(nc, 1, -1), axis=1
                )
                dst.fill(0.0)
                F._col2im_accumulate(
                    dst.reshape(nc, 1, h, w), grad_cols, geo.kernel,
                    geo.stride, geo.padding,
                )

            def accumulate():
                compute_fresh(image)
                np.add(dst, image, out=dst)

            return (lambda: compute_fresh(dst)) if fresh else accumulate

        self._emit_scratch_free(
            "maxpool_bwd",
            dict(g=g4, arg=arg, geo=geo, dtype=dtype, dst=dst,
                 accumulate=not fresh),
            lowering, scratch,
        )

    def _bwd_bn(self, node, index, cell, scratch, sink, grad_in):
        g = self._grads[node.out_vid]
        gshape, axes, m = cell["gshape"], cell["axes"], cell["m"]
        tap, xhat = cell["tap"], cell["xhat"]
        get_gamma = cell["get_gamma"]
        inv5 = cell["inv5"]
        groups = self.groups
        c = tap.module.num_features

        def grads_gamma_beta():
            g5 = g.reshape(gshape)
            xh5 = xhat.reshape(gshape)
            tap.grad_gamma[...] = (
                (g5 * xh5).sum(axis=axes, keepdims=True).reshape(groups, c)
            )
            tap.grad_beta[...] = (
                g5.sum(axis=axes, keepdims=True).reshape(groups, c)
            )
            return g5, xh5

        spec = dict(
            g=g, xhat=xhat, inv_std=cell["inv_std"],
            grad_gamma=tap.grad_gamma, grad_beta=tap.grad_beta,
            dims=(groups, self.group_size, c, cell["hw"]),
            m=m, gamma=cell["gamma_src"], dtype=node.out_dtype,
        )

        if grad_in:
            in_shape = self._ct.shapes[grad_in[0]]

            def value():
                g5, xh5 = grads_gamma_beta()
                dx_hat = g5 * get_gamma()
                grad5 = (
                    inv5
                    / m
                    * (
                        m * dx_hat
                        - dx_hat.sum(axis=axes, keepdims=True)
                        - xh5 * (dx_hat * xh5).sum(axis=axes, keepdims=True)
                    )
                )
                return grad5.reshape(in_shape)

            self._contribute(
                grad_in[0], sink,
                lambda dst: np.copyto(dst, value()),
                value,
                offer=("bn_bwd", spec),
            )
        else:
            # the first BN in the network: nothing upstream needs gradient
            self._offer("bn_bwd", spec, grads_gamma_beta)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray,
            update: Optional[Sequence] = None) -> np.ndarray:
        """One compiled entropy step; returns per-group losses ``(G,)``.

        ``x`` is the image batch, or for a ``from_stem`` plan the stem
        rows of the same frames.  BN gradients and batch statistics are
        left in :attr:`bn_taps` and the per-group finite flags in
        :attr:`finite` (plan-owned buffers, overwritten by the next
        ``run``).

        ``update`` arms the update tail for this replay: one destination
        per group, each with ``optimizer`` (an :class:`~repro.nn.SGD`),
        ``effective_momentum`` (what the running statistics blend with;
        1.0 replaces) and ``bn_arrays(module)`` — where that BN layer's
        ``(running_mean, running_var, num_batches_tracked, gamma, beta)``
        live: the module itself for a single-stream step, a session's
        saved copies in a fused one.  Plans are shared between
        adapters, so a destination is only ever an argument.  A group
        whose loss is not finite is left untouched.
        """
        if update is not None and len(update) != self.groups:
            raise ValueError(
                f"{len(update)} update destinations for {self.groups} groups"
            )
        self._update[0] = update
        self._begin(x)
        for step in self._fwd:
            step()
        for step in self._bwd:
            step()
        if self._update[0] is not None:
            # a rendered tail left these destinations to the closure (an
            # optimizer state it does not render, a first step)
            self._apply_update()
        return self._loss_out

"""Compile the LD-BN-ADAPT entropy step into a replayable static plan.

The adaptation hot path is the *same network* as inference run again —
one train-mode forward (BatchNorm normalizing with live batch
statistics), the Shannon-entropy loss, and a backward pass restricted to
BN gamma/beta.  :class:`AdaptationPlan` is therefore the forward
lowering of :mod:`repro.engine.plan` plus a backward program: conv,
linear, max-pool and the elementwise ops come from the shared
:class:`~repro.engine.plan.StaticPlan` builders (same closures, same
renderer offers), and this module holds only what is adaptation-specific:

* the uses only the backward makes — its reads of activations, the
  saved-for-backward buffers (``x_hat``, the pool argmax) and the
  gradients — for the one liveness analysis over forward + backward;
  every output takes a fresh block.  The arena holds values only: a
  stage's scratch (the relu mask, the conv and pool column gradients,
  winner index and padded image, an accumulating contribution's
  temporary, the log-softmax exponentials) is a claim on the column
  workspace (:data:`~repro.engine.backends.core.COLUMNS`), on every
  backend, held by the numpy step that reads it;
* the grouped train-mode BN forward and its :class:`BNLayerTap`, and the
  loss tail (log-softmax, sum, per-group mean);
* the backward rules, pruned to the gradient paths that actually reach a
  BN gamma/beta — conv/linear weight gradients and the gradient into the
  stem conv are never computed.  A traced op is supported iff it has a
  ``_bwd_<kind>`` rule here, and each rule writes its gradient in one
  form, ``write(out)``: :meth:`AdaptationPlan._contribute` points it at
  the gradient buffer or, when it accumulates, at a temporary it adds;
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
``Context`` or ``Tensor`` is allocated anywhere on the replay path.  The
formulas with more than one numpy form are the eager ones, called: the
train-mode BN statistics (:func:`~repro.nn.functional.batch_stats`) and
backward, the log-softmax and its gradient, the conv input gradient's
GEMM and flat-index col2im scatter, and the max-pool backward's put of
the winners before the same scatter; a plan builds only their indices
and scratch, once, at compile time.

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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.functional import update_running_stat
from ..nn.modules import _BatchNormBase
from ..nn.optim import sgd_update
from .backends.core import COLUMNS
from .plan import _ELEMENTWISE, StaticPlan, _get, op_kind, stem_index
from .tracer import TraceGraph, ValueRef


class UnsupportedAdaptGraph(RuntimeError):
    """The traced step contains an op the adaptation plan cannot lower.

    Callers fall back to the eager autograd step (which handles every
    op); the compiled path only ever covers graphs it can replay exactly.
    """


#: the tag of the buffer a kind saves for its backward (key: tag, index)
_SAVED = {"bn": "xh", "maxpool": "arg"}


def _axis_dims(shape, axis: int) -> Tuple[int, int, int]:
    """``shape`` as ``(outer, len, inner)`` around ``axis``."""
    axis %= len(shape)
    return (
        int(np.prod(shape[:axis], dtype=np.int64)), int(shape[axis]),
        int(np.prod(shape[axis + 1:], dtype=np.int64)),
    )


def _parts():
    """``part(shape, dtype)``: one stage's scratch, each part a claim on
    the column workspace laid after the last (a stage's parts are live
    together; stages overlap).  A claim lives as long as the step holding
    it, so a rendered stage's fallback takes its scratch with it."""
    last = []

    def part(shape, dtype):
        last[:] = [COLUMNS.claim(shape, dtype, *last)]
        return last[0]

    return part


def _col2im_into(geo, flat: np.ndarray, part, dtype
                 ) -> Callable[[np.ndarray, np.ndarray], None]:
    """``write(dst, cols)``, the col2im of ``cols`` into ``dst``:
    :func:`F._col2im_scatter` through ``flat`` into ``dst`` itself
    (unpadded) or into a padded ``part`` of the stage, whose core is then
    copied."""
    ph, pw = geo.padding
    n, c, h, w = geo.n, geo.c, geo.h, geo.w
    if not (ph or pw):
        return lambda dst, cols: F._col2im_scatter(dst, cols, flat)
    padded = part((n, c, h + 2 * ph, w + 2 * pw), dtype)

    def write(dst, cols):
        image = padded[0]
        F._col2im_scatter(image, cols, flat)
        np.copyto(dst, image[:, :, ph:ph + h, pw:pw + w])

    return write


@dataclass
class BNLayerTap:
    """Plan inputs/outputs of one BatchNorm layer, in execution order.

    ``gamma_slot``/``beta_slot`` are ``(G, C)`` parameter inputs read at
    every replay — the fleet batcher fills row ``g`` with stream ``g``'s
    adapted gamma/beta; the stages read them as ``("fixed", gamma_slot)``
    sources.  With ``groups == 1`` they are None and the stages read the
    live parameters instead, ``("const", module.weight)`` (so
    single-stream LD-BN-ADAPT updates are visible without refilling
    anything).  After ``run``:

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
    workspace_bytes: int  # held alone: padded images (columns are shared)


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

    def __init__(self, graph: TraceGraph, groups: int = 1, renderer=None,
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
        super().__init__(graph, renderer)

    @property
    def sections(self) -> Tuple[list, ...]:
        return (self._fwd, self._bwd)

    WRITES_IN_PLACE = False

    def _plan_input(self, graph: TraceGraph) -> int:
        """The traced input, or ``from_stem`` the input cut: the stem's
        output."""
        if not self.from_stem:
            return graph.input_vid
        cut = stem_index(graph)
        if cut is None:
            raise UnsupportedAdaptGraph("the trace has no stem conv")
        return graph.nodes[cut].out_vid

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self, graph: TraceGraph) -> None:
        nodes = graph.nodes
        num = len(nodes)
        self._loss_vid = graph.output_vid
        cut = stem_index(graph) if self.from_stem else None
        shapes, dtypes = self._ct.shapes, self._ct.dtypes
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

        def reads(index: int, node):
            # what node `index`'s backward stage reads: its own output
            # (relu, exp, logsoftmax) or its inputs (mul), and the buffer
            # its forward saved for it
            kind, pos = kinds[index], index
            if has_bwd[index]:
                pos = bwd_pos(index)
                if kind in ("relu", "logsoftmax", "exp"):
                    yield ("a", node.out_vid), pos
                elif kind == "mul":
                    for r in node.inputs:
                        if isinstance(r, ValueRef):
                            yield ("a", r.vid), pos
            if kind in _SAVED:
                yield (_SAVED[kind], index), pos

        # a gradient's dtype is eager autograd's: the widest of its
        # value's and of every gradient flowing back into it (an f32
        # value read by an f64 layer takes an f64 gradient)
        gdtypes = {self._loss_vid: dtypes[self._loss_vid]}
        for index in range(num - 1, -1, -1):
            for vid in grad_inputs(index):
                gdtypes[vid] = np.result_type(
                    gdtypes.get(vid, dtypes[vid]),
                    gdtypes[nodes[index].out_vid],
                )

        # gradient buffers: born at the backward stage of their latest
        # consumer, die at the backward stage of their producer
        self._lifetimes(nodes, reads, [
            (("g", vid), bwd_pos(producer[vid])) for vid in grad_vids
        ])
        alloc = self._alloc

        def sink(vid: int):
            """(buffer, fresh) for one gradient contribution into ``vid``;
            the first one allocates the buffer."""
            fresh = vid not in self._grads
            if fresh:
                self._grads[vid] = alloc(("g", vid), shapes[vid], gdtypes[vid])
            return self._grads[vid], fresh

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
            elif kind == "reshape":
                # one that copies (of the plan input, or of a strided
                # view) is copied into its own buffer; its backward
                # reshapes the gradient either way
                if not self._lower_view(node):
                    self._lower_generic(node)
            else:
                getattr(self, f"_fwd_{kind}")(node, index, cell)
            self._label_stages(before, f"fwd:{kind}")
            self._advance(index)

        # -- backward (pruned) ------------------------------------------
        self._ct.emitting = self._bwd
        emitted = 0
        for index in range(num - 1, -1, -1):
            if has_bwd[index]:
                kind = kinds[index]
                before = len(self._bwd)
                getattr(self, f"_bwd_{kind}")(
                    nodes[index], cells[index], sink, grad_inputs(index)
                )
                self._label_stages(before, f"bwd:{kind}")
                emitted += 1
            self._advance(bwd_pos(index))
        before = len(self._bwd)
        self._offer(
            "bn_update",
            dict(update=self._update, taps=self.bn_taps, groups=self.groups,
                 finite=self.finite),
            self._apply_update,
        )
        self._label_stages(before, "bwd:update")

        self._loss_out = self._fixed[self._loss_vid]
        arena = self._arena
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
    def _fwd_sum(self, node, index, cell):
        axis = node.kwargs.get("axis")
        keepdims = node.kwargs.get("keepdims", False)
        if not isinstance(axis, int):
            raise UnsupportedAdaptGraph("sum lowering supports a single axis")
        out = self._out(node.out_vid, node.out_shape, node.out_dtype)
        x_src = self._src(node.inputs[0])
        in_shape, _ = self._ref_shape_dtype(node.inputs[0])
        cell.update(axis=axis, keepdims=keepdims,
                    dims=_axis_dims(in_shape, axis))
        self._offer(
            "reduce",
            dict(x_src=x_src, out=out, dims=cell["dims"], mean=False,
                 dtype=node.out_dtype),
            lambda: np.sum(_get(x_src), axis=axis, keepdims=keepdims,
                           out=out),
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
        x_src = self._src(node.inputs[0])
        cell.update(per_group=per_group)
        finite = self.finite

        def run():
            np.mean(_get(x_src).reshape(groups, per_group), axis=1, out=out)
            np.isfinite(out, out=finite)

        self._offer(
            "reduce",
            dict(x_src=x_src, out=out, dims=(groups, per_group, 1),
                 mean=True, dtype=node.out_dtype, finite=finite),
            run,
        )

    def _fwd_logsoftmax(self, node, index, cell):
        axis = node.inputs[1]
        out = self._out(node.out_vid, node.out_shape, node.out_dtype)
        exps = _parts()(node.out_shape, node.out_dtype)
        x_src = self._src(node.inputs[0])
        cell.update(axis=axis, dims=_axis_dims(node.out_shape, axis))
        self._offer(
            "logsoftmax",
            dict(x_src=x_src, out=out, dims=cell["dims"],
                 dtype=node.out_dtype),
            lambda: F._log_softmax(_get(x_src), axis, out=out,
                                   scratch=exps[0]),
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
            gamma, beta = ("fixed", gamma_slot), ("fixed", beta_slot)
        else:
            gamma_slot = beta_slot = None
            gamma, beta = ("const", module.weight), ("const", module.bias)
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
        x_src = self._src(x_ref)
        # eager computes the affine at gamma/beta's width and casts once:
        # an f32 input under f64 parameters takes a wide part
        wide_dtype = np.result_type(node.out_dtype, _get(gamma), _get(beta))
        wide = None if wide_dtype == node.out_dtype else _parts()(
            node.out_shape, wide_dtype)
        hw = int(np.prod(x_shape[2:], dtype=np.int64))
        cell.update(
            gshape=gshape, axes=axes, m=m, tap=tap, xhat=xhat,
            pshape=pshape, inv_std=inv_std, inv5=inv5, hw=hw, gamma=gamma,
        )

        def run():
            # x - mean lands in x-hat, its square in the output buffer
            xh5, out5 = xhat.reshape(gshape), out.reshape(gshape)
            mean, var = F.batch_stats(_get(x_src).reshape(gshape), axes,
                                      xh5, out5)
            # same ufunc sequence as `1.0 / np.sqrt(var + eps)`, written
            # into the persistent buffer — bitwise identical values
            np.add(var, eps, out=inv5)
            np.sqrt(inv5, out=inv5)
            np.divide(1.0, inv5, out=inv5)
            np.multiply(xh5, inv5, out=xh5)
            # (G, C) per-group slots, or the (C,) live parameters (G = 1)
            dst5 = out5 if wide is None else wide[0].reshape(gshape)
            np.multiply(xh5, _get(gamma).reshape(pshape), out=dst5)
            np.add(dst5, _get(beta).reshape(pshape), out=dst5)
            if wide is not None:
                np.copyto(out5, dst5, casting="same_kind")
            tap.batch_mean[...] = mean.reshape(groups, c)
            tap.batch_var[...] = var.reshape(groups, c)

        self._offer(
            "bn_train",
            dict(
                x_src=x_src, out=out, xhat=xhat,
                inv_std=inv_std, batch_mean=tap.batch_mean,
                batch_var=tap.batch_var, gamma=gamma, beta=beta,
                dims=(groups, group_size, c, hw), eps=eps,
                dtype=node.out_dtype,
            ),
            run,
        )

    # ------------------------------------------------------------------
    # backward stage builders (emitted in reverse node order)
    # ------------------------------------------------------------------
    def _contribute(self, vid, sink, part, kind, spec, write):
        """Emit one gradient contribution into ``vid``'s sunk buffer.

        ``write(out)`` computes the contribution into ``out`` with
        ``out=`` kernels.  The first contribution writes the buffer
        itself; a later one writes a ``part`` of the stage and adds it,
        ``np.add(dst, tmp, out=dst)``: the eager path's ``existing +
        grad``.  ``(kind, spec)`` is the renderer offer; the destination
        and ``accumulate`` (add to what ``dst`` holds instead of
        overwriting it) are added to the spec.
        """
        dst, fresh = sink(vid)
        if fresh:
            step = lambda: write(dst)  # noqa: E731
        else:
            tmp = part(dst.shape, dst.dtype)

            def step():
                out = tmp[0]
                write(out)
                np.add(dst, out, out=dst)

        self._offer(kind, dict(spec, dst=dst, accumulate=not fresh), step)

    def _bwd_mean(self, node, cell, sink, grad_in):
        if not grad_in:  # pragma: no cover - loss always carries
            return
        seed = 1.0 / cell["per_group"]
        self._contribute(
            grad_in[0], sink, _parts(),
            "fill", dict(value=seed, dtype=self._ct.dtypes[grad_in[0]]),
            lambda out: out.fill(seed),
        )

    def _bwd_neg(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        self._contribute(
            grad_in[0], sink, _parts(),
            "neg_bwd", dict(g=g, dtype=node.out_dtype),
            lambda out: np.negative(g, out=out),
        )

    def _bwd_sum(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        axis = cell["axis"] % len(self._ct.shapes[grad_in[0]])
        expanded = g if cell["keepdims"] else np.expand_dims(g, axis)
        self._contribute(
            grad_in[0], sink, _parts(),
            "broadcast", dict(g=g, dims=cell["dims"], dtype=node.out_dtype),
            lambda out: np.copyto(out, expanded),
        )

    def _bwd_mul(self, node, cell, sink, grad_in):
        g = self._grads[node.out_vid]
        a_ref, b_ref = node.inputs[0], node.inputs[1]
        for ref, other in ((a_ref, b_ref), (b_ref, a_ref)):
            if isinstance(ref, ValueRef) and ref.vid in grad_in:
                src = self._src(other)
                self._contribute(
                    ref.vid, sink, _parts(),
                    "mul_bwd", dict(g=g, other=src, dtype=node.out_dtype),
                    lambda out, src=src: np.multiply(g, _get(src), out=out),
                )

    def _bwd_exp(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        y = self._fixed[node.out_vid]
        self._contribute(
            grad_in[0], sink, _parts(),
            "mul_bwd", dict(g=g, other=y, dtype=node.out_dtype),
            lambda out: np.multiply(g, y, out=out),
        )

    def _bwd_logsoftmax(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        y = self._fixed[node.out_vid]
        axis = cell["axis"]
        part = _parts()
        exps = part(node.out_shape, node.out_dtype)
        self._contribute(
            grad_in[0], sink, part,
            "logsoftmax_bwd", dict(g=g, y=y, dims=cell["dims"],
                                   dtype=node.out_dtype),
            lambda out: F._log_softmax_grad(g, y, axis, out=out,
                                            scratch=exps[0]),
        )

    def _bwd_reshape(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        reshaped = g.reshape(self._ct.shapes[grad_in[0]])
        self._contribute(
            grad_in[0], sink, _parts(),
            "copy", dict(g=g, dtype=node.out_dtype),
            lambda out: np.copyto(out, reshaped),
        )

    def _bwd_add(self, node, cell, sink, grad_in):
        g = self._grads[node.out_vid]
        for ref in node.inputs[:2]:
            if isinstance(ref, ValueRef) and ref.vid in grad_in:
                self._contribute(
                    ref.vid, sink, _parts(),
                    "copy", dict(g=g, dtype=node.out_dtype),
                    lambda out: np.copyto(out, g),
                )

    def _bwd_relu(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        y = self._fixed[node.out_vid]
        part = _parts()
        mask = part(node.out_shape, np.bool_)

        def write(out):
            np.greater(y, 0, out=mask[0])
            np.multiply(g, mask[0], out=out)

        self._contribute(
            grad_in[0], sink, part,
            "relu_bwd", dict(g=g, y=y, dtype=node.out_dtype), write,
        )

    def _bwd_linear(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        self._contribute(
            grad_in[0], sink, _parts(),
            "linear_bwd", dict(g=g, weight=weight, g_shape=g.shape,
                               fin=int(weight.shape[1]), dtype=node.out_dtype),
            lambda out: np.matmul(g, weight.data, out=out),
        )

    def _bwd_conv(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g4 = self._grads[node.out_vid]
        weight = node.inputs[1].tensor
        geo = cell["geo"]  # the forward's lowering: same layer geometry
        n, k_total, p_total = geo.n, geo.k_total, geo.p_total
        dtype = node.out_dtype
        g3 = g4.reshape(n, geo.f_out, p_total)
        part = _parts()

        def dgrad(out):
            F._conv_dgrad(weight.data.reshape(geo.f_out, k_total), g3, out=out)

        if geo.identity_cols:
            # a 1x1 input gradient is the GEMM itself
            write = lambda out: dgrad(  # noqa: E731
                out.reshape(n, k_total, p_total))
        else:
            grad_cols = part((n, k_total, p_total), dtype)
            col2im = _col2im_into(geo, geo.flat, part, dtype)

            def write(out):
                cols = grad_cols[0]
                dgrad(cols)
                col2im(out, cols)

        self._contribute(
            grad_in[0], sink, part,
            "conv_dgrad", dict(g=g4, weight=weight, geo=geo, dtype=dtype),
            write,
        )

    def _bwd_maxpool(self, node, cell, sink, grad_in):
        if not grad_in:
            return
        g4 = self._grads[node.out_vid]
        geo, arg = cell["geo"], cell["arg"]
        nc, taps = geo.n * geo.c, geo.kernel[0] * geo.kernel[1]
        dtype = node.out_dtype
        # the scatter runs per sample over all channels, as a conv's does
        flat = F._im2col_flat(geo.c, geo.h, geo.w, geo.kernel, geo.stride,
                              geo.padding)
        base = F._winner_base(nc, taps, geo.p_total)
        part = _parts()
        grad_cols = part((nc, taps, geo.p_total), dtype)
        where = part(arg.shape, np.intp)
        col2im = _col2im_into(geo, flat, part, dtype)

        def write(out):
            cols = grad_cols[0]
            F._put_winners(cols, arg, g4, base, where[0])
            col2im(out, cols.reshape(geo.n, geo.c * taps, geo.p_total))

        self._contribute(
            grad_in[0], sink, part,
            "maxpool_bwd", dict(g=g4, arg=arg, geo=geo, dtype=dtype), write,
        )

    def _bwd_bn(self, node, cell, sink, grad_in):
        g = self._grads[node.out_vid]
        gshape, axes, m = cell["gshape"], cell["axes"], cell["m"]
        tap, xhat = cell["tap"], cell["xhat"]
        gamma, pshape, inv5 = cell["gamma"], cell["pshape"], cell["inv5"]
        groups, c = self.groups, tap.module.num_features
        g5, xh5 = g.reshape(gshape), xhat.reshape(gshape)

        def affine_grads():
            grad_gamma, grad_beta = F._bn_affine_grads(g5, xh5, axes)
            tap.grad_gamma[...] = grad_gamma.reshape(groups, c)
            tap.grad_beta[...] = grad_beta.reshape(groups, c)

        spec = dict(
            g=g, xhat=xhat, inv_std=cell["inv_std"],
            grad_gamma=tap.grad_gamma, grad_beta=tap.grad_beta,
            dims=(groups, self.group_size, c, cell["hw"]),
            m=m, gamma=gamma, dtype=node.out_dtype,
        )
        if not grad_in:
            # the first BN in the network: nothing upstream needs gradient
            self._offer("bn_bwd", spec, affine_grads)
            return

        def write(out):
            affine_grads()
            F._bn_input_grad(g5, xh5, inv5, _get(gamma).reshape(pshape),
                             axes, out=out.reshape(gshape))

        self._contribute(grad_in[0], sink, _parts(), "bn_bwd", spec,
                         write)

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
        self._begin(x, update)
        for step in self._fwd:
            step()
        for step in self._bwd:
            step()
        if self._update[0] is not None:
            # a rendered tail left these destinations to the closure (an
            # optimizer state it does not render, a first step)
            self._apply_update()
        return self._loss_out

    def _begin(self, x: np.ndarray, update: Optional[Sequence] = None) -> None:
        """The replay prologue, arming the update tail with ``update``
        (``None`` in :meth:`stage_ms`: a timed replay updates nothing)."""
        self._update[0] = update
        super()._begin(x)

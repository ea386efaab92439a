"""The C codegen backend: plans as stage tables over one kernel library.

The renderer rides along :class:`~repro.engine.plan.ExecutionPlan` /
:class:`~repro.engine.adapt_plan.AdaptationPlan` compilation: every fused
stage the numpy lowering produces is *offered* together with its closure,
and the renderer either fills a row of the plan's stage table or declines
(unsupported op, non-contiguous buffer, exotic dtype).  For adaptation
plans the whole step is offered: the forward — train-mode BatchNorm and
the entropy tail (log-softmax, sum, mean) included — *and* the pruned
LD-BN-ADAPT backward (BN gamma/beta grads, the reduced chain, max-pool
backward, the tail's rules, fresh and accumulating contributions
alike; conv input gradients in *gather* form
on the forward's own kernels, :meth:`CRenderer._try_conv_dgrad`).  Only
the step's *update tail* is never offered: it is one numpy block formula
on every backend (``bwd:update``, :mod:`repro.engine.adapt_plan`), run
after the backward's C.  A served frame's step starts from the stem rows
its inference row stored before the BN fold: a ``from_stem`` plan has no
conv over its input.  ``backend_info["numpy_stages"]`` counts, by stage
label, what still replays as a Python closure (the update tail
included).

Nothing is compiled per plan.  The package is split along that seam:

* :mod:`.kernels` — the C text.  One library per pool width and set of
  compute types a plan's rows take, every kernel family instantiated for
  each of those types behind one adapter signature, closed by the
  worker-pool runtime of :mod:`repro.engine.backends.threading` and the
  exported row walk ``repro_run(char** T, const stage_row* rows, const
  char* args, const i64* ids, i64 n)``.
* :mod:`.build` — ``find_cc``, the on-disk cache, ``dlopen``: the library
  is compiled once per host into ``$REPRO_CGEN_CACHE`` (``cc -shared -O2
  -march=native -pthread -ffp-contract=fast``), and a cached library
  serves every plan shape with no compiler present.
* this module — the row builders.  A *row* is ``(kernel id, mt flag,
  offset of the stage's args struct in the plan's args blob, slot indices
  into the pointer table T[])``; the args are the structs the kernels
  take (``conv_pad`` / ``conv_dims`` geometry, element counts, an
  accumulate flag, a fill value, pool geometry), packed from Python as
  numpy structured values.  Rows and args are plain data held by the
  plan, so a new batch shape or group count costs a table, not a
  compile; ``backend_info["program"]`` digests the library key, the rows
  and the args (slot *indices*, never addresses), so equal digests in two
  processes mean the same program.  A run of consecutive rendered stages
  costs one ``ctypes`` call over their row ids; the plan's stage table
  (``plan.stages``) keeps each as its own one-row call, labelled
  ``cgen:<label>`` — the step the parity probe runs.

Heavy stages are tiled over the library's pthread pool by *fixed output
ownership* (:mod:`repro.engine.backends.threading`): outputs are bitwise
identical run-to-run and across thread counts.  A stage is tiled only
when its estimated kernel time repays the dispatch round trip
(``_MT_MIN_US``); everything smaller runs inline on the dispatching
thread.  Per-thread scratch is one grow-only heap block of the library; a
plan reserves its largest stage's need when it loads.  How a conv runs
(an implicit GEMM over one padded copy, ``conv_small`` picking the
small-grid kernels at run time) and how the BN reductions use the vector
lanes is documented with the kernels' text in :mod:`.kernels`.

Nothing is baked that LD-BN-ADAPT mutates at runtime: the BN fold
vectors (running stats, gamma/beta), every parameter and the per-sample
fleet ``(scale, shift)`` override are pointer-table entries set by small
binders, so adaptation updates and fleet overrides need no retrace.  A
binder is handed the objects it binds and reads nothing else
(:meth:`_Offer.bind_on`), so a replay need not call it: one sweep reads
every watched attribute (:func:`_sweep`) and only the binders given
another object than last time run — a rebound array is seen on the next
replay, an in-place write needs nothing, a dtype or layout change still
raises.

Parity is enforced structurally, per stage: after loading, every
rendered stage is probed on the traced example against its own numpy
closure (snapshot the output buffers, run the oracle, rewind, run the C
stage — through the same pool dispatch production uses — compare) and
demoted back to the closure on mismatch: float outputs within a tight
tolerance band (:data:`PARITY_RTOL` / :data:`PARITY_ATOL`), integer
outputs (the max-pool's saved argmax) bitwise; the numpy backend stays
the bitwise oracle.  A missing compiler with no cached library (or a
failed compile) falls the whole plan back to the numpy closures with a
visible :class:`RuntimeWarning`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import warnings
from dataclasses import replace as _dc_replace
from functools import partial, reduce
from itertools import groupby, product
from operator import is_
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..base import PlanBackend, register_backend
from ..core import ConvLowering, PoolLowering
from ..threading import PoolHandle, resolve_threads
from .build import (
    _cflags, _load_lib, _plan_variant, default_cache_dir, find_cc,
)
from . import kernels as K
from .kernels import (  # noqa: F401  (_MR: the tests' tile size)
    _MR, _NV, _SG_NP_WIDE, _SG_ROWS, _VEC_BYTES_MAX, _VEC_BYTES_MIN,
    KERNEL_ID, _ConvDims, _ConvPad,
)

# Inline/tiled threshold, in estimated single-thread kernel time.  A
# tiled stage pays one pool dispatch — condvar wake, barrier, join — and
# at two threads wins back at most half its kernel time; the
# `pool_dispatch_us` row of benchmarks/results/micro_ops.json reads 38-50
# us p50 on the reference host, and what the round trip buys depends on
# whether the second core is free.  The line stays at about ten cross-core
# round trips; below it a stage runs inline on the dispatching thread
# (EXPERIMENTS.md, "Cost-model constants of the tiling decision", has the
# measurements).  Of bench-e2e's plans only the stem at batch >= 2 is
# above it.
_MT_MIN_US = 500.0
# what that estimate assumes one thread sustains, in inner-loop
# iterations per us: FMAs of the implicit conv GEMM, pad included (one
# constant serves every conv stage) ...
_GEMM_PER_US = 22000.0
# ... and everything else — sweeps, reductions, the dot-product linear
# kernels — in the elements each builder counts (a BN forward three per
# element, its backward two, a max-pool one per window cell): a stage is
# tiled from about a million counted elements.
_SWEEP_PER_US = 2000.0

# Parity tolerances of the probe, keyed by dtype name.  f64 stages
# differ from the oracle only in GEMM summation order; f32 additionally
# accumulates in single precision.
PARITY_RTOL = {"float64": 1e-9, "float32": 3e-4}
PARITY_ATOL = {"float64": 1e-12, "float32": 1e-6}

_CTYPE = {"float64": "double", "float32": "float"}

# backward kinds rendered for a fresh gradient buffer only: offered an
# accumulating contribution (``existing + grad``) they decline
_FRESH_ONLY = frozenset(("linear_bwd", "bn_bwd", "maxpool_bwd"))

# Sweeps: offer kind -> (library kernel, spec key of the output, spec
# keys of the inputs X, Y, spec key of the flag).  Flat stages — same-size
# same-dtype buffers, one loop — write ``out`` going forward and, as
# gradient rules, ``dst``, adding to it when ``accumulate``: ``fill``
# seeds a gradient buffer with a constant (the loss-mean grad), ``copy``
# passes one through (add / reshape backward), ``mul_bwd`` is ``g`` times
# the other factor — also the ``exp`` rule, whose other factor is its own
# output.  The last four are the entropy tail's axis reductions,
# one serial pass per line of ``spec["dims"] = (outer, len, inner)``.
_SWEEP_KINDS = {
    "relu": ("relu", "out", ("x_src",), None),
    "neg": ("neg", "out", ("x_src",), None),
    "exp": ("exp", "out", ("x_src",), None),
    "add": ("add", "out", ("a_src", "b_src"), None),
    "mul": ("mul", "out", ("a_src", "b_src"), None),
    "fill": ("fill", "dst", (), "accumulate"),
    "copy": ("copy", "dst", ("g",), "accumulate"),
    "neg_bwd": ("neg", "dst", ("g",), "accumulate"),
    "mul_bwd": ("mul", "dst", ("g", "other"), "accumulate"),
    "relu_bwd": ("relu_bwd", "dst", ("g", "y"), "accumulate"),
    "reduce": ("reduce", "out", ("x_src",), "mean"),
    "broadcast": ("broadcast", "dst", ("g",), "accumulate"),
    "logsoftmax": ("logsoftmax", "out", ("x_src",), None),
    "logsoftmax_bwd": ("logsoftmax_bwd", "dst", ("g", "y"), "accumulate"),
}


def _pack(dtype: np.dtype, *fields) -> bytes:
    """One C struct (its numpy mirror ``dtype``) from its field values."""
    return np.array(fields, dtype=dtype).tobytes()


def _phase_axis(size: int, k: int, s: int, p: int):
    """One axis of a conv input gradient, split by residue mod the stride.

    The input cells ``r, r + s, ...`` receive only the kernel offsets
    congruent to ``r + p`` mod ``s``, and over those the gradient is a
    stride-1 window sliding along ``dY``.  Per residue with any cell:
    ``(r, cells, taps, last, pad)`` — walked from the ``last`` (largest)
    offset down, the ``taps`` offsets read ``dY`` from ``pad`` cells
    before cell 0's window on (negative: that far inside)."""
    out = []
    for r in range(min(s, size)):
        first = (r + p) % s
        taps = len(range(first, k, s))
        out.append((
            r, -(-(size - r) // s), taps, first + s * (taps - 1),
            taps - 1 - (r + p - first) // s,
        ))
    return out


def _forward_dims(geo: ConvLowering, acc: int = 0):
    """``(conv_pad, conv_dims)`` of ``geo``'s forward conv: the padded copy
    its taps read and the one GEMM over it, weight rows walked flat.  With
    ``acc`` the same pair describes the conv's input gradient to
    ``convt_<ct>`` (add to the sink instead of overwriting it)."""
    (kh, kw), (sh, sw) = geo.kernel, geo.stride
    return (
        _ConvPad(geo.n, geo.c, geo.h, geo.w, sh, sw,
                 rh=min(sh, kh), rw=min(sw, kw),
                 pt=geo.padding[0], pl=geo.padding[1],
                 ph=geo.out_h + (kh - 1) // sh,
                 pw=geo.out_w + (kw - 1) // sw),
        _ConvDims(geo.f_out, geo.out_h, geo.out_w, kn=(geo.c, kh, kw),
                  ks=(kh * kw, kw, 1), as_f=geo.k_total, ldo=geo.p_total,
                  oy=geo.out_w, acc=acc),
    )


def _shared_pad(axis):
    """One axis of the padded ``dY`` every phase of :func:`_phase_axis`
    reads: ``(lead, extent)`` — the largest leading pad a phase with taps
    asks for (negative when all of them crop) and the cells that then
    cover every phase's windows.  A phase with pad ``p`` finds its tap 0
    ``lead - p`` cells in."""
    lead = max((pad for _, _, taps, _, pad in axis if taps), default=0)
    return lead, max(
        cells + (lead - pad + taps - 1 if taps else 0)
        for _, cells, taps, _, pad in axis
    )


def _pool_args(geo: PoolLowering, arg: bool) -> bytes:
    """The ``pool_args`` of a max-pool layer (``arg``: an argmax buffer
    is bound)."""
    return _pack(
        K.POOL_ARGS, geo.n * geo.c, geo.h, geo.w, geo.out_h, geo.out_w,
        *geo.kernel, *geo.stride, *geo.padding, int(arg),
    )


def _bindv(tab: np.ndarray, slots, srcs, keep: list) -> bool:
    """Bind float64 pointers ``slots`` to ``srcs``, vectors or rows of
    them at one pitch (a launch's fold pairs, views of one stack): in-place
    mutations (LD-BN-ADAPT's gamma/beta updates, a refold) flow through
    them.  True when they needed conversion copies — all of them, so the
    pitch stays one —, held in ``keep``: the binder must run again before
    every replay so the copies stay fresh."""
    arrs = srcs
    if len({a.strides for a in srcs}) > 1 or not all(
        a.dtype == np.float64 and a.strides[-1] == 8 and a.strides[0] % 8 == 0
        for a in srcs
    ):
        arrs = [np.ascontiguousarray(a, dtype=np.float64) for a in srcs]
    for slot, arr in zip(slots, arrs):
        tab[slot] = arr.ctypes.data
    keep[:] = arrs
    return arrs is not srcs


class _Offer:
    """One accepted stage: its row id, oracle closure, outputs."""

    __slots__ = ("sid", "fallback", "outs", "binders", "watched", "demoted",
                 "mt", "geo", "tol_dtype", "row")

    def __init__(self, fallback: Callable[[], None],
                 outs: List[np.ndarray]):
        self.sid = -1            # its row in the stage table, on accept
        self.fallback = fallback
        self.outs = outs
        self.binders: List[Callable[..., object]] = []
        self.watched: List[tuple] = []  # per binder: its (owner, path)s
        self.demoted = False
        self.mt = False          # dispatched across the worker pool
        self.geo = None          # Conv/PoolLowering whose gather
        #                          workspace is released if this survives
        self.tol_dtype = None    # band-tolerance override (reductions
        #                          whose outs are wider than their data)
        self.row: Optional[Callable[[], None]] = None  # its one-row call

    def bind_on(self, bind: Callable[..., object], owner, *paths: str) -> None:
        """Register ``bind``: called with the objects ``owner.<path>``
        currently are, in order (``path``: ``data`` of a tensor, ``<name>``
        or ``<name>.data`` of a module), it points table entries at them
        — and reads nothing else, so what a replay watches is what the
        binder is given.  A replay calls it when one of them is another
        object than the replay before saw, or when its last call returned
        True (it bound a converted copy: bind me again)."""
        self.binders.append(bind)
        self.watched.append(tuple((owner, path) for path in paths))

    def bind_now(self) -> None:
        """Run every binder on what it watches (the probe's one call)."""
        for bind, pairs in zip(self.binders, self.watched):
            bind(*(
                reduce(getattr, path.split("."), owner)
                for owner, path in pairs
            ))


def _sweep(watched: List[tuple]):
    """``(sweep, places)`` for a plan's binders, ``watched[k]`` the
    (owner, path) pairs binder ``k`` is given: ``sweep()`` reads them all,
    grouped by how they are read, and ``places[k]`` says where binder
    ``k``'s are in what it returns.  Module attributes are instance
    attributes, read from the instance dict — a third of ``getattr``'s
    price, and this runs before every replay."""
    tensors, attrs, datas = groups = [], [], []
    found = []  # per watched pair, in order: (its group, its index there)
    for pairs in watched:
        for owner, path in pairs:
            name, _, leaf = path.partition(".")
            if path == "data":
                kind, item = 0, owner
            elif leaf in ("", "data") and name in vars(owner):
                kind, item = 1 + bool(leaf), (vars(owner), name)
            else:
                raise ValueError(
                    f"cannot watch {type(owner).__name__}.{path}"
                )
            found.append((kind, len(groups[kind])))
            groups[kind].append(item)
    starts = (0, len(tensors), len(tensors) + len(attrs))
    at = (starts[kind] + index for kind, index in found)
    places = [tuple(next(at) for _ in pairs) for pairs in watched]

    def sweep() -> list:
        now = [tensor.data for tensor in tensors]
        now += [fields[name] for fields, name in attrs]
        now += [fields[name].data for fields, name in datas]
        return now

    return sweep, places


_UNSEEN = object()  # in a sweep's memory: no replay bound from this yet


class CRenderer:
    """Row builder handed to one plan compilation (single use).

    Fills a stage table for whatever step lists the plan exposes as
    ``plan.sections``, in replay order.  ``threads`` is the resolved
    worker-pool width, i.e. which library the plan loads.
    """

    def __init__(self, backend: "CGenBackend", threads: int = 1):
        self.backend = backend
        self.threads = max(1, int(threads))
        self._offers: List[_Offer] = []
        self._rows: List[tuple] = []     # K.STAGE_ROW values, by stage id
        self._args = bytearray()         # their args structs, back to back
        self._nslots = 1  # slot 0 is the plan input, bound per replay
        self._static: List[Tuple[int, np.ndarray]] = []
        self._static_ids: Dict[int, int] = {}
        self._tab_holder: List[Optional[np.ndarray]] = [None]
        self._scratch_bytes = 0
        self.offered = 0
        self.declined = 0

    # -- slot management -------------------------------------------------
    def _slot(self) -> int:
        slot = self._nslots
        self._nslots += 1
        return slot

    def _bind_static(self, arr: np.ndarray) -> int:
        slot = self._static_ids.get(id(arr))
        if slot is None:
            slot = self._slot()
            self._static_ids[id(arr)] = slot
            self._static.append((slot, arr))
        return slot

    def _fixed_slot(self, arr: Optional[np.ndarray], dtype) -> Optional[int]:
        """Slot for a stable plan-owned buffer, or ``None``."""
        if arr is None:
            return None
        if arr.dtype != np.dtype(dtype) or not arr.flags.c_contiguous:
            return None
        return self._bind_static(arr)

    def _source_slot(self, src, dtype, offer: _Offer) -> Optional[int]:
        """Slot for a stage source (``plan.StaticPlan._src``), or ``None``
        when not renderable."""
        kind, val = src
        if kind == "input":
            return 0
        if kind == "fixed":
            return self._fixed_slot(val, dtype)
        if kind == "const":
            return self._param_slot(val, dtype, offer)
        return None

    def _param_slot(self, tensor, dtype, offer: _Offer) -> Optional[int]:
        """Slot of a live parameter (``0`` for an absent one), rebound per
        replay, or ``None`` when its dtype or layout is not ``dtype``'s."""
        if tensor is None:
            return 0
        want = np.dtype(dtype)
        if tensor.data.dtype != want or not tensor.data.flags.c_contiguous:
            return None
        slot = self._slot()
        holder = self._tab_holder

        def bind(d):
            if d.dtype != want or not d.flags.c_contiguous:
                raise RuntimeError(
                    "cgen plan parameter changed dtype/layout after "
                    "compilation; recompile the plan"
                )
            holder[0][slot] = d.ctypes.data

        offer.bind_on(bind, tensor, "data")
        return slot

    # -- threading helpers -----------------------------------------------
    def _mt(self, est_us: float) -> bool:
        """Tile this stage over the pool? When its kernel time repays it."""
        return self.threads > 1 and est_us >= _MT_MIN_US

    def _need_scratch(self, nbytes: int) -> None:
        self._scratch_bytes = max(self._scratch_bytes, int(nbytes))

    # -- plan hooks ------------------------------------------------------
    def offer_stage(self, kind: str, spec: dict, fallback):
        self.offered += 1
        if kind in _SWEEP_KINDS:
            builder = partial(self._try_sweep, kind)
        else:
            builder = getattr(self, f"_try_{kind}", None)
        if kind in _FRESH_ONLY and spec.get("accumulate"):
            builder = None
        offer = builder(spec, fallback) if builder is not None else None
        if offer is None:
            self.declined += 1
        return offer

    def _accept(self, offer: _Offer, kernel: str, slots, args: bytes,
                mt: bool = False, geo=None, tol_dtype=None) -> _Offer:
        """Row ``offer.sid`` of the stage table: ``kernel`` over ``slots``
        (out first) with its packed ``args``."""
        offer.sid = len(self._offers)
        offer.mt = bool(mt)
        offer.geo = geo
        offer.tol_dtype = tol_dtype
        slots = tuple(slots)
        self._rows.append((
            KERNEL_ID[kernel], int(offer.mt), len(self._args),
            slots + (0,) * (K.ROW_SLOTS - len(slots)),
        ))
        self._args += args
        self._offers.append(offer)
        return offer

    # -- stage builders --------------------------------------------------
    def _conv_units(self, ct: str, pad: _ConvPad, gemms: List[_ConvDims],
                    forward=None):
        """``(units to hand out, estimated kernel us)`` of one conv stage:
        the ``gemms`` over one ``pad`` copy through the panel driver — or,
        where the library's ``conv_small`` holds, ``gemms[0]`` with ``k``
        on the lanes (forward) or the scatter form over ``forward``, the
        ``(pad, dims)`` of the conv whose input gradient this is.  The
        rule depends on the vector width the compiler found, so the
        per-thread scratch of whichever side can run at either width is
        reserved: the tap offsets, one padded sample and a widest NR of
        slack; the small forward's rows, result block and parked
        accumulators; the gradient's ``Z``."""
        itemsize = 8 if ct == "double" else 4
        nr_lo, nr = (
            _NV * nbytes // itemsize
            for nbytes in (_VEC_BYTES_MIN, _VEC_BYTES_MAX)
        )
        panels = fmas = taps = 0
        for g in gemms:
            kt = g.kn[0] * g.kn[1] * g.kn[2]
            panels += -(-((g.oh - 1) * pad.pw + g.ow) // nr)
            fmas += g.f * g.oh * g.ow * kt
            taps += kt
        cells = pad.c * pad.rh * pad.rw * pad.ph * pad.pw
        offsets = -(-2 * taps // 8) * 64
        spad, sdims = forward or (pad, gemms[0])
        grid = 2 * sdims.oh * sdims.ow
        positions = spad.n * sdims.oh * sdims.ow
        units = 0
        if grid > nr_lo:  # the panel driver, at some vector width
            self._need_scratch(offsets + (cells + nr) * itemsize)
            units = pad.n * panels
        if grid <= nr and forward is None:
            units = -(-sdims.f // _SG_ROWS)
            parked = units * _SG_ROWS * -(-positions // _SG_NP_WIDE)
            self._need_scratch(
                offsets + (cells + positions * (taps + _SG_ROWS)) * itemsize
                + parked * _SG_NP_WIDE * _VEC_BYTES_MAX
            )
        elif grid <= nr:
            units = spad.c
            kn = sdims.kn
            self._need_scratch(positions * kn[0] * kn[1] * kn[2] * itemsize)
        return units, pad.n * fmas / _GEMM_PER_US

    def _try_conv(self, spec, fallback):
        geo: ConvLowering = spec["geo"]
        ct = _CTYPE.get(geo.compute_dtype.name)
        xt = _CTYPE.get(geo.x_dtype.name)
        kernel = f"conv_{xt}_{ct}"
        if kernel not in KERNEL_ID:
            return None
        out3 = spec["out3"]
        so = self._fixed_slot(out3, geo.compute_dtype)
        if so is None:
            return None
        offer = _Offer(fallback, [out3])
        sx = self._source_slot(spec["x_src"], geo.x_dtype, offer)
        sw = self._param_slot(spec["weight"], geo.compute_dtype, offer)
        sb = self._param_slot(spec["bias"], geo.compute_dtype, offer)
        if None in (sx, sw, sb):
            return None
        slots, eps = [so, sx, sw, sb], 0.0
        bn_module = spec["bn_module"]
        if bn_module is not None:
            bn = self._bn_slots(bn_module, geo.n, geo.f_out, offer)
            if bn is None:
                return None
            slots += bn[0]
            eps = bn[1]
        pad, dims = _forward_dims(geo)
        rows = spec.get("rows")
        if rows is not None:  # a stem's: stored after the bias add
            offer.outs.append(rows)
            slots += [0] * (K.ROW_SLOTS - 1 - len(slots))
            slots.append(self._fixed_slot(rows, geo.compute_dtype))
        units, est_us = self._conv_units(ct, pad, [dims])
        args = _pack(
            K.CONV_ARGS, pad, pad, dims, 1, 0, int(sb != 0),
            int(bn_module is not None), int(bool(spec["relu"])),
            int(rows is not None), eps,
        ) + _pack(K.CONV_DIMS, *dims)
        return self._accept(
            offer, kernel, slots, args,
            mt=units >= 2 and self._mt(est_us), geo=geo,
        )

    def _bn_slots(self, module, n: int, c: int, offer: _Offer):
        """``(slots, eps)`` — the per-sample flag and row pitch, (scale,
        shift) and the running (mean, var, gamma, beta) — plus the
        per-replay binder for the live BN fold vectors."""
        try:
            eps = float(module.eps)
        except (TypeError, AttributeError):
            return None
        flag = np.zeros(2, dtype=np.int64)
        sflag = self._bind_static(flag)
        slots = [self._slot() for _ in range(6)]  # scale shift mean var g b
        holder = self._tab_holder
        keeps = [[], []]  # what the pair and the running vectors bound

        def bind(training, ps, mean, var, gamma, beta):
            tab = holder[0]
            if training:
                raise RuntimeError(
                    "compiled plan replayed with a BatchNorm layer in "
                    "training mode; an inference plan replays eval-mode BN "
                    "only (adaptation steps go through CompiledAdaptStep)"
                )
            if ps is not None:
                scale, shift = ps
                if scale.shape != (n, c):
                    raise ValueError(
                        f"per_sample_stats shaped {scale.shape}, "
                        f"expected ({n}, {c})"
                    )
                copied = _bindv(tab, slots[:2], ps, keeps[0])
                flag[:] = 1, keeps[0][0].strides[0] // 8
                return copied
            flag[0] = 0
            return _bindv(tab, slots[2:], (mean, var, gamma, beta), keeps[1])

        offer.bind_on(
            bind, module, "training", "per_sample_stats", "running_mean",
            "running_var", "weight.data", "bias.data",
        )
        return [sflag] + slots, eps

    def _try_linear(self, spec, fallback):
        dtype = np.dtype(spec["out_dtype"])
        ct = _CTYPE.get(dtype.name)
        x_shape = spec["x_shape"]
        if (ct is None or x_shape is None or len(x_shape) != 2
                or np.dtype(spec["x_dtype"]) != dtype):
            return None
        out2 = spec["out2"]
        so = self._fixed_slot(out2, dtype)
        if so is None:
            return None
        offer = _Offer(fallback, [out2])
        sx = self._source_slot(spec["x_src"], dtype, offer)
        sw = self._param_slot(spec["weight"], dtype, offer)
        sb = self._param_slot(spec["bias"], dtype, offer)
        if None in (sx, sw, sb):
            return None
        n, fin = x_shape
        fout = out2.shape[1]
        return self._accept(
            offer, f"linear_{ct}", (so, sx, sw, sb),
            _pack(K.LINEAR_ARGS, n, fin, fout, int(sb != 0),
                  int(bool(spec["relu"]))),
            mt=self._mt(n * fout * fin / _SWEEP_PER_US),
        )

    def _try_maxpool(self, spec, fallback):
        """Values and, for an adaptation plan, the saved argmax."""
        geo: PoolLowering = spec["geo"]
        dtype = np.dtype(spec["out_dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None or geo.x_dtype != dtype:
            return None
        out2, arg = spec["out2"], spec.get("arg")
        so = self._fixed_slot(out2, dtype)
        sa = 0 if arg is None else self._fixed_slot(arg, np.intp)
        if so is None or sa is None:
            return None
        offer = _Offer(fallback, [out2] if arg is None else [out2, arg])
        sx = self._source_slot(spec["x_src"], dtype, offer)
        if sx is None:
            return None
        cells = geo.n * geo.c * geo.p_total * geo.kernel[0] * geo.kernel[1]
        return self._accept(
            offer, f"maxpool_{ct}", (so, sx, sa),
            _pool_args(geo, arg is not None),
            mt=self._mt(cells / _SWEEP_PER_US), geo=geo,
        )

    def _reads(self, sources, dtype, offer, size=None):
        """Slots of stage inputs (plan buffers or stage sources) — each
        of ``size`` elements when one is given — or ``None`` when any
        cannot be bound."""
        slots = []
        for src in sources:
            if isinstance(src, np.ndarray):
                src = ("fixed", src)
            slot = self._source_slot(src, dtype, offer)
            if slot is None:
                return None
            if size is not None and src[0] != "input" and size != (
                src[1] if src[0] == "fixed" else src[1].data
            ).size:
                return None
            slots.append(slot)
        return slots

    def _try_sweep(self, kind, spec, fallback):
        """One of :data:`_SWEEP_KINDS`.  A flat stage's operands must all
        have the output's size; a line stage brings its block's dims."""
        kernel, out_key, keys, flag = _SWEEP_KINDS[kind]
        if "a_src" in keys and not (
            spec["a_shape"] == spec["b_shape"] == spec["out_shape"]
        ):
            return None
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        out = spec[out_key]
        so = None if ct is None else self._fixed_slot(out, dtype)
        if so is None:
            return None
        offer = _Offer(fallback, [out])
        flat = "dims" not in spec
        dims = (int(out.size), 1, 1) if flat else spec["dims"]
        reads = self._reads([spec[key] for key in keys], dtype, offer,
                            dims[0] if flat else None)
        if reads is None:
            return None
        if spec.get("finite") is not None:  # the loss tail's flags
            offer.outs.append(spec["finite"])
            reads.append(self._fixed_slot(spec["finite"], np.int64))
        return self._accept(
            offer, f"{kernel}_{ct}", [so] + reads,
            _pack(K.SWEEP_ARGS, *dims, int(bool(flag and spec[flag])),
                  float(spec.get("value", 0.0))),
            mt=self._mt(dims[0] * dims[1] * dims[2] / _SWEEP_PER_US),
        )

    # backward stages (adaptation plans): the pruned LD-BN-ADAPT chain --
    def _try_linear_bwd(self, spec, fallback):
        """Grad wrt a linear layer's input: ``dst = g @ W``."""
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        dst = spec["dst"]
        n, fout = spec["g_shape"]
        fin = spec["fin"]
        sg = self._fixed_slot(spec["g"], dtype)
        so = self._fixed_slot(dst, dtype)
        offer = _Offer(fallback, [dst])
        sw = self._param_slot(spec["weight"], dtype, offer)
        if None in (sg, so, sw):
            return None
        return self._accept(
            offer, f"linear_bwd_{ct}", (so, sg, sw),
            _pack(K.LINEAR_ARGS, n, fin, fout, 0, 0),
            mt=self._mt(n * fout * fin / _SWEEP_PER_US),
        )

    def _try_conv_dgrad(self, spec, fallback):
        """Grad wrt a conv's input, in gather form.  With the weights
        frozen, ``dX[c,y,x] = sum_{f,a,b} W[f,c,a,b] * dY[f,(y+p-a)/s,
        (x+p-b)/s]`` is a stride-1 forward conv of ``dY`` with the weight
        read transposed and flipped, so it runs on the forward's kernels:
        one GEMM per output phase (:func:`_phase_axis`; stride 1 is the
        one-phase case with every tap, a strided 1x1 one tap in one
        phase), each over its own taps of the one padded ``dY`` they
        share (:func:`_shared_pad`) and storing to its strided view of
        ``dX``.  Phases own disjoint pixels, so an accumulating
        contribution is ``dst + acc`` at store time and a phase no tap
        reaches stores zeros (or, accumulating, is skipped).  The weight
        is walked live in ``weight.data`` — for one ``f``, the tile's
        rows ``c..`` and all taps are one contiguous run — so an in-place
        ``load_state_dict`` is seen like any other parameter update.
        """
        geo: ConvLowering = spec["geo"]
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        dst = spec["dst"]
        sg = self._fixed_slot(spec["g"], dtype)
        so = self._fixed_slot(dst, dtype)
        offer = _Offer(fallback, [dst])
        sw = self._param_slot(spec["weight"], dtype, offer)
        if None in (sg, so, sw):
            return None
        acc = int(spec["accumulate"])
        (kh, kw), (sh, sw_) = geo.kernel, geo.stride
        rows = _phase_axis(geo.h, kh, sh, geo.padding[0])
        cols = _phase_axis(geo.w, kw, sw_, geo.padding[1])
        (pt, ph), (pl, pw) = _shared_pad(rows), _shared_pad(cols)
        gemms = [
            _ConvDims(
                geo.c, hp, wp, kn=(geo.f_out, ka, kb),
                ks=(geo.c * kh * kw, -sh * kw, -sw_),
                a0=a_last * kw + b_last if ka * kb else 0, as_f=kh * kw,
                da=pt - pad_h, db=pl - pad_w, o0=ry * geo.w + rx,
                ldo=geo.h * geo.w, oy=sh * geo.w, ox=sw_, acc=acc,
            )
            for (ry, hp, ka, a_last, pad_h), (rx, wp, kb, b_last, pad_w)
            in product(rows, cols)
            if ka * kb or not acc
        ]
        pad = _ConvPad(geo.n, geo.f_out, geo.out_h, geo.out_w, 1, 1, 1, 1,
                       pt, pl, ph, pw)
        forward = _forward_dims(geo, acc)
        units, est_us = self._conv_units(ct, pad, gemms, forward)
        args = _pack(K.CONV_ARGS, pad, *forward, len(gemms), 1, 0, 0, 0, 0,
                     0.0)
        args += np.array(gemms, dtype=K.CONV_DIMS).tobytes()
        return self._accept(
            offer, f"conv_{ct}_{ct}", (so, sg, sw), args,
            mt=units >= 2 and self._mt(est_us),
        )

    def _bn_stage(self, offer, spec, kernel, slots, rows, sink, scalar,
                  passes):
        """Row of a ``bn_train`` / ``bn_bwd`` stage: ``slots``, then
        ``rows``, its f64 ``(groups, c)`` tap views, bound at the one row
        pitch they share.  Threads own (group, channel) pairs; each pair's
        sums accumulate in f64 on the vector lanes — deterministic for any
        nt.  The band tolerance is keyed to the *data* dtype
        (``tol_dtype``): the f64 tap buffers hold data-dtype statistics
        whose pairwise-vs-lane difference lives at that scale."""
        (kind, (ld, unit)), *other = {(a.dtype, a.strides) for a in rows}
        if None in slots or other or kind != np.float64 or unit != 8 or ld % 8:
            return None
        slots += [self._bind_static(a) for a in rows]
        dtype = np.dtype(spec["dtype"])
        groups, gs, c, hw = spec["dims"]
        return self._accept(
            offer, f"{kernel}_{_CTYPE[dtype.name]}", slots,
            _pack(K.BN_ARGS, groups, gs, c, hw, ld // 8, int(sink),
                  float(scalar)),
            mt=self._mt(passes * groups * gs * c * hw / _SWEEP_PER_US),
            tol_dtype=dtype,
        )

    def _try_bn_bwd(self, spec, fallback):
        """The rendered LD-BN-ADAPT backward: per-(group, channel) BN
        gamma/beta grads plus (optionally) the reduced input-grad chain."""
        dtype = np.dtype(spec["dtype"])
        if dtype.name not in _CTYPE:
            return None
        gg, gb, dst = spec["grad_gamma"], spec["grad_beta"], spec.get("dst")
        offer = _Offer(fallback, [gg, gb] + ([] if dst is None else [dst]))
        slots = [
            0 if dst is None else self._fixed_slot(dst, dtype),
            self._fixed_slot(spec["g"], dtype),
            self._fixed_slot(spec["xhat"], dtype),
            self._fixed_slot(spec["inv_std"], dtype),
        ]
        return self._bn_stage(offer, spec, "bn_bwd", slots,
                              [spec["gamma"], gg, gb], dst is not None,
                              spec["m"], 2)

    def _try_bn_train(self, spec, fallback):
        """Train-mode BN forward: per-(group, channel) batch statistics,
        ``inv_std``, ``xhat``, the affine output and the tap's
        ``batch_mean``/``batch_var`` in one stage.  Mean and sum of
        squared deviations are two lane passes, rounded to the data dtype
        before ``1/sqrt(var+eps)`` so everything downstream repeats the
        numpy op sequence; the oracle's pairwise sums differ in the last
        bits, within the band."""
        dtype = np.dtype(spec["dtype"])
        if dtype.name not in _CTYPE:
            return None
        out, xh, inv = spec["out"], spec["xhat"], spec["inv_std"]
        bm, bv = spec["batch_mean"], spec["batch_var"]
        offer = _Offer(fallback, [out, xh, inv, bm, bv])
        slots = [
            self._fixed_slot(out, dtype),
            self._source_slot(spec["x_src"], dtype, offer),
            self._fixed_slot(xh, dtype),
            self._fixed_slot(inv, dtype),
        ]
        return self._bn_stage(offer, spec, "bn_train", slots,
                              [spec["gamma"], spec["beta"], bm, bv], False,
                              spec["eps"], 3)

    def _try_maxpool_bwd(self, spec, fallback):
        """Grad wrt a max-pool input (``k_maxpool_bwd_<ct>``), bitwise:
        it repeats the closure's col2im summation order."""
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        geo: PoolLowering = spec["geo"]
        dst = spec["dst"]
        slots = [
            self._fixed_slot(dst, dtype), self._fixed_slot(spec["g"], dtype),
            self._fixed_slot(spec["arg"], np.intp),
        ]
        if ct is None or None in slots:
            return None
        return self._accept(
            _Offer(fallback, [dst]), f"maxpool_bwd_{ct}", slots,
            _pool_args(geo, True), mt=self._mt(
                geo.n * geo.c * (geo.h * geo.w + geo.p_total) / _SWEEP_PER_US
            ),
        )

    # -- finalize --------------------------------------------------------
    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, args)``: slot indices and geometry, no address."""
        return (
            np.array(self._rows, dtype=K.STAGE_ROW),
            np.frombuffer(bytes(self._args), dtype=np.uint8),
        )

    def _match(self, got: np.ndarray, want: np.ndarray,
               tol_dtype=None) -> bool:
        if got.dtype.kind in "iu":
            return got.tobytes() == want.tobytes()
        name = np.dtype(tol_dtype).name if tol_dtype is not None \
            else got.dtype.name
        return bool(np.allclose(
            got, want,
            rtol=PARITY_RTOL.get(name, 1e-9),
            atol=PARITY_ATOL.get(name, 1e-12),
            equal_nan=True,
        ))

    def _load(self, info: Dict[str, object]):
        """The kernel library for this pool width and the compute types
        the accepted rows take — from the cache, else compiled into it —
        with this plan's scratch reserved; ``(lib, None)`` or ``(None, why
        not)``."""
        types = K.compute_types(K.KERNEL_NAMES[row[0]] for row in self._rows)
        lib, so, cache_hit, recovered, err = _load_lib(
            K.library_source(self.threads, types), self.backend.cache_dir,
            _cflags(), _plan_variant(self.threads), K.library_parts(types),
        )
        if lib is None:
            return None, err
        reserve = lib.repro_scratch_reserve
        reserve.argtypes = [ctypes.c_longlong]
        reserve.restype = ctypes.c_longlong
        if reserve(self._scratch_bytes) < self._scratch_bytes:
            return None, (
                f"could not reserve {self._scratch_bytes} bytes of "
                "per-thread kernel scratch"
            )
        info.update(so=so, cache_hit=cache_hit, cache_recovered=recovered)
        return lib, None

    def finalize(self, plan, graph) -> Dict[str, object]:
        sections: Tuple[list, ...] = plan.sections
        info: Dict[str, object] = {
            "backend": self.backend.name,
            "stages": sum(len(s) for s in sections),
            "offered": self.offered,
            "declined": self.declined,
            "rendered": 0,
            "demoted": 0,
            "fallback_reason": None,
            "so": None,            # the kernel library serving this plan
            "cache_hit": False,    # ... found in the cache, not compiled
            "cache_recovered": False,
            "program": None,
            "threads": self.threads,
            "mt_stages": 0,
            "workspace_freed": 0,
            # stage label -> how many such stages replay as Python
            # closures (never offered, declined or demoted alike)
            "numpy_stages": {},
        }
        numpy_stages: Dict[str, int] = info["numpy_stages"]

        def on_numpy(label: str) -> None:
            numpy_stages[label] = numpy_stages.get(label, 0) + 1

        def bail(reason: Optional[str]):
            for steps, staged in zip(sections, plan.stages):
                for pos, (label, step) in enumerate(staged):
                    if isinstance(step, _Offer):
                        steps[pos] = step.fallback
                    staged[pos] = (label, steps[pos])
                    on_numpy(label)
            info["fallback_reason"] = reason
            return info

        if not self._offers:
            return bail("no renderable stages")

        lib, err = self._load(info)
        if lib is None:
            warnings.warn(
                f"cgen backend falling back to numpy closures: {err}",
                RuntimeWarning, stacklevel=2,
            )
            return bail(err)

        run_fn = lib.repro_run
        run_fn.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_longlong]
        run_fn.restype = None
        start_fn = lib.repro_pool_start
        start_fn.restype = ctypes.c_longlong
        lib.repro_pool_stop.restype = None
        info["pool_width"] = int(start_fn())
        pool = PoolHandle(lib)

        # the program: rows and args are data, the table holds addresses
        rows, args = self._tables()
        key = os.path.basename(info["so"])[:-len(".so")]
        info["program"] = hashlib.sha256(
            key.encode() + rows.tobytes() + args.tobytes()
        ).hexdigest()[:24]
        tab = np.zeros(self._nslots, dtype=np.uintp)
        self._tab_holder[0] = tab
        # every row id in order: offers are accepted as they are emitted,
        # so a run of consecutive rendered stages is a run of ids
        ids = np.arange(len(self._offers), dtype=np.int64)
        keep: List[object] = [lib, tab, pool, rows, args]
        for slot, arr in self._static:
            tab[slot] = arr.ctypes.data
            keep.append(arr)
        keep.append(ids)
        tab_ptr, rows_ptr, args_ptr = (
            arr.ctypes.data for arr in (tab, rows, args)
        )

        def segment(first: int, n: int):
            """One ``repro_run`` call over the ``n`` rows from ``first``;
            it owns ``keep``, everything its addresses point into."""
            ids_ptr = ids.ctypes.data + first * ids.itemsize

            def seg(keep=keep):
                run_fn(tab_ptr, rows_ptr, args_ptr, ids_ptr, n)

            return seg

        # -- parity probe: replay the traced example, each rendered stage
        # (its one-row step) checked against its own oracle closure via
        # snapshot-rewind so every comparison sees bit-identical inputs.
        # The C stage runs through the same pool dispatch production
        # uses, so the probe validates the exact threaded execution (from
        # the input's cut).
        x_probe = np.ascontiguousarray(graph._keepalive[plan._input_vid].data)
        tab[0] = x_probe.ctypes.data
        plan._input_cell[0] = x_probe
        for steps in sections:
            for step in steps:
                if not isinstance(step, _Offer):
                    step()
                    continue
                step.row = segment(step.sid, 1)
                pre = [o.copy() for o in step.outs]
                step.fallback()
                oracle = [o.copy() for o in step.outs]
                for buf, snap in zip(step.outs, pre):
                    np.copyto(buf, snap, casting="no")
                try:
                    step.bind_now()
                    step.row()
                    step.demoted = not all(
                        self._match(buf, want, step.tol_dtype)
                        for buf, want in zip(step.outs, oracle)
                    )
                except Exception:
                    step.demoted = True
                # downstream stages (and the next probe) always see oracle
                # values, whether or not this stage survived
                for buf, want in zip(step.outs, oracle):
                    np.copyto(buf, want, casting="no")
        plan._input_cell[0] = None

        # -- rebuild the step lists: a run of surviving rendered stages is
        # served as one repro_run call (tabled row by row, ``cgen:``
        # labelled), demoted/declined stages keep their numpy closures
        binders: List[Callable[..., object]] = []
        watched: List[tuple] = []
        rendered = demoted = 0

        def in_c(pair) -> bool:
            return isinstance(pair[1], _Offer) and not pair[1].demoted

        for steps, staged in zip(sections, plan.stages):
            table: list = []
            steps.clear()
            for c_run, pairs in groupby(staged, key=in_c):
                pairs = list(pairs)
                if not c_run:
                    for label, step in pairs:
                        if isinstance(step, _Offer):
                            demoted += 1
                            step = step.fallback
                        on_numpy(label)
                        table.append((label, step))
                        steps.append(step)
                    continue
                for label, offer in pairs:
                    binders.extend(offer.binders)
                    watched.extend(offer.watched)
                    table.append(("cgen:" + label, offer.row))
                first = pairs[0][1]
                steps.append(first.row if len(pairs) == 1
                             else segment(first.sid, len(pairs)))
                rendered += len(pairs)
            staged[:] = table
        info.update(rendered=rendered, demoted=demoted, mt_stages=sum(
            1 for o in self._offers if o.mt and not o.demoted
        ))

        # -- fused-im2col workspace release: a surviving conv or max-pool
        # stage gathers inside the library, so its plan-side padded image
        # and column claim (and the oracle closure capturing them) are
        # dead weight
        freed = 0
        seen_geos = set()
        for offer in self._offers:
            if offer.demoted:
                continue
            offer.fallback = None
            geo = offer.geo
            if geo is None or id(geo) in seen_geos:
                continue
            seen_geos.add(id(geo))
            freed += geo.workspace_nbytes
            geo.release_workspace()
        if freed:
            plan.stats = _dc_replace(
                plan.stats,
                workspace_bytes=max(0, plan.stats.workspace_bytes - freed),
            )
        info["workspace_freed"] = freed

        if rendered:
            in_dtype = x_probe.dtype
            hold = [x_probe]
            sweep, places = _sweep(watched)
            bound = list(zip(binders, places))
            # what each binder last bound from
            seen = [_UNSEEN] * sum(map(len, places))

            def pre_replay(x: np.ndarray) -> np.ndarray:
                if x.dtype != in_dtype:
                    raise TypeError(
                        f"cgen plan compiled for input dtype {in_dtype}, "
                        f"got {x.dtype}"
                    )
                x = np.ascontiguousarray(x)
                tab[0] = x.ctypes.data
                hold[0] = x
                now = sweep()
                if not all(map(is_, now, seen)):
                    moved = {
                        at for at, was in enumerate(seen) if now[at] is not was
                    }
                    for bind, where in bound:
                        if not moved.isdisjoint(where) and bind(
                            *[now[at] for at in where]
                        ):
                            now[where[0]] = _UNSEEN  # bind it again
                    seen[:] = now
                return x

            plan._pre_replay = pre_replay
            keep.append(hold)
        plan._cgen_keep = keep
        return info


class CGenBackend(PlanBackend):
    """Plans as stage tables over threaded C kernels, per-stage numpy
    fallback, one disk-cached library.  ``threads`` fixes the worker-pool
    width; ``None`` resolves per compile via ``$REPRO_CGEN_THREADS`` →
    host CPUs."""

    name = "cgen"

    def __init__(self, threads: Optional[int] = None):
        if threads is not None and int(threads) < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads

    @property
    def cache_dir(self) -> str:
        # resolved per call so tests (and operators) can repoint
        # $REPRO_CGEN_CACHE without rebuilding backend instances
        return default_cache_dir()

    def _renderer(self, threads: Optional[int]) -> CRenderer:
        return CRenderer(self, threads=resolve_threads(
            threads if threads is not None else self.threads
        ))


register_backend("cgen", CGenBackend)

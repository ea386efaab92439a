"""The C codegen backend: render a compiled plan to one C translation unit.

The renderer rides along :class:`~repro.engine.plan.ExecutionPlan` /
:class:`~repro.engine.adapt_plan.AdaptationPlan` compilation: every fused
stage the numpy lowering produces is *offered* together with its closure,
and the renderer either emits an equivalent C stage function or declines
(unsupported op, dynamic-slot input, non-contiguous buffer, exotic
dtype).  For adaptation plans the whole step is offered: the forward —
train-mode BatchNorm and the entropy tail (log-softmax, sum, mean)
included — *and* the pruned LD-BN-ADAPT backward (BN gamma/beta grads,
the reduced chain, max-pool backward, the tail's rules, fresh and
accumulating contributions alike).  Conv input gradients run in *gather*
form on the forward's own kernels: with the weights frozen, ``dX`` is a
stride-1 forward conv of ``dY`` with the weight read transposed and
flipped, one per output phase of a strided layer, each over its own tap
subset — no column-gradient block, no col2im, no zero-dilated ``dY``
(ROADMAP item 3 has the sizing of both forms; the few-pixel grids of the
last stage are the exception, below).  So a band-parity
``small-r18`` step is two C calls, forward and backward — the backward
ending in the *update tail*, the running-statistics refresh and the
SGD-momentum step on gamma/beta over the taps the stages before it
filled, armed per replay with the arrays it writes
(:meth:`CRenderer._try_bn_update`);
``backend_info["numpy_stages"]`` counts, by stage label, what still
replays as a Python closure.  At finalize time the accepted stages
become one translation unit

* one ``static void s<id>(char** T, i64 tid, i64 nt)`` function per
  stage, reading its buffers from a pointer table at
  compile-time-constant slots;
* a single exported ``repro_run(char** T, const long long* ids, n)``
  driver, so a run of consecutive rendered stages costs one ``ctypes``
  call instead of one Python closure dispatch per stage;
* a persistent pthread worker pool (see
  :mod:`repro.engine.backends.threading`), spawned once per loaded
  ``.so`` and refcounted across the plans sharing it.  Heavy stages are
  tiled over the pool by *fixed output ownership* — thread ``t`` of
  ``nt`` owns units ``[total*t//nt, total*(t+1)//nt)`` and runs the same
  serial reduction order per element as the single-thread kernel, so no
  accumulator is shared, no atomics exist, and outputs are bitwise
  identical run-to-run and across thread counts.  Each dispatch is
  barrier-synced, so replay semantics and the runtime pointer table are
  unchanged.  A stage is tiled only when its estimated kernel time
  repays the dispatch round trip (``_MT_MIN_US``, set against the
  measured ``pool_dispatch_us`` micro-benchmark row); everything
  smaller runs inline on the dispatching thread.

Conv stages are call stubs into ``static`` helpers emitted once per
translation unit and dtype pair (the way ``bn_train_<ctype>`` is), taking
the layer's geometry as ``conv_pad`` / ``conv_dims`` constants.  A conv
is an *implicit* GEMM — no column matrix is ever materialised:

* ``pad_<xt>_<ct>`` — the one pass over the input: per sample a
  zero-padded copy (widened ``xt`` -> ``ct``) into the thread's
  ``POOL_SCR``, rendered from the scalar geometry ``(c, h, w, stride,
  padding)``.  A stride-``s`` conv de-interleaves it into the ``sh x sw``
  phase planes its taps read, so every tap then walks a plane at unit
  stride; a negative padding crops.  No index table exists anywhere in
  the unit — the max-pool walks its windows from the same kind of
  scalar geometry (:meth:`CRenderer._try_maxpool`); the plan-side im2col
  workspaces of surviving conv stages are released at finalize
  (``profile_summary()`` shows zero im2col workspace bytes for converted
  layers).
* ``gemm_<ct>`` — under band parity one register-blocked micro-kernel:
  ``CONV_MR`` filters x NR output positions of accumulators stay in named
  vector registers across the whole ``k`` loop (GCC vector extensions at
  the host's widest width; 4 x 3 vectors, 8 x 3 where AVX-512's 32
  registers hold them).  Output positions are walked flat at the padded
  pitch (``j = y*pw + x``), so the B operand of tap ``k`` for a whole
  panel is one unaligned vector run of the copy at ``boff[k] + j`` — no
  row logic, no column block; the ``pw - ow`` positions past each row's
  end are garbage lanes, computed and never stored.  The ``k`` walk is
  one flat loop over per-tap offsets for both operands (``aoff[k]`` into
  ``weight.data`` where it lives, ``boff[k]`` into the copy; ``conv_taps``
  derives them per call, at most ``kt`` entries per GEMM), in
  ``(channel, tap row, tap)`` order — forward for a conv, negative weight
  steps for a gradient phase.  The bias/BN/ReLU epilogue is applied
  op-for-op on the spilled tile at store time, through an output view
  (contiguous rows, or a phase's strided pixels; ``dst + acc`` for an
  accumulating gradient).  Edge filter blocks repeat the last filter, so
  there is no scalar remainder path: every output element is the same
  serial-``k`` FMA chain whatever tile or lane it falls in.  Strict plans
  never call it (convs are declined).
* ``conv_<xt>_<ct>`` — the driver: fixed ownership of (sample,
  NR-position panel) units per thread; per owned sample one pad, then
  the thread's share of every GEMM of the stage straight from the copy
  into the output view.  A ``conv_dgrad`` stage is one call whose GEMMs
  are the output phases of the layer: they share one padded ``dY`` and
  own disjoint ``dX`` pixels, so no barrier separates them.
* ``convk_<xt>_<ct>`` / ``convt_<ct>`` — the same two directions for a
  grid of at most half a panel (``conv_small``: one comparison in the
  stage's C, on its own dims — layer 4's 2x5, and 1x3), where pixels on
  the lanes would be mostly padding.  Both put the axis that is
  unit-stride in live ``weight.data`` on the lanes, so nothing is packed:
  the forward gathers one row of ``kt`` inputs per output position of the
  batch from the padded copy and reduces ``k`` on the lanes (vector loads
  of both operands, a fixed-order fold, then the same epilogue and output
  view); the input gradient is one scatter-form GEMM ``Z[p][(c, tap)] =
  sum_f W[f][(c, tap)] * dY[f][p]`` with the weight columns on the lanes
  and a col2im that owns stride, padding and out-of-image taps — no
  phases, no padded ``dY``.  Threads own filter blocks / channel ranges;
  every output is one summation chain whatever the pool width or the
  sample's place in a batch.

What is not a GEMM reduces on the same vector type: the train-mode BN
statistics and the gamma/beta gradients accumulate in f64 on four named
vector accumulators per sum (:func:`_lane_pass`) — ``-O2`` may not
reassociate a scalar ``sum += x[t]``, which retires one add per FP-add
latency — with a fixed lane assignment and fold order, so the one owner
thread per (group, channel) still writes the same bytes at every pool
width.

The unit is compiled with ``cc -shared -O2 -march=native -pthread`` (plus
``-ffp-contract=off`` under strict parity) and loaded through
:mod:`ctypes`.  Artifacts are cached on disk keyed by the source hash
*and* a plan-variant tag (thread count, parity — two configs rendering
different tilings can never collide; ``~/.cache/repro_cgen`` or
``$REPRO_CGEN_CACHE``) — a cached ``.so`` loads even when no compiler is
present, the cache is checked *before* the compiler lookup for exactly
that reason, and a corrupted cache entry is deleted and recompiled
instead of crashing the plan.

Nothing is baked that LD-BN-ADAPT mutates at runtime: the BN fold
vectors (running stats, gamma/beta) and the per-sample fleet ``(scale,
shift)`` override are passed as pointer-table entries rebound per replay
by tiny identity-cached binders, so adaptation updates and fleet
overrides need no retrace and no recompile.

Parity is enforced structurally, per stage: after compilation every
rendered stage is probed on the traced example against its own numpy
closure (snapshot the output buffers, run the oracle, rewind, run the C
stage — through the same pool dispatch production uses — compare) and
demoted back to the closure on mismatch.  ``cgen`` compares within a
tight tolerance band (:data:`PARITY_RTOL` / :data:`PARITY_ATOL`);
``cgen-strict`` compares bitwise (``tobytes``) and offers only
order-preserving stages: GEMMs (conv input gradients included), BN and
loss-tail reductions, ``exp`` and log-softmax are declined up front
(:data:`_ORDER_DEPENDENT`) and stay numpy.  A missing compiler
(or a failed compile) falls the whole plan back to the numpy closures
with a visible :class:`RuntimeWarning`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import warnings
import weakref
from collections import namedtuple
from dataclasses import replace as _dc_replace
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .base import PlanBackend, register_backend
from .core import ConvLowering, PoolLowering, _timed_step
from .threading import (
    CGenConfig,
    PoolHandle,
    pool_runtime_source,
    resolve_threads,
    scratch_prelude,
)

_ENV_CC = "REPRO_CC"
_ENV_CACHE = "REPRO_CGEN_CACHE"

# cc invocation.  Strict parity compiles with -ffp-contract=off so the
# f64 elementwise epilogues run the same IEEE op sequence as numpy's
# pass-per-op ufuncs (no FMA contraction) and can probe bitwise; band
# parity allows contraction — FMA both doubles GEMM throughput and
# *reduces* rounding error, and the tolerance probe still gates it.
_BASE_CFLAGS = ["-shared", "-fPIC", "-O2", "-march=native", "-pthread",
                "-fno-math-errno", "-fvect-cost-model=dynamic"]

# Inline/tiled threshold, in estimated single-thread kernel time.  A
# tiled stage pays one pool dispatch — condvar wake, barrier, join — and
# at two threads wins back at most half its kernel time.  The
# `pool_dispatch_us` row of benchmarks/results/micro_ops.json (empty
# stage, 2 threads, workers asleep as they are between real dispatches)
# reads 38-50 us p50 / 57-105 us p95 on the reference host (six runs):
# the scheduler wakes the worker on the second core; when it wakes it on
# its waker's core instead (~5 us) a real stage runs its two halves back
# to back.  What the round trip buys depends on whether that second core
# is free.  A 3x3 conv stage of n 16x40 samples, tiled (threshold
# overridden) against itself inline, 600 interleaved samples per size:
# with the host's neighbours quiet it ties at 114 us of inline time
# (1.00x p50 / 1.05x p95) and wins from 317 us up (1.24x / 1.04x; 460 us
# 1.27x / 1.34x; 644 us 1.39x / 1.25x; 1.05 ms 1.68x / 1.39x); with them
# busy it loses at every size up to 970 us (0.92-0.98x p50, 0.81-0.95x
# p95) and wins only at 1.5 ms (1.49x).  The line stays at about ten
# cross-core round trips; below it a stage runs inline on the
# dispatching thread.  The `*_mt` rows of micro_ops.json sit below it
# (`mt_stages` 0: 0.13 / 0.20 / 1.3 ms at both widths, ties by
# construction); of bench-e2e's plans only the stem at batch >= 2 is
# above it.
_MT_MIN_US = 500.0
# what that estimate assumes one thread sustains, in inner-loop
# iterations per us.  FMAs of the implicit conv GEMM, pad included, from
# the stages of a `small-r18` plan timed inside full replays (weights
# stream) and the `conv3x3_16_f32` / `conv7x7s2_3to16_f32` micro rows
# less their ~8 us of Python dispatch (64 -> 56 us for 1.47 M FMAs, 240
# -> 232 us for 6.02 M): 21 600-23 900 per us on the 640- and 2560-pixel
# shapes in a batch-1 plan, 24 900-27 000 at batch 4, 26 000 in the
# micro rows.  Layer 4's 10-pixel shapes, on the small-grid kernels, issue
# what they use and no longer sit below that: 17 500-22 000 forward (row
# gather and lane fold included), 24 600-27 800 as input gradients, with
# 1.2 MB of weights streaming from L3 in both.  One constant serves every
# conv stage.
_GEMM_PER_US = 22000.0
# And everything else — sweeps, reductions, the dot-product linear
# kernels — in the elements each builder counts (a BN forward three per
# element, its backward two, a max-pool one per window cell).  Stages of
# a `small-r18` adaptation plan inside full replays, re-measured with the
# BN reductions on vector lanes and the pool walked from its geometry:
# at batch 1, bn_train 1 900-2 300 per us (1 000 on the serial chain),
# bn_bwd 3 200-5 100, ReLU 1 600-3 600, add 3 400, linear 3 200, max-pool
# 1 300 forward / 1 000 backward; at batch 4, where the stem's sweeps
# leave L2 and are the only ones within 2x of the threshold, bn_train
# 1 500, bn_bwd 3 000, ReLU 1 000-1 700, max-pool 1 300, linear 3 800.
# One constant through the middle of the streaming ones: a stage is
# tiled from about a million counted elements.
_SWEEP_PER_US = 2000.0

# conv GEMM register tile: _MR filters x _NV vectors of pixels — 12
# accumulators + 3 panel vectors + 1 weight broadcast fill the 16 vector
# registers of AVX2.  AVX-512 hosts widen the vector (VEC_BYTES in the
# rendered source) and, with 32 registers, double the rows to _MR_WIDE
# (24 + 3, weights broadcast from memory): the same kernel text, its row
# list picked by the preprocessor when the TU is compiled (CONV_ROWS).
# NR = _NV * VEC_BYTES / itemsize is thus the compiler's to know, and
# the renderer sizes scratch for the widest.  That tile has output pixels
# on the lanes, which a grid of at most half a panel (`conv_small` in the
# rendered prelude: 2x5 and 1x3 at 64 bytes, 1x3 at 32, for f64) would
# fill mostly with padding.  Such a stage puts the axis its live weights
# are contiguous along on the lanes instead — the reduction `k` in a
# forward conv, the weight columns `(channel, tap)` in an input gradient —
# in a tile of _SG_ROWS rows (filters; vectors of columns) x SG_NP
# positions: 5 where 32 registers hold 20 accumulators, 3 under AVX2's 16.
# The choice is that one comparison, made in C on the stage's own dims.
_MR, _MR_WIDE, _NV = 4, 8, 3
_VEC_BYTES_MIN, _VEC_BYTES_MAX = 32, 64
_SG_ROWS, _SG_NP_WIDE, _SG_NP = 4, 5, 3


def _cflags(strict: bool) -> List[str]:
    return _BASE_CFLAGS + [
        "-ffp-contract=off" if strict else "-ffp-contract=fast"
    ]

# Default ("band") parity tolerances, keyed by dtype name.  f64 stages
# differ from the oracle only in GEMM summation order; f32 additionally
# accumulates in single precision.
PARITY_RTOL = {"float64": 1e-9, "float32": 3e-4}
PARITY_ATOL = {"float64": 1e-12, "float32": 1e-6}

_CTYPE = {"float64": "double", "float32": "float"}

# Stage kinds whose bytes depend on summation order or on a BLAS/libm
# implementation: a C loop can match the numpy oracle on the probe input
# and still differ on the next one, so strict parity declines them up
# front instead of trusting the probe (which stays the safety net for the
# order-preserving kinds: elementwise, copy/fill, relu_bwd, max-pool).
# The update tail is here because the probe cannot see it at all: the
# traced example replays unarmed.
_ORDER_DEPENDENT = frozenset((
    "conv", "linear", "conv_dgrad", "linear_bwd", "bn_train", "bn_bwd",
    "exp", "exp_bwd", "logsoftmax", "logsoftmax_bwd", "reduce", "bn_update",
))
# backward kinds rendered for a fresh gradient buffer only: offered an
# accumulating contribution (``existing + grad``) they decline
_FRESH_ONLY = frozenset(("linear_bwd", "bn_bwd", "maxpool_bwd"))


# Python mirrors of the C ``conv_pad`` / ``conv_dims`` structs below: field
# order is the initializer's, the C comments say what each field means;
# ``kn`` / ``ks`` are the three-level ``(channel, tap row, tap)`` walk
_ConvPad = namedtuple("_ConvPad", "n c h w sh sw rh rw pt pl ph pw")
_ConvDims = namedtuple(
    "_ConvDims", "f oh ow kn ks a0 as_f da db o0 ldo oy ox acc",
    defaults=(0, 0, 0, 0, 0, 0, 0, 1, 0),  # a0 .. acc; ox = 1
)


def _c_init(fields) -> str:
    """The C brace initializer of a (nested) tuple of ints."""
    return "{" + ", ".join(
        _c_init(v) if isinstance(v, tuple) else str(int(v)) for v in fields
    ) + "}"


def _rows(count: int, macro: str = "R") -> str:
    return " ".join(f"{macro}({r})" for r in range(count))


# the widest vector the host has, shared by the conv micro-kernel and the
# BN reductions; `v_<ct>` is that many bytes of <ct> lanes, loadable from
# any element boundary
_VEC_PRELUDE = f"""\
#if defined(__AVX512F__)
#define VEC_BYTES {_VEC_BYTES_MAX}
#else
#define VEC_BYTES {_VEC_BYTES_MIN}
#endif
"""


def _vec_type(ct: str, nbytes: str = "VEC_BYTES", name: str = "v") -> str:
    return (
        f"typedef {ct} {name}_{ct} __attribute__((vector_size({nbytes}), "
        f"aligned(sizeof({ct})), may_alias));\n"
    )


_CONV_PRELUDE = f"""\
#if VEC_BYTES == 64
#define CONV_MR {_MR_WIDE}
#define CONV_ROWS(R) {_rows(_MR_WIDE)}
#define SG_NP {_SG_NP_WIDE}
#define SG_COLS(Q) {_rows(_SG_NP_WIDE, "Q")}
#else
#define CONV_MR {_MR}
#define CONV_ROWS(R) {_rows(_MR)}
#define SG_NP {_SG_NP}
#define SG_COLS(Q) {_rows(_SG_NP, "Q")}
#endif
/* The padded copy a conv stage reads, made once per sample: per channel
 * and input phase (r, s) — rh x rw of them, the residues mod the stride
 * any tap lands on — one plane of ph rows at pitch pw whose cell (Y, X)
 * is input pixel (Y*sh + r - pt, X*sw + s - pl), zero outside the image
 * (a negative pt/pl crops).  Every tap of a stride-1 walk over the
 * output then reads a plane at unit stride. */
typedef struct {{
    i64 n, c, h, w, sh, sw, rh, rw, pt, pl, ph, pw;
}} conv_pad;
/* One GEMM over a padded copy: f weight rows x the oh x ow output grid,
 * walked flat at the copy's pitch (position j = y*pw + x; the pw - ow
 * positions past a row's end are garbage lanes, computed and never
 * stored).  Weight row i starts at A[a0 + i*as_f]; its taps are kn[0]
 * channels x kn[1] tap rows x kn[2] taps, ks[l] weight elements apart,
 * tap (0, 0) reading cell (da, db) of the copy.  Pixel (y, x) of row i
 * of sample s is O[o0 + (s*f + i)*ldo + y*oy + x*ox], added to what is
 * there when acc. */
typedef struct {{
    i64 f, oh, ow, kn[3], ks[3], a0, as_f, da, db;
    i64 o0, ldo, oy, ox, acc;
}} conv_dims;
/* store-time epilogue: bias (compute dtype, may be 0), then mode 1 —
 * per-sample folded affine e0=scale e1=shift, rows of f per sample — or
 * mode 2 — running stats e0=mean e1=var e2=gamma e3=beta — then ReLU */
typedef struct {{
    const void* bias; i64 mode;
    const double *e0, *e1, *e2, *e3; double eps; i64 relu;
}} conv_epi;
static inline i64 conv_kt(const conv_dims* D)
{{
    return D->kn[0] * D->kn[1] * D->kn[2];
}}
/* The one rule that picks a stage's kernel, on the GEMM's pixel grid for
 * one sample (a forward conv's output grid, an input gradient's dY grid):
 * when it fills at most half an nr-position panel, pixels on the lanes
 * would issue mostly padding, so the stage puts the axis its weights are
 * contiguous along there instead (convk_* forward, convt_* gradient). */
static inline int conv_small(const conv_dims* D, i64 nr)
{{
    return 2 * D->oh * D->ow <= nr;
}}
/* nr-position panels of one GEMM: its flat walk ends at the last row's
 * last pixel */
static inline i64 conv_panels(const conv_dims* D, i64 pw, i64 nr)
{{
    return ((D->oh - 1) * pw + D->ow + nr - 1) / nr;
}}
/* The GEMM's k walk is one flat loop over per-tap offsets, k in
 * (channel, tap row, tap) order: aoff[k] into a weight row, boff[k] to
 * the cell output position 0 reads.  Derived here, per call, from the
 * dims — channel 0's taps from the geometry, every later channel's one
 * weight step and one set of planes on; at most kt entries per GEMM,
 * nothing per pixel, and no table in the plan or the source. */
static void conv_taps(const conv_pad* P, const conv_dims* D,
                      i64* restrict aoff, i64* restrict boff)
{{
    const i64 ps = P->ph * P->pw, kk = D->kn[1] * D->kn[2];
    for (i64 a = 0, k = 0; a < D->kn[1]; ++a)
    for (i64 b = 0; b < D->kn[2]; ++b, ++k) {{
        const i64 ya = a + D->da, xb = b + D->db;
        aoff[k] = a * D->ks[1] + b * D->ks[2];
        boff[k] = (ya % P->sh * P->rw + xb % P->sw) * ps
            + ya / P->sh * P->pw + xb / P->sw;
    }}
    for (i64 k = kk; k < kk * D->kn[0]; ++k) {{
        aoff[k] = aoff[k - kk] + D->ks[0];
        boff[k] = boff[k - kk] + P->rh * P->rw * ps;
    }}
}}
"""


def _epilogue_source(ct: str) -> str:
    """``NR_<ct>`` (pixels per register tile) and ``epilogue_<ct>``: the
    numpy closure's post-GEMM op sequence over one output row, op-for-op
    (bias add, ``_bn_epilogue``, ReLU)."""
    return f"""\
#define NR_{ct} ({_NV} * (i64)(VEC_BYTES / sizeof({ct})))
static inline void epilogue_{ct}({ct}* restrict t, i64 nv, i64 fi,
                                 const conv_epi* E)
{{
    if (E->bias) {{
        const {ct} b = ((const {ct}*)E->bias)[fi];
        for (i64 q = 0; q < nv; ++q) t[q] = t[q] + b;
    }}
    if (E->mode == 1) {{
        const double sc = E->e0[fi], sh = E->e1[fi];
        for (i64 q = 0; q < nv; ++q) {{
            {ct} v = ({ct})(t[q] * sc);
            t[q] = ({ct})(v + sh);
        }}
    }} else if (E->mode == 2) {{
        const double m = E->e0[fi], iv = 1.0 / sqrt(E->e1[fi] + E->eps);
        const double g = E->e2[fi], b = E->e3[fi];
        for (i64 q = 0; q < nv; ++q) {{
            {ct} v = ({ct})(t[q] - m);
            v = ({ct})(v * iv);
            v = ({ct})(v * g);
            t[q] = ({ct})(v + b);
        }}
    }}
    if (E->relu)
        for (i64 q = 0; q < nv; ++q) {{
            {ct} v = t[q];
            t[q] = v > 0 ? v : (v != v ? v : ({ct})0);
        }}
}}
"""


def _gemm_source(ct: str) -> str:
    """``gemm_<ct>``, band parity: the register-blocked implicit GEMM.

    ``acc[i, j] = sum_k A[i, aoff[k]] * xp[boff[k] + j]`` for the flat
    positions ``[j0, j1)`` of one ``conv_dims`` over a padded copy.  A
    tile of ``CONV_MR x NR`` accumulators stays in named vector registers
    across the whole ``k`` walk — per tap one unaligned panel load,
    straight from the copy, feeds ``CONV_MR`` broadcast-FMA rows — and is
    spilled once, to a stack tile the epilogue runs over before the valid
    lanes are stored through the output view row by row (``dst + acc``
    for an accumulating gradient).  Every output element is the same
    serial-``k`` FMA chain in its own vector lane whatever the panel or
    the lane is: the lanes past a row's end read the cells they fall on
    (the next row, or up to NR - 1 cells of slack after the copy) and are
    dropped, and edge filter blocks repeat the last filter rather than
    take a scalar remainder path — which is what keeps outputs bitwise
    identical across thread counts, tile shapes and the parent's
    explicit-im2col kernel.
    """
    vecs = range(_NV)
    zero = ", ".join(f"c##r##{v} = {{0}}" for v in vecs)
    loads = ", ".join(f"b{v} = *(const v_{ct}*)(bk + {v} * VL)" for v in vecs)
    fmas = " ".join(f"c##r##{v} += w * b{v};" for v in vecs)
    spill = " ".join(
        f"*(v_{ct}*)(tile[r] + {v} * VL) = c##r##{v};" for v in vecs
    )
    return f"""\
#define ROW_PTR(r) \\
    const {ct}* a##r = A + (f0 + r < f ? f0 + r : f - 1) * D->as_f;
#define ROW_ZERO(r) v_{ct} {zero};
#define ROW_FMA(r) {{ const {ct} w = a##r[ao]; {fmas} }}
#define ROW_SPILL(r) {spill}
static void gemm_{ct}(const {ct}* restrict A, const {ct}* restrict xp,
                      {ct}* restrict O, const conv_dims* D, i64 pw, i64 kt,
                      const i64* restrict aoff, const i64* restrict boff,
                      i64 j0, i64 j1, const conv_epi* E)
{{
    enum {{ VL = VEC_BYTES / sizeof({ct}), NR = NR_{ct} }};
    const i64 f = D->f, oh = D->oh, ow = D->ow, ox = D->ox;
    for (i64 j = j0; j < j1; j += NR) {{
        const i64 py = j / pw, px = j - py * pw;
        const {ct}* xj = xp + j;
        for (i64 f0 = 0; f0 < f; f0 += CONV_MR) {{
            CONV_ROWS(ROW_PTR)
            CONV_ROWS(ROW_ZERO)
            for (i64 k = 0; k < kt; ++k) {{
                const {ct}* bk = xj + boff[k];
                const i64 ao = aoff[k];
                const v_{ct} {loads};
                CONV_ROWS(ROW_FMA)
            }}
            {ct} tile[CONV_MR][NR];
            CONV_ROWS(ROW_SPILL)
            const i64 mr = f - f0 < CONV_MR ? f - f0 : CONV_MR;
            for (i64 r = 0; r < mr; ++r) {{
                epilogue_{ct}(tile[r], NR, f0 + r, E);
                {ct}* o = O + (f0 + r) * D->ldo;
                /* the panel's lanes row by row: the first ow cells of
                 * each pitch-pw row are pixels, the rest garbage */
                for (i64 q = 0, y = py, x = px; q < NR && y < oh;
                     q += pw - x, ++y, x = 0) {{
                    const i64 left = NR - q < ow - x ? NR - q : ow - x;
                    const {ct}* t = tile[r] + q;
                    {ct}* d = o + y * D->oy + x * ox;
                    if (ox == 1) {{
                        if (D->acc)
                            for (i64 i = 0; i < left; ++i) d[i] = d[i] + t[i];
                        else
                            for (i64 i = 0; i < left; ++i) d[i] = t[i];
                    }} else if (D->acc)
                        for (i64 i = 0; i < left; ++i)
                            d[i * ox] = d[i * ox] + t[i];
                    else
                        for (i64 i = 0; i < left; ++i) d[i * ox] = t[i];
                }}
            }}
        }}
    }}
}}
#undef ROW_PTR
#undef ROW_ZERO
#undef ROW_FMA
#undef ROW_SPILL
"""


def _conv_source(xt: str, ct: str) -> str:
    """``pad_<xt>_<ct>`` + the ``conv_<xt>_<ct>`` stage driver.

    The pad is the only pass over the input: one sample's planes (see
    ``conv_pad``) written row by row — zeroed edge, the valid run copied
    and widened ``xt`` -> ``ct`` from one input row (contiguous at stride
    1, a de-interleave at stride 2), zeroed edge.  The driver hands the
    stage's (sample, NR-position panel) units — every GEMM of the stage
    in turn, per sample — out over the pool by fixed ownership; a thread
    derives the tap offsets once, then pads each sample it owns a panel
    of into its ``POOL_SCR`` and runs its share of every GEMM straight
    from that copy into the output view.  The GEMMs of one stage (the
    phases of a strided layer's input gradient) share the copy and own
    disjoint output pixels, so no barrier separates them.
    """
    return f"""\
static void pad_{xt}_{ct}(const {xt}* restrict xs, {ct}* restrict xp,
                          const conv_pad* P)
{{
    const i64 w = P->w, sw = P->sw, pw = P->pw;
    for (i64 ch = 0; ch < P->c; ++ch)
    for (i64 r = 0; r < P->rh; ++r)
    for (i64 s = 0; s < P->rw; ++s) {{
        /* cells [xlo, xhi) of a row come from the image */
        const i64 span = w + P->pl - s;
        const i64 xlo = P->pl > s ? (P->pl - s + sw - 1) / sw : 0;
        i64 xhi = span > 0 ? (span + sw - 1) / sw : 0;
        if (xhi > pw) xhi = pw;
        for (i64 y = 0; y < P->ph; ++y, xp += pw) {{
            const i64 iy = y * P->sh + r - P->pt;
            const int in = iy >= 0 && iy < P->h && xlo < xhi;
            const i64 lo = in ? xlo : pw, hi = in ? xhi : pw;
            const i64 at = (ch * P->h + iy) * w + s - P->pl;
            for (i64 t = 0; t < lo; ++t) xp[t] = ({ct})0;
            /* strides 1 and 2 are spelled out so the compiler can
             * vectorize them (a plain copy, a de-interleave) */
            if (sw == 1)
                for (i64 t = lo; t < hi; ++t) xp[t] = ({ct})xs[at + t];
            else if (sw == 2)
                for (i64 t = lo; t < hi; ++t) xp[t] = ({ct})xs[at + t * 2];
            else
                for (i64 t = lo; t < hi; ++t) xp[t] = ({ct})xs[at + t * sw];
            for (i64 t = hi; t < pw; ++t) xp[t] = ({ct})0;
        }}
    }}
}}

static void conv_{xt}_{ct}(const {xt}* X, const {ct}* A, {ct}* O,
                           const conv_pad* P, const conv_dims* D, i64 nd,
                           const conv_epi* E, i64 tid, i64 nt)
{{
    enum {{ NR = NR_{ct} }};
    const i64 pw = P->pw;
    i64 per = 0, taps = 0;  /* one sample's panels, the stage's taps */
    for (i64 d = 0; d < nd; ++d) {{
        per += conv_panels(D + d, pw, NR);
        taps += conv_kt(D + d);
    }}
    const i64 units = P->n * per;
    const i64 ulo = (units * tid) / nt, uhi = (units * (tid + 1)) / nt;
    if (ulo >= uhi) return;
    /* POOL_SCR(tid): the tap offsets of every GEMM, then (64-aligned) the
     * padded copy and NR cells of slack for the last panel's garbage */
    i64* const off = (i64*)POOL_SCR(tid);
    {ct}* const xp = ({ct}*)(off + (2 * taps + 7) / 8 * 8);
    const i64 cells = P->c * P->rh * P->rw * P->ph * pw;
    for (i64 t = 0; t < NR; ++t) xp[cells + t] = ({ct})0;
    for (i64 d = 0, at = 0; d < nd; at += 2 * conv_kt(D + d), ++d)
        conv_taps(P, D + d, off + at, off + at + conv_kt(D + d));
    for (i64 n = ulo / per; n * per < uhi; ++n) {{
        const i64 first = ulo > n * per ? ulo - n * per : 0;
        const i64 last = uhi - n * per < per ? uhi - n * per : per;
        pad_{xt}_{ct}(X + n * P->c * P->h * P->w, xp, P);
        conv_epi En = *E;
        if (En.mode == 1) {{ En.e0 += n * D->f; En.e1 += n * D->f; }}
        for (i64 d = 0, base = 0, at = 0; d < nd; ++d) {{
            const conv_dims* G = D + d;
            const i64 kt = conv_kt(G), panels = conv_panels(G, pw, NR);
            const i64 lo = first > base ? first - base : 0;
            const i64 hi = last - base < panels ? last - base : panels;
            if (lo < hi)
                gemm_{ct}(A + G->a0, xp, O + G->o0 + n * G->f * G->ldo, G,
                          pw, kt, off + at, off + at + kt, lo * NR, hi * NR,
                          &En);
            base += panels;
            at += 2 * kt;
        }}
    }}
}}
"""


def _gemmk_source(ct: str) -> str:
    """``gemmk_<ct>``: the forward GEMM of a small grid, ``k`` on the lanes.

    ``out[i][p] = sum_k A[i][k] * rows[p][k]`` over the ``n * oh * ow``
    positions of a batch — each a row of ``kt`` inputs in the weight's own
    order, so both operands are unit-stride vector loads and nothing is
    broadcast.  A tile of ``_SG_ROWS`` filters x ``SG_NP`` positions keeps
    one vector of partial sums per output (lane ``l`` takes ``k = l mod
    VL``).  ``k`` is walked in chunks whose rows stay in L1 while every
    filter block passes over them — the rows are the operand reused
    ``f / _SG_ROWS`` times, the weights stream through once — with the
    tile's vectors parked in ``acc`` between chunks, which changes no
    sum.  After the last chunk each vector is folded in a fixed order and
    takes the last ``kt % VL`` taps as scalars; edge tiles repeat the
    last filter / position, so every output is the same chain wherever it
    falls in a tile or a batch.  A filter block's results then take
    ``epilogue_<ct>`` once per (filter, sample), as the panel kernel's
    do, and go through the output view.
    """
    rows = range(_SG_ROWS)
    ptrs = "\n        ".join(
        f"const {ct}* a{r} = A + (f0 + {r} < f ? f0 + {r} : f - 1) * D->as_f;"
        for r in rows
    )
    zero = ", ".join(f"c{r}##q = {{0}}" for r in rows)
    take = " ".join(f"c{r}##q = ac[{r} * SG_NP + q];" for r in rows)
    park = " ".join(f"ac[{r} * SG_NP + q] = c{r}##q;" for r in rows)
    loads = ", ".join(f"w{r} = *(const v_{ct}*)(a{r} + k)" for r in rows)
    fmas = " ".join(f"c{r}##q += w{r} * x;" for r in rows)
    half = _SG_ROWS // 2
    fetch_ptrs = " ".join(
        f"const {ct}* pf{r} = (p0 ? a{half + r} : a{r}) + ahead;"
        for r in range(half)
    )
    fetch = " ".join(f"__builtin_prefetch(pf{r} + k);" for r in range(half))
    return f"""\
static inline {ct} lanes_sum_{ct}(const v_{ct}* v)
{{
    enum {{ HL = VEC_BYTES / sizeof({ct}) / 2 }};
    {ct} l[HL];
    *(vh_{ct}*)l = *(const vh_{ct}*)v + *((const vh_{ct}*)v + 1);
    for (int w = HL / 2; w; w /= 2)
        for (int i = 0; i < w; ++i) l[i] += l[i + w];
    return l[0];
}}
#define KCOL_PTR(q) \\
    const {ct}* x##q = rows + (p0 + q < np ? p0 + q : np - 1) * kt;
#define KCOL_TAKE(q) v_{ct} {zero}; if (k0) {{ {take} }}
#define KCOL_FMA(q) {{ const v_{ct} x = *(const v_{ct}*)(x##q + k); {fmas} }}
#define KCOL_PARK(q) {park}
static void gemmk_{ct}(const {ct}* restrict A, const {ct}* restrict rows,
                       {ct}* restrict O, const conv_dims* D, i64 n, i64 kt,
                       i64 b0, i64 b1, {ct}* restrict res, const conv_epi* E)
{{
    /* L1_ROWS: what a chunk's rows may take of a 32-48 kB L1, beside a
     * block's weights and the accumulators passing through */
    enum {{ VL = VEC_BYTES / sizeof({ct}), FB = {_SG_ROWS},
           TILE = FB * SG_NP, L1_ROWS = 24 << 10 }};
    const i64 f = D->f, oh = D->oh, ow = D->ow, hw = oh * ow, np = n * hw;
    const i64 tiles = (np + SG_NP - 1) / SG_NP, kv = kt / VL * VL;
    i64 kc = L1_ROWS / (i64)sizeof({ct}) / np / VL * VL;
    if (kc < 4 * VL) kc = 4 * VL;
    /* after the results: one vector per output of the owned blocks */
    v_{ct}* const acc = (v_{ct}*)(res + FB * np);
    for (i64 k0 = 0; k0 < kv; k0 += kc) {{
        const i64 k1 = k0 + kc < kv ? k0 + kc : kv;
        v_{ct}* ac = acc;
        for (i64 f0 = b0 * FB; f0 < b1 * FB; f0 += FB) {{
            {ptrs}
            const i64 next = f0 + FB < b1 * FB
                ? FB * D->as_f : (b0 * FB - f0) * D->as_f + kc;
            for (i64 p0 = 0; p0 < np; p0 += SG_NP, ac += TILE) {{
                SG_COLS(KCOL_PTR)
                SG_COLS(KCOL_TAKE)
                /* the weights are the one operand that streams, and a
                 * block's first tile would take all its misses: tile 0
                 * fetches half of the next block's lines of this chunk
                 * (the first block's of the next chunk, after the last),
                 * tile 1 the other half */
                const i64 ahead = p0 < 2 * SG_NP ? next : 0;
                {fetch_ptrs}
                for (i64 k = k0; k < k1; k += VL) {{
                    {fetch}
                    const v_{ct} {loads};
                    SG_COLS(KCOL_FMA)
                }}
                SG_COLS(KCOL_PARK)
            }}
        }}
    }}
    const v_{ct}* ac = acc;
    for (i64 f0 = b0 * FB; f0 < b1 * FB; f0 += FB, ac += tiles * TILE) {{
        const i64 mr = f - f0 < FB ? f - f0 : FB;
        for (i64 r = 0; r < mr; ++r) {{
            const {ct}* a = A + (f0 + r) * D->as_f;
            {ct}* row = res + r * np;
            for (i64 p = 0; p < np; ++p) {{
                const {ct}* x = rows + p * kt;
                /* a row shorter than one vector parked nothing */
                {ct} v = !kv ? ({ct})0 : lanes_sum_{ct}(
                    ac + p / SG_NP * TILE + r * SG_NP + p % SG_NP);
                for (i64 k = kv; k < kt; ++k) v += a[k] * x[k];
                row[p] = v;
            }}
        }}
        for (i64 r = 0; r < mr; ++r)
        for (i64 s = 0; s < n; ++s) {{
            {ct}* row = res + r * np + s * hw;
            conv_epi En = *E;
            if (En.mode == 1) {{ En.e0 += s * f; En.e1 += s * f; }}
            epilogue_{ct}(row, hw, f0 + r, &En);
            {ct}* o = O + (s * f + f0 + r) * D->ldo;
            for (i64 y = 0; y < oh; ++y)
            for (i64 x = 0; x < ow; ++x) {{
                {ct}* d = o + y * D->oy + x * D->ox;
                *d = D->acc ? *d + row[y * ow + x] : row[y * ow + x];
            }}
        }}
    }}
}}
#undef KCOL_PTR
#undef KCOL_TAKE
#undef KCOL_FMA
#undef KCOL_PARK
"""


def _convk_source(xt: str, ct: str) -> str:
    """``convk_<xt>_<ct>``: the small-grid forward driver.  Threads own
    fixed blocks of ``_SG_ROWS`` filters; each pads every sample in turn
    (``pad_<xt>_<ct>``) and gathers one row per output position through
    the tap offsets, then runs its blocks over all of them — the samples
    of a batch are just more positions, so the weights are walked once."""
    return f"""\
static void convk_{xt}_{ct}(const {xt}* X, const {ct}* A, {ct}* O,
                            const conv_pad* P, const conv_dims* D,
                            const conv_epi* E, i64 tid, i64 nt)
{{
    const i64 kt = conv_kt(D), pw = P->pw, hw = D->oh * D->ow;
    const i64 blocks = (D->f + {_SG_ROWS} - 1) / {_SG_ROWS};
    const i64 b0 = (blocks * tid) / nt, b1 = (blocks * (tid + 1)) / nt;
    if (b0 >= b1) return;
    /* POOL_SCR(tid): the tap offsets, (64-aligned) one padded sample, a
     * row of kt inputs per position, one filter block's results, then
     * gemmk's parked accumulators */
    i64* const off = (i64*)POOL_SCR(tid);
    const i64* const boff = off + kt;
    {ct}* const xp = ({ct}*)(off + (2 * kt + 7) / 8 * 8);
    {ct}* const rows = xp + P->c * P->rh * P->rw * P->ph * pw;
    conv_taps(P, D, off, off + kt);
    for (i64 n = 0; n < P->n; ++n) {{
        pad_{xt}_{ct}(X + n * P->c * P->h * P->w, xp, P);
        for (i64 y = 0; y < D->oh; ++y)
        for (i64 x = 0; x < D->ow; ++x) {{
            {ct}* restrict row = rows + (n * hw + y * D->ow + x) * kt;
            const {ct}* at = xp + y * pw + x;
            for (i64 k = 0; k < kt; ++k) row[k] = at[boff[k]];
        }}
    }}
    gemmk_{ct}(A + D->a0, rows, O + D->o0, D, P->n, kt, b0, b1,
               rows + P->n * hw * kt, E);
}}
"""


def _convt_source(ct: str) -> str:
    """``convt_<ct>``: a small grid's input gradient in scatter form,
    described by the *forward* conv's ``(conv_pad, conv_dims)`` with ``X``
    its output gradient and ``O`` its input's.

    One GEMM, ``Z[p][j] = sum_i A[i][j] * dY[i][p]`` over the columns ``j
    = (channel, tap row, tap)`` of the live weight matrix — contiguous in
    every row ``i``, so they ride the lanes (``_SG_ROWS`` vectors x
    ``SG_NP`` positions of accumulators, ``dY`` broadcast; columns past
    the last whole tile take the same serial-``i`` chain as scalars).  A
    column panel of a row-major matrix is one short run per row, a page
    apart, so ``i`` is walked in chunks of ``IC`` rows — few enough that a
    panel's lines stay in L1 for every tile and its pages in the TLB, and
    along each row the panels follow one another — with ``Z`` itself the
    accumulator between chunks (the tile loads what the chunk before
    stored, which changes no sum).  Then a col2im adds each ``Z`` element
    to the one ``dX`` cell it belongs to, taps outside the image skipped,
    in (tap row, tap) order per cell.  Stride and padding live only
    there: no padded ``dY``, no phases.  Threads own fixed channel ranges
    — the ``Z`` columns a thread computes are the ones it scatters, into
    planes nobody else touches.
    """
    rows = range(_SG_ROWS)
    zero = ", ".join(f"c{r}##q = {{0}}" for r in rows)
    take = " ".join(
        f"c{r}##q = *(const v_{ct}*)(z##q + {r} * VL);" for r in rows
    )
    loads = ", ".join(
        f"w{r} = *(const v_{ct}*)(wi + {r} * VL)" for r in rows
    )
    fmas = " ".join(f"c{r}##q += w{r} * g;" for r in rows)
    spill = " ".join(f"*(v_{ct}*)(z##q + {r} * VL) = c{r}##q;" for r in rows)
    half = _SG_ROWS // 2
    fetch = " ".join(
        f"__builtin_prefetch(pf + {r} * VL);" for r in range(half)
    )
    return f"""\
#define TCOL_PTR(q) \\
    const i64 at##q = p0 + q < np ? p0 + q : np - 1; \\
    const {ct}* g##q = G + at##q / hw * f * hw + at##q % hw; \\
    {ct}* z##q = Z + at##q * nj + j0 - jlo;
#define TCOL_TAKE(q) v_{ct} {zero}; if (i0) {{ {take} }}
#define TCOL_FMA(q) {{ const {ct} g = g##q[i * hw]; {fmas} }}
#define TCOL_SPILL(q) if (p0 + q < np) {{ {spill} }}
static void convt_{ct}(const {ct}* restrict G, const {ct}* restrict A,
                       {ct}* restrict O, const conv_pad* P,
                       const conv_dims* D, i64 tid, i64 nt)
{{
    enum {{ VL = VEC_BYTES / sizeof({ct}), JB = {_SG_ROWS} * VL, IC = 32 }};
    const i64 f = D->f, oh = D->oh, ow = D->ow, hw = oh * ow, np = P->n * hw;
    const i64 kh = D->kn[1], kw = D->kn[2], kk = kh * kw;
    const i64 clo = (P->c * tid) / nt, chi = (P->c * (tid + 1)) / nt;
    if (clo >= chi) return;
    const i64 jlo = clo * kk, jhi = chi * kk, nj = jhi - jlo;
    const i64 jv = jlo + nj / JB * JB;  /* whole tiles end here */
    const {ct}* const W = A + D->a0;
    {ct}* const Z = ({ct}*)POOL_SCR(tid);  /* np rows of the nj columns */
    for (i64 i0 = 0; i0 < f; i0 += IC) {{
        const i64 i1 = i0 + IC < f ? i0 + IC : f;
        for (i64 j0 = jlo; j0 < jv; j0 += JB)
        for (i64 p0 = 0; p0 < np; p0 += SG_NP) {{
            SG_COLS(TCOL_PTR)
            SG_COLS(TCOL_TAKE)
            const {ct}* wi = W + i0 * D->as_f + j0;
            /* the next panel's lines of these rows, half per tile: a
             * panel's first tile would otherwise take every miss */
            const {ct}* pf = wi + JB + (p0 ? {half} * VL : 0);
            for (i64 i = i0; i < i1; ++i, wi += D->as_f, pf += D->as_f) {{
                {fetch}
                const v_{ct} {loads};
                SG_COLS(TCOL_FMA)
            }}
            SG_COLS(TCOL_SPILL)
        }}
    }}
    for (i64 j = jv; j < jhi; ++j)
        for (i64 p = 0; p < np; ++p) {{
            const {ct}* g = G + p / hw * f * hw + p % hw;
            {ct} z = 0;
            for (i64 i = 0; i < f; ++i) z += W[i * D->as_f + j] * g[i * hw];
            Z[p * nj + j - jlo] = z;
        }}
    const i64 h = P->h, w = P->w, sh = P->sh, sw = P->sw;
    if (!D->acc)
        for (i64 s = 0; s < P->n; ++s) {{
            {ct}* o = O + (s * P->c + clo) * h * w;
            for (i64 t = 0; t < (chi - clo) * h * w; ++t) o[t] = ({ct})0;
        }}
    for (i64 a = 0; a < kh; ++a) {{
        /* dY rows [ylo, yhi) put tap row a inside the image */
        const i64 below = h + P->pt - a;
        const i64 ylo = P->pt > a ? (P->pt - a + sh - 1) / sh : 0;
        i64 yhi = below > 0 ? (below + sh - 1) / sh : 0;
        if (yhi > oh) yhi = oh;
        for (i64 b = 0; b < kw; ++b) {{
            const i64 span = w + P->pl - b;
            const i64 xlo = P->pl > b ? (P->pl - b + sw - 1) / sw : 0;
            i64 xhi = span > 0 ? (span + sw - 1) / sw : 0;
            if (xhi > ow) xhi = ow;
            for (i64 s = 0; s < P->n; ++s)
            for (i64 ch = clo; ch < chi; ++ch) {{
                const {ct}* z = Z + s * hw * nj + ch * kk + a * kw + b - jlo;
                {ct}* restrict o = O + (s * P->c + ch) * h * w
                    + (a - P->pt) * w + b - P->pl;
                for (i64 y = ylo; y < yhi; ++y)
                for (i64 x = xlo; x < xhi; ++x)
                    o[y * sh * w + x * sw] += z[(y * ow + x) * nj];
            }}
        }}
    }}
}}
#undef TCOL_PTR
#undef TCOL_TAKE
#undef TCOL_FMA
#undef TCOL_SPILL
"""


def _lanes_source(ct: str) -> str:
    """``LANES_<ct>(p)``: the ``LV`` elements of ``ct`` at ``p`` (any
    element boundary) widened to the f64 lanes of one accumulator."""
    if ct == "double":
        return "#define LANES_double(p) (*(const v_double*)(p))\n"
    return (
        f"#define LANES_{ct}(p) "
        f"__builtin_convertvector(*(const vh_{ct}*)(p), v_double)\n"
    )


# BN statistics and gamma/beta gradients reduce on vector lanes: `-O2`
# without `-fassociative-math` may not reassociate `sum += x[t]`, so a
# scalar accumulator retires one add per FP-add latency.  Each sum gets
# four named f64 vector accumulators (LV lanes each) and a scalar for the
# last `hw % LV` elements of a plane; element `t` of a plane always lands
# in lane `t % LV` of accumulator `(t / LV) % 4`, and the fold order is
# fixed, so one owner thread per (group, channel) still gives the same
# bytes run to run and at every pool width.
_LANES_PRELUDE = """\
enum { LV = VEC_BYTES / sizeof(double) };
static inline double lanes_fold(v_double a0, v_double a1, v_double a2,
                                v_double a3, double tail)
{
    const v_double v = (a0 + a1) + (a2 + a3);
    double s = v[0];
    for (int i = 1; i < LV; ++i) s += v[i];
    return s + tail;
}
"""


def _lane_pass(planes: str, vec, tail: str) -> str:
    """One reduction pass over the ``gs`` planes (``hw`` elements, ``step``
    apart from ``first``) of a (group, channel) unit.  ``planes`` declares
    sample ``s``'s plane pointers; ``vec(q, o)`` is one LV-lane step at
    element offset ``o`` into accumulator ``q`` of each sum; ``tail``
    takes the remainder element ``t``, so nothing reads past the plane."""
    main = "\n                ".join(
        vec(q, f"t + {q} * LV" if q else "t") for q in range(4)
    )
    rest = "\n".join(
        f"            if (t + LV <= hw) {{ {vec(q, 't')} t += LV; }}"
        for q in range(3)
    )
    return f"""\
        for (i64 s = 0; s < gs; ++s) {{
            {planes}
            i64 t = 0;
            for (; t + 4 * LV <= hw; t += 4 * LV) {{
                {main}
            }}
{rest}
            for (; t < hw; ++t) {{ {tail} }}
        }}
"""


def _lane_sums(*names: str) -> str:
    """Declarations of the zeroed accumulators of :func:`_lane_pass`."""
    vecs = ", ".join(f"{n}{q} = {{0}}" for n in names for q in range(4))
    tails = ", ".join(f"{n}t = 0.0" for n in names)
    return f"        v_double {vecs};\n        double {tails};\n"


# the (group, channel) units a thread owns, and where unit u's planes are
_BN_UNITS = """\
    const i64 total = groups * c;
    const i64 ulo = (total * tid) / nt, uhi = (total * (tid + 1)) / nt;
    for (i64 u = ulo; u < uhi; ++u) {
        const i64 gr = u / c, ch = u % c;
        const i64 first = (gr * gs * c + ch) * hw, step = c * hw;
"""


def _bn_train_source(ct: str) -> str:
    """``bn_train_<ct>``: see :meth:`CRenderer._try_bn_train`."""
    sqrt = "sqrt" if ct == "double" else "sqrtf"
    planes = f"const {ct}* xs = X + first + s * step;"
    sum_pass = _lane_pass(
        planes, lambda q, o: f"a{q} += LANES_{ct}(xs + {o});",
        "at += (double)xs[t];",
    )
    sq_pass = _lane_pass(
        planes,
        lambda q, o: f"{{ const v_double d = LANES_{ct}(xs + {o}) - mu; "
                     f"q{q} += d * d; }}",
        "const double d = (double)xs[t] - mu; qt += d * d;",
    )
    return f"""\
static void bn_train_{ct}(
    const {ct}* restrict X, {ct}* restrict XH, {ct}* restrict O, {ct}* IS,
    const double* GA, const double* BE, double* BM, double* BV,
    i64 groups, i64 gs, i64 c, i64 hw, i64 per_group, double eps,
    i64 tid, i64 nt)
{{
    const double m = (double)(gs * hw);
{_BN_UNITS}{_lane_sums("a", "q")}{sum_pass}\
        const double mu = lanes_fold(a0, a1, a2, a3, at) / m;
{sq_pass}\
        const {ct} mean = ({ct})mu;
        const {ct} var = ({ct})(lanes_fold(q0, q1, q2, q3, qt) / m);
        const {ct} iv = ({ct})1 / {sqrt}(var + ({ct})eps);
        IS[u] = iv;
        BM[u] = (double)mean;
        BV[u] = (double)var;
        const double ga = GA[per_group ? u : ch];
        const double be = BE[per_group ? u : ch];
        for (i64 s = 0; s < gs; ++s) {{
            {planes}
            {ct}* xh = XH + first + s * step;
            {ct}* os = O + first + s * step;
            for (i64 t = 0; t < hw; ++t) {{
                {ct} h = xs[t] - mean;
                h = h * iv;
                xh[t] = h;
                {ct} v = ({ct})((double)h * ga);
                os[t] = ({ct})((double)v + be);
            }}
        }}
    }}
}}
"""


def _bn_bwd_source(ct: str) -> str:
    """``bn_bwd_<ct>``: see :meth:`CRenderer._try_bn_bwd`; ``O`` is null
    for the network's first BN (nothing upstream takes a gradient)."""
    planes = (f"const {ct}* gp = G + first + s * step; "
              f"const {ct}* xh = XH + first + s * step;")
    grad_pass = _lane_pass(
        planes,
        lambda q, o: f"{{ const v_double g = LANES_{ct}(gp + {o}); "
                     f"b{q} += g; w{q} += g * LANES_{ct}(xh + {o}); }}",
        "const double g = (double)gp[t]; bt += g; wt += g * (double)xh[t];",
    )
    return f"""\
static void bn_bwd_{ct}(
    const {ct}* restrict G, const {ct}* restrict XH, const {ct}* IS,
    const double* GA, double* GG, double* GB, {ct}* restrict O,
    i64 groups, i64 gs, i64 c, i64 hw, i64 per_group, double m,
    i64 tid, i64 nt)
{{
{_BN_UNITS}{_lane_sums("b", "w")}{grad_pass}\
        const double sg = lanes_fold(b0, b1, b2, b3, bt);
        const double sgx = lanes_fold(w0, w1, w2, w3, wt);
        GG[u] = sgx;
        GB[u] = sg;
        if (!O) continue;
        const double ga = GA[per_group ? u : ch];
        const double sdx = ga * sg, sdxx = ga * sgx;
        const double c0 = (double)IS[u] / m;
        for (i64 s = 0; s < gs; ++s) {{
            {planes}
            {ct}* os = O + first + s * step;
            for (i64 t = 0; t < hw; ++t)
                os[t] = ({ct})(c0 * (m * ((double)gp[t] * ga) - sdx
                                     - (double)xh[t] * sdxx));
        }}
    }}
}}
"""


# The update tail (see :meth:`CRenderer._try_bn_update`): per BN layer the
# slots of the tap's plan-owned (groups, c) buffers, and per (group, layer)
# the destination arrays bound for this replay.
_BN_UPDATE_SOURCE = """\
typedef struct { i64 mean, var, ggamma, gbeta, c; } bn_tap;
typedef struct {
    double *rmean, *rvar, *gamma, *beta, *mgamma, *mbeta; i64* count;
} bn_dest;
/* H: per group (lr, momentum, running-stat momentum).  Op for op
 * update_running_stat (momentum 1.0 is a plain copy) then sgd_update
 * without weight decay or Nesterov; disarms itself. */
static void bn_update(char** T, const bn_tap* taps, i64 ntaps, i64 groups,
                      const bn_dest* D, const double* H, i64* armed)
{
    if (!*armed) return;
    *armed = 0;
    for (i64 k = 0; k < groups; ++k)
    for (i64 j = 0; j < ntaps; ++j) {
        const double lr = H[3 * k], mom = H[3 * k + 1], sm = H[3 * k + 2];
        const bn_dest* d = D + k * ntaps + j;
        const i64 c = taps[j].c;
        const double* restrict bm = (const double*)T[taps[j].mean] + k * c;
        const double* restrict bv = (const double*)T[taps[j].var] + k * c;
        const double* restrict gg = (const double*)T[taps[j].ggamma] + k * c;
        const double* restrict gb = (const double*)T[taps[j].gbeta] + k * c;
        *d->count += 1;
        if (sm == 1.0)
            for (i64 i = 0; i < c; ++i) {
                d->rmean[i] = bm[i];
                d->rvar[i] = bv[i];
            }
        else
            for (i64 i = 0; i < c; ++i) {
                d->rmean[i] = d->rmean[i] * (1.0 - sm) + sm * bm[i];
                d->rvar[i] = d->rvar[i] * (1.0 - sm) + sm * bv[i];
            }
        if (mom != 0.0)
            for (i64 i = 0; i < c; ++i) {
                d->mgamma[i] = d->mgamma[i] * mom + gg[i];
                d->gamma[i] -= lr * d->mgamma[i];
                d->mbeta[i] = d->mbeta[i] * mom + gb[i];
                d->beta[i] -= lr * d->mbeta[i];
            }
        else
            for (i64 i = 0; i < c; ++i) {
                d->gamma[i] -= lr * gg[i];
                d->beta[i] -= lr * gb[i];
            }
    }
}
"""
_NO_STATE: Dict[str, object] = {}


def _bind_dests(target, taps, held: list, row: np.ndarray) -> bool:
    """Point ``row`` — one group's ``bn_dest`` structs — at ``target``'s
    arrays, identity-cached in ``held`` like every other binder (a
    rebound ``param.data`` or a momentum buffer replaced by ``reset()`` or
    a checkpoint restore is seen, an in-place write needs nothing).
    False when the C tail cannot step this state: a momentum buffer not
    there yet (the optimizer's first step), or anything but contiguous
    float64 vectors."""
    state = target.optimizer.state
    need_buffers = bool(target.optimizer.momentum)
    at = 0
    for tap in taps:
        module = tap.module
        mean, var, count, gamma, beta = target.bn_arrays(module)
        mgamma = mbeta = None
        if need_buffers:
            mgamma = state.get(id(module.weight), _NO_STATE).get("momentum")
            mbeta = state.get(id(module.bias), _NO_STATE).get("momentum")
            if mgamma is None or mbeta is None:
                return False
        c = module.num_features
        for arr in (mean, var, gamma, beta, mgamma, mbeta, count):
            if arr is not held[at]:
                if arr is None:
                    row[at] = 0
                elif (
                    arr.dtype != (np.int64 if arr is count else np.float64)
                    or arr.size != (1 if arr is count else c)
                    or not arr.flags.c_contiguous
                ):
                    return False
                else:
                    row[at] = arr.ctypes.data
                held[at] = arr
            at += 1
    return True


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


def find_cc() -> Optional[str]:
    """Locate the C compiler: ``$REPRO_CC`` if set (no fallback — a bad
    value means *no compiler*, which the fallback tests rely on), else
    the first of ``cc``/``gcc``/``clang`` on PATH."""
    env = os.environ.get(_ENV_CC)
    if env:
        return shutil.which(env)
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def default_cache_dir() -> str:
    return os.environ.get(_ENV_CACHE) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro_cgen"
    )


def _plan_variant(threads: int, strict: bool) -> str:
    """Cache-key variant tag: everything besides the literal source that
    selects a different rendering (tiling width, parity family).  The
    rendered source already differs per thread count — the tag makes the
    keying *structural* rather than an accident of codegen."""
    return f"v2:nt{threads}:{'strict' if strict else 'band'}"


def _ensure_so(source: str, cache_dir: str, flags: List[str],
               variant: str = ""):
    """Return ``(so_path, cache_hit, fail_reason)`` for ``source``.

    The key covers the source hash, the compile flags, and the plan
    ``variant`` tag (thread count / parity), so two configs that render
    different tilings can never collide on one artifact.  The cache
    lookup happens *before* the compiler lookup: a previously compiled
    plan keeps loading after the compiler disappears.
    """
    os.makedirs(cache_dir, exist_ok=True)
    key = hashlib.sha256(
        (source + "\0" + " ".join(flags) + "\0" + variant).encode()
    ).hexdigest()[:24]
    so = os.path.join(cache_dir, key + ".so")
    if os.path.exists(so):
        return so, True, None
    cc = find_cc()
    if cc is None:
        return None, False, (
            "no C compiler found (install cc/gcc/clang or set $REPRO_CC)"
        )
    csrc = os.path.join(cache_dir, key + ".c")
    with open(csrc, "w") as fh:
        fh.write(source)
    tmp = so + f".tmp.{os.getpid()}"
    proc = subprocess.run(
        [cc] + flags + [csrc, "-o", tmp, "-lm"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None, False, (
            f"C compilation failed: {proc.stderr.strip()[:400]}"
        )
    os.replace(tmp, so)  # atomic publish: concurrent compiles both win
    return so, False, None


def _load_lib(so: str, source: str, cache_dir: str, flags: List[str],
              variant: str):
    """``dlopen`` with corrupted-cache-entry recovery.

    A cached ``.so`` that fails to load (truncated write, disk fault,
    stale artifact from an incompatible toolchain) is deleted and
    recompiled once instead of crashing the plan.  Returns
    ``(lib, so_path, fail_reason, recovered)``.
    """
    try:
        return ctypes.CDLL(so), so, None, False
    except OSError as exc:
        first = str(exc)
    try:
        os.remove(so)
    except OSError:
        pass
    so2, _, err = _ensure_so(source, cache_dir, flags, variant)
    if so2 is None:
        return None, None, (
            f"corrupted cached .so ({first[:200]}); recompile failed: {err}"
        ), True
    try:
        return ctypes.CDLL(so2), so2, None, True
    except OSError as exc:
        return None, None, (
            f"recompiled .so failed to load: {exc}"
        ), True


def _bindv(tab: np.ndarray, slot: int, src: np.ndarray, cell: list) -> None:
    """Bind a float64 vector pointer, identity-cached.

    When the conversion was the identity (already f64 C-contiguous —
    always true in this repo) and the same array object is still
    installed, the pointer is already right and nothing happens; in-place
    mutations (LD-BN-ADAPT's gamma/beta updates) flow through the live
    pointer.  When a conversion copy was needed it is redone every replay
    so mutated sources stay fresh.
    """
    if src is cell[0] and cell[2]:
        return
    arr = np.ascontiguousarray(src, dtype=np.float64)
    tab[slot] = arr.ctypes.data
    cell[0] = src
    cell[1] = arr  # keep the converted copy alive while bound
    cell[2] = arr is src


class _Offer:
    """One accepted stage: its C function id, oracle closure, outputs."""

    __slots__ = ("sid", "fallback", "outs", "binders", "demoted", "mt",
                 "geo", "tol_dtype")

    def __init__(self, sid: int, fallback: Callable[[], None],
                 outs: List[np.ndarray]):
        self.sid = sid
        self.fallback = fallback
        self.outs = outs
        self.binders: List[Callable[[], None]] = []
        self.demoted = False
        self.mt = False          # dispatched across the worker pool
        self.geo = None          # ConvLowering whose im2col workspace
        #                          becomes releasable if this survives
        self.tol_dtype = None    # band-tolerance override (reductions
        #                          whose outs are wider than their data)


class CRenderer:
    """Stage renderer handed to one plan compilation (single use).

    Renders whatever step lists the plan exposes as ``plan.sections``, in
    replay order.  ``threads`` is the resolved worker-pool width baked
    into this plan's kernels.
    """

    def __init__(self, backend: "CGenBackend", threads: int = 1):
        self.backend = backend
        self.strict = backend.parity == "strict"
        self.threads = max(1, int(threads))
        self._offers: List[_Offer] = []
        self._funcs: List[str] = []
        # shared `static` kernels taking dims as arguments, one per
        # (stage kind, dtype): stages of that kind are thin call stubs,
        # so 20 BN layers cost the compiler one loop nest, not 20
        self._helpers: Dict[str, str] = {}
        self._nslots = 1  # slot 0 is the plan input, bound per replay
        self._static: List[Tuple[int, np.ndarray]] = []
        self._static_ids: Dict[int, int] = {}
        self._tab_holder: List[Optional[np.ndarray]] = [None]
        self._labels: Dict[Tuple[int, int], str] = {}  # (id(steps), pos)
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
        """Slot for a stage input, or ``None`` when not renderable."""
        if src is None:
            return None
        kind, val = src
        if kind == "input":
            return 0
        if kind == "fixed":
            if val.dtype != dtype or not val.flags.c_contiguous:
                return None
            return self._bind_static(val)
        if kind == "const":
            data = val.data
            if data.dtype != dtype or not data.flags.c_contiguous:
                return None
            slot = self._slot()
            offer.binders.append(self._const_binder(val, slot, dtype))
            return slot
        return None

    def _out_slot(self, arr: np.ndarray, dtype) -> Optional[int]:
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            return None
        return self._bind_static(arr)

    # -- threading helpers -----------------------------------------------
    def _mt(self, est_us: float) -> bool:
        """Dispatch this stage across the pool? Only with >1 threads and
        an estimated kernel time that repays the dispatch round trip."""
        return self.threads > 1 and est_us >= _MT_MIN_US

    def _need_scratch(self, nbytes: int) -> None:
        self._scratch_bytes = max(self._scratch_bytes, int(nbytes))

    @staticmethod
    def _tile(total: int, lo: str = "lo", hi: str = "hi") -> List[str]:
        """Fixed-ownership partition: ``[total*tid//nt, total*(tid+1)//nt)``
        — the deterministic-reduction rule's row assignment."""
        return [
            f"    const i64 {lo} = ({total}LL * tid) / nt;",
            f"    const i64 {hi} = ({total}LL * (tid + 1)) / nt;",
        ]

    # -- plan hooks ------------------------------------------------------
    def note_stage(self, steps: list, start: int, end: int,
                   label: str) -> None:
        for pos in range(start, end):
            self._labels[(id(steps), pos)] = label

    def offer_stage(self, kind: str, spec: dict, fallback):
        self.offered += 1
        builder = getattr(self, f"_try_{kind}", None)
        if (self.strict and kind in _ORDER_DEPENDENT) or (
            kind in _FRESH_ONLY and spec.get("accumulate")
        ):
            builder = None
        offer = builder(spec, fallback) if builder is not None else None
        if offer is None:
            self.declined += 1
        return offer

    def _accept(self, fallback, outs, body: str, binders=(),
                mt: bool = False, geo=None, tol_dtype=None) -> _Offer:
        sid = len(self._offers)
        offer = _Offer(sid, fallback, outs)
        offer.binders.extend(binders)
        offer.mt = bool(mt)
        offer.geo = geo
        offer.tol_dtype = tol_dtype
        self._funcs.append(
            f"static void s{sid}(char** T, i64 tid, i64 nt) {{\n"
            "    (void)T; (void)tid; (void)nt;\n"
            f"{body}}}\n"
        )
        self._offers.append(offer)
        return offer

    # -- stage builders --------------------------------------------------
    def _vec_helpers(self, ct: str) -> None:
        """Emit (once per TU) ``VEC_BYTES``, the ``v_<ct>`` vector and its
        half ``vh_<ct>``."""
        self._helpers.setdefault("vec", _VEC_PRELUDE)
        self._helpers.setdefault(
            f"v_{ct}",
            _vec_type(ct) + _vec_type(ct, "VEC_BYTES / 2", "vh"),
        )

    def _bn_helper(self, name: str, ct: str, source) -> str:
        """Emit (once per TU) the f64 lane accumulators over ``ct`` data
        and the BN kernel ``<name>_<ct>`` reducing on them; returns the
        kernel's name."""
        self._vec_helpers("double")
        self._vec_helpers(ct)
        self._helpers.setdefault("lanes", _LANES_PRELUDE)
        self._helpers.setdefault(f"lanes_{ct}", _lanes_source(ct))
        self._helpers.setdefault(f"{name}_{ct}", source(ct))
        return f"{name}_{ct}"

    def _conv_helpers(self, xt: str, ct: str) -> str:
        """Emit (once per TU) the conv kernels for input type ``xt`` and
        compute type ``ct`` — both forward drivers, panel and small-grid;
        returns the panel driver's name."""
        self._vec_helpers(ct)
        self._helpers.setdefault("conv_prelude", _CONV_PRELUDE)
        self._helpers.setdefault(
            f"gemm_{ct}",
            _epilogue_source(ct) + _gemm_source(ct) + _gemmk_source(ct),
        )
        name = f"conv_{xt}_{ct}"
        self._helpers.setdefault(
            name, _conv_source(xt, ct) + _convk_source(xt, ct)
        )
        return name

    def _conv_call(self, xt: str, ct: str, x: str, a: str, o: str,
                   pad: _ConvPad, gemms: List[_ConvDims], forward=None):
        """One conv stage (the C comments name the fields; the stage
        declares ``E``): every GEMM of ``gemms`` run over one ``pad`` copy
        of the input through the panel driver — or, where the C's
        ``conv_small`` holds, the stage's small-grid form: ``gemms[0]``
        itself with ``k`` on the lanes for a forward conv, the scatter
        form over ``forward`` — the ``(pad, dims)`` of the conv whose
        input gradient this is — otherwise.  The rule depends on the
        vector width the compiler finds; where both widths agree only
        that branch is written, so a stage above the rule is the text it
        always was and one below it carries no phases.  Reserves the
        per-thread scratch of what can run — the tap offsets, one padded
        sample and a widest NR of slack; the small forward's rows, result
        block and parked accumulators; the gradient's ``Z`` — and returns
        ``(C lines, units to hand out, estimated kernel us)``."""
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
        driver = self._conv_helpers(xt, ct)
        args = f"{x}, {a}, {o}"
        spad, sdims = forward or (pad, gemms[0])
        grid = 2 * sdims.oh * sdims.ow
        positions = spad.n * sdims.oh * sdims.ow
        decls, panel, small, units = [], None, None, 0
        if grid > nr_lo or forward is None:
            decls += [
                f"    static const conv_pad P = {_c_init(pad)};",
                f"    static const conv_dims D[] = {_c_init(tuple(gemms))};",
            ]
        if grid > nr_lo:  # the panel driver, at some vector width
            self._need_scratch(offsets + (cells + nr) * itemsize)
            panel = f"{driver}({args}, &P, D, {len(gemms)}, &E, tid, nt);"
            units = pad.n * panels
        if grid <= nr and forward is None:
            units = -(-sdims.f // _SG_ROWS)
            parked = units * _SG_ROWS * -(-positions // _SG_NP_WIDE)
            self._need_scratch(
                offsets + (cells + positions * (taps + _SG_ROWS)) * itemsize
                + parked * _SG_NP_WIDE * _VEC_BYTES_MAX
            )
            small = f"convk_{xt}_{ct}({args}, &P, D, &E, tid, nt);"
        elif grid <= nr:
            units = spad.c
            kn = sdims.kn
            self._need_scratch(positions * kn[0] * kn[1] * kn[2] * itemsize)
            self._helpers.setdefault(f"convt_{ct}", _convt_source(ct))
            decls += [
                f"    static const conv_pad PF = {_c_init(spad)};",
                f"    static const conv_dims DF = {_c_init(sdims)};",
            ]
            small = f"convt_{ct}({args}, &PF, &DF, tid, nt);"
        if panel and small:
            rule = "D" if forward is None else "&DF"
            call = [f"    if (conv_small({rule}, NR_{ct}))",
                    f"        {small}", "    else", f"        {panel}"]
        else:
            call = [f"    {panel or small}"]
        return decls + call, units, pad.n * fmas / _GEMM_PER_US

    def _try_conv(self, spec, fallback):
        geo: ConvLowering = spec["geo"]
        ct = _CTYPE.get(geo.compute_dtype.name)
        xt = _CTYPE.get(geo.x_dtype.name)
        if ct is None or xt is None:
            return None
        weight = spec["weight"]
        if (weight.data.dtype != geo.compute_dtype
                or not weight.data.flags.c_contiguous):
            return None
        bias = spec["bias"]
        if bias is not None and (
            bias.data.dtype != geo.compute_dtype
            or not bias.data.flags.c_contiguous
        ):
            return None
        out3 = spec["out3"]
        so = self._out_slot(out3, geo.compute_dtype)
        if so is None:
            return None

        offer = _Offer(-1, fallback, [out3])  # slots first; sid on accept
        sx = self._source_slot(spec["x_src"], geo.x_dtype, offer)
        if sx is None:
            return None
        sw = self._slot()
        offer.binders.append(self._const_binder(weight, sw, geo.compute_dtype))
        bias_ptr = "0"
        if bias is not None:
            sb = self._slot()
            offer.binders.append(
                self._const_binder(bias, sb, geo.compute_dtype)
            )
            bias_ptr = f"T[{sb}]"
        relu = int(bool(spec["relu"]))

        n, f = geo.n, geo.f_out
        bn_module = spec["bn_module"]
        if bn_module is not None:
            bn = self._bn_slots(bn_module, n, f, offer)
            if bn is None:
                return None
            sflag, s_sc, s_sh, s_m, s_v, s_g, s_b, eps = bn
            # the fleet's per-sample folded affine when installed, else
            # the live running statistics (see epilogue_<ct>)
            lines = [
                f"    const conv_epi E = *(const i64*)T[{sflag}]",
                f"        ? (conv_epi){{{bias_ptr}, 1, (const double*)T[{s_sc}]"
                f", (const double*)T[{s_sh}], 0, 0, 0.0, {relu}}}",
                f"        : (conv_epi){{{bias_ptr}, 2, (const double*)T[{s_m}]"
                f", (const double*)T[{s_v}],",
                f"            (const double*)T[{s_g}], "
                f"(const double*)T[{s_b}], {eps!r}, {relu}}};",
            ]
        else:
            lines = [
                f"    const conv_epi E = {{{bias_ptr}, 0, 0, 0, 0, 0, 0.0, "
                f"{relu}}};"
            ]
        pad, dims = _forward_dims(geo)
        call, units, est_us = self._conv_call(
            xt, ct, f"(const {xt}*)T[{sx}]", f"(const {ct}*)T[{sw}]",
            f"({ct}*)T[{so}]", pad, [dims],
        )
        return self._accept(
            fallback, [out3], "\n".join(lines + call) + "\n", offer.binders,
            mt=units >= 2 and self._mt(est_us), geo=geo,
        )

    def _const_binder(self, tensor, slot: int, dtype):
        holder = self._tab_holder
        cell = [None]
        want = np.dtype(dtype)

        def bind():
            d = tensor.data
            if d is cell[0]:
                return
            if d.dtype != want or not d.flags.c_contiguous:
                raise RuntimeError(
                    "cgen plan parameter changed dtype/layout after "
                    "compilation; recompile the plan"
                )
            holder[0][slot] = d.ctypes.data
            cell[0] = d

        return bind

    def _bn_slots(self, module, n: int, c: int, offer: _Offer):
        """Slots + per-replay binder for the live BN fold vectors."""
        try:
            eps = float(module.eps)
        except (TypeError, AttributeError):
            return None
        flag = np.zeros(1, dtype=np.int64)
        sflag = self._bind_static(flag)
        slots = [self._slot() for _ in range(6)]  # scale shift mean var g b
        s_sc, s_sh, s_m, s_v, s_g, s_b = slots
        holder = self._tab_holder
        cells = [[None, None, False] for _ in range(6)]

        def bind():
            tab = holder[0]
            if module.training:
                raise RuntimeError(
                    "compiled plan replayed with a BatchNorm layer in "
                    "training mode; adaptation steps must use the eager "
                    "path"
                )
            ps = module.per_sample_stats
            if ps is not None:
                scale, shift = ps
                if scale.shape != (n, c):
                    raise ValueError(
                        f"per_sample_stats shaped {scale.shape}, "
                        f"expected ({n}, {c})"
                    )
                _bindv(tab, s_sc, scale, cells[0])
                _bindv(tab, s_sh, shift, cells[1])
                flag[0] = 1
            else:
                _bindv(tab, s_m, module.running_mean, cells[2])
                _bindv(tab, s_v, module.running_var, cells[3])
                _bindv(tab, s_g, module.weight.data, cells[4])
                _bindv(tab, s_b, module.bias.data, cells[5])
                flag[0] = 0

        offer.binders.append(bind)
        return sflag, s_sc, s_sh, s_m, s_v, s_g, s_b, eps

    def _affine_slot(self, source, attr: str, offer: _Offer):
        """Slot of a train-mode BN's f64 gamma/beta vector, or ``None``.

        ``source`` is ``("slot", array)`` — a stable per-group
        ``(groups, c)`` array the fleet fills before each grouped replay —
        or ``("module", bn)`` — the live ``bn.<attr>`` parameter, rebound
        per replay so optimizer updates flow through without recompiling.
        """
        mode, value = source
        if mode == "slot":
            return self._fixed_slot(value, np.float64)
        slot = self._slot()
        holder = self._tab_holder
        cell = [None, None, False]

        def bind():
            _bindv(holder[0], slot, getattr(value, attr).data, cell)

        offer.binders.append(bind)
        return slot

    def _try_linear(self, spec, fallback):
        dtype = np.dtype(spec["out_dtype"])
        ct = _CTYPE.get(dtype.name)
        x_shape = spec["x_shape"]
        if ct is None or x_shape is None or len(x_shape) != 2:
            return None
        if np.dtype(spec["x_dtype"]) != dtype:
            return None
        weight = spec["weight"]
        if weight.data.dtype != dtype or not weight.data.flags.c_contiguous:
            return None
        bias = spec["bias"]
        if bias is not None and (
            bias.data.dtype != dtype or not bias.data.flags.c_contiguous
        ):
            return None
        out2 = spec["out2"]
        so = self._out_slot(out2, dtype)
        if so is None:
            return None
        offer = _Offer(-1, fallback, [out2])
        sx = self._source_slot(spec["x_src"], dtype, offer)
        if sx is None:
            return None
        sw = self._slot()
        offer.binders.append(self._const_binder(weight, sw, dtype))
        sb = None
        if bias is not None:
            sb = self._slot()
            offer.binders.append(self._const_binder(bias, sb, dtype))

        n, fin = x_shape
        fout = out2.shape[1]
        mt = self._mt(n * fout * fin / _SWEEP_PER_US)
        lines = [
            f"    const {ct}* restrict X = (const {ct}*)T[{sx}];",
            f"    const {ct}* restrict Wt = (const {ct}*)T[{sw}];",
            f"    {ct}* restrict O = ({ct}*)T[{so}];",
        ]
        if sb is not None:
            lines.append(f"    const {ct}* Bi = (const {ct}*)T[{sb}];")
        # threads own output-feature rows; each (n, o) dot runs its
        # serial i-order regardless of nt
        lines += self._tile(fout, "olo", "ohi")
        lines += [
            f"    for (i64 n = 0; n < {n}; ++n) {{",
            f"        const {ct}* xn = X + n * {fin}LL;",
            f"        {ct}* on = O + n * {fout}LL;",
            "        for (i64 o = olo; o < ohi; ++o) {",
            f"            const {ct}* wo = Wt + o * {fin}LL;",
        ]
        # eight accumulator chains, same shape as the small-P conv
        # dot kernel: independent streams SLP-vectorize without any
        # reassociation flags (a single acc is a serial FMA chain)
        accs = ", ".join(f"a{q} = ({ct})0" for q in range(8))
        muls = " ".join(
            f"a{q} += wo[i + {q}] * xn[i + {q}];" for q in range(8)
        )
        lines += [
            f"            {ct} {accs};",
            "            i64 i = 0;",
            f"            for (; i + 8 <= {fin}; i += 8) "
            f"{{ {muls} }}",
            f"            for (; i < {fin}; ++i) "
            "a0 += wo[i] * xn[i];",
            f"            {ct} v = ((a0 + a1) + (a2 + a3))"
            " + ((a4 + a5) + (a6 + a7));",
        ]
        if sb is not None:
            lines.append("            v = v + Bi[o];")
        if spec["relu"]:
            lines.append(
                f"            v = v > 0 ? v : (v != v ? v : ({ct})0);"
            )
        lines += [
            "            on[o] = v;",
            "        }",
            "    }",
        ]
        return self._accept(
            fallback, [out2], "\n".join(lines) + "\n", offer.binders, mt=mt
        )

    def _try_maxpool(self, spec, fallback):
        """Max-pool forward, walked from the layer's scalar geometry the
        way ``pad_<xt>_<ct>`` walks a conv's input: per output row, every
        tap ``(ky, kx)`` in order sweeps one input row at the pool's
        stride with a compare-and-select the compiler vectorises — no
        index table.  Each output keeps the *first* maximum of its window
        in ``(ky, kx)`` order (padding counts as ``-inf`` and never
        wins), and a NaN wins the compare once and stays, so values and
        the saved argmax (window offset ``ky * kw + kx``, what
        :meth:`_try_maxpool_bwd` decodes) are ``np.max`` / ``np.argmax``
        of the closure's column block, NaNs included.  Threads own
        (n, c) planes.
        """
        geo: PoolLowering = spec["geo"]
        dtype = np.dtype(spec["out_dtype"])
        xt = _CTYPE.get(dtype.name)
        if xt is None or geo.x_dtype != dtype:
            return None
        out2 = spec["out2"]
        so = self._out_slot(out2, dtype)
        if so is None:
            return None
        arg = spec.get("arg")
        outs = [out2]
        a_decl = a_init = a_take = ""
        if arg is not None:
            if arg.dtype != np.dtype(np.intp) or not arg.flags.c_contiguous:
                return None
            outs.append(arg)
            a_decl = (f"i64* restrict a = (i64*)T[{self._bind_static(arg)}]"
                      " + (q * OH + oy) * OW;")
            a_init = "a[ox] = 0;"
            a_take = "a[ox] = take ? ky * KW + kx : a[ox];"
        offer = _Offer(-1, fallback, outs)
        sx = self._source_slot(spec["x_src"], dtype, offer)
        if sx is None:
            return None
        nc = geo.n * geo.c
        tile = "\n".join(self._tile(nc, "qlo", "qhi"))
        body = f"""\
    enum {{ H = {geo.h}, W = {geo.w}, OH = {geo.out_h}, OW = {geo.out_w},
           KH = {geo.kernel[0]}, KW = {geo.kernel[1]}, SH = {geo.stride[0]},
           SW = {geo.stride[1]}, PT = {geo.padding[0]}, PL = {geo.padding[1]} }};
    const {xt}* X = (const {xt}*)T[{sx}];
    {xt}* O = ({xt}*)T[{so}];
{tile}
    for (i64 q = qlo; q < qhi; ++q)
    for (i64 oy = 0; oy < OH; ++oy) {{
        {xt}* restrict m = O + (q * OH + oy) * OW;
        {a_decl}
        for (i64 ox = 0; ox < OW; ++ox) {{ m[ox] = -INFINITY; {a_init} }}
        for (i64 ky = 0; ky < KH; ++ky) {{
            const i64 iy = oy * SH + ky - PT;
            if (iy < 0 || iy >= H) continue;
            const {xt}* restrict row = X + (q * H + iy) * W;
            for (i64 kx = 0; kx < KW; ++kx) {{
                /* outputs [lo, hi) find an image cell under tap kx */
                const i64 span = W + PL - kx;
                const i64 lo = PL > kx ? (PL - kx + SW - 1) / SW : 0;
                i64 hi = span > 0 ? (span + SW - 1) / SW : 0;
                if (hi > OW) hi = OW;
                for (i64 ox = lo; ox < hi; ++ox) {{
                    const {xt} xv = row[ox * SW + kx - PL], mv = m[ox];
                    const int take = (xv > mv) | ((xv != xv) & (mv == mv));
                    m[ox] = take ? xv : mv;
                    {a_take}
                }}
            }}
        }}
    }}
"""
        kk = geo.kernel[0] * geo.kernel[1]
        return self._accept(
            fallback, outs, body, offer.binders,
            mt=self._mt(nc * geo.p_total * kk / _SWEEP_PER_US),
        )

    def _reads(self, operands, dtype, ct, offer, size=None):
        """``const <ct>* NAME`` declarations binding ``(C name, plan
        buffer or stage source)`` inputs — each of ``size`` elements when
        one is given — or ``None`` when any cannot be bound."""
        lines = []
        for name, src in operands:
            if isinstance(src, np.ndarray):
                src = ("fixed", src)
            slot = self._source_slot(src, dtype, offer)
            if slot is None:
                return None
            if size is not None and src[0] != "input" and size != (
                src[1] if src[0] == "fixed" else src[1].data
            ).size:
                return None
            lines.append(f"    const {ct}* {name} = (const {ct}*)T[{slot}];")
        return lines

    # flat stages: same-size same-dtype buffers, one loop ----------------
    def _flat(self, fallback, out, dtype, operands, expr, accumulate=False):
        """``out[t] = expr`` over the ``operands`` (see :meth:`_reads`) the
        expression indexes by ``t`` (``{ct}`` in it is the C type); an
        accumulating gradient contribution stores ``out[t] + (expr)``,
        the ``existing + grad`` of the closure."""
        dtype = np.dtype(dtype)
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        so = self._out_slot(out, dtype)
        if so is None:
            return None
        size = int(out.size)
        offer = _Offer(-1, fallback, [out])
        lines = self._reads(operands, dtype, ct, offer, size)
        if lines is None:
            return None
        value = expr.format(ct=ct)
        if accumulate:
            value = f"O[t] + ({value})"
        lines += [f"    {ct}* O = ({ct}*)T[{so}];"] + self._tile(size) + [
            f"    for (i64 t = lo; t < hi; ++t) O[t] = {value};"
        ]
        return self._accept(
            fallback, [out], "\n".join(lines) + "\n", offer.binders,
            mt=self._mt(size / _SWEEP_PER_US),
        )

    def _try_elementwise(self, spec, fallback, expr):
        if "x_src" in spec:
            operands = [("X", spec["x_src"])]
        elif spec["a_shape"] == spec["b_shape"] == spec["out_shape"]:
            operands = [("A", spec["a_src"]), ("B", spec["b_src"])]
        else:
            return None
        return self._flat(fallback, spec["out"], spec["dtype"], operands, expr)

    def _try_relu(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback,
            "X[t] > 0 ? X[t] : (X[t] != X[t] ? X[t] : ({ct})0)",
        )

    def _try_add(self, spec, fallback):
        return self._try_elementwise(spec, fallback, "A[t] + B[t]")

    def _try_mul(self, spec, fallback):
        return self._try_elementwise(spec, fallback, "A[t] * B[t]")

    def _try_neg(self, spec, fallback):
        return self._try_elementwise(spec, fallback, "-X[t]")

    def _try_exp(self, spec, fallback):
        libm = "exp" if np.dtype(spec["dtype"]) == np.float64 else "expf"
        return self._try_elementwise(spec, fallback, f"{libm}(X[t])")

    # backward stages (adaptation plans): the pruned LD-BN-ADAPT chain --
    def _flat_bwd(self, spec, fallback, expr, **operands):
        """A flat gradient rule ``dst = expr``; ``G="g"`` binds C name
        ``G`` to spec entry ``g``."""
        return self._flat(
            fallback, spec["dst"], spec["dtype"],
            [(name, spec[key]) for name, key in operands.items()],
            expr, spec["accumulate"],
        )

    def _try_fill(self, spec, fallback):
        """Seed a gradient buffer with a constant (the loss-mean grad)."""
        return self._flat_bwd(
            spec, fallback, f"({{ct}}){float(spec['value'])!r}"
        )

    def _try_copy(self, spec, fallback):
        """Pass a gradient through unchanged (add / reshape backward)."""
        return self._flat_bwd(spec, fallback, "G[t]", G="g")

    def _try_neg_bwd(self, spec, fallback):
        return self._flat_bwd(spec, fallback, "-G[t]", G="g")

    def _try_mul_bwd(self, spec, fallback):
        """``g`` times the other factor — also the ``exp`` rule, whose
        other factor is its own output."""
        return self._flat_bwd(spec, fallback, "G[t] * B[t]", G="g", B="other")

    # its own kind, so strict declines it together with the forward exp
    _try_exp_bwd = _try_mul_bwd

    def _try_relu_bwd(self, spec, fallback):
        """Gate the gradient by the forward output's sign.

        Mirrors numpy's multiply-by-bool bitwise: ``g * 1.0`` is exact
        and ``g * 0.0`` preserves NaNs and signed zeros, so this stage
        survives even the strict probe.
        """
        return self._flat_bwd(
            spec, fallback,
            "Y[t] > ({ct})0 ? G[t] * ({ct})1 : G[t] * ({ct})0", G="g", Y="y",
        )

    def _try_linear_bwd(self, spec, fallback):
        """Grad wrt a linear layer's input: ``dst = g @ W``.

        Threads own input-feature columns; per element the o-order is
        serial.  Band parity only — the oracle is a BLAS matmul.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        weight = spec["weight"]
        if weight.data.dtype != dtype or not weight.data.flags.c_contiguous:
            return None
        g, dst = spec["g"], spec["dst"]
        n, fout = spec["g_shape"]
        fin = spec["fin"]
        sg = self._fixed_slot(g, dtype)
        so = self._fixed_slot(dst, dtype)
        if sg is None or so is None:
            return None
        offer = _Offer(-1, fallback, [dst])
        sw = self._slot()
        offer.binders.append(self._const_binder(weight, sw, dtype))
        lines = [
            f"    const {ct}* restrict G = (const {ct}*)T[{sg}];",
            f"    const {ct}* restrict W = (const {ct}*)T[{sw}];",
            f"    {ct}* restrict O = ({ct}*)T[{so}];",
        ]
        lines += self._tile(fin, "jlo", "jhi")
        lines += [
            f"    for (i64 n = 0; n < {n}; ++n) {{",
            f"        const {ct}* gn = G + n * {fout}LL;",
            f"        {ct}* dn = O + n * {fin}LL;",
            f"        for (i64 j = jlo; j < jhi; ++j) dn[j] = ({ct})0;",
            f"        for (i64 o = 0; o < {fout}; ++o) {{",
            f"            {ct} a = gn[o];",
            f"            const {ct}* wo = W + o * {fin}LL;",
            "            for (i64 j = jlo; j < jhi; ++j) "
            "dn[j] += a * wo[j];",
            "        }",
            "    }",
        ]
        return self._accept(
            fallback, [dst], "\n".join(lines) + "\n", offer.binders,
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
        Band parity only: the oracle is a BLAS GEMM plus col2im.
        """
        geo: ConvLowering = spec["geo"]
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        weight = spec["weight"]
        if weight.data.dtype != dtype or not weight.data.flags.c_contiguous:
            return None
        g, dst = spec["g"], spec["dst"]
        sg = self._fixed_slot(g, dtype)
        so = self._fixed_slot(dst, dtype)
        if sg is None or so is None:
            return None
        offer = _Offer(-1, fallback, [dst])
        sw = self._slot()
        offer.binders.append(self._const_binder(weight, sw, dtype))
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
        call, units, est_us = self._conv_call(
            ct, ct, f"(const {ct}*)T[{sg}]", f"(const {ct}*)T[{sw}]",
            f"({ct}*)T[{so}]",
            _ConvPad(geo.n, geo.f_out, geo.out_h, geo.out_w, 1, 1, 1, 1,
                     pt, pl, ph, pw),
            gemms, forward=_forward_dims(geo, acc),
        )
        lines = ["    const conv_epi E = {0, 0, 0, 0, 0, 0, 0.0, 0};"] + call
        return self._accept(
            fallback, [dst], "\n".join(lines) + "\n", offer.binders,
            mt=units >= 2 and self._mt(est_us),
        )

    # line stages: the entropy tail's axis reductions ---------------------
    def _line_stage(self, spec, fallback, out, reads, body):
        """One serial pass per *line* — the ``len`` elements ``inner``
        apart along the reduced axis of an ``(outer, len, inner)`` block —
        lines tiled over the pool.  ``reads`` are the inputs (see
        :meth:`_reads`), ``body`` the C lines run with ``u`` the line and
        ``at`` its first element's offset in the full block."""
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        so = self._fixed_slot(out, dtype)
        if so is None:
            return None
        offer = _Offer(-1, fallback, [out])
        lines = self._reads(reads, dtype, ct, offer)
        if lines is None:
            return None
        outer, length, inner = spec["dims"]
        lines += [f"    {ct}* O = ({ct}*)T[{so}];"] + self._tile(
            outer * inner
        ) + [
            f"    enum {{ LEN = {length}, INNER = {inner} }};",
            "    for (i64 u = lo; u < hi; ++u) {",
            "        const i64 at = (u / INNER) * LEN * INNER + u % INNER;",
        ] + [
            "        " + line.format(ct=ct, f="" if ct == "double" else "f")
            for line in body
        ] + ["    }"]
        return self._accept(
            fallback, [out], "\n".join(lines) + "\n", offer.binders,
            mt=self._mt(outer * length * inner / _SWEEP_PER_US),
        )

    def _try_reduce(self, spec, fallback):
        """Sum (or mean) along the axis; serial where numpy sums pairwise."""
        mean = "/ ({ct})LEN" if spec["mean"] else ""
        return self._line_stage(spec, fallback, spec["out"], [
            ("X", spec["x_src"]),
        ], [
            "{ct} s = ({ct})0;",
            "for (i64 a = 0; a < LEN; ++a) s += X[at + a * INNER];",
            f"O[u] = s {mean};",
        ])

    def _try_broadcast(self, spec, fallback):
        """The sum's gradient: every element of a line gets the line's."""
        store = "O[at + a * INNER] + G[u]" if spec["accumulate"] else "G[u]"
        return self._line_stage(spec, fallback, spec["dst"], [
            ("G", spec["g"]),
        ], [
            f"for (i64 a = 0; a < LEN; ++a) O[at + a * INNER] = {store};",
        ])

    def _try_logsoftmax(self, spec, fallback):
        """``x - max - log(sum(exp(x - max)))`` along the axis."""
        return self._line_stage(spec, fallback, spec["out"], [
            ("X", spec["x_src"]),
        ], [
            "{ct} m = X[at], s = ({ct})0;",
            "for (i64 a = 1; a < LEN; ++a)",
            "    if (X[at + a * INNER] > m) m = X[at + a * INNER];",
            "for (i64 a = 0; a < LEN; ++a) {{",
            "    const {ct} v = X[at + a * INNER] - m;",
            "    O[at + a * INNER] = v;",
            "    s += exp{f}(v);",
            "}}",
            "s = log{f}(s);",
            "for (i64 a = 0; a < LEN; ++a) O[at + a * INNER] -= s;",
        ])

    def _try_logsoftmax_bwd(self, spec, fallback):
        """``g - softmax * sum(g)`` along the axis, from the saved output."""
        value = "G[at + a * INNER] - exp{f}(Y[at + a * INNER]) * s"
        if spec["accumulate"]:
            value = f"O[at + a * INNER] + ({value})"
        return self._line_stage(spec, fallback, spec["dst"], [
            ("G", spec["g"]), ("Y", spec["y"]),
        ], [
            "{ct} s = ({ct})0;",
            "for (i64 a = 0; a < LEN; ++a) s += G[at + a * INNER];",
            f"for (i64 a = 0; a < LEN; ++a) O[at + a * INNER] = {value};",
        ])

    def _try_bn_bwd(self, spec, fallback):
        """The rendered LD-BN-ADAPT backward: per-(group, channel) BN
        gamma/beta grads plus (optionally) the reduced input-grad chain.

        Threads own (group, channel) pairs; each pair's two sums
        accumulate in f64 on the vector lanes of :func:`_lane_pass` —
        deterministic for any nt.  The band tolerance is keyed to the
        *data* dtype (``tol_dtype``): the f64 tap buffers hold
        f32-sourced sums whose pairwise-vs-lane difference lives at f32
        scale.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        gg, gb = spec["grad_gamma"], spec["grad_beta"]
        dst = spec.get("dst")
        sg = self._fixed_slot(spec["g"], dtype)
        sxh = self._fixed_slot(spec["xhat"], dtype)
        siv = self._fixed_slot(spec["inv_std"], dtype)
        sgg = self._fixed_slot(gg, np.float64)
        sgb = self._fixed_slot(gb, np.float64)
        if None in (sg, sxh, siv, sgg, sgb):
            return None
        outs = [gg, gb]
        out_ptr = "0"
        if dst is not None:
            so = self._fixed_slot(dst, dtype)
            if so is None:
                return None
            outs.append(dst)
            out_ptr = f"({ct}*)T[{so}]"
        offer = _Offer(-1, fallback, outs)
        sga = self._affine_slot(spec["gamma"], "weight", offer)
        if sga is None:
            return None
        per_group = int(spec["gamma"][0] == "slot")
        groups, gs, c, hw = spec["dims"]
        name = self._bn_helper("bn_bwd", ct, _bn_bwd_source)
        body = (
            f"    {name}((const {ct}*)T[{sg}], (const {ct}*)T[{sxh}], "
            f"(const {ct}*)T[{siv}],\n"
            f"        (const double*)T[{sga}], (double*)T[{sgg}], "
            f"(double*)T[{sgb}], {out_ptr},\n"
            f"        {groups}, {gs}, {c}, {hw}, {per_group}, "
            f"{float(spec['m'])!r}, tid, nt);\n"
        )
        return self._accept(
            fallback, outs, body, offer.binders,
            mt=self._mt(2 * groups * gs * c * hw / _SWEEP_PER_US),
            tol_dtype=dtype,
        )

    def _try_bn_train(self, spec, fallback):
        """Train-mode BN forward: per-(group, channel) batch statistics,
        ``inv_std``, ``xhat``, the affine output and the tap's
        ``batch_mean``/``batch_var`` in one stage.

        Threads own (group, channel) pairs exactly as in
        :meth:`_try_bn_bwd`; each pair's mean and sum of squared
        deviations are two passes of f64 vector-lane accumulators
        (:func:`_lane_pass`; deterministic for any nt), rounded to the
        data dtype before ``1/sqrt(var+eps)`` so everything downstream
        repeats the numpy op sequence.  The oracle's pairwise sums differ
        in the last bits, hence band parity only (keyed to the data
        dtype — the f64 taps hold data-dtype statistics).
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        out, xh, inv = spec["out"], spec["xhat"], spec["inv_std"]
        bm, bv = spec["batch_mean"], spec["batch_var"]
        so = self._fixed_slot(out, dtype)
        sxh = self._fixed_slot(xh, dtype)
        siv = self._fixed_slot(inv, dtype)
        sbm = self._fixed_slot(bm, np.float64)
        sbv = self._fixed_slot(bv, np.float64)
        if None in (so, sxh, siv, sbm, sbv):
            return None
        outs = [out, xh, inv, bm, bv]
        offer = _Offer(-1, fallback, outs)
        sx = self._source_slot(spec["x_src"], dtype, offer)
        if sx is None:
            return None
        sga = self._affine_slot(spec["gamma"], "weight", offer)
        sbe = self._affine_slot(spec["beta"], "bias", offer)
        if sga is None or sbe is None:
            return None
        per_group = int(spec["gamma"][0] == "slot")
        groups, gs, c, hw = spec["dims"]
        name = self._bn_helper("bn_train", ct, _bn_train_source)
        body = (
            f"    {name}((const {ct}*)T[{sx}], ({ct}*)T[{sxh}], "
            f"({ct}*)T[{so}], ({ct}*)T[{siv}],\n"
            f"        (const double*)T[{sga}], (const double*)T[{sbe}], "
            f"(double*)T[{sbm}], (double*)T[{sbv}],\n"
            f"        {groups}, {gs}, {c}, {hw}, {per_group}, "
            f"{float(spec['eps'])!r}, tid, nt);\n"
        )
        return self._accept(
            fallback, outs, body, offer.binders,
            mt=self._mt(3 * groups * gs * c * hw / _SWEEP_PER_US),
            tol_dtype=dtype,
        )

    def _try_bn_update(self, spec, fallback):
        """The step's update tail (``adapt_plan._update_tail`` is the
        closure): running statistics blended in at the adapter's
        momentum, then the SGD-momentum step on gamma/beta, over every
        BN layer of every group — a few lines of C over the taps the
        stages before it filled, inline on the dispatching thread.

        Armed per replay by its binder, which reads the destinations the
        caller passed ``run`` and, when the C can step them (plain
        SGD-momentum, momentum buffers already there, float64 vectors),
        binds one ``bn_dest`` row per group and takes them; whatever it
        leaves — weight decay, Nesterov, an optimizer's first step — the
        plan hands to the closure after the replay.  Rows are cached per
        destination, weakly, so alternating fleet groups rebind nothing.
        """
        taps, groups, armed = spec["taps"], spec["groups"], spec["update"]
        rows = []
        for tap in taps:
            slots = [
                self._fixed_slot(arr, np.float64) for arr in (
                    tap.batch_mean, tap.batch_var, tap.grad_gamma,
                    tap.grad_beta,
                )
            ]
            if None in slots:
                return None
            rows.append(tuple(slots) + (tap.module.num_features,))
        if not rows:
            return None
        ntaps = len(rows)
        flag = np.zeros(1, dtype=np.int64)
        hyper = np.zeros((groups, 3), dtype=np.float64)
        dests = np.zeros((groups, 7 * ntaps), dtype=np.uintp)
        sf, sh, sd = (self._bind_static(arr) for arr in (flag, hyper, dests))
        cache = weakref.WeakKeyDictionary()  # destination -> (held, row)

        def bind():
            flag[0] = 0
            targets = armed[0]
            if targets is None:
                return
            for k, target in enumerate(targets):
                optimizer = target.optimizer
                if optimizer.weight_decay or optimizer.nesterov:
                    return
                bound = cache.get(target)
                if bound is None:
                    bound = cache[target] = (
                        [None] * (7 * ntaps),
                        np.zeros(7 * ntaps, dtype=np.uintp),
                    )
                if not _bind_dests(target, taps, *bound):
                    return
                dests[k] = bound[1]
                hyper[k] = (
                    optimizer.lr, optimizer.momentum,
                    target.effective_momentum,
                )
            flag[0] = 1
            armed[0] = None

        self._helpers.setdefault("bn_update", _BN_UPDATE_SOURCE)
        body = (
            f"    static const bn_tap TAPS[] = {_c_init(tuple(rows))};\n"
            f"    bn_update(T, TAPS, {ntaps}, {groups}, "
            f"(const bn_dest*)T[{sd}],\n"
            f"        (const double*)T[{sh}], (i64*)T[{sf}]);\n"
        )
        return self._accept(fallback, [], body, [bind])

    def _try_maxpool_bwd(self, spec, fallback):
        """Grad wrt a max-pool input: zero the plane, then add ``g`` at
        each window's stored argmax.

        Threads own (n, c) planes, so no two threads touch one plane.
        Windows are visited last to first: an input cell covered by
        several windows then receives them in ascending kernel-offset
        order — the col2im summation order of the oracle — so the stage
        is bitwise and survives the strict probe.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        geo: PoolLowering = spec["geo"]
        g, arg, dst = spec["g"], spec["arg"], spec["dst"]
        sg = self._fixed_slot(g, dtype)
        sa = self._fixed_slot(arg, np.intp)
        so = self._fixed_slot(dst, dtype)
        if sg is None or sa is None or so is None:
            return None
        nc, hw, p = geo.n * geo.c, geo.h * geo.w, geo.p_total
        lines = [
            f"    const {ct}* restrict G = (const {ct}*)T[{sg}];",
            f"    const i64* restrict A = (const i64*)T[{sa}];",
            f"    {ct}* restrict O = ({ct}*)T[{so}];",
        ]
        lines += self._tile(nc, "qlo", "qhi")
        lines += [
            "    for (i64 q = qlo; q < qhi; ++q) {",
            f"        {ct}* on = O + q * {hw}LL;",
            f"        for (i64 t = 0; t < {hw}; ++t) on[t] = ({ct})0;",
            f"        for (i64 p = {p - 1}; p >= 0; --p) {{",
            f"            const i64 a = A[q * {p}LL + p];",
            f"            const i64 y = (p / {geo.out_w}) * {geo.stride[0]}"
            f" + a / {geo.kernel[1]} - {geo.padding[0]};",
            f"            const i64 x = (p % {geo.out_w}) * {geo.stride[1]}"
            f" + a % {geo.kernel[1]} - {geo.padding[1]};",
            f"            if (y >= 0 && y < {geo.h} && x >= 0 && x < {geo.w})",
            f"                on[y * {geo.w} + x] += G[q * {p}LL + p];",
            "        }",
            "    }",
        ]
        return self._accept(
            fallback, [dst], "\n".join(lines) + "\n",
            mt=self._mt(nc * (hw + p) / _SWEEP_PER_US),
        )

    # -- finalize --------------------------------------------------------
    def _assemble(self) -> str:
        parts = [
            "#include <math.h>",
            "#include <pthread.h>",
            "#include <stdint.h>",
            "typedef long long i64;",
            "typedef void (*stage_fn)(char**, i64, i64);",
            scratch_prelude(self.threads, self._scratch_bytes),
            "",
        ]
        parts += self._helpers.values()
        parts += self._funcs
        names = ", ".join(f"s{o.sid}" for o in self._offers)
        flags = ", ".join("1" if o.mt else "0" for o in self._offers)
        parts += [
            f"static stage_fn STAGES[] = {{ {names} }};",
            f"static const char STAGE_MT[] = {{ {flags} }};",
            pool_runtime_source(self.threads),
        ]
        return "\n".join(parts) + "\n"

    def _match(self, got: np.ndarray, want: np.ndarray,
               tol_dtype=None) -> bool:
        if got.dtype.kind in "iu" or self.strict:
            return got.tobytes() == want.tobytes()
        name = np.dtype(tol_dtype).name if tol_dtype is not None \
            else got.dtype.name
        return bool(np.allclose(
            got, want,
            rtol=PARITY_RTOL.get(name, 1e-9),
            atol=PARITY_ATOL.get(name, 1e-12),
            equal_nan=True,
        ))

    def finalize(self, plan, graph) -> Dict[str, object]:
        sections: Tuple[list, ...] = plan.sections
        profile = plan.profile
        if profile is not None:
            profile.backend = self.backend.name
        info: Dict[str, object] = {
            "backend": self.backend.name,
            "parity": "strict" if self.strict else "band",
            "stages": sum(len(s) for s in sections),
            "offered": self.offered,
            "declined": self.declined,
            "rendered": 0,
            "demoted": 0,
            "fallback_reason": None,
            "so": None,
            "cache_hit": False,
            "cache_recovered": False,
            "threads": self.threads,
            "mt_stages": 0,
            "workspace_freed": 0,
            # stage label -> how many such stages replay as Python
            # closures (never offered, declined or demoted alike)
            "numpy_stages": {},
        }
        labels = self._labels
        numpy_stages: Dict[str, int] = info["numpy_stages"]

        def on_numpy(steps: list, pos: int) -> str:
            label = labels.get((id(steps), pos), "stage")
            numpy_stages[label] = numpy_stages.get(label, 0) + 1
            return label

        def bail(reason: Optional[str]):
            for steps in sections:
                for pos, step in enumerate(steps):
                    if isinstance(step, _Offer):
                        steps[pos] = step.fallback
                for pos in range(len(steps)):
                    label = on_numpy(steps, pos)
                    if profile is not None:
                        steps[pos] = _timed_step(steps[pos], label, profile)
            info["fallback_reason"] = reason
            return info

        if not self._offers:
            return bail("no renderable stages")

        source = self._assemble()
        flags = _cflags(self.strict)
        variant = _plan_variant(self.threads, self.strict)
        so, cache_hit, err = _ensure_so(
            source, self.backend.cache_dir, flags, variant
        )
        if so is None:
            warnings.warn(
                f"cgen backend falling back to numpy closures: {err}",
                RuntimeWarning, stacklevel=2,
            )
            return bail(err)
        lib, so, err, recovered = _load_lib(
            so, source, self.backend.cache_dir, flags, variant
        )
        if lib is None:
            warnings.warn(
                f"cgen backend falling back to numpy closures: {err}",
                RuntimeWarning, stacklevel=2,
            )
            return bail(err)
        info["so"] = so
        info["cache_hit"] = cache_hit and not recovered
        info["cache_recovered"] = recovered

        run_fn = lib.repro_run
        run_fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_longlong]
        run_fn.restype = None
        start_fn = lib.repro_pool_start
        start_fn.restype = ctypes.c_longlong
        lib.repro_pool_stop.restype = None
        info["pool_width"] = int(start_fn())
        pool = PoolHandle(lib)

        tab = np.zeros(self._nslots, dtype=np.uintp)
        self._tab_holder[0] = tab
        keep: List[object] = [lib, tab, pool]
        for slot, arr in self._static:
            tab[slot] = arr.ctypes.data
            keep.append(arr)
        tab_ptr = tab.ctypes.data

        # -- parity probe: replay the traced example, each rendered stage
        # checked against its own oracle closure via snapshot-rewind so
        # every comparison sees bit-identical inputs.  The C stage runs
        # through the same pool dispatch production uses, so the probe
        # validates the exact threaded execution.
        x_probe = np.ascontiguousarray(graph._keepalive[0].data)
        tab[0] = x_probe.ctypes.data
        plan._input_cell[0] = x_probe
        one = np.empty(1, dtype=np.int64)
        for steps in sections:
            for step in steps:
                if not isinstance(step, _Offer):
                    step()
                    continue
                pre = [o.copy() for o in step.outs]
                step.fallback()
                oracle = [o.copy() for o in step.outs]
                for buf, snap in zip(step.outs, pre):
                    np.copyto(buf, snap, casting="no")
                ok = True
                try:
                    for bind in step.binders:
                        bind()
                    one[0] = step.sid
                    run_fn(tab_ptr, one.ctypes.data, 1)
                    for buf, want in zip(step.outs, oracle):
                        if not self._match(buf, want, step.tol_dtype):
                            ok = False
                            break
                except Exception:
                    ok = False
                if not ok:
                    step.demoted = True
                # downstream stages (and the next probe) always see oracle
                # values, whether or not this stage survived
                for buf, want in zip(step.outs, oracle):
                    np.copyto(buf, want, casting="no")
        plan._input_cell[0] = None

        # -- rebuild the step lists: surviving rendered stages become
        # repro_run segments (one ctypes call per run of consecutive
        # stages), demoted/declined stages keep their numpy closures
        binders: List[Callable[[], None]] = []
        rendered = demoted = 0
        for steps in sections:
            new_steps: List[Callable[[], None]] = []
            i = 0
            while i < len(steps):
                step = steps[i]
                if isinstance(step, _Offer) and not step.demoted:
                    if profile is None:
                        sids = []
                        j = i
                        while (
                            j < len(steps)
                            and isinstance(steps[j], _Offer)
                            and not steps[j].demoted
                        ):
                            sids.append(steps[j].sid)
                            binders.extend(steps[j].binders)
                            j += 1
                        ids = np.asarray(sids, dtype=np.int64)
                        keep.append(ids)
                        ids_ptr = ids.ctypes.data
                        nseg = len(sids)

                        def seg(run_fn=run_fn, tab_ptr=tab_ptr,
                                ids_ptr=ids_ptr, nseg=nseg):
                            run_fn(tab_ptr, ids_ptr, nseg)

                        new_steps.append(seg)
                        rendered += nseg
                        i = j
                    else:
                        # profiled plans keep per-stage calls so op_ms
                        # attributes time to individual rendered stages
                        binders.extend(step.binders)
                        ids = np.asarray([step.sid], dtype=np.int64)
                        keep.append(ids)
                        ids_ptr = ids.ctypes.data

                        def call(run_fn=run_fn, tab_ptr=tab_ptr,
                                 ids_ptr=ids_ptr):
                            run_fn(tab_ptr, ids_ptr, 1)

                        new_steps.append(_timed_step(
                            call,
                            "cgen:" + labels.get((id(steps), i), "stage"),
                            profile,
                        ))
                        rendered += 1
                        i += 1
                    continue
                fn = step.fallback if isinstance(step, _Offer) else step
                if isinstance(step, _Offer):
                    demoted += 1
                label = on_numpy(steps, i)
                if profile is not None:
                    fn = _timed_step(fn, label, profile)
                new_steps.append(fn)
                i += 1
            steps[:] = new_steps
        info["rendered"] = rendered
        info["demoted"] = demoted
        info["mt_stages"] = sum(
            1 for o in self._offers if o.mt and not o.demoted
        )

        # -- fused-im2col workspace release: a surviving conv stage
        # gathers inside the .so, so its plan-side im2col workspaces
        # (and the oracle closure capturing them) are dead weight
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
            freed += int(getattr(geo, "workspace_nbytes", 0) or 0)
            release = getattr(geo, "release_workspace", None)
            if release is not None:
                release()
        if freed:
            stats = getattr(plan, "stats", None)
            if stats is not None and hasattr(stats, "workspace_bytes"):
                plan.stats = _dc_replace(
                    stats,
                    workspace_bytes=max(0, stats.workspace_bytes - freed),
                )
        info["workspace_freed"] = freed

        if rendered:
            in_dtype = graph.input_dtype
            hold = [x_probe]

            def pre_replay(x: np.ndarray) -> np.ndarray:
                if x.dtype != in_dtype:
                    raise TypeError(
                        f"cgen plan compiled for input dtype {in_dtype}, "
                        f"got {x.dtype}"
                    )
                x = np.ascontiguousarray(x)
                tab[0] = x.ctypes.data
                hold[0] = x
                for bind in binders:
                    bind()
                return x

            plan._pre_replay = pre_replay
            keep.append(hold)
        plan._cgen_keep = keep
        return info


class CGenBackend(PlanBackend):
    """Plans rendered to threaded C, per-stage numpy fallback, disk-cached
    ``.so``.  ``threads`` fixes the worker-pool width; ``None`` resolves
    per compile via ``$REPRO_CGEN_THREADS`` → device cores → host CPUs."""

    def __init__(self, parity: str = "band",
                 threads: Optional[int] = None,
                 config: Optional[CGenConfig] = None):
        if config is None:
            config = CGenConfig(parity=parity, threads=threads)
        self.config = config
        self.parity = config.parity
        self.threads = config.threads
        self.name = "cgen-strict" if config.parity == "strict" else "cgen"

    @property
    def cache_dir(self) -> str:
        # resolved per call so tests (and operators) can repoint
        # $REPRO_CGEN_CACHE without rebuilding backend instances
        return default_cache_dir()

    def _resolve_threads(self, threads: Optional[int]) -> int:
        return resolve_threads(
            threads if threads is not None else self.threads
        )

    def _renderer(self, threads: Optional[int]) -> CRenderer:
        return CRenderer(self, threads=self._resolve_threads(threads))


register_backend("cgen", CGenBackend)
register_backend("cgen-strict", lambda: CGenBackend(parity="strict"))

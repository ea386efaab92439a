"""The C codegen backend: render a compiled plan to one C translation unit.

The renderer rides along :class:`~repro.engine.plan.ExecutionPlan` /
:class:`~repro.engine.adapt_plan.AdaptationPlan` compilation: every fused
stage the numpy lowering produces is *offered* together with its closure,
and the renderer either emits an equivalent C stage function or declines
(unsupported op, dynamic-slot input, non-contiguous buffer, exotic
dtype).  For adaptation plans both the forward — train-mode BatchNorm
included, so the backbone forward replays as one rendered segment — *and*
the pruned LD-BN-ADAPT backward (BN gamma/beta grads, the reduced chain,
max-pool backward) are offered; conv dgrad deliberately stays a BLAS
closure (the renderer's GEMM loses to BLAS on these shapes).
``backend_info["numpy_stages"]`` counts, by stage label, what still
replays as a Python closure.  At finalize time the accepted stages become one translation
unit

* one ``static void s<id>(char** T, i64 tid, i64 nt)`` function per
  stage, reading its buffers from a pointer table at
  compile-time-constant slots;
* a single exported ``repro_run(char** T, const long long* ids, n)``
  driver, so a run of consecutive rendered stages costs one ``ctypes``
  call instead of one Python closure dispatch per stage;
* a persistent pthread worker pool (see
  :mod:`repro.engine.backends.threading`), spawned once per loaded
  ``.so`` and refcounted across the plans sharing it.  Heavy stages are
  tiled over the pool by *fixed output-row ownership* — thread ``t`` of
  ``nt`` owns rows ``[total*t//nt, total*(t+1)//nt)`` and runs the same
  serial reduction order per element as the single-thread kernel, so no
  accumulator is shared, no atomics exist, and outputs are bitwise
  identical run-to-run and across thread counts.  Each dispatch is
  barrier-synced, so replay semantics and the runtime pointer table are
  unchanged.  Conv stages fold the im2col gather into the GEMM loop:
  each thread gathers only its own pixel tile into per-thread scratch
  inside the ``.so``, and the plan-side im2col workspaces of surviving
  conv stages are released at finalize (``profile_summary()`` shows
  zero im2col workspace bytes for converted layers).

compiled with ``cc -shared -O2 -march=native -pthread`` (plus
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
``cgen-strict`` compares bitwise (``tobytes``) and backs the comparison
with a float64-accumulation GEMM variant — stages that cannot match the
BLAS-backed oracle bit-for-bit simply stay numpy.  A missing compiler
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
from dataclasses import replace as _dc_replace
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

# stages below this many inner-loop iterations run inline: a pool
# dispatch costs a wake+barrier (~µs), so tiny stages stay serial
_MT_MIN_WORK = 1 << 15


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

    ``sections`` names the plan step lists rendered in replay order —
    ``("_steps",)`` for inference plans, ``("_fwd", "_bwd")`` for
    adaptation plans.  ``threads`` is the resolved worker-pool width
    baked into this plan's kernels.
    """

    def __init__(self, backend: "CGenBackend",
                 sections: Tuple[str, ...] = ("_steps",),
                 threads: int = 1):
        self.backend = backend
        self.strict = backend.parity == "strict"
        self._sections = tuple(sections)
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
        self._labels: List[Tuple[int, int, int, str]] = []
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
            holder = self._tab_holder
            cell = [None]

            def bind(tensor=val, slot=slot, want=np.dtype(dtype)):
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

            offer.binders.append(bind)
            return slot
        return None

    def _out_slot(self, arr: np.ndarray, dtype) -> Optional[int]:
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            return None
        return self._bind_static(arr)

    # -- threading helpers -----------------------------------------------
    def _mt(self, work: int) -> bool:
        """Dispatch this stage across the pool? Only with >1 threads and
        enough inner-loop work to amortize the wake+barrier."""
        return self.threads > 1 and work >= _MT_MIN_WORK

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
    def note_stage(self, start: int, end: int, label: str,
                   section: int = 0) -> None:
        self._labels.append((section, start, end, label))

    def offer_stage(self, kind: str, spec: dict, fallback):
        self.offered += 1
        builder = getattr(self, f"_try_{kind}", None)
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
    def _try_conv(self, spec, fallback):
        geo: ConvLowering = spec["geo"]
        ct = _CTYPE.get(geo.compute_dtype.name)
        xt = _CTYPE.get(geo.x_dtype.name)
        if ct is None or xt is None:
            return None
        if geo.identity_cols and geo.x_dtype != geo.compute_dtype:
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
        sb = None
        if bias is not None:
            sb = self._slot()
            offer.binders.append(
                self._const_binder(bias, sb, geo.compute_dtype)
            )

        n, f, p, kt = geo.n, geo.f_out, geo.p_total, geo.k_total
        chw = geo.c * geo.h * geo.w
        item = geo.compute_dtype.itemsize
        lines = [
            f"    const {xt}* restrict X = (const {xt}*)T[{sx}];",
            f"    const {ct}* restrict Wt = (const {ct}*)T[{sw}];",
            f"    {ct}* restrict O = ({ct}*)T[{so}];",
        ]
        # small output tiles flip the column layout to (P, KT) and use a
        # dot-product kernel: contiguous k-runs vectorize where the axpy
        # form would spend its time on 3..10-element inner loops.  Small
        # stages stay on the dispatching thread.
        small = (not self.strict) and p < 16
        mt = (not small) and self._mt(n * f * p * kt)
        if not geo.identity_cols:
            k, i, j = geo.kij
            ih = i - geo.padding[0]
            iw = j - geo.padding[1]
            valid = (ih >= 0) & (ih < geo.h) & (iw >= 0) & (iw < geo.w)
            idx = (
                np.where(valid, (k * geo.h + ih) * geo.w + iw, -1)
                .astype(np.int64).reshape(kt, p)
            )
            if small:
                idx = idx.T
            idx = np.ascontiguousarray(idx.reshape(-1))
            si = self._bind_static(idx)
            lines.append(f"    const i64* restrict IX = (const i64*)T[{si}];")
            # fused im2col: each thread gathers only its own pixel tile
            # into per-thread scratch inside the .so — there is no
            # plan-side cols workspace for this stage at all
            rows = -(-p // self.threads) if mt else p
            self._need_scratch(kt * rows * item)
        elif small:
            self._need_scratch(kt * p * item)
        if sb is not None:
            lines.append(f"    const {ct}* Bi = (const {ct}*)T[{sb}];")

        bn_module = spec["bn_module"]
        if bn_module is not None:
            bn = self._bn_slots(bn_module, n, f, offer)
            if bn is None:
                return None
            sflag, s_sc, s_sh, s_m, s_v, s_g, s_b, eps = bn
            lines += [
                f"    const i64 ps = *(const i64*)T[{sflag}];",
                f"    const double* SC = (const double*)T[{s_sc}];",
                f"    const double* SH = (const double*)T[{s_sh}];",
                f"    const double* MU = (const double*)T[{s_m}];",
                f"    const double* VA = (const double*)T[{s_v}];",
                f"    const double* GA = (const double*)T[{s_g}];",
                f"    const double* BE = (const double*)T[{s_b}];",
            ]
        relu = spec["relu"]
        bias_op = f"v = v + Bi[f];" if sb is not None else ""
        relu_op = (
            f"v = v > 0 ? v : (v != v ? v : ({ct})0);" if relu else ""
        )

        if small:
            lines += self._conv_small_body(
                geo, ct, xt, n, f, p, kt, chw, bn_module is not None,
                bias_op, relu_op, eps if bn_module is not None else None,
            )
            return self._accept(
                fallback, [out3], "\n".join(lines) + "\n", offer.binders,
                mt=False, geo=geo,
            )

        # tiled kernels: thread `tid` owns output pixels [plo, phi) of
        # every (n, f) row and computes them with the single-thread
        # kernel's serial k-order — bitwise invariant across nt
        lines += self._tile(p, "plo", "phi")
        lines.append("    const i64 tw = phi - plo;")
        lines.append("    if (tw <= 0) return;")
        if not geo.identity_cols:
            lines.append(f"    {ct}* restrict CW = ({ct}*)POOL_SCR(tid);")
        lines.append(f"    for (i64 n = 0; n < {n}; ++n) {{")
        lines.append(f"        const {xt}* xs = X + n * {chw}LL;")
        if geo.identity_cols:
            lines += [
                f"        const {ct}* cols = (const {ct}*)xs + plo;",
                f"        const i64 cst = {p}LL;",
            ]
        else:
            lines += [
                f"        for (i64 k = 0; k < {kt}; ++k) {{",
                f"            const i64* ik = IX + k * {p} + plo;",
                f"            {ct}* cw = CW + k * tw;",
                "            for (i64 t = 0; t < tw; ++t) "
                f"{{ i64 v = ik[t]; cw[t] = v < 0 ? ({ct})0 : ({ct})xs[v]; }}",
                "        }",
                f"        const {ct}* cols = CW;",
                "        const i64 cst = tw;",
            ]
        lines.append(f"        {ct}* on = O + n * {f * p}LL;")
        if self.strict:
            # float64-accumulation GEMM: fixed k-order double sums back
            # the bitwise probe (and stay exact when the oracle happens
            # to sum in the same order)
            lines += [
                f"        for (i64 f = 0; f < {f}; ++f) {{",
                f"            {ct}* of = on + f * {p} + plo;",
                f"            const {ct}* wf = Wt + f * {kt};",
                "            for (i64 q = 0; q < tw; ++q) {",
                "                double acc = 0.0;",
                f"                for (i64 k = 0; k < {kt}; ++k) "
                "acc += (double)wf[k] * (double)cols[k * cst + q];",
                f"                of[q] = ({ct})acc;",
                "            }",
                "        }",
            ]
        else:
            # 4-way filter-blocked axpy GEMM: each column row load feeds
            # four accumulator rows, and -ffp-contract=fast lets the
            # vectorizer emit FMAs over the contiguous pixel tile
            f4 = f & ~3
            lines += [
                f"        for (i64 f = 0; f < {f4}; f += 4) {{",
                f"            {ct}* o0 = on + f * {p} + plo;",
                f"            {ct}* o1 = o0 + {p};",
                f"            {ct}* o2 = o1 + {p};",
                f"            {ct}* o3 = o2 + {p};",
                f"            const {ct}* w0 = Wt + f * {kt};",
                f"            const {ct}* w1 = w0 + {kt};",
                f"            const {ct}* w2 = w1 + {kt};",
                f"            const {ct}* w3 = w2 + {kt};",
                "            for (i64 q = 0; q < tw; ++q) "
                f"{{ o0[q] = ({ct})0; o1[q] = ({ct})0; "
                f"o2[q] = ({ct})0; o3[q] = ({ct})0; }}",
                f"            for (i64 k = 0; k < {kt}; ++k) {{",
                f"                {ct} a0 = w0[k], a1 = w1[k], "
                "a2 = w2[k], a3 = w3[k];",
                f"                const {ct}* ck = cols + k * cst;",
                "                for (i64 q = 0; q < tw; ++q) {",
                f"                    {ct} cv = ck[q];",
                "                    o0[q] += a0 * cv; o1[q] += a1 * cv;",
                "                    o2[q] += a2 * cv; o3[q] += a3 * cv;",
                "                }",
                "            }",
                "        }",
                f"        for (i64 f = {f4}; f < {f}; ++f) {{",
                f"            {ct}* of = on + f * {p} + plo;",
                f"            const {ct}* wf = Wt + f * {kt};",
                f"            for (i64 q = 0; q < tw; ++q) of[q] = ({ct})0;",
                f"            for (i64 k = 0; k < {kt}; ++k) {{",
                f"                {ct} wv = wf[k];",
                f"                const {ct}* ck = cols + k * cst;",
                "                for (i64 q = 0; q < tw; ++q) "
                "of[q] += wv * ck[q];",
                "            }",
                "        }",
            ]

        def epi_loop(setup: str, ops: List[str]) -> List[str]:
            body = [
                f"        for (i64 f = 0; f < {f}; ++f) {{",
                f"            {ct}* of = on + f * {p} + plo;",
            ]
            if setup:
                body.append(f"            {setup}")
            body.append("            for (i64 q = 0; q < tw; ++q) {")
            body.append(f"                {ct} v = of[q];")
            for op in ops:
                if op:
                    body.append(f"                {op}")
            body.append("                of[q] = v;")
            body.append("            }")
            body.append("        }")
            return body

        if bn_module is not None:
            # the epilogue mirrors _bn_epilogue op-for-op: per-sample
            # folded affine when the fleet override is installed, else
            # subtract mean / scale by 1/sqrt(var+eps) / gamma / beta
            lines.append("        if (ps) {")
            lines += [
                "    " + ln for ln in epi_loop(
                    f"double sc = SC[n * {f} + f]; "
                    f"double sh = SH[n * {f} + f];",
                    [bias_op,
                     f"v = ({ct})(v * sc);",
                     f"v = ({ct})(v + sh);",
                     relu_op],
                )
            ]
            lines.append("        } else {")
            lines += [
                "    " + ln for ln in epi_loop(
                    f"double m = MU[f]; "
                    f"double iv = 1.0 / sqrt(VA[f] + {eps!r}); "
                    "double g = GA[f]; double b = BE[f];",
                    [bias_op,
                     f"v = ({ct})(v - m);",
                     f"v = ({ct})(v * iv);",
                     f"v = ({ct})(v * g);",
                     f"v = ({ct})(v + b);",
                     relu_op],
                )
            ]
            lines.append("        }")
        elif sb is not None or relu:
            lines += epi_loop("", [bias_op, relu_op])
        lines.append("    }")

        return self._accept(
            fallback, [out3], "\n".join(lines) + "\n", offer.binders,
            mt=mt, geo=geo,
        )

    def _conv_small_body(self, geo, ct, xt, n, f, p, kt, chw,
                         has_bn, bias_op, relu_op, eps) -> List[str]:
        """The small-P (P, KT) dot kernel, single-threaded: eight
        explicit accumulator chains over the contiguous k run —
        independent streams the vectorizer can SLP-combine without any
        reassociation flags."""
        lines = [f"    {ct}* restrict CW = ({ct}*)POOL_SCR(0);"]
        lines.append(f"    for (i64 n = 0; n < {n}; ++n) {{")
        lines.append(f"        const {xt}* xs = X + n * {chw}LL;")
        if geo.identity_cols:
            # transpose the (C, P) input into (P, C) columns
            lines += [
                f"        for (i64 p = 0; p < {p}; ++p)",
                f"            for (i64 k = 0; k < {kt}; ++k) "
                f"CW[p * {kt} + k] = ({ct})xs[k * {p} + p];",
            ]
        else:
            lines += [
                f"        for (i64 t = 0; t < {kt * p}; ++t) "
                f"{{ i64 v = IX[t]; "
                f"CW[t] = v < 0 ? ({ct})0 : ({ct})xs[v]; }}",
            ]
        lines.append(f"        const {ct}* cols = CW;")
        lines.append(f"        {ct}* on = O + n * {f * p}LL;")
        accs = ", ".join(f"a{q} = ({ct})0" for q in range(8))
        muls = " ".join(
            f"a{q} += wf[k + {q}] * cp[k + {q}];" for q in range(8)
        )
        lines += [
            f"        for (i64 f = 0; f < {f}; ++f) {{",
            f"            {ct}* of = on + f * {p};",
            f"            const {ct}* wf = Wt + f * {kt};",
            f"            for (i64 p = 0; p < {p}; ++p) {{",
            f"                const {ct}* cp = cols + p * {kt};",
            f"                {ct} {accs};",
            "                i64 k = 0;",
            f"                for (; k + 8 <= {kt}; k += 8) "
            f"{{ {muls} }}",
            f"                for (; k < {kt}; ++k) "
            "a0 += wf[k] * cp[k];",
            "                of[p] = ((a0 + a1) + (a2 + a3))"
            " + ((a4 + a5) + (a6 + a7));",
            "            }",
            "        }",
        ]

        def epi_loop(setup: str, ops: List[str]) -> List[str]:
            body = [
                f"        for (i64 f = 0; f < {f}; ++f) {{",
                f"            {ct}* of = on + f * {p};",
            ]
            if setup:
                body.append(f"            {setup}")
            body.append(f"            for (i64 p = 0; p < {p}; ++p) {{")
            body.append(f"                {ct} v = of[p];")
            for op in ops:
                if op:
                    body.append(f"                {op}")
            body.append("                of[p] = v;")
            body.append("            }")
            body.append("        }")
            return body

        if has_bn:
            lines.append("        if (ps) {")
            lines += [
                "    " + ln for ln in epi_loop(
                    f"double sc = SC[n * {f} + f]; "
                    f"double sh = SH[n * {f} + f];",
                    [bias_op,
                     f"v = ({ct})(v * sc);",
                     f"v = ({ct})(v + sh);",
                     relu_op],
                )
            ]
            lines.append("        } else {")
            lines += [
                "    " + ln for ln in epi_loop(
                    f"double m = MU[f]; "
                    f"double iv = 1.0 / sqrt(VA[f] + {eps!r}); "
                    "double g = GA[f]; double b = BE[f];",
                    [bias_op,
                     f"v = ({ct})(v - m);",
                     f"v = ({ct})(v * iv);",
                     f"v = ({ct})(v * g);",
                     f"v = ({ct})(v + b);",
                     relu_op],
                )
            ]
            lines.append("        }")
        elif bias_op or relu_op:
            lines += epi_loop("", [bias_op, relu_op])
        lines.append("    }")
        return lines

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
        mt = self._mt(n * fout * fin)
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
        if self.strict:
            lines += [
                "            double acc = 0.0;",
                f"            for (i64 i = 0; i < {fin}; ++i) "
                "acc += (double)wo[i] * (double)xn[i];",
                f"            {ct} v = ({ct})acc;",
            ]
        else:
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
        sa = None
        if arg is not None:
            if arg.dtype != np.dtype(np.intp) or not arg.flags.c_contiguous:
                return None
            sa = self._bind_static(arg)
            outs.append(arg)
        offer = _Offer(-1, fallback, outs)
        sx = self._source_slot(spec["x_src"], dtype, offer)
        if sx is None:
            return None

        k, i, j = geo.kij
        ih = i - geo.padding[0]
        iw = j - geo.padding[1]
        valid = (ih >= 0) & (ih < geo.h) & (iw >= 0) & (iw < geo.w)
        idx = np.ascontiguousarray(
            np.where(valid, ih * geo.w + iw, -1).astype(np.int64).reshape(-1)
        )
        si = self._bind_static(idx)

        nc = geo.n * geo.c
        hw = geo.h * geo.w
        p = geo.p_total
        kk = geo.kernel[0] * geo.kernel[1]
        mt = self._mt(nc * p * kk)
        lines = [
            f"    const {xt}* restrict X = (const {xt}*)T[{sx}];",
            f"    {xt}* restrict O = ({xt}*)T[{so}];",
            f"    const i64* restrict IX = (const i64*)T[{si}];",
        ]
        if sa is not None:
            lines.append(f"    i64* A = (i64*)T[{sa}];")
        # threads own (n, c) planes: each plane's max/argmax scan keeps
        # the single-thread window order, so ties break identically
        lines += self._tile(nc, "qlo", "qhi")
        lines += [
            "    for (i64 q = qlo; q < qhi; ++q) {",
            f"        const {xt}* xs = X + q * {hw}LL;",
            f"        {xt}* on = O + q * {p}LL;",
        ]
        if sa is not None:
            lines.append(f"        i64* an = A + q * {p}LL;")
        lines += [
            f"        for (i64 p = 0; p < {p}; ++p) {{",
            f"            {xt} m = -INFINITY;",
            "            i64 ai = 0;",
            f"            for (i64 k = 0; k < {kk}; ++k) {{",
            f"                i64 v = IX[k * {p} + p];",
            f"                if (v >= 0) {{ {xt} xv = xs[v]; "
            "if (xv > m) { m = xv; ai = k; } }",
            "            }",
            "            on[p] = m;",
        ]
        if sa is not None:
            lines.append("            an[p] = ai;")
        lines += [
            "        }",
            "    }",
        ]
        return self._accept(
            fallback, outs, "\n".join(lines) + "\n", offer.binders, mt=mt
        )

    # elementwise stages: same-shape same-dtype only, one flat loop ------
    def _try_elementwise(self, spec, fallback, expr_fn, binary=False):
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        out = spec["out"]
        so = self._out_slot(out, dtype)
        if so is None:
            return None
        offer = _Offer(-1, fallback, [out])
        if binary:
            if not (
                spec["a_shape"] == spec["b_shape"] == spec["out_shape"]
            ):
                return None
            sa = self._source_slot(spec["a_src"], dtype, offer)
            sb = self._source_slot(spec["b_src"], dtype, offer)
            if sa is None or sb is None:
                return None
            decls = [
                f"    const {ct}* A = (const {ct}*)T[{sa}];",
                f"    const {ct}* B = (const {ct}*)T[{sb}];",
            ]
        else:
            sx = self._source_slot(spec["x_src"], dtype, offer)
            if sx is None:
                return None
            decls = [f"    const {ct}* X = (const {ct}*)T[{sx}];"]
        size = int(out.size)
        body = "\n".join(
            decls + [
                f"    {ct}* O = ({ct}*)T[{so}];",
            ] + self._tile(size) + [
                f"    for (i64 t = lo; t < hi; ++t) {{ "
                f"{expr_fn(ct)} }}",
            ]
        ) + "\n"
        return self._accept(
            fallback, [out], body, offer.binders, mt=self._mt(size)
        )

    def _try_relu(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback,
            lambda ct: (
                f"{ct} v = X[t]; "
                f"O[t] = v > 0 ? v : (v != v ? v : ({ct})0);"
            ),
        )

    def _try_add(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback, lambda ct: "O[t] = A[t] + B[t];", binary=True
        )

    def _try_mul(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback, lambda ct: "O[t] = A[t] * B[t];", binary=True
        )

    def _try_neg(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback, lambda ct: "O[t] = -X[t];"
        )

    def _try_exp(self, spec, fallback):
        return self._try_elementwise(
            spec, fallback,
            lambda ct: (
                "O[t] = exp(X[t]);" if ct == "double"
                else "O[t] = expf(X[t]);"
            ),
        )

    # backward stages (adaptation plans): the pruned LD-BN-ADAPT chain --
    def _try_fill(self, spec, fallback):
        """Seed a gradient buffer with a constant (the loss-mean grad)."""
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        dst = spec["dst"]
        so = self._fixed_slot(dst, dtype)
        if so is None:
            return None
        value = float(spec["value"])
        size = int(dst.size)
        body = "\n".join(
            [f"    {ct}* O = ({ct}*)T[{so}];"]
            + self._tile(size)
            + [f"    for (i64 t = lo; t < hi; ++t) O[t] = ({ct}){value!r};"]
        ) + "\n"
        return self._accept(fallback, [dst], body, mt=self._mt(size))

    def _try_copy(self, spec, fallback):
        """Pass a gradient through unchanged (add / reshape backward)."""
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        g, dst = spec["g"], spec["dst"]
        if g.size != dst.size:
            return None
        sg = self._fixed_slot(g, dtype)
        so = self._fixed_slot(dst, dtype)
        if sg is None or so is None:
            return None
        size = int(dst.size)
        body = "\n".join(
            [
                f"    const {ct}* G = (const {ct}*)T[{sg}];",
                f"    {ct}* O = ({ct}*)T[{so}];",
            ]
            + self._tile(size)
            + ["    for (i64 t = lo; t < hi; ++t) O[t] = G[t];"]
        ) + "\n"
        return self._accept(fallback, [dst], body, mt=self._mt(size))

    def _try_relu_bwd(self, spec, fallback):
        """Gate the gradient by the forward output's sign.

        Mirrors numpy's multiply-by-bool bitwise: ``g * 1.0`` is exact
        and ``g * 0.0`` preserves NaNs and signed zeros, so this stage
        survives even the strict probe.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        g, y, dst = spec["g"], spec["y"], spec["dst"]
        if not (g.size == y.size == dst.size):
            return None
        sg = self._fixed_slot(g, dtype)
        sy = self._fixed_slot(y, dtype)
        so = self._fixed_slot(dst, dtype)
        if sg is None or sy is None or so is None:
            return None
        size = int(dst.size)
        body = "\n".join(
            [
                f"    const {ct}* G = (const {ct}*)T[{sg}];",
                f"    const {ct}* Y = (const {ct}*)T[{sy}];",
                f"    {ct}* O = ({ct}*)T[{so}];",
            ]
            + self._tile(size)
            + [
                "    for (i64 t = lo; t < hi; ++t) "
                f"O[t] = Y[t] > ({ct})0 ? G[t] * ({ct})1 : G[t] * ({ct})0;"
            ]
        ) + "\n"
        return self._accept(fallback, [dst], body, mt=self._mt(size))

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
            mt=self._mt(n * fout * fin),
        )

    def _try_conv_bwd(self, spec, fallback):
        """Grad wrt a 1x1 (identity-cols) conv input:
        ``dst[n,k,p] = sum_f W[f,k] * g[n,f,p]``.

        Threads own pixel columns; the f-order per element is serial.
        Band parity only — the oracle is a BLAS matmul.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        weight = spec["weight"]
        if weight.data.dtype != dtype or not weight.data.flags.c_contiguous:
            return None
        g, dst = spec["g"], spec["dst"]
        n, f, p = spec["g_dims"]
        kt = spec["kt"]
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
        lines += self._tile(p, "plo", "phi")
        lines += [
            f"    for (i64 n = 0; n < {n}; ++n) {{",
            f"        const {ct}* gn = G + n * {f * p}LL;",
            f"        {ct}* dn = O + n * {kt * p}LL;",
            f"        for (i64 k = 0; k < {kt}; ++k) {{",
            f"            {ct}* dk = dn + k * {p};",
            f"            for (i64 q = plo; q < phi; ++q) dk[q] = ({ct})0;",
            "        }",
            f"        for (i64 f = 0; f < {f}; ++f) {{",
            f"            const {ct}* gf = gn + f * {p};",
            f"            const {ct}* wf = W + f * {kt};",
            f"            for (i64 k = 0; k < {kt}; ++k) {{",
            f"                {ct} a = wf[k];",
            f"                {ct}* dk = dn + k * {p};",
            "                for (i64 q = plo; q < phi; ++q) "
            "dk[q] += a * gf[q];",
            "            }",
            "        }",
            "    }",
        ]
        return self._accept(
            fallback, [dst], "\n".join(lines) + "\n", offer.binders,
            mt=self._mt(n * f * kt * p),
        )

    def _try_bn_bwd(self, spec, fallback):
        """The rendered LD-BN-ADAPT backward: per-(group, channel) BN
        gamma/beta grads plus (optionally) the reduced input-grad chain.

        Threads own (group, channel) pairs; each pair's two reductions
        run serially in f64 — deterministic for any nt.  The band
        tolerance is keyed to the *data* dtype (``tol_dtype``): the f64
        tap buffers hold f32-sourced sums whose pairwise-vs-serial
        difference lives at f32 scale.
        """
        dtype = np.dtype(spec["dtype"])
        ct = _CTYPE.get(dtype.name)
        if ct is None:
            return None
        g, xh, inv = spec["g"], spec["xhat"], spec["inv_std"]
        gg, gb = spec["grad_gamma"], spec["grad_beta"]
        dst = spec.get("dst")
        groups, gs, c, hw = spec["dims"]
        m = float(spec["m"])
        sg_ = self._fixed_slot(g, dtype)
        sxh = self._fixed_slot(xh, dtype)
        siv = self._fixed_slot(inv, dtype)
        sgg = self._fixed_slot(gg, np.float64)
        sgb = self._fixed_slot(gb, np.float64)
        if None in (sg_, sxh, siv, sgg, sgb):
            return None
        outs = [gg, gb]
        so = None
        if dst is not None:
            so = self._fixed_slot(dst, dtype)
            if so is None:
                return None
            outs.append(dst)
        offer = _Offer(-1, fallback, outs)
        sga = self._affine_slot(spec["gamma"], "weight", offer)
        if sga is None:
            return None
        gidx = "u" if spec["gamma"][0] == "slot" else "ch"
        total = groups * c
        lines = [
            f"    const {ct}* restrict G_ = (const {ct}*)T[{sg_}];",
            f"    const {ct}* restrict XH = (const {ct}*)T[{sxh}];",
            f"    const {ct}* IS = (const {ct}*)T[{siv}];",
            f"    const double* GA = (const double*)T[{sga}];",
            f"    double* GG = (double*)T[{sgg}];",
            f"    double* GB = (double*)T[{sgb}];",
        ]
        if so is not None:
            lines.append(f"    {ct}* restrict O = ({ct}*)T[{so}];")
        lines += self._tile(total, "ulo", "uhi")
        lines += [
            "    for (i64 u = ulo; u < uhi; ++u) {",
            f"        const i64 gr = u / {c};",
            f"        const i64 ch = u % {c};",
            "        double sg = 0.0, sgx = 0.0;",
            f"        for (i64 s = 0; s < {gs}; ++s) {{",
            f"            const i64 base = "
            f"((gr * {gs} + s) * {c} + ch) * {hw}LL;",
            f"            for (i64 t = 0; t < {hw}; ++t) {{",
            "                double gv = (double)G_[base + t];",
            "                sg += gv;",
            "                sgx += gv * (double)XH[base + t];",
            "            }",
            "        }",
            "        GG[u] = sgx;",
            "        GB[u] = sg;",
        ]
        if so is not None:
            lines += [
                f"        double ga = GA[{gidx}];",
                "        double iv = (double)IS[u];",
                "        double sdx = ga * sg;",
                "        double sdxx = ga * sgx;",
                f"        double c0 = iv / {m!r};",
                f"        for (i64 s = 0; s < {gs}; ++s) {{",
                f"            const i64 base = "
                f"((gr * {gs} + s) * {c} + ch) * {hw}LL;",
                f"            for (i64 t = 0; t < {hw}; ++t) {{",
                "                double gv = (double)G_[base + t];",
                f"                O[base + t] = ({ct})(c0 * ({m!r} * "
                "(gv * ga) - sdx - (double)XH[base + t] * sdxx));",
                "            }",
                "        }",
            ]
        lines.append("    }")
        return self._accept(
            fallback, outs, "\n".join(lines) + "\n", offer.binders,
            mt=self._mt(2 * groups * gs * c * hw), tol_dtype=dtype,
        )

    def _try_bn_train(self, spec, fallback):
        """Train-mode BN forward: per-(group, channel) batch statistics,
        ``inv_std``, ``xhat``, the affine output and the tap's
        ``batch_mean``/``batch_var`` in one stage.

        Threads own (group, channel) pairs exactly as in
        :meth:`_try_bn_bwd`; each pair's mean and sum of squared
        deviations are serial two-pass f64 reductions (deterministic for
        any nt), rounded to the data dtype before ``1/sqrt(var+eps)`` so
        everything downstream repeats the numpy op sequence.  The
        oracle's pairwise sums differ in the last bits, hence band
        parity (keyed to the data dtype — the f64 taps hold data-dtype
        statistics); strict plans keep the stage only when it happens to
        match bitwise.
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
        sqrt = "sqrt" if ct == "double" else "sqrtf"
        name = f"bn_train_{ct}"
        self._helpers.setdefault(name, f"""\
static void {name}(
    const {ct}* restrict X, {ct}* restrict XH, {ct}* restrict O, {ct}* IS,
    const double* GA, const double* BE, double* BM, double* BV,
    i64 groups, i64 gs, i64 c, i64 hw, i64 per_group, double eps,
    i64 tid, i64 nt)
{{
    const i64 total = groups * c;
    const i64 ulo = (total * tid) / nt, uhi = (total * (tid + 1)) / nt;
    const double m = (double)(gs * hw);
    for (i64 u = ulo; u < uhi; ++u) {{
        const i64 gr = u / c, ch = u % c;
        const i64 first = (gr * gs * c + ch) * hw, step = c * hw;
        double sum = 0.0, sq = 0.0;
        for (i64 s = 0; s < gs; ++s) {{
            const {ct}* xs = X + first + s * step;
            for (i64 t = 0; t < hw; ++t) sum += (double)xs[t];
        }}
        const double mu = sum / m;
        for (i64 s = 0; s < gs; ++s) {{
            const {ct}* xs = X + first + s * step;
            for (i64 t = 0; t < hw; ++t) {{
                double d = (double)xs[t] - mu;
                sq += d * d;
            }}
        }}
        const {ct} mean = ({ct})mu;
        const {ct} var = ({ct})(sq / m);
        const {ct} iv = ({ct})1 / {sqrt}(var + ({ct})eps);
        IS[u] = iv;
        BM[u] = (double)mean;
        BV[u] = (double)var;
        const double ga = GA[per_group ? u : ch];
        const double be = BE[per_group ? u : ch];
        for (i64 s = 0; s < gs; ++s) {{
            const {ct}* xs = X + first + s * step;
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
""")
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
            mt=self._mt(3 * groups * gs * c * hw), tol_dtype=dtype,
        )

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
            mt=self._mt(nc * (hw + p)),
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

    def _pos_labels(self) -> Dict[Tuple[int, int], str]:
        out: Dict[Tuple[int, int], str] = {}
        for sec, start, end, label in self._labels:
            for pos in range(start, end):
                out[(sec, pos)] = label
        return out

    def finalize(self, plan, graph) -> Dict[str, object]:
        sections: List[list] = [getattr(plan, a) for a in self._sections]
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
        labels = self._pos_labels()
        numpy_stages: Dict[str, int] = info["numpy_stages"]

        def on_numpy(si: int, pos: int) -> str:
            label = labels.get((si, pos), "stage")
            numpy_stages[label] = numpy_stages.get(label, 0) + 1
            return label

        def bail(reason: Optional[str]):
            for si, steps in enumerate(sections):
                for pos, step in enumerate(steps):
                    if isinstance(step, _Offer):
                        steps[pos] = step.fallback
                for pos in range(len(steps)):
                    label = on_numpy(si, pos)
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
        for si, steps in enumerate(sections):
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
                            "cgen:" + labels.get((si, i), "stage"),
                            profile,
                        ))
                        rendered += 1
                        i += 1
                    continue
                fn = step.fallback if isinstance(step, _Offer) else step
                if isinstance(step, _Offer):
                    demoted += 1
                label = on_numpy(si, i)
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

    def compile_inference(self, graph, profile: bool = False,
                          threads: Optional[int] = None):
        from ..plan import ExecutionPlan

        return ExecutionPlan(
            graph, profile=profile,
            renderer=CRenderer(
                self, ("_steps",), threads=self._resolve_threads(threads)
            ),
        )

    def compile_adaptation(self, graph, groups: int = 1,
                           profile: bool = False,
                           threads: Optional[int] = None):
        from ..adapt_plan import AdaptationPlan

        return AdaptationPlan(
            graph, groups=groups, profile=profile,
            renderer=CRenderer(
                self, ("_fwd", "_bwd"),
                threads=self._resolve_threads(threads),
            ),
        )


register_backend("cgen", CGenBackend)
register_backend("cgen-strict", lambda: CGenBackend(parity="strict"))

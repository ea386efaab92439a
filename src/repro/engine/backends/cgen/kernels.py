"""The C text of the cgen kernel library, and the layouts Python packs.

Everything here is static: :func:`library_source` depends on the pool
width alone, so one compile per pool width serves every plan of every
shape on the host.  What a plan hands a kernel — its
``stage_row`` and args struct — is declared in ``_PLAN_SOURCE``; each C
struct there has a numpy mirror of the same name in upper case (every
field an ``i64`` or a ``double``, so there is no padding to get wrong)
that :mod:`repro.engine.backends.cgen` fills.

Each kernel family is instantiated per compute type (``double`` /
``float``; the convs per (input, compute) pair a lowering can produce)
behind one signature, ``KERNEL(name)``; ``KERNEL_ID`` maps the
kernel's name to its index in the C ``KERNELS[]`` table.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ..threading import pool_runtime_source

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

_CTYPES = ("double", "float")
#: (input, compute) type pairs a conv lowering can produce: the compute
#: type is the result type of input x weight, never narrower than either
_CONV_PAIRS = (("float", "double"), ("double", "double"), ("float", "float"))
_I64, _F64 = "<i8", "<f8"


def _struct(fields: str, **shaped) -> np.dtype:
    """The numpy mirror of a C struct of ``i64`` fields (``d:name`` is a
    ``double``; ``name=shape`` an inline array or nested struct)."""
    out = []
    for field in fields.split():
        kind, _, name = field.rpartition(":")
        if name in shaped:
            shape = shaped[name]
            out.append((name, shape) if isinstance(shape, np.dtype)
                       else (name, _I64, shape))
        else:
            out.append((name, _F64 if kind == "d" else _I64))
    return np.dtype(out)


# Constructors of the C ``conv_pad`` / ``conv_dims`` structs below (the C
# comments say what each field means; ``kn`` / ``ks`` are the three-level
# ``(channel, tap row, tap)`` walk) and their packed layouts
_ConvPad = namedtuple("_ConvPad", "n c h w sh sw rh rw pt pl ph pw")
_ConvDims = namedtuple(
    "_ConvDims", "f oh ow kn ks a0 as_f da db o0 ldo oy ox acc",
    defaults=(0, 0, 0, 0, 0, 0, 0, 1, 0),  # a0 .. acc; ox = 1
)
CONV_PAD = _struct(" ".join(_ConvPad._fields))
CONV_DIMS = _struct(" ".join(_ConvDims._fields), kn=(3,), ks=(3,))


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
/* store-time epilogue: bias (compute dtype, may be 0) — then the panel
 * kernel stores a stem's pre-BN rows to `rows`, when set — then mode 1 —
 * per-sample folded affine e0=scale e1=shift, rows of f per sample — or
 * mode 2 — running stats e0=mean e1=var e2=gamma e3=beta — then ReLU */
typedef struct {{
    const void* bias; i64 mode;
    const double *e0, *e1, *e2, *e3; double eps; i64 relu;
    void* rows;
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
    """``NR_<ct>`` (pixels per register tile) and the epilogue: the numpy
    closure's post-GEMM op sequence over one output row, op-for-op — the
    bias add (``epi_bias_<ct>``), then ``_bn_epilogue`` and ReLU
    (``epi_fold_<ct>``), a stem's rows stored between the two by the panel
    kernel and ``gemmk_<ct>`` alike."""
    return f"""\
#define NR_{ct} ({_NV} * (i64)(VEC_BYTES / sizeof({ct})))
static inline void epi_bias_{ct}({ct}* restrict t, i64 nv, i64 fi,
                                 const conv_epi* E)
{{
    if (E->bias) {{
        const {ct} b = ((const {ct}*)E->bias)[fi];
        for (i64 q = 0; q < nv; ++q) t[q] = t[q] + b;
    }}
}}
static inline void epi_fold_{ct}({ct}* restrict t, i64 nv, i64 fi,
                                 const conv_epi* E)
{{
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
    positions ``[j0, j1)`` of one ``conv_dims`` over a padded copy.  A tile
    of ``CONV_MR x NR`` accumulators stays in named vector registers across
    the whole ``k`` walk — per tap one unaligned panel load, straight from
    the copy, feeds ``CONV_MR`` broadcast-FMA rows — and is spilled once, to
    a stack tile the epilogue runs over before the valid lanes are stored
    through the output view row by row (``dst + acc`` for an accumulating
    gradient; a stem's pre-BN rows too).  Every output element is the same
    serial-``k`` FMA chain in its own vector lane whatever the panel or the
    lane is: the lanes past a row's end read the cells they fall on (the
    next row, or up to NR - 1 cells of slack after the copy) and are
    dropped, and edge filter blocks repeat the last filter rather than take
    a scalar remainder path — which is what keeps outputs bitwise identical
    across thread counts, tile shapes and the parent's explicit-im2col
    kernel.
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
/* one panel's lanes of one output row, from position (py, px) on, row by
 * row: the first ow cells of each pitch-pw row are pixels, the rest
 * garbage */
static inline void panel_store_{ct}(const {ct}* restrict tile,
                                    {ct}* restrict o, const conv_dims* D,
                                    i64 pw, i64 py, i64 px)
{{
    enum {{ NR = NR_{ct} }};
    const i64 oh = D->oh, ow = D->ow, ox = D->ox;
    for (i64 q = 0, y = py, x = px; q < NR && y < oh;
         q += pw - x, ++y, x = 0) {{
        const i64 left = NR - q < ow - x ? NR - q : ow - x;
        const {ct}* t = tile + q;
        {ct}* d = o + y * D->oy + x * ox;
        if (ox == 1) {{
            if (D->acc)
                for (i64 i = 0; i < left; ++i) d[i] = d[i] + t[i];
            else
                for (i64 i = 0; i < left; ++i) d[i] = t[i];
        }} else if (D->acc)
            for (i64 i = 0; i < left; ++i) d[i * ox] = d[i * ox] + t[i];
        else
            for (i64 i = 0; i < left; ++i) d[i * ox] = t[i];
    }}
}}
static void gemm_{ct}(const {ct}* restrict A, const {ct}* restrict xp,
                      {ct}* restrict O, const conv_dims* D, i64 pw, i64 kt,
                      const i64* restrict aoff, const i64* restrict boff,
                      i64 j0, i64 j1, const conv_epi* E)
{{
    enum {{ VL = VEC_BYTES / sizeof({ct}), NR = NR_{ct} }};
    const i64 f = D->f;
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
                const i64 fi = f0 + r;
                epi_bias_{ct}(tile[r], NR, fi, E);
                if (E->rows)
                    panel_store_{ct}(tile[r], ({ct}*)E->rows + fi * D->ldo,
                                     D, pw, py, px);
                epi_fold_{ct}(tile[r], NR, fi, E);
                panel_store_{ct}(tile[r], O + fi * D->ldo, D, pw, py, px);
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
        if (En.rows) En.rows = ({ct}*)En.rows + n * D->f * D->ldo;
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
    the epilogue once per (filter, sample), as the panel kernel's
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
            epi_bias_{ct}(row, hw, f0 + r, &En);
            if (En.rows)  /* a stem: laid out like its (forward) output */
                memcpy(({ct}*)En.rows + (s * f + f0 + r) * D->ldo, row,
                       hw * sizeof({ct}));
            epi_fold_{ct}(row, hw, f0 + r, &En);
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
    OWNED(groups * c, ulo, uhi);
    for (i64 u = ulo, gr = ulo / c, ch = ulo % c; u < uhi; ++u, ++ch) {
        if (ch == c) { ch = 0; ++gr; }
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
KERNEL(bn_train_{ct})
{{
    const bn_args* a = (const bn_args*)A;
    const i64 groups = a->groups, gs = a->gs, c = a->c, hw = a->hw;
    const i64 per_group = a->per_group;
    const {ct}* restrict X = (const {ct}*)T[S[1]];
    {ct}* restrict XH = ({ct}*)T[S[2]];
    {ct}* restrict O = ({ct}*)T[S[0]];
    {ct}* IS = ({ct}*)T[S[3]];
    const double *GA = (const double*)T[S[4]], *BE = (const double*)T[S[5]];
    double *BM = (double*)T[S[6]], *BV = (double*)T[S[7]];
    const double eps = a->scalar, m = (double)(gs * hw);
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
KERNEL(bn_bwd_{ct})
{{
    const bn_args* a = (const bn_args*)A;
    const i64 groups = a->groups, gs = a->gs, c = a->c, hw = a->hw;
    const i64 per_group = a->per_group;
    const {ct}* restrict G = (const {ct}*)T[S[1]];
    const {ct}* restrict XH = (const {ct}*)T[S[2]];
    const {ct}* IS = (const {ct}*)T[S[3]];
    const double* GA = (const double*)T[S[4]];
    double *GG = (double*)T[S[5]], *GB = (double*)T[S[6]];
    {ct}* restrict O = a->sink ? ({ct}*)T[S[0]] : 0;
    const double m = a->scalar;
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
BN_TAP = _struct("mean var ggamma gbeta c")
UPDATE_ARGS = _struct("ntaps groups")  # then ntaps x BN_TAP
_BN_UPDATE_SOURCE = """\
typedef struct { i64 mean, var, ggamma, gbeta, c; } bn_tap;
typedef struct {
    double *rmean, *rvar, *gamma, *beta, *mgamma, *mbeta; i64* count;
} bn_dest;
typedef struct { i64 ntaps, groups; bn_tap taps[]; } update_args;
/* Slots dests (bn_dest per group and tap), H — per group (lr, momentum,
 * running-stat momentum) —, the armed flag and the loss tail's per-group
 * finite flags: a group whose loss is not finite is skipped whole.  Op
 * for op update_running_stat (momentum 1.0 is a plain copy) then
 * sgd_update without weight decay or Nesterov; disarms itself. */
KERNEL(bn_update)
{
    const update_args* a = (const update_args*)A;
    const bn_tap* taps = a->taps;
    const i64 ntaps = a->ntaps, groups = a->groups;
    const bn_dest* D = (const bn_dest*)T[S[0]];
    const double* H = (const double*)T[S[1]];
    i64* armed = (i64*)T[S[2]];
    const i64* finite = (const i64*)T[S[3]];
    (void)tid; (void)nt;
    if (!*armed) return;
    *armed = 0;
    for (i64 k = 0; k < groups; ++k)
    for (i64 j = 0; j < ntaps && finite[k]; ++j) {
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


# -- what a plan is to the library: rows over one args blob ----------------

ROW_SLOTS = 12  # a stem conv: out, x, weight, bias, 7 BN, its rows
STAGE_ROW = _struct("kernel mt args slot", slot=(ROW_SLOTS,))
CONV_ARGS = _struct("P PF DF nd dgrad bias bn relu rows d:eps",
                    P=CONV_PAD, PF=CONV_PAD, DF=CONV_DIMS)  # then nd x CONV_DIMS
BN_ARGS = _struct("groups gs c hw per_group sink d:scalar")
SWEEP_ARGS = _struct("outer len inner flag d:value")
LINEAR_ARGS = _struct("n fin fout bias relu")
POOL_ARGS = _struct("nc h w oh ow kh kw sh sw pt pl arg")
_PLAN_SOURCE = f"""\
/* One stage of a plan: KERNELS[kernel], run inline or (mt) over the
 * pool; its args struct sits `args` bytes into the plan's blob, its
 * buffers are entries slot[..] of the plan's pointer table T (out first,
 * then inputs, in the order each args struct's comment gives). */
typedef struct {{ i64 kernel, mt, args, slot[{ROW_SLOTS}]; }} stage_row;
typedef void kernel_sig(char** T, const i64* S, const void* A,
                        i64 tid, i64 nt);
#define KERNEL(NAME) \\
    LIB_SHARED void k_##NAME(char** T, const i64* S, const void* A, \\
                             i64 tid, i64 nt)
/* thread tid's fixed share [lo, hi) of `total` units of output: the
 * deterministic-reduction rule's assignment */
#define OWNED(total, lo, hi) \\
    const i64 lo = ((total) * tid) / nt, hi = ((total) * (tid + 1)) / nt
/* A conv stage: the GEMMs D[0..nd) over one P copy of the input — one for
 * a forward conv, an input gradient's phases — and (PF, DF), the forward
 * conv that conv_small and the small-grid kernels are stated on (P, D[0]
 * again for a forward conv; for `dgrad` the conv whose input gradient
 * this is, acc set to add into the sink).  Slots: out, x, weight, bias
 * (when `bias`), then when `bn` the per-sample flag, its (scale, shift)
 * and the running (mean, var, gamma, beta), and when `rows` (a forward
 * conv) slot 11 the stem's pre-BN rows. */
typedef struct {{
    conv_pad P, PF; conv_dims DF; i64 nd, dgrad, bias, bn, relu, rows;
    double eps;
    conv_dims D[];
}} conv_args;
/* bn_train (scalar = eps; slots out, x, xhat, inv_std, gamma, beta,
 * batch_mean, batch_var) and bn_bwd (scalar = m, the elements a
 * statistic averaged; slots dst — when `sink` —, g, xhat, inv_std, gamma,
 * grad_gamma, grad_beta) */
typedef struct {{
    i64 groups, gs, c, hw, per_group, sink; double scalar;
}} bn_args;
/* What the sweeps take: an (outer, len, inner) block — flat stages
 * `outer` elements with len = inner = 1 —, one flag (accumulate into the
 * sink; for `reduce`: divide by len) and the fill value.  Slots out, X, Y. */
typedef struct {{ i64 outer, len, inner, flag; double value; }} sweep_args;
/* linear (slots out, x, weight, bias when `bias`) and its input gradient
 * dst = g @ W (slots dst, g, weight) */
typedef struct {{ i64 n, fin, fout, bias, relu; }} linear_args;
/* max-pool over nc planes (slots out, x, the saved argmax when `arg`)
 * and its input gradient (slots dst, g, argmax) */
typedef struct {{
    i64 nc, h, w, oh, ow, kh, kw, sh, sw, pt, pl, arg;
}} pool_args;
"""


def _conv_adapter(xt: str, ct: str) -> str:
    """``k_conv_<xt>_<ct>``: the epilogue from the live slots, then the one
    comparison that picks the stage's kernel at the vector width the
    compiler found."""
    small = f"convk_{xt}_{ct}(x, w, o, &a->P, a->D, &E, tid, nt);"
    if xt == ct:
        small = (f"if (a->dgrad) convt_{ct}(x, w, o, &a->PF, &a->DF, tid, nt);"
                 f"\n        else {small}")
    return f"""\
KERNEL(conv_{xt}_{ct})
{{
    const conv_args* a = (const conv_args*)A;
    const {xt}* x = (const {xt}*)T[S[1]];
    const {ct}* w = (const {ct}*)T[S[2]];
    {ct}* o = ({ct}*)T[S[0]];
    conv_epi E = {{a->bias ? T[S[3]] : 0, 0, 0, 0, 0, 0, a->eps, a->relu,
                  a->rows ? T[S[11]] : 0}};
    if (a->bn) {{
        /* the fleet's per-sample folded affine when installed, else the
         * live running statistics (see epi_fold_<ct>) */
        const int folded = *(const i64*)T[S[4]] != 0;
        E.mode = folded ? 1 : 2;
        E.e0 = (const double*)T[S[folded ? 5 : 7]];
        E.e1 = (const double*)T[S[folded ? 6 : 8]];
        E.e2 = folded ? 0 : (const double*)T[S[9]];
        E.e3 = folded ? 0 : (const double*)T[S[10]];
    }}
    if (conv_small(&a->DF, NR_{ct})) {{
        {small}
        return;
    }}
    conv_{xt}_{ct}(x, w, o, &a->P, a->D, a->nd, &E, tid, nt);
}}
"""


_FLAT_NAMES = ("relu", "add", "mul", "neg", "exp", "fill", "copy", "relu_bwd")
_LINE_NAMES = ("reduce", "broadcast", "logsoftmax", "logsoftmax_bwd")
_SWEEP_SOURCE = """\
/* The elementwise family, a closed set per type: O[t] = EXPR over
 * same-size buffers, or O[t] + (EXPR) for an accumulating gradient
 * contribution, elements tiled over the pool. */
#define FLAT(NAME, CT, EXPR) \\
KERNEL(NAME##_##CT) \\
{ \\
    const sweep_args* a = (const sweep_args*)A; \\
    const CT* X = (const CT*)T[S[1]]; \\
    const CT* Y = (const CT*)T[S[2]]; \\
    CT* O = (CT*)T[S[0]]; \\
    const CT value = (CT)a->value; \\
    (void)X; (void)Y; (void)value; \\
    OWNED(a->outer, lo, hi); \\
    if (a->flag) \\
        for (i64 t = lo; t < hi; ++t) O[t] = O[t] + (EXPR); \\
    else \\
        for (i64 t = lo; t < hi; ++t) O[t] = EXPR; \\
}
/* line stages: one serial pass per line — the len elements `inner` apart
 * along the reduced axis of the block — lines tiled over the pool; u is
 * the line, at its first element's offset in the block; PUT stores one
 * element of a gradient rule, adding to the sink when flagged */
#define LINE_STAGE(NAME, CT) \\
KERNEL(NAME##_##CT) \\
{ \\
    const sweep_args* a = (const sweep_args*)A; \\
    const i64 len = a->len, inner = a->inner, flag = a->flag; \\
    const CT* X = (const CT*)T[S[1]]; \\
    const CT* Y = (const CT*)T[S[2]]; \\
    CT* O = (CT*)T[S[0]]; \\
    (void)Y; (void)flag; \\
    OWNED(a->outer * inner, lo, hi); \\
    for (i64 u = lo; u < hi; ++u) { \\
        const i64 at = (u / inner) * len * inner + u % inner;
#define LINE_END } }
#define PUT(o, v) if (flag) o = o + (v); else o = (v)
"""


def _flat_source(ct: str) -> str:
    """The family for one type.  ``relu`` keeps NaNs (numpy's maximum
    does); ``mul`` is also the backward of ``mul`` and of ``exp`` (``g``
    times the other factor / the saved output), ``neg`` and ``copy`` their
    own backwards; ``relu_bwd`` mirrors numpy's multiply-by-bool bitwise
    (``g * 1.0`` is exact, ``g * 0.0`` keeps NaNs and signed zeros)."""
    return f"""\
FLAT(relu, {ct}, X[t] > 0 ? X[t] : (X[t] != X[t] ? X[t] : ({ct})0))
FLAT(add, {ct}, X[t] + Y[t])
FLAT(mul, {ct}, X[t] * Y[t])
FLAT(neg, {ct}, -X[t])
FLAT(exp, {ct}, exp{"" if ct == "double" else "f"}(X[t]))
FLAT(fill, {ct}, value)
FLAT(copy, {ct}, X[t])
FLAT(relu_bwd, {ct}, Y[t] > ({ct})0 ? X[t] * ({ct})1 : X[t] * ({ct})0)
"""


def _line_source(ct: str) -> str:
    """The entropy tail's axis reductions: ``reduce`` sums serially where
    numpy sums pairwise (and flags each finite line in a bound Y slot: the
    loss mean's rail); ``broadcast`` is its gradient: every element of a
    line gets the line's; ``logsoftmax`` is ``x - max - log(sum(exp(x -
    max)))``, its backward ``g - softmax * sum(g)`` from the saved output."""
    f = "" if ct == "double" else "f"
    return f"""\
LINE_STAGE(reduce, {ct})
        {ct} s = ({ct})0;
        for (i64 i = 0; i < len; ++i) s += X[at + i * inner];
        O[u] = flag ? s / ({ct})len : s;
        if (S[2]) ((i64*)T[S[2]])[u] = isfinite(O[u]);
LINE_END
LINE_STAGE(broadcast, {ct})
        for (i64 i = 0; i < len; ++i) PUT(O[at + i * inner], X[u]);
LINE_END
LINE_STAGE(logsoftmax, {ct})
        {ct} m = X[at], s = ({ct})0;
        for (i64 i = 1; i < len; ++i)
            if (X[at + i * inner] > m) m = X[at + i * inner];
        for (i64 i = 0; i < len; ++i) {{
            const {ct} v = X[at + i * inner] - m;
            O[at + i * inner] = v;
            s += exp{f}(v);
        }}
        s = log{f}(s);
        for (i64 i = 0; i < len; ++i) O[at + i * inner] -= s;
LINE_END
LINE_STAGE(logsoftmax_bwd, {ct})
        {ct} s = ({ct})0;
        for (i64 i = 0; i < len; ++i) s += X[at + i * inner];
        for (i64 i = 0; i < len; ++i)
            PUT(O[at + i * inner],
                X[at + i * inner] - exp{f}(Y[at + i * inner]) * s);
LINE_END
"""


def _linear_source(ct: str) -> str:
    """``k_linear_<ct>``: threads own output-feature rows; each (n, o) dot
    runs eight accumulator chains — independent streams SLP-vectorize
    without any reassociation flags (a single accumulator is a serial FMA
    chain) — in a fixed order regardless of nt; the last ``fin % 8``
    products are rounded before they join the first chain, which is what
    the compiler made of tiny-r18's ``fin = 6`` layer when ``fin`` was a
    plan constant (EXPERIMENTS.md, PR 21), so its bytes stay what they
    were.  ``k_linear_bwd_<ct>``: threads own input-feature columns; per
    element the o-order is serial.  Held to the parity band — the oracles
    are BLAS matmuls."""
    accs = ", ".join(f"a{q} = ({ct})0" for q in range(8))
    muls = " ".join(f"a{q} += wo[i + {q}] * xn[i + {q}];" for q in range(8))
    return f"""\
KERNEL(linear_{ct})
{{
    const linear_args* a = (const linear_args*)A;
    const i64 fin = a->fin, fout = a->fout;
    const {ct}* restrict X = (const {ct}*)T[S[1]];
    const {ct}* restrict Wt = (const {ct}*)T[S[2]];
    const {ct}* Bi = a->bias ? (const {ct}*)T[S[3]] : 0;
    {ct}* restrict O = ({ct}*)T[S[0]];
    OWNED(fout, olo, ohi);
    for (i64 n = 0; n < a->n; ++n) {{
        const {ct}* xn = X + n * fin;
        {ct}* on = O + n * fout;
        for (i64 o = olo; o < ohi; ++o) {{
            const {ct}* wo = Wt + o * fin;
            {ct} {accs};
            i64 i = 0;
            for (; i + 8 <= fin; i += 8) {{ {muls} }}
            {ct} tail[7];  /* rounded, then added: see the docstring */
            for (i64 q = 0; i + q < fin; ++q) tail[q] = wo[i + q] * xn[i + q];
            for (i64 q = 0; i + q < fin; ++q) a0 += tail[q];
            {ct} v = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
            if (Bi) v = v + Bi[o];
            if (a->relu) v = v > 0 ? v : (v != v ? v : ({ct})0);
            on[o] = v;
        }}
    }}
}}
KERNEL(linear_bwd_{ct})
{{
    const linear_args* a = (const linear_args*)A;
    const i64 fin = a->fin, fout = a->fout;
    const {ct}* restrict G = (const {ct}*)T[S[1]];
    const {ct}* restrict W = (const {ct}*)T[S[2]];
    {ct}* restrict O = ({ct}*)T[S[0]];
    OWNED(fin, jlo, jhi);
    for (i64 n = 0; n < a->n; ++n) {{
        const {ct}* gn = G + n * fout;
        {ct}* dn = O + n * fin;
        for (i64 j = jlo; j < jhi; ++j) dn[j] = ({ct})0;
        for (i64 o = 0; o < fout; ++o) {{
            const {ct} g = gn[o];
            const {ct}* wo = W + o * fin;
            for (i64 j = jlo; j < jhi; ++j) dn[j] += g * wo[j];
        }}
    }}
}}
"""


def _maxpool_source(ct: str) -> str:
    """``k_maxpool_<ct>``: walked from the layer's scalar geometry the way
    ``pad_<xt>_<ct>`` walks a conv's input — per output row, every tap
    ``(ky, kx)`` in order sweeps one input row at the pool's stride with a
    compare-and-select.  That sweep vectorises only with the stride a
    compile-time constant, so it is instantiated for the strides the
    models use (1, 2; with and without the argmax store) ahead of the
    runtime-stride loop.  Each output keeps the *first* maximum of its
    window in ``(ky, kx)`` order (padding counts as ``-inf`` and never
    wins), and a NaN wins the compare once and stays, so values and the
    saved argmax (window offset ``ky * kw + kx``) are ``np.max`` /
    ``np.argmax`` of the closure's column block, NaNs included.  Threads
    own (n, c) planes.

    ``k_maxpool_bwd_<ct>``: zero the plane, then add ``g`` at each
    window's stored argmax.  Windows are visited last to first: an input
    cell covered by several windows then receives them in ascending
    kernel-offset order — the col2im summation order of the oracle — so
    the stage is bitwise."""
    return f"""\
static inline __attribute__((always_inline)) void maxpool_tap_{ct}(
    const {ct}* restrict row, {ct}* restrict m, i64* restrict a,
    i64 lo, i64 hi, i64 sw, i64 off, i64 code, int save)
{{
    for (i64 ox = lo; ox < hi; ++ox) {{
        const {ct} xv = row[ox * sw + off], mv = m[ox];
        const int take = (xv > mv) | ((xv != xv) & (mv == mv));
        m[ox] = take ? xv : mv;
        if (save) a[ox] = take ? code : a[ox];
    }}
}}
KERNEL(maxpool_{ct})
{{
    const pool_args* g = (const pool_args*)A;
    const i64 h = g->h, w = g->w, oh = g->oh, ow = g->ow, sw = g->sw;
    const {ct}* X = (const {ct}*)T[S[1]];
    {ct}* O = ({ct}*)T[S[0]];
    i64* const arg = g->arg ? (i64*)T[S[2]] : 0;
    /* outputs [lo, hi) find an image cell under tap column kx */
    i64 lo[g->kw], hi[g->kw];
    for (i64 kx = 0; kx < g->kw; ++kx) {{
        const i64 span = w + g->pl - kx;
        lo[kx] = g->pl > kx ? (g->pl - kx + sw - 1) / sw : 0;
        hi[kx] = span > 0 ? (span + sw - 1) / sw : 0;
        if (hi[kx] > ow) hi[kx] = ow;
    }}
    OWNED(g->nc, qlo, qhi);
    for (i64 q = qlo; q < qhi; ++q)
    for (i64 oy = 0; oy < oh; ++oy) {{
        {ct}* restrict m = O + (q * oh + oy) * ow;
        i64* restrict a = arg ? arg + (q * oh + oy) * ow : 0;
        for (i64 ox = 0; ox < ow; ++ox) m[ox] = -INFINITY;
        if (a) for (i64 ox = 0; ox < ow; ++ox) a[ox] = 0;
        for (i64 ky = 0; ky < g->kh; ++ky) {{
            const i64 iy = oy * g->sh + ky - g->pt;
            if (iy < 0 || iy >= h) continue;
            const {ct}* restrict row = X + (q * h + iy) * w;
            for (i64 kx = 0; kx < g->kw; ++kx) {{
#define TAP(SW, SAVE) maxpool_tap_{ct}( \\
    row, m, a, lo[kx], hi[kx], SW, kx - g->pl, ky * g->kw + kx, SAVE)
#define TAPS(SAVE) \\
    if (sw == 1) TAP(1, SAVE); else if (sw == 2) TAP(2, SAVE); else TAP(sw, SAVE)
                if (a) {{ TAPS(1); }} else {{ TAPS(0); }}
#undef TAPS
#undef TAP
            }}
        }}
    }}
}}
KERNEL(maxpool_bwd_{ct})
{{
    const pool_args* g = (const pool_args*)A;
    const i64 h = g->h, w = g->w, oh = g->oh, ow = g->ow, p = oh * ow;
    const {ct}* restrict G = (const {ct}*)T[S[1]];
    const i64* restrict arg = (const i64*)T[S[2]];
    {ct}* restrict O = ({ct}*)T[S[0]];
    /* window offset -> its cell relative to the window's origin */
    const i64 kk = g->kh * g->kw;
    i64 dy[kk], dx[kk];
    for (i64 k = 0; k < kk; ++k) {{
        dy[k] = k / g->kw - g->pt;
        dx[k] = k % g->kw - g->pl;
    }}
    OWNED(g->nc, qlo, qhi);
    for (i64 q = qlo; q < qhi; ++q) {{
        {ct}* on = O + q * h * w;
        for (i64 t = 0; t < h * w; ++t) on[t] = ({ct})0;
        for (i64 oy = oh - 1; oy >= 0; --oy)
        for (i64 ox = ow - 1; ox >= 0; --ox) {{
            const i64 at = q * p + oy * ow + ox, k = arg[at];
            const i64 y = oy * g->sh + dy[k], x = ox * g->sw + dx[k];
            if (y >= 0 && y < h && x >= 0 && x < w) on[y * w + x] += G[at];
        }}
    }}
}}
"""


# -- the library -------------------------------------------------------------

#: adapter names in ``KERNELS[]`` order; a row's ``kernel`` is the index
KERNEL_NAMES = [
    f"conv_{xt}_{ct}" for xt, ct in _CONV_PAIRS
] + [
    f"{family}_{ct}" for ct in _CTYPES for family in (
        "bn_train", "bn_bwd", "linear", "linear_bwd", "maxpool",
        "maxpool_bwd", *_FLAT_NAMES, *_LINE_NAMES,
    )
] + ["bn_update"]
KERNEL_ID = {name: k for k, name in enumerate(KERNEL_NAMES)}

#: objects the library builds from, side by side: one per compute type
LIBRARY_PARTS = len(_CTYPES)


def library_source(nt: int) -> str:
    """The whole library for a pool of ``nt`` threads, one text: shared
    declarations, then per compute type every kernel family and its
    adapters, the first type's part closed by ``KERNELS[]``, the pool
    runtime and the row walk.  Compiled as it is it is one translation
    unit; with ``-DREPRO_PART=<k>`` only type ``k``'s part is emitted, so
    the build compiles the parts in parallel and links them."""
    parts = [
        "#include <math.h>",
        "#include <pthread.h>",
        "#include <stdint.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "typedef long long i64;",
        "/* REPRO_PART undefined: everything, one unit; k: part k alone,",
        " * what it shares with the others a hidden symbol of the .so */",
        '#define LIB_SHARED __attribute__((visibility("hidden")))',
        # per-thread scratch: one heap block of POOL_NT strides that
        # repro_scratch_reserve grows, never shrinks
        "extern LIB_SHARED char* POOL_SCRATCH;",
        "extern LIB_SHARED i64 SCR_STRIDE;",
        "#define POOL_SCR(t) (POOL_SCRATCH + (i64)(t) * SCR_STRIDE)",
        _VEC_PRELUDE,
    ]
    for ct in _CTYPES:
        parts.append(_vec_type(ct) + _vec_type(ct, "VEC_BYTES / 2", "vh"))
    parts += [
        _CONV_PRELUDE, _LANES_PRELUDE, _PLAN_SOURCE,
        "LIB_SHARED kernel_sig " + ",\n    ".join(
            f"k_{name}" for name in KERNEL_NAMES
        ) + ";",
        _SWEEP_SOURCE,
    ]
    for part, ct in enumerate(_CTYPES):
        parts += [
            f"#if !defined(REPRO_PART) || REPRO_PART == {part}",
            _epilogue_source(ct), _gemm_source(ct), _gemmk_source(ct),
            _convt_source(ct), _lanes_source(ct), _bn_train_source(ct),
            _bn_bwd_source(ct), _flat_source(ct),
            _line_source(ct), _linear_source(ct), _maxpool_source(ct),
        ]
        for xt, xct in _CONV_PAIRS:
            if xct == ct:
                parts += [_conv_source(xt, ct), _convk_source(xt, ct),
                          _conv_adapter(xt, ct)]
        if part == 0:
            table = ",\n    ".join(f"k_{name}" for name in KERNEL_NAMES)
            parts += [
                _BN_UPDATE_SOURCE,
                f"static kernel_sig* const KERNELS[] = {{\n    {table}\n}};",
                pool_runtime_source(nt),
            ]
        parts.append("#endif")
    return "\n".join(parts) + "\n"

"""The library's conv, BN and max-pool kernels under AddressSanitizer + UBSan.

The implicit-GEMM kernel reads its B operand straight from a padded copy
in per-thread scratch, a whole NR-wide panel at a time: the last panel's
garbage lanes legitimately read up to NR - 1 cells past the last valid
position, and nothing in the parity suites would notice if that slack
were not there (the library's scratch is one block, rounded up, grown to
the largest stage any plan brought).  This harness proves it is: the
renderer's own row builders fill a table for a sweep of forward and
input-gradient geometries for (f32 -> f64, f64 -> f64, f32 -> f32), and
a generated ``main`` appended to the library source — one unit, built
once per vector width — runs every row as both halves of a 2-wide pool on
exact-size heap buffers, each thread of each stage with exactly the
scratch ``_need_scratch`` reserved for it, compiled
``-fsanitize=address,undefined`` as an executable.  Any read or write
outside a buffer, misaligned table or signed overflow aborts it.

The same ``main`` runs the kernels that walk planes a vector at a time:
``bn_train`` / ``bn_bwd`` (f64 lane accumulators loaded at any element
boundary, a scalar remainder that must stop at the plane's end) over
planes of 1 to 77 elements, one and two groups, both data dtypes, and the
geometry-walked max-pool at odd sizes.  Every buffer starts one element
past its heap block's start — no vector load may assume more alignment
than its element type has — and ends where the block ends.

The two small-grid kernels — ``convk_*`` (forward, ``k`` on the lanes:
a row block, parked accumulators and a result block in scratch, whole
vectors of weights up to a row's last full one) and ``convt_*`` (input
gradient in scatter form: a ``Z`` block, weight-column tiles up to the
last whole one, prefetches that run past the matrix) — take the same
treatment over the grids on either side of ``conv_small`` at both vector
widths: where the host has AVX-512 the harness is built and run a second
time with it switched off, so the rule, the tiles and the scratch they
index are exercised at 32 and at 64 bytes.

A BN + ReLU stem over the plan input rides the same table, per dtype
pair: the conv epilogue with bias and the live running statistics, and
the panel kernel's second store of the stem's pre-BN rows.

The sanitized executables are cached beside the kernel library
(``<cache>/sanitizer/harness-<digest>``), keyed by the compiler, its
flags and the harness source: only a changed kernel source (or table)
pays the build, and a planted out-of-bounds access is a changed source.

Loud skip when the host has no compiler or no sanitizer runtime.
"""

import hashlib
import os
import subprocess

import numpy as np
import pytest

from repro import nn
from repro.engine.backends import CGenBackend, cgen, find_cc
from repro.engine.backends.cgen.build import default_cache_dir
from repro.engine.backends.cgen.kernels import library_source
from repro.engine.backends.core import lower_conv, lower_pool
from repro.nn.functional import _conv_output_size

THREADS = 2
SAN_FLAGS = ["-O2", "-g", "-march=native", "-pthread", "-ffp-contract=fast",
             "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]


def _geometries():
    """(kernel, stride, padding, h, w): the seam widths x pads 0-3 at
    3x3, then kernels / strides / pads off the common path — strides
    beyond the kernel, one-pixel images, padding beyond the kernel,
    trailing rows no window reaches."""
    sweep = [((3, 3), (1, 1), (pad, pad), 6, w)
             for w in (5, 10, 11, 23, 25) for pad in range(4)]
    rng = np.random.default_rng(17)
    for _ in range(24):
        kernel = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        stride = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        padding = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        h = int(rng.integers(max(1, kernel[0] - 2 * padding[0]), 10))
        w = int(rng.integers(max(1, kernel[1] - 2 * padding[1]), 27))
        sweep.append((kernel, stride, padding, h, w))
    sweep += [((1, 1), (1, 1), (0, 0), 2, 5), ((1, 1), (2, 2), (0, 0), 5, 9),
              ((7, 7), (2, 2), (3, 3), 12, 30), ((1, 1), (3, 3), (1, 1), 1, 1)]
    return sweep


def small_grid_cases():
    """(kernel, stride, padding, h, w, n, c, f) whose *output* grid —
    the GEMM grid of the forward conv and of its input gradient — is 1x1,
    1x3, 2x5 or the first grid on either side of ``2 * oh * ow <= NR``
    for NR = 12 / 24 / 48 (f64 and f32 tiles at 32- and 64-byte
    vectors): 6 | 7, 12 | 13 and 24 | 25 positions.  3x3 and 1x1
    kernels over 3, 4 and 5 channels (``kt`` and ``9C`` off every vector
    length), strides 1-2, padding 0-2, batches 1-4."""
    grids = [(1, 1), (1, 3), (2, 5), (2, 3), (1, 7), (3, 4), (1, 13),
             (4, 6), (5, 5)]
    combos = [((3, 3), 1, 1), ((3, 3), 2, 2), ((1, 1), 1, 0), ((1, 1), 2, 1),
              ((3, 3), 2, 0)]
    rng = np.random.default_rng(23)
    cases = []
    for at, (oh, ow) in enumerate(grids):
        for shift, (kernel, stride, pad) in enumerate(combos):
            sizes = []
            for out, k in zip((oh, ow), kernel):
                p = pad
                while (out - 1) * stride + k - 2 * p < 1:
                    p -= 1
                sizes.append(((out - 1) * stride + k - 2 * p, p))
            (h, ph), (w, pw) = sizes
            assert _conv_output_size(h, kernel[0], stride, ph) == oh
            assert _conv_output_size(w, kernel[1], stride, pw) == ow
            cases.append((
                kernel, (stride, stride), (ph, pw), h, w,
                1 + (at + shift) % 4, 3 + (at + shift) % 3,
                int(rng.integers(1, 10)),
            ))
    return cases


def _render(renderer):
    """Offer every geometry's forward conv (three dtype pairs) and input
    gradient (fresh and accumulating, two dtypes) to ``renderer``;
    returns per stage the scratch it reserved, the arrays to keep, and
    the plan-owned int64 arrays whose *contents* the stages read (a BN
    fold flag)."""
    rng = np.random.default_rng(5)
    needs, keep, contents = [], [], []

    def offered(kind, spec):
        renderer._scratch_bytes = 0
        assert renderer.offer_stage(kind, spec, None) is not None, spec
        needs.append(renderer._scratch_bytes)

    cases = [
        geometry + (2, int(rng.integers(1, 4)), int(rng.integers(1, 10)))
        for geometry in _geometries()
    ] + small_grid_cases()
    for kernel, stride, padding, h, w, n, c, f in cases:
        for xd, cd in ((np.float32, np.float64), (np.float64, np.float64),
                       (np.float32, np.float32)):
            geo = lower_conv((n, c, h, w), (f, c) + kernel, stride, padding,
                             cd, xd)
            weight = nn.Tensor(rng.standard_normal((f, c) + kernel).astype(cd))
            x = rng.standard_normal((n, c, h, w)).astype(xd)
            out3 = np.empty((n, f, geo.p_total), dtype=cd)
            keep += [weight, x, out3]
            offered("conv", dict(
                geo=geo, weight=weight, bias=None, out3=out3,
                x_src=("fixed", x), relu=False, bn_module=None,
            ))
            if xd != cd:
                continue
            g = rng.standard_normal((n, f, geo.out_h, geo.out_w)).astype(cd)
            for accumulate in (False, True):
                dst = np.zeros((n, c, h, w), dtype=cd)
                keep += [g, dst]
                offered("conv_dgrad", dict(
                    geo=geo, dtype=cd, weight=weight, g=g, dst=dst,
                    accumulate=accumulate,
                ))

    # planes below, at and off every multiple of the 4- and 8-lane loops
    for hw, groups, dtype in [
        (hw, groups, dtype) for hw in (1, 3, 7, 9, 15, 31, 33, 65, 77)
        for groups in (1, 2) for dtype in (np.float32, np.float64)
    ]:
        gs, c = 2, 3
        shape = (groups * gs, c, 1, hw)
        x, out, xhat, g, dst = (
            rng.standard_normal(shape).astype(dtype) for _ in range(5)
        )
        inv_std = np.ones((groups, c), dtype=dtype)
        taps = [np.zeros((groups, c)) for _ in range(4)]
        if groups > 1:
            gamma = ("slot", np.ones((groups, c)))
            beta = ("slot", np.zeros((groups, c)))
            keep += [gamma[1], beta[1]]
        else:
            module = nn.BatchNorm2d(c)
            gamma = beta = ("module", module)
            keep += [module.weight, module.bias]
        keep += [x, out, xhat, g, dst, inv_std] + taps
        dims = (groups, gs, c, hw)
        offered("bn_train", dict(
            x_src=("fixed", x), out=out, xhat=xhat, inv_std=inv_std,
            batch_mean=taps[0], batch_var=taps[1], gamma=gamma, beta=beta,
            dims=dims, eps=1e-5, dtype=dtype,
        ))
        for sink in (dst, None):  # the network's first BN has none
            offered("bn_bwd", dict(
                g=g, xhat=xhat, inv_std=inv_std, grad_gamma=taps[2],
                grad_beta=taps[3], dst=sink, dims=dims, m=float(gs * hw),
                gamma=gamma, dtype=dtype, accumulate=False,
            ))

    for kernel, stride, padding, h, w in [
        ((3, 3), (2, 2), (1, 1), 7, 13), ((3, 3), (2, 2), (1, 1), 8, 16),
        ((2, 3), (1, 2), (0, 2), 5, 9), ((1, 1), (1, 1), (0, 0), 1, 1),
        ((4, 2), (3, 1), (2, 0), 6, 11), ((3, 3), (1, 3), (3, 3), 2, 4),
    ]:
        for dtype in (np.float32, np.float64):
            n, c = 2, 3
            oh = _conv_output_size(h, kernel[0], stride[0], padding[0])
            ow = _conv_output_size(w, kernel[1], stride[1], padding[1])
            geo = lower_pool((n, c, h, w), (n, c, oh, ow), kernel, stride,
                             padding, dtype)
            x = rng.standard_normal((n, c, h, w)).astype(dtype)
            out2 = np.empty((n * c, oh * ow), dtype=dtype)
            arg = np.empty((n * c, oh * ow), dtype=np.intp)
            keep += [x, out2, arg]
            for saved in (arg, None):  # inference plans save no argmax
                offered("maxpool", dict(
                    geo=geo, x_src=("fixed", x), out_dtype=dtype, out2=out2,
                    arg=saved,
                ))

    # a BN + ReLU stem: bias, its pre-BN rows stored, then the running
    # statistics, over the plan input (slot 0)
    for xd, cd in ((np.float32, np.float64), (np.float32, np.float32)):
        c, h, w, f, batch = 3, 9, 13, 5, 4
        weight = nn.Parameter(rng.standard_normal((f, c, 3, 3)).astype(cd))
        bias = nn.Parameter(rng.standard_normal(f).astype(cd))
        bn = nn.BatchNorm2d(f)
        bn.eval()
        keep += [weight, bias, bn.weight, bn.bias, bn.running_mean,
                 bn.running_var]
        first = len(renderer._static)
        geo = lower_conv((batch, c, h, w), (f, c, 3, 3), (1, 1), (1, 1),
                         cd, xd)
        out3 = np.empty((batch, f, geo.p_total), dtype=cd)
        rows = np.empty_like(out3)
        keep += [out3, rows]
        offered("conv", dict(
            geo=geo, weight=weight, bias=bias, out3=out3,
            x_src=("input", None), relu=True, bn_module=bn, rows=rows,
        ))
        # the fold flag reads 0: running statistics, not per-sample rows
        contents += [
            arr for _, arr in renderer._static[first:]
            if arr.dtype == np.int64
        ]
    return needs, keep, contents


def bound_table(renderer):
    """The pointer table ``finalize`` would build for the stages offered
    so far: plan-owned buffers placed, every binder run once."""
    tab = np.zeros(renderer._nslots, dtype=np.uintp)
    renderer._tab_holder[0] = tab
    for slot, arr in renderer._static:
        tab[slot] = arr.ctypes.data
    for offer in renderer._offers:
        offer.bind_now()
    return tab


def _c_array(values):
    return "{ " + ", ".join(str(int(v)) for v in values) + " }"


def _harness_source(renderer, needs, keep, contents):
    """The library as one unit plus a ``main`` that copies every bound
    buffer into an exact-size heap block and runs each row of the
    renderer's table as both threads of a 2-wide pool — every thread on a
    scratch block of exactly the stage's reserve (stride 0: whichever
    ``tid`` runs finds it at ``POOL_SCR(tid)``).  Buffers hold 0x3c
    bytes, except the ``contents`` arrays (copied)."""
    tab = bound_table(renderer)
    # slot -> (bytes, element bytes): plan-owned buffers by identity,
    # parameters by address (an entry nothing is bound to: no block)
    sizes = {slot: (arr.nbytes, arr.itemsize) for slot, arr in renderer._static}
    by_address = {0: (0, 0)}
    for held in keep:
        data = held.data if isinstance(held, nn.Tensor) else held
        by_address[data.ctypes.data] = (data.nbytes, data.itemsize)
    for slot in range(1, renderer._nslots):
        if slot not in sizes:
            sizes[slot] = by_address[int(tab[slot])]
    # the plan input: the stem rows' batch, float32
    sizes[0] = (4 * 3 * 9 * 13 * 4, 4)

    slot_of = {id(arr): slot for slot, arr in renderer._static}
    fill = "".join(
        f"    memcpy(T[{slot_of[id(arr)]}], (const i64[]){_c_array(arr)}, "
        f"{arr.nbytes});\n"
        for arr in contents
    )

    rows, args = renderer._tables()
    slots = range(renderer._nslots)
    return library_source(THREADS) + f"""
#include <stdio.h>
static const i64 SIZES[] = {_c_array(sizes[s][0] for s in slots)};
static const i64 ITEMS[] = {_c_array(sizes[s][1] for s in slots)};
static const i64 NEEDS[] = {_c_array(needs)};
/* the table as the plan holds it: rows, then the args blob in words */
static const i64 ROWS[] = {_c_array(rows.view(np.int64))};
static const unsigned long long ARGS[] = {_c_array(args.view(np.uint64))};
int main(void) {{
    enum {{ NSLOTS = {renderer._nslots}, NSTAGES = {len(needs)} }};
    const stage_row* rows = (const stage_row*)ROWS;
    char *T[NSLOTS];
    for (i64 s = 0; s < NSLOTS; ++s) {{
        /* one element into its block, ending where the block ends */
        T[s] = SIZES[s] ? (char*)malloc(SIZES[s] + ITEMS[s]) + ITEMS[s] : 0;
        /* 0x3c bytes: a small finite float at either width */
        if (T[s]) memset(T[s], 0x3c, SIZES[s]);
    }}
{fill}    SCR_STRIDE = 0;
    for (i64 q = 0; q < NSTAGES; ++q)
        for (i64 t = 0; t < {THREADS}; ++t) {{
            POOL_SCRATCH = (char*)malloc(NEEDS[q]);
            stage_call(T, rows + q, (const char*)ARGS, t, {THREADS});
            free(POOL_SCRATCH);
        }}
    double sum = 0.0;
    for (i64 s = 0; s < NSLOTS; ++s) {{
        for (i64 b = 0; b < SIZES[s]; ++b) sum += (unsigned char)T[s][b];
        if (T[s]) free(T[s] - ITEMS[s]);
    }}
    printf("%d stages, checksum %.0f\\n", (int)NSTAGES, sum);
    return 0;
}}
"""


def _sanitizer_runtime(cc, tmp_path):
    """``None`` when ``cc`` links and runs a sanitized executable, else
    the reason it does not."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    exe = tmp_path / "probe"
    built = subprocess.run(
        [cc, *SAN_FLAGS, str(probe), "-o", str(exe)],
        capture_output=True, text=True,
    )
    if built.returncode != 0:
        return built.stderr.strip()[-300:] or "link failed"
    ran = subprocess.run([str(exe)], capture_output=True, text=True,
                         env=_san_env())
    if ran.returncode != 0:
        return ran.stderr.strip()[-300:] or f"exit {ran.returncode}"
    return None


def _narrow_flags(cc):
    """The flags that rebuild the harness at 32-byte vectors, or ``[]``
    when that is what ``-march=native`` already gives."""
    macros = subprocess.run(
        [cc, "-march=native", "-dM", "-E", "-"], input="",
        capture_output=True, text=True,
    ).stdout
    return ["-mno-avx512f"] if "__AVX512F__" in macros else []


def _built(cc, flags, src, tmp_path):
    """The sanitized executable of ``src``: from the cache when this
    compiler, these flags and this source built it before, else built
    into it (under a name unique to the call, published with
    ``os.replace``).  ``(path, None)`` or ``(None, the compiler's
    complaint)``."""
    key = hashlib.sha256(
        "\0".join([cc, *flags, src.read_text()]).encode()
    ).hexdigest()[:24]
    cache = os.path.join(default_cache_dir(), "sanitizer")
    exe = os.path.join(cache, f"harness-{key}")
    if os.path.exists(exe):
        return exe, None
    os.makedirs(cache, exist_ok=True)
    part = tmp_path / f"harness-{key}"
    built = subprocess.run(
        [cc, *flags, str(src), "-o", str(part), "-lm"],
        capture_output=True, text=True,
    )
    if built.returncode != 0:
        return None, built.stderr[-2000:]
    os.replace(part, exe)
    return exe, None


def _san_env():
    # leak checking needs ptrace, which sandboxes commonly deny
    return dict(os.environ, ASAN_OPTIONS="detect_leaks=0",
                UBSAN_OPTIONS="print_stacktrace=1")


def test_conv_helpers_run_clean_under_asan_and_ubsan(tmp_path):
    cc = find_cc()
    if cc is None:
        pytest.skip("NOTICE: conv sanitizer harness SKIPPED — no C compiler")
    missing = _sanitizer_runtime(cc, tmp_path)
    if missing is not None:
        pytest.skip(
            "NOTICE: conv sanitizer harness SKIPPED — no usable "
            f"-fsanitize=address,undefined runtime here: {missing}"
        )

    renderer = cgen.CRenderer(CGenBackend(), threads=THREADS)
    needs, keep, contents = _render(renderer)
    source = _harness_source(renderer, needs, keep, contents)
    for kernel in ("conv_float_double", "conv_double_double",
                   "conv_float_float", "convk_float_double",
                   "convk_double_double", "convk_float_float",
                   "convt_double", "convt_float"):
        assert f"static void {kernel}(" in source, kernel
    for kernel in ("bn_train_float", "bn_train_double", "bn_bwd_float",
                   "bn_bwd_double"):
        assert f"KERNEL({kernel})" in source, kernel
    src = tmp_path / "harness.c"
    src.write_text(source)
    narrow = _narrow_flags(cc)
    for width in ([], narrow) if narrow else ([],):
        exe, failed = _built(cc, SAN_FLAGS + width, src, tmp_path)
        assert failed is None, failed
        ran = subprocess.run([exe], capture_output=True, text=True,
                             env=_san_env())
        assert ran.returncode == 0, (width, (ran.stdout + ran.stderr)[-4000:])
        assert f"{len(needs)} stages" in ran.stdout

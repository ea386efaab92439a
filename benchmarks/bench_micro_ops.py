"""Micro-benchmarks of the substrate's hot paths.

Not a paper artifact — these time the numpy framework itself (conv
forward/backward, one full LD-BN-ADAPT step, UFLD inference) so that
performance regressions in the substrate are visible.  Uses real repeated
timing rounds, unlike the single-shot experiment benches.

``test_micro_ops_backends`` additionally races the engine's two plan
backends per kernel family (fused conv-BN-ReLU, 1x1 identity-columns
GEMM, padded im2col conv, linear, max-pool, elementwise ReLU, the
``small-r18`` conv shapes as serving feeds them — float32 inputs widened
into float64 GEMMs — the conv input-gradient shapes of its adaptation
step, ``dgrad*``: BLAS GEMM + col2im against the gather-form phase
GEMMs (the scatter form on layer 4's grid), and its train-mode BN
shapes, ``bn_train_*`` / ``bn_bwd_*``) and archives the rows to
``results/micro_ops.json`` — a record to read, not a baseline anything
diffs against.  Gated here, on interleaved samples of the same run: the
rendered conv — forward or input gradient — must not lose to the
numpy/BLAS closure on any serving-shape row with at least
``MIN_GATED_PIXELS`` output pixels (for a ``dgrad`` row: ``dX``
pixels), the rendered BN stages and the 3x3 stride-2 max-pool must not
lose to their closures from ``MIN_GATED_PLANE`` elements per plane up,
and a 2-wide pool must not lose to one thread on any ``*_mt`` row whose
stage the renderer tiles (a stage it keeps inline runs the same code at
both widths and ties by construction).  The ``fleet_fold_us`` and
``session_pack_us`` rows (the fleet's per-launch BN fold, a session
checkpoint's pack) ride the same archive, ungated.  The end-to-end
>= 1.3x cgen gate lives in ``bench_infer_engine.py``; a slowdown of a
whole frame shows in bench-e2e's parent/change pairs
(``benchmarks/e2e/compare.py``).
"""

import os

import numpy as np
import pytest
from conftest import results_path

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.experiments import format_table, save_json
from repro.experiments.bench_micro import (
    run_micro_ops,
    run_micro_serve,
    run_micro_threaded,
)
from repro.models import build_model
from repro.nn import functional as F


@pytest.fixture(scope="module")
def tiny_model():
    return build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def frame():
    return np.random.default_rng(1).random((1, 3, 32, 80)).astype(np.float32)


def test_conv2d_forward(benchmark):
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.standard_normal((4, 16, 16, 40)).astype(np.float32))
    w = nn.Tensor(rng.standard_normal((32, 16, 3, 3)).astype(np.float32))

    benchmark(lambda: F.conv2d(x, w, stride=1, padding=1))


def test_conv2d_backward(benchmark):
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((4, 16, 16, 40)).astype(np.float32)
    w_data = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)

    def run():
        x = nn.Tensor(x_data, requires_grad=True)
        w = nn.Tensor(w_data, requires_grad=True)
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

    benchmark(run)


def test_ufld_inference(benchmark, tiny_model, frame):
    tiny_model.eval()

    def run():
        with nn.no_grad():
            return tiny_model(nn.Tensor(frame, _copy=False))

    benchmark(run)


def test_ld_bn_adapt_step(benchmark, tiny_model, frame):
    adapter = LDBNAdapt(tiny_model, LDBNAdaptConfig(lr=1e-3))

    benchmark(lambda: adapter.adapt(frame))


def test_batchnorm_train_forward(benchmark):
    rng = np.random.default_rng(0)
    bn = nn.BatchNorm2d(64)
    x = nn.Tensor(rng.standard_normal((4, 64, 8, 20)).astype(np.float32))

    benchmark(lambda: bn(x))


MICRO_REPS = 200
# serving-shape conv rows at or above this many output pixels: cgen >=
# BLAS — every row there is, down to layer 4's 2x5 grid, which runs the
# small-grid kernels (`conv3x3_128_f32`, `conv3x3s2_64to128_f32`,
# `dgrad3x3_128_f64`; the `dgrad3x3s2_64to128_f64` row is 40 `dX` pixels
# off a 10-pixel `dY` grid).
MIN_GATED_PIXELS = 10
MIN_CONV_SPEEDUP = 1.0
# BN and max-pool rows from this many elements per plane: below it (the
# 40- and 10-element planes of layers 3 and 4) a stage is mostly its
# per-channel epilogue and its ~15 us of dispatch on both sides
MIN_GATED_PLANE = 160
_PLANE_GATED = ("bn_train", "bn_bwd", "maxpool3x3s2")
MIN_MT_SPEEDUP = 0.95   # a tiled stage at 2 threads vs 1

MICRO_COLUMNS = [
    "op", "shape", "out_pixels", "numpy_p50_ms", "numpy_p95_ms",
    "cgen_p50_ms", "cgen_p95_ms", "speedup_p95",
    "rendered", "fallback", "max_abs_diff",
]

MICRO_MT_COLUMNS = [
    "op", "shape", "threads", "cgen_st_p50_ms", "cgen_st_p95_ms",
    "cgen_mt_p50_ms", "cgen_mt_p95_ms", "mt_speedup_p95",
    "mt_stages", "dispatch_p50_us", "dispatch_p95_us", "glue_p50_us",
    "glue_p95_us", "rendered",
    "fallback", "max_abs_diff",
]

MICRO_SERVE_COLUMNS = ["op", "shape", "reps", "p50_us", "p95_us", "arrays", "kbytes"]


def test_micro_ops_backends(benchmark):
    rows = benchmark.pedantic(
        run_micro_ops, kwargs=dict(reps=MICRO_REPS), rounds=1, iterations=1,
    )

    print("\nMICRO — per-kernel numpy vs cgen latency (ms)")
    print(format_table(rows, columns=MICRO_COLUMNS, floatfmt=".4f"))

    # threaded-vs-single-thread rows ride the same archive
    mt_rows = run_micro_threaded(reps=MICRO_REPS, threads=2)
    print("\nMICRO — per-kernel single-thread vs 2-thread cgen latency (ms)")
    print(format_table(mt_rows, columns=MICRO_MT_COLUMNS, floatfmt=".4f"))
    serve_rows = run_micro_serve(reps=MICRO_REPS)
    print("\nMICRO — fleet BN fold per launch, session checkpoint pack (us)")
    print(format_table(serve_rows, columns=MICRO_SERVE_COLUMNS, floatfmt=".1f"))
    save_json(results_path("micro_ops.json"), rows + mt_rows + serve_rows)

    one_core = (os.cpu_count() or 1) < 2
    if one_core:
        print(
            "NOTICE: mt_speedup_p95 gate SKIPPED — single-core host, a "
            "worker pool cannot tie single-thread kernels here"
        )
    for row in mt_rows:
        assert row["max_abs_diff"] < 1e-3, (
            f"threaded cgen kernel diverged from single-thread: {row}"
        )
        if row["fallback"]:
            print(
                f"NOTICE: threaded timing for {row['op']} measured the "
                "numpy fallback — no C compiler rendered the plan"
            )
        elif row.get("mt_stages") and not one_core:
            assert row["mt_speedup_p95"] >= MIN_MT_SPEEDUP, (
                f"2-thread cgen lost to single-thread cgen: {row}"
            )

    for row in rows:
        assert row["max_abs_diff"] < 1e-3, (
            f"cgen kernel diverged from the numpy closure: {row}"
        )
        if row["fallback"]:
            print(
                f"NOTICE: cgen timing for {row['op']} measured the numpy "
                "fallback — no C compiler rendered the plan"
            )
        elif ((row["op"].endswith("_f32") or row["op"].startswith("dgrad"))
                and row["out_pixels"] >= MIN_GATED_PIXELS):
            assert row["speedup_p95"] >= MIN_CONV_SPEEDUP, (
                f"rendered conv lost to the numpy/BLAS closure: {row}"
            )
        elif (row["op"].startswith(_PLANE_GATED)
                and row["out_pixels"] >= MIN_GATED_PLANE):
            assert row["speedup_p95"] >= MIN_CONV_SPEEDUP, (
                f"rendered stage lost to its numpy closure: {row}"
            )
        # The other float64 rows and the smaller shapes are archived
        # ungated: at those sizes a ratio is mostly ~15 us of dispatch.

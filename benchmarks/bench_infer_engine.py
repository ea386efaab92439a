"""ENGINE — eager vs compiled inference latency on the serving hot path.

Measures, in host wallclock, the eval-mode forward of both backbones at
the configured run scale, two ways over identical inputs:

* **eager** — the autograd define-by-run path (``model(Tensor(x))`` under
  ``no_grad``);
* **compiled** — the traced static plan from :mod:`repro.engine` (fused
  conv-BN-ReLU GEMM epilogues, arena buffer reuse, cached im2col
  workspaces).

Asserted: the compiled path is >= 1.5x faster at batch sizes 1 and 8 on
the r18 preset (and strictly faster on r34), and its outputs are
bit-exact (``np.array_equal``) against eager both on the pristine model
and after LD-BN-ADAPT steps have rewritten the BN state.  The ``cgen``
C backend additionally must be >= 1.3x faster (p95) than the numpy
compiled path at r18 batch 1 and inside the parity band — asserted only
when a C compiler rendered the plan; without one the gate is skipped
with a visible notice (the fallback runs the numpy closures, so there is
nothing to gate).

``test_infer_engine_threaded_speedup`` additionally gates the threaded
kernel pool end-to-end: cgen compiled at the host's core count must be
>= 1.3x faster (p95, interleaved samples) than single-thread cgen at
r34 batch 4.  Skipped with a visible notice on single-core or
compiler-less hosts — there is no parallelism to measure there (the
threaded *code path* is still exercised by the unit suite at
``REPRO_CGEN_THREADS=2``) — and, parity still asserted, when the
renderer tiled no stage (``cgen_mt_stages == 0``: at tiny scale every
stage is below ``cgen._MT_MIN_US``, both columns run the same inline
code and the ratio is 1.0 by construction).
"""

import os

import pytest
from conftest import results_path

from repro.experiments import format_table, get_run_scale, save_json
from repro.experiments.bench_infer import run_bench_infer
from repro.engine.backends import find_cc, resolve_threads

MIN_SPEEDUP_R18 = 1.5
MIN_CGEN_SPEEDUP_R18 = 1.3  # p95, vs the numpy compiled path, batch 1
MIN_MT_SPEEDUP_R34 = 1.3  # p95, threaded vs single-thread cgen, batch 4
BATCH_SIZES = (1, 8)
REPS = 30

COLUMNS = [
    "backbone", "batch", "eager_p50_ms", "eager_p95_ms",
    "compiled_p50_ms", "compiled_p95_ms", "speedup_p50",
    "cgen_p95_ms", "cgen_speedup_p95",
    "bit_exact", "bit_exact_adapted", "cgen_within_band",
]


def test_infer_engine_speedup(benchmark):
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_infer,
        kwargs=dict(scale=scale, batch_sizes=BATCH_SIZES, reps=REPS),
        rounds=1,
        iterations=1,
    )

    print("\nENGINE — eager vs compiled inference latency (ms)")
    print(format_table(rows, columns=COLUMNS, floatfmt=".3f"))
    save_json(results_path("infer_engine.json"), rows)

    for row in rows:
        assert row["bit_exact"], f"compiled output diverged from eager: {row}"
        assert row["bit_exact_adapted"], (
            f"compiled output diverged after BN adaptation: {row}"
        )
        if row["backbone"] == "r18":
            assert row["speedup_p50"] >= MIN_SPEEDUP_R18, (
                f"compiled path should be >= {MIN_SPEEDUP_R18}x faster "
                f"than eager at batch {row['batch']}: {row}"
            )
        else:
            assert row["speedup_p50"] > 1.0, (
                f"compiled path should beat eager on r34: {row}"
            )
        if row["cgen_fallback"]:
            print(
                "NOTICE: cgen gate SKIPPED for "
                f"{row['backbone']} batch {row['batch']} — no C compiler, "
                "plan fell back to numpy closures"
            )
            continue
        assert row["cgen_within_band"], (
            f"cgen output left the parity band: {row}"
        )
        if row["backbone"] == "r18" and row["batch"] == 1:
            assert row["cgen_speedup_p95"] >= MIN_CGEN_SPEEDUP_R18, (
                f"cgen backend should be >= {MIN_CGEN_SPEEDUP_R18}x faster "
                f"(p95) than the numpy compiled path at batch 1: {row}"
            )


MT_COLUMNS = [
    "backbone", "batch", "cgen_threads", "cgen_p95_ms", "cgen_mt_p95_ms",
    "cgen_mt_speedup_p95", "cgen_mt_stages", "cgen_mt_within_band",
]


def test_infer_engine_threaded_speedup(benchmark):
    if find_cc() is None:
        print(
            "\nNOTICE: threaded cgen gate SKIPPED — no C compiler on this "
            "host, plans would fall back to numpy closures"
        )
        pytest.skip("no C compiler")
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            "\nNOTICE: threaded cgen gate SKIPPED — single-core host, "
            "a worker pool cannot beat the single-thread kernels here"
        )
        pytest.skip("single-core host")

    threads = resolve_threads(cores)
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_infer,
        kwargs=dict(
            scale=scale, batch_sizes=(4,), reps=REPS,
            backbones=("r34",), backend="cgen", threads=threads,
        ),
        rounds=1,
        iterations=1,
    )

    print(f"\nENGINE — single-thread vs {threads}-thread cgen latency (ms)")
    print(format_table(rows, columns=MT_COLUMNS, floatfmt=".3f"))
    save_json(results_path("infer_engine_threaded.json"), rows)

    for row in rows:
        if row["cgen_fallback"]:
            print(
                "NOTICE: threaded cgen gate SKIPPED — plan fell back to "
                "numpy closures"
            )
            continue
        assert row["cgen_mt_within_band"], (
            f"threaded cgen output left the parity band: {row}"
        )
        if row["cgen_mt_stages"] == 0:
            print(
                "NOTICE: threaded cgen speed gate SKIPPED — the renderer "
                f"kept every stage of {row['backbone']} batch "
                f"{row['batch']} inline (none repays a pool dispatch at "
                "this scale), so both columns ran the same code"
            )
            continue
        assert row["cgen_mt_speedup_p95"] >= MIN_MT_SPEEDUP_R34, (
            f"{threads}-thread cgen should be >= {MIN_MT_SPEEDUP_R34}x "
            f"faster (p95) than single-thread cgen at r34 batch 4: {row}"
        )

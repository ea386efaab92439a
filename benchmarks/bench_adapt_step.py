"""ADAPT — eager vs compiled LD-BN-ADAPT step on the adaptation hot path.

Measures, in host wallclock, the entropy-minimization step of both
backbones at the configured run scale, two configurations each:

* **single** (batch 1) — the eager autograd step (train-mode forward +
  full backward + optimizer) vs the compiled adaptation plan from
  :mod:`repro.engine` (static backward pruned to BN gamma/beta, arena
  buffer reuse, fused in-place SGD);
* **fleet** (4 same-phase streams) — 4 serial eager steps with BN state
  swap-in/swap-out vs ONE fused grouped replay with per-stream
  gamma/beta/optimizer slots (:mod:`repro.serve.adapt_batch`).

Asserted: the compiled step is >= 1.5x faster at batch 1 on the r18
preset (and strictly faster on r34), the fused 4-stream step beats 4
serial eager steps on both backbones, and the compiled/fused paths match
the eager oracle to float precision.  Each single row also archives the
``cgen`` backend beside the numpy plan (interleaved A/B, parity held to
the float band) and the per-stage ``op_ms`` table: ms per step by
label, off each backend's plan stage table (``plan.stage_ms``: the
served steps, each timed alone; backends replayed alternately).
Asserted on it, on the r18 single row: the rendered forward convs (``cgen:fwd:conv``) and the rendered
conv input gradients (``cgen:bwd:conv``) each cost no more than the
numpy/BLAS ones (``fwd:conv`` / ``bwd:conv``), and no ``bwd:conv`` stage
of the cgen plan is left on numpy.
"""

from conftest import results_path

from repro.experiments import format_table, get_run_scale, save_json
from repro.experiments.bench_adapt import run_bench_adapt

MIN_SPEEDUP_R18 = 1.5
FLEET_STREAMS = 4
REPS = 30

COLUMNS = [
    "backbone", "mode", "streams", "eager_p50_ms", "eager_p95_ms",
    "compiled_p50_ms", "compiled_p95_ms", "speedup_p50", "cgen_p50_ms",
    "cgen_p95_ms", "cgen_speedup_p95", "parity_ok",
]


def test_adapt_step_speedup(benchmark):
    scale = get_run_scale()
    rows = benchmark.pedantic(
        run_bench_adapt,
        kwargs=dict(scale=scale, reps=REPS, fleet_streams=FLEET_STREAMS),
        rounds=1,
        iterations=1,
    )

    print("\nADAPT — eager vs compiled adaptation-step latency (ms)")
    print(format_table(rows, columns=COLUMNS, floatfmt=".3f"))
    save_json(results_path("adapt_step.json"), rows)

    for row in rows:
        assert row["parity_ok"], (
            f"compiled adaptation diverged from the eager oracle: {row}"
        )
        if row["mode"] == "single":
            assert row["cgen_fallback"] or row["cgen_parity_ok"], (
                f"cgen adaptation left the float band vs eager: {row}"
            )
        if (row["mode"] == "single" and row["backbone"] == "r18"
                and not row["cgen_fallback"]):
            for stage in ("fwd:conv", "bwd:conv"):
                c_ms = row["op_ms"]["cgen"]["cgen:" + stage]
                np_ms = row["op_ms"]["numpy"][stage]
                assert c_ms <= np_ms, (
                    f"rendered {stage} ({c_ms:.3f} ms/step) lost to the "
                    f"numpy/BLAS ones ({np_ms:.3f} ms/step) on "
                    f"{row['preset']}"
                )
            assert "bwd:conv" not in row["cgen_numpy_stages"], (
                f"conv input gradients left on numpy: {row}"
            )
        if row["mode"] == "single" and row["backbone"] == "r18":
            assert row["speedup_p50"] >= MIN_SPEEDUP_R18, (
                f"compiled adaptation step should be >= {MIN_SPEEDUP_R18}x "
                f"faster than eager at batch 1: {row}"
            )
        elif row["mode"] == "single":
            assert row["speedup_p50"] > 1.0, (
                f"compiled adaptation step should beat eager on r34: {row}"
            )
        else:  # fleet: fused same-phase step vs N serial eager steps
            assert row["speedup_p50"] > 1.0, (
                f"fused {row['streams']}-stream adaptation should beat "
                f"{row['streams']} serial eager steps: {row}"
            )

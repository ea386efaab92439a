"""Eager-vs-compiled inference latency measurement.

Shared by ``benchmarks/bench_infer_engine.py`` (the archived pytest
harness) and the ``python -m repro.experiments bench-infer`` CLI
subcommand (a quick run that asserts parity and writes nothing).  For
each backbone and batch size it measures the model's eval forward both
ways — the eager autograd path and the compiled engine
(:mod:`repro.engine`) — reports p50/p95 wall-clock latency through the
shared percentile helper, and verifies the engine's hard parity
requirement: outputs **bit-exact** (``np.array_equal``) against eager,
both on the pristine source model and after LD-BN-ADAPT has rewritten
the BN state.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..adapt.bn_adapt import LDBNAdapt, LDBNAdaptConfig
from ..engine import compile_model
from ..engine.backends import PARITY_ATOL, PARITY_RTOL
from ..models import build_model, get_config
from ..pipeline.monitor import latency_percentile
from .config import BACKBONES, RunScale, get_run_scale

DEFAULT_BATCH_SIZES = (1, 8)


def _time_ms(fn, reps: int) -> List[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def run_bench_infer(
    scale: Optional[RunScale] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    reps: int = 30,
    adapt_steps: int = 2,
    backbones: Sequence[str] = BACKBONES,
    seed: int = 0,
    backend: str = "numpy",
    threads: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Measure eager vs compiled inference; returns one row per
    (backbone, batch size) with p50/p95 latencies, speedups and the two
    bit-exactness verdicts.

    ``backend`` selects the plan backend for the *compiled* column (the
    one the bit-exactness assertions run against — only ``numpy``
    guarantees them).  A third column always measures the ``cgen`` C
    backend against the numpy-compiled path: ``cgen_p50_ms`` /
    ``cgen_p95_ms``, ``cgen_speedup_p95`` (numpy-compiled p95 over cgen
    p95), ``cgen_rendered`` stages, ``cgen_within_band`` parity and
    ``cgen_fallback`` (True when no compiler was available and every
    stage fell back to the numpy closures, in which case the speedup is
    ~1.0 by construction).

    ``threads`` (> 1) adds a fourth, threaded cgen column — the same
    plans compiled with a ``threads``-wide kernel pool, interleaved with
    the single-thread cgen samples so machine drift cancels in
    ``cgen_mt_speedup_p95`` (single-thread cgen p95 over threaded p95).
    """
    scale = scale if scale is not None else get_run_scale()
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []
    for backbone in backbones:
        preset = scale.preset(backbone)
        config = get_config(preset)
        model = build_model(preset, rng=rng)
        model.eval()
        engine = compile_model(model, backend=backend)
        cgen_engine = compile_model(model, backend="cgen", threads=1)
        mt = threads is not None and threads > 1
        cgen_mt_engine = (
            compile_model(model, backend="cgen", threads=threads)
            if mt else None
        )
        h, w = config.input_hw

        def frames(batch):
            return rng.standard_normal((batch, 3, h, w)).astype(np.float32)

        for batch in batch_sizes:
            x = frames(batch)

            def eager():
                with nn.no_grad():
                    return model(nn.Tensor(x, _copy=False)).numpy()

            engine(x)  # trace + compile outside the timed region
            with warnings.catch_warnings():
                # a missing C compiler warns once per plan; the fallback
                # is recorded in the row instead
                warnings.simplefilter("ignore", RuntimeWarning)
                cgen_out = cgen_engine(x).numpy().copy()
                if mt:
                    cgen_mt_out = cgen_mt_engine(x).numpy().copy()
            cgen_info = cgen_engine.plan_for(x.shape, x.dtype).backend_info
            eager_ref = eager().copy()
            bit_exact = bool(np.array_equal(eager_ref, engine(x).numpy()))
            # band parity against eager, the true oracle — stays
            # meaningful even when ``backend`` itself is cgen
            cgen_within_band = bool(np.allclose(
                cgen_out, eager_ref,
                rtol=PARITY_RTOL.get(eager_ref.dtype.name, 1e-9),
                atol=PARITY_ATOL.get(eager_ref.dtype.name, 1e-12),
            ))

            eager_ms = _time_ms(eager, reps)
            # interleave the compiled paths so slow machine drift hits
            # all samples equally and cancels in the speedup ratios
            compiled_ms, cgen_ms, cgen_mt_ms = [], [], []
            for _ in range(reps):
                start = time.perf_counter()
                engine(x)
                compiled_ms.append(1e3 * (time.perf_counter() - start))
                start = time.perf_counter()
                cgen_engine(x)
                cgen_ms.append(1e3 * (time.perf_counter() - start))
                if mt:
                    start = time.perf_counter()
                    cgen_mt_engine(x)
                    cgen_mt_ms.append(1e3 * (time.perf_counter() - start))

            # parity must survive online adaptation rewriting the BN state
            adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=1))
            for _ in range(adapt_steps):
                adapter.adapt(frames(1))
            model.eval()
            adapted_ref = eager().copy()
            bit_exact_adapted = bool(
                np.array_equal(adapted_ref, engine(x).numpy())
            )
            adapter.reset()
            model.eval()

            eager_p50 = latency_percentile(eager_ms, 50)
            compiled_p50 = latency_percentile(compiled_ms, 50)
            compiled_p95 = latency_percentile(compiled_ms, 95)
            cgen_p95 = latency_percentile(cgen_ms, 95)
            mt_cols: Dict[str, object] = {}
            if mt:
                mt_info = cgen_mt_engine.plan_for(
                    x.shape, x.dtype
                ).backend_info
                mt_p95 = latency_percentile(cgen_mt_ms, 95)
                mt_cols = {
                    "cgen_threads": mt_info["threads"],
                    "cgen_mt_p50_ms": latency_percentile(cgen_mt_ms, 50),
                    "cgen_mt_p95_ms": mt_p95,
                    # single-thread cgen p95 over threaded p95 — the
                    # thread-scaling headline
                    "cgen_mt_speedup_p95": cgen_p95 / mt_p95,
                    "cgen_mt_stages": mt_info["mt_stages"],
                    "cgen_mt_within_band": bool(np.allclose(
                        cgen_mt_out, eager_ref,
                        rtol=PARITY_RTOL.get(eager_ref.dtype.name, 1e-9),
                        atol=PARITY_ATOL.get(eager_ref.dtype.name, 1e-12),
                    )),
                }
            rows.append(
                {
                    "backbone": backbone,
                    "preset": preset,
                    "batch": batch,
                    "reps": reps,
                    "backend": backend,
                    "eager_p50_ms": eager_p50,
                    "eager_p95_ms": latency_percentile(eager_ms, 95),
                    "compiled_p50_ms": compiled_p50,
                    "compiled_p95_ms": compiled_p95,
                    "speedup_p50": eager_p50 / compiled_p50,
                    "cgen_p50_ms": latency_percentile(cgen_ms, 50),
                    "cgen_p95_ms": cgen_p95,
                    "cgen_speedup_p95": compiled_p95 / cgen_p95,
                    "cgen_rendered": cgen_info["rendered"],
                    "cgen_fallback": cgen_info["rendered"] == 0,
                    "cgen_within_band": cgen_within_band,
                    "bit_exact": bit_exact,
                    "bit_exact_adapted": bit_exact_adapted,
                    **mt_cols,
                }
            )
    return rows

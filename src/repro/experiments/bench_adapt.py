"""Eager-vs-compiled adaptation-step latency measurement.

Shared by ``benchmarks/bench_adapt_step.py`` (the archived pytest
harness) and the ``python -m repro.experiments bench-adapt`` CLI
subcommand (a run that asserts parity and writes nothing).  Two
configurations per backbone, measured in host wallclock over identical
inputs:

* **single** — one stream's LD-BN-ADAPT step at batch 1: the eager
  autograd path (train forward + full backward + optimizer) versus the
  compiled adaptation plan (:class:`repro.engine.CompiledAdaptStep` —
  static forward+backward pruned to BN gamma/beta, fused in-place SGD);
* **fleet** — ``fleet_streams`` same-phase streams, each stepping on its
  own state: N serial *eager* steps (swap-in/step/swap-out per stream,
  the pre-fleet-batching cost) versus ONE fused grouped replay through
  :class:`repro.serve.FleetAdaptationBatcher`.

Every **single** row also carries the ``cgen`` C backend beside the
numpy plan — ``cgen_p50_ms``/``cgen_p95_ms`` sampled *interleaved* with a
numpy-plan adapter (``numpy_ab_p50_ms``) so machine drift cancels in
``cgen_speedup_p95``, its own parity verdict, and ``op_ms``: ms per
step by stage label, read off each backend's plan stage table
(:meth:`~repro.engine.plan.StaticPlan.stage_ms`, the steps the plan
serves, each timed alone), the backends replayed alternately — which is
where "which layer is still on numpy" shows, and where the rendered
forward convs (``cgen:fwd:conv``) are held against the numpy/BLAS ones
(``fwd:conv``).

Each row also records a numerical-parity verdict: the post-step model
state of the compiled path must match the eager oracle to float
precision (the single-stream compiled step is bitwise-identical in
practice; the fused path differs only by GEMM batching at the last ulp).
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..adapt.bn_adapt import LDBNAdapt, LDBNAdaptConfig
from ..engine import CompiledAdaptStep
from ..models import build_model, get_config
from ..serve.adapt_batch import FleetAdaptationBatcher
from ..serve.streams import StreamRegistry
from ..telemetry.sketch import exact_percentile
from .config import BACKBONES, RunScale, get_run_scale

DEFAULT_FLEET_STREAMS = 4
PARITY_RTOL = 1e-7
PARITY_ATOL = 1e-9
# numpy's compiled step is near-bitwise; C-rendered stages reorder
# accumulation (FMA, serial reductions), so they get a float band
CGEN_PARITY_ATOL = 1e-6
PROFILE_STEPS = 10


def _time_ms(fn, reps: int) -> List[float]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - start))
    return samples


def _state_parity(
    model, pristine, frames, lr: float, steps: int, backend=None
) -> float:
    """Max |state diff| after ``steps`` adaptation steps, compiled vs eager."""
    states = {}
    for label, compiled in (("compiled", True), ("eager", False)):
        model.load_state_dict(pristine)
        adapter = LDBNAdapt(
            model, LDBNAdaptConfig(lr=lr, batch_size=1, backend=backend)
        )
        with nn.adaptation_mode(compiled):
            for frame in frames[:steps]:
                adapter.adapt(frame[None])
        states[label] = model.state_dict()
    model.load_state_dict(pristine)
    return max(
        float(
            np.abs(
                np.asarray(states["compiled"][key], dtype=np.float64)
                - np.asarray(states["eager"][key], dtype=np.float64)
            ).max()
        )
        for key in states["compiled"]
    )


def _stage_tables(model, x: np.ndarray, backends: Sequence[str]):
    """``{backend: (ms per step by stage label, slowest first,
    backend_info)}`` of one plan per backend, its stage table replayed
    alternately with the others' so machine drift lands on every
    backend's table alike and per-stage rows can be compared across them.
    """
    plans = {
        backend: CompiledAdaptStep(model, backend=backend).plan_for(x)
        for backend in backends
    }
    for plan in plans.values():
        for _ in range(3):  # warm the caches the timed replays run from
            plan.run(x)
    totals = {backend: Counter() for backend in plans}
    for _ in range(PROFILE_STEPS):
        for backend, plan in plans.items():
            totals[backend].update(plan.stage_ms(x))
    return {
        backend: (
            {
                label: total / PROFILE_STEPS
                for label, total in totals[backend].most_common()
            },
            plan.backend_info,
        )
        for backend, plan in plans.items()
    }


def _cgen_columns(
    model, pristine, parity_frames, lr: float, x: np.ndarray, reps: int
) -> Dict[str, object]:
    """The cgen-served compiled step measured beside the numpy plan."""
    with warnings.catch_warnings():
        # a missing C compiler warns once per plan; the fallback is
        # recorded in the row instead
        warnings.simplefilter("ignore", RuntimeWarning)
        state_diff = _state_parity(
            model, pristine, parity_frames, lr, steps=2, backend="cgen"
        )
        adapters = {
            backend: LDBNAdapt(
                model, LDBNAdaptConfig(lr=lr, batch_size=1, backend=backend)
            )
            for backend in ("numpy", "cgen")
        }
        tables = _stage_tables(model, x, tuple(adapters))
        samples: Dict[str, List[float]] = {b: [] for b in adapters}
        with nn.adaptation_mode(True):
            for adapter in adapters.values():
                adapter.adapt(x)  # warm: trace + compile outside timing
            # interleave the two plans so slow machine drift hits both
            # sample sets equally and cancels in the ratio
            for _ in range(reps):
                for backend, adapter in adapters.items():
                    samples[backend] += _time_ms(lambda: adapter.adapt(x), 1)
    model.load_state_dict(pristine)
    info = tables["cgen"][1]
    cgen_p95 = exact_percentile(samples["cgen"], 95)
    return {
        "cgen_p50_ms": exact_percentile(samples["cgen"], 50),
        "cgen_p95_ms": cgen_p95,
        "numpy_ab_p50_ms": exact_percentile(samples["numpy"], 50),
        "cgen_speedup_p95": exact_percentile(samples["numpy"], 95) / cgen_p95,
        "cgen_rendered": info["rendered"],
        "cgen_stages": info["stages"],
        "cgen_fallback": info["rendered"] == 0,
        "cgen_numpy_stages": info["numpy_stages"],
        "cgen_max_state_diff": state_diff,
        "cgen_parity_ok": bool(state_diff <= CGEN_PARITY_ATOL),
        "op_ms": {backend: table for backend, (table, _) in tables.items()},
    }


def _fleet_parity(
    model, pristine, lr: float, streams: int, frames, backend=None
) -> float:
    """Max per-stream |state diff|: one fused grouped step vs serial eager."""
    snapshots = {}
    for label in ("fused", "serial"):
        model.load_state_dict(pristine)
        registry = StreamRegistry(model)
        sessions = [
            registry.register(
                f"{label}-{i}",
                iter(()),
                LDBNAdapt(model, LDBNAdaptConfig(lr=lr)),
                deadline_ms=1e9,
            )
            for i in range(streams)
        ]
        if label == "fused":
            staged = FleetAdaptationBatcher(model, backend=backend).stage(
                sessions, frames
            )
            staged.execute()
        else:
            with nn.adaptation_mode(False):
                for session, image in zip(sessions, frames):
                    session.swap_in()
                    session.adapter.adapt(image[None])
                    session.swap_out()
        snapshots[label] = [s.bn_state.state.copy() for s in sessions]
    model.load_state_dict(pristine)
    return max(
        float(np.abs(a - b).max())
        for a, b in zip(snapshots["fused"], snapshots["serial"])
    )


def run_bench_adapt(
    scale: Optional[RunScale] = None,
    reps: int = 30,
    fleet_streams: int = DEFAULT_FLEET_STREAMS,
    backbones: Sequence[str] = BACKBONES,
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Measure eager vs compiled adaptation steps; one row per
    (backbone, configuration) with p50/p95 latencies, speedups and the
    numerical-parity verdict.

    ``backend`` selects the plan backend for the compiled paths (None →
    ``REPRO_BACKEND`` or numpy).  The parity verdict runs against the
    selected backend; non-numpy backends are held to the looser
    float-band tolerance rather than the near-bitwise numpy bar."""
    scale = scale if scale is not None else get_run_scale()
    parity_atol = (
        PARITY_ATOL if backend in (None, "numpy") else CGEN_PARITY_ATOL
    )
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []
    for backbone in backbones:
        preset = scale.preset(backbone)
        config = get_config(preset)
        model = build_model(preset, rng=rng)
        model.eval()
        h, w = config.input_hw
        pristine = model.state_dict()

        def frame():
            return rng.standard_normal((3, h, w)).astype(np.float32)

        # -- single stream, batch 1: eager vs compiled ------------------
        parity_frames = [frame() for _ in range(2)]
        state_diff = _state_parity(
            model, pristine, parity_frames, scale.adapt_lr, steps=2,
            backend=backend,
        )
        timings = {}
        for label, compiled in (("eager", False), ("compiled", True)):
            model.load_state_dict(pristine)
            adapter = LDBNAdapt(
                model,
                LDBNAdaptConfig(
                    lr=scale.adapt_lr, batch_size=1, backend=backend
                ),
            )
            x = frame()[None]
            with nn.adaptation_mode(compiled):
                adapter.adapt(x)  # warm: trace + compile outside timing
                timings[label] = _time_ms(lambda: adapter.adapt(x), reps)
        model.load_state_dict(pristine)
        eager_p50 = exact_percentile(timings["eager"], 50)
        compiled_p50 = exact_percentile(timings["compiled"], 50)
        rows.append(
            {
                "backbone": backbone,
                "preset": preset,
                "mode": "single",
                "streams": 1,
                "reps": reps,
                "eager_p50_ms": eager_p50,
                "eager_p95_ms": exact_percentile(timings["eager"], 95),
                "compiled_p50_ms": compiled_p50,
                "compiled_p95_ms": exact_percentile(timings["compiled"], 95),
                "speedup_p50": eager_p50 / compiled_p50,
                "max_state_diff": state_diff,
                "parity_ok": bool(state_diff <= parity_atol),
                **_cgen_columns(
                    model, pristine, parity_frames, scale.adapt_lr, x, reps
                ),
            }
        )

        # -- fleet: N same-phase streams, serial eager vs fused ----------
        fleet_frames = [frame() for _ in range(fleet_streams)]
        fleet_diff = _fleet_parity(
            model, pristine, scale.adapt_lr, fleet_streams, fleet_frames,
            backend=backend,
        )
        model.load_state_dict(pristine)
        registry = StreamRegistry(model)
        sessions = [
            registry.register(
                f"s{i}",
                iter(()),
                LDBNAdapt(model, LDBNAdaptConfig(lr=scale.adapt_lr)),
                deadline_ms=1e9,
            )
            for i in range(fleet_streams)
        ]
        batcher = FleetAdaptationBatcher(model, backend=backend)
        stream_frames = fleet_frames

        def serial_eager():
            with nn.adaptation_mode(False):
                for session, image in zip(sessions, stream_frames):
                    session.swap_in()
                    session.adapter.adapt(image[None])
                    session.swap_out()

        def fused():
            staged = batcher.stage(sessions, stream_frames)
            staged.execute()

        fused()  # warm: trace + compile the grouped plan outside timing
        serial_ms = _time_ms(serial_eager, reps)
        fused_ms = _time_ms(fused, reps)
        eager_p50 = exact_percentile(serial_ms, 50)
        fused_p50 = exact_percentile(fused_ms, 50)
        rows.append(
            {
                "backbone": backbone,
                "preset": preset,
                "mode": "fleet",
                "streams": fleet_streams,
                "reps": reps,
                "eager_p50_ms": eager_p50,
                "eager_p95_ms": exact_percentile(serial_ms, 95),
                "compiled_p50_ms": fused_p50,
                "compiled_p95_ms": exact_percentile(fused_ms, 95),
                "speedup_p50": eager_p50 / fused_p50,
                "max_state_diff": fleet_diff,
                "parity_ok": bool(fleet_diff <= parity_atol),
            }
        )
        model.load_state_dict(pristine)
    return rows

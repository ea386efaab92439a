"""Numpy-vs-C micro-benchmarks of the engine's stage kernels.

Each case traces a single-layer model through both plan backends and
times the resulting one-stage plans head-to-head, isolating one kernel
family: the im2col-GEMM conv (gather + matmul + fused BN/ReLU epilogue),
the identity-columns 1x1 GEMM, the linear GEMM, max-pool, and the
elementwise ReLU epilogue — and, picked out of a small adaptation plan,
the conv input-gradient stage (numpy: BLAS dgrad GEMM + col2im; cgen:
the gather-form phase convs, or on layer 4's 2x5 grid the scatter form
with the weight columns on the lanes) and the train-mode BN forward and backward
(numpy: a ufunc pass per op; cgen: lane-accumulator reductions and one
normalise sweep).  Rows are archived to
``results/micro_ops.json`` by :mod:`benchmarks.bench_micro_ops`, which
gates the interleaved numpy-vs-cgen ratio of each row in the same run.
:func:`run_micro_serve` adds the fleet's per-launch BN fold and a
session checkpoint's pack to the same archive, ungated.

Rows where ``fallback`` is True (no C compiler — the cgen plan ran the
numpy closures stage-by-stage) time the same closures twice by
construction; the harness skips the speedup assertions for them.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from typing import Dict, List

import numpy as np

from .. import nn
from ..adapt import LDBNAdapt, LDBNAdaptConfig, frame_signature
from ..data import ScenarioStream, get_scenario
from ..engine import CompiledAdaptStep, compile_model
from ..models import build_model, get_config
from ..pipeline.monitor import latency_percentile
from ..pipeline.realtime import PipelineConfig, RealTimePipeline
from ..serve import (
    DriftResetConfig,
    SessionDriftState,
    StreamRegistry,
    capture_session_state,
    per_stream_inference,
)
from ..serve.checkpoint import pack_session_state


def _micro_cases(rng: np.random.Generator):
    """(name, model, input) triples, one engine stage each."""
    conv_bn_relu = nn.Sequential(
        nn.Conv2d(16, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
    )
    cases = [
        (
            "conv3x3_bn_relu",
            conv_bn_relu,
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "conv1x1_gemm",
            nn.Conv2d(16, 32, 1, bias=False, rng=rng),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "conv3x3_im2col",
            nn.Conv2d(16, 16, 3, padding=1, bias=False, rng=rng),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "linear",
            nn.Linear(512, 128, rng=rng),
            rng.standard_normal((8, 512)),
        ),
        (
            "maxpool2x2",
            nn.MaxPool2d(2),
            rng.standard_normal((1, 16, 16, 40)),
        ),
        (
            "relu_epilogue",
            nn.ReLU(),
            rng.standard_normal((1, 32, 32, 80)),
        ),
    ]
    # what serving actually runs: the small-r18 conv shapes at batch 1,
    # float32 frames/activations gathered into float64 GEMMs
    for name, cin, cout, k, stride, hw in (
        ("conv7x7s2_3to16_f32", 3, 16, 7, 2, (64, 160)),
        ("conv3x3_16_f32", 16, 16, 3, 1, (16, 40)),
        ("conv3x3_32_f32", 32, 32, 3, 1, (8, 20)),
        ("conv3x3_64_f32", 64, 64, 3, 1, (4, 10)),
        ("conv3x3_128_f32", 128, 128, 3, 1, (2, 5)),
        ("conv3x3s2_64to128_f32", 64, 128, 3, 2, (4, 10)),
        ("conv1x1s2_16to32_f32", 16, 32, 1, 2, (16, 40)),
    ):
        cases.append(
            (
                name,
                nn.Conv2d(cin, cout, k, stride=stride, padding=k // 2,
                          bias=False, rng=rng),
                rng.standard_normal((1, cin) + hw).astype(np.float32),
            )
        )
    cases.append((
        "maxpool3x3s2_16_f64", nn.MaxPool2d(3, 2, 1),
        rng.standard_normal((1, 16, 32, 80)),
    ))
    # the BN layer shapes of one small-r18 adaptation step, channels x
    # plane: BN -> BN in train mode, timed on the first forward stage
    # and on the second layer's backward (the one with an input gradient
    # to write, as 19 of the step's 20 have)
    for c, hw in ((16, (32, 80)), (16, (16, 40)), (32, (8, 20)),
                  (64, (4, 10)), (128, (2, 5))):
        for kind in ("bn_train", "bn_bwd"):
            cases.append((
                f"{kind}_{c}x{hw[0] * hw[1]}_f64",
                nn.Sequential(nn.BatchNorm2d(c), nn.BatchNorm2d(c)),
                rng.standard_normal((1, c) + hw),
            ))
    # the conv input gradients of the same step (float64 end to end):
    # BN -> conv -> BN in train mode, timed on the conv's backward stage
    # alone (`_stage_pair`)
    for name, cin, cout, k, stride, hw in (
        ("dgrad3x3_16_f64", 16, 16, 3, 1, (16, 40)),
        ("dgrad3x3_32_f64", 32, 32, 3, 1, (8, 20)),
        ("dgrad3x3_64_f64", 64, 64, 3, 1, (4, 10)),
        ("dgrad3x3_128_f64", 128, 128, 3, 1, (2, 5)),
        ("dgrad3x3s2_64to128_f64", 64, 128, 3, 2, (4, 10)),
        ("dgrad3x3s2_16to32_f64", 16, 32, 3, 2, (16, 40)),
        ("dgrad1x1s2_16to32_f64", 16, 32, 1, 2, (16, 40)),
    ):
        cases.append(
            (
                name,
                nn.Sequential(
                    nn.BatchNorm2d(cin),
                    nn.Conv2d(cin, cout, k, stride=stride, padding=k // 2,
                              bias=False, rng=rng),
                    nn.BatchNorm2d(cout),
                ),
                rng.standard_normal((1, cin) + hw),
            )
        )
    return cases


def _forward_pair(model, x):
    """``(numpy fn, cgen fn, numpy out, cgen out, cgen backend_info)`` of
    the model's one-stage inference plans."""
    model.eval()
    eng_np = compile_model(model)
    eng_c = compile_model(model, backend="cgen")
    y_c = eng_c(x).numpy().copy()
    y_np = eng_np(x).numpy().copy()
    info = eng_c.plan_for(x.shape, x.dtype).backend_info
    return (lambda: eng_np(x)), (lambda: eng_c(x)), y_np, y_c, info


#: adaptation-plan rows: op prefix -> (section, label) of the stage timed
_ADAPT_STAGES = {
    "dgrad": (1, "bwd:conv"), "bn_train": (0, "fwd:bn"),
    "bn_bwd": (1, "bwd:bn"),
}


def _stage_pair(model, x, section, label):
    """The same five for one stage of the model's adaptation plans, the
    first labelled ``label`` in ``section``: profiled plans replay stage
    by stage, so after one full step that stage reruns alone on the
    step's buffers.  The outputs compared are the first BN's gamma
    gradients, which everything in these plans feeds."""
    fns, grads, info = [], [], None
    for backend in ("numpy", "cgen"):
        model.train()
        plan = CompiledAdaptStep(
            model, profile=True, backend=backend
        ).plan_for(x)
        plan.run(x)
        grads.append(plan.bn_taps[0].grad_gamma.copy())
        step = next(
            s for s in plan.sections[section] if s.label.endswith(label)
        )
        # the closure alone does not keep the plan's pointer table alive
        fns.append(lambda step=step, plan=plan: step())
        info = plan.backend_info
    fn_np, fn_c = fns
    return fn_np, fn_c, grads[0], grads[1], info


def _interleaved_ms(fn_a, fn_b, reps: int):
    """Alternate two callables so machine drift cancels in their ratio."""
    a_ms, b_ms = [], []
    for _ in range(reps):
        start = time.perf_counter()
        fn_a()
        a_ms.append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        fn_b()
        b_ms.append(1e3 * (time.perf_counter() - start))
    return a_ms, b_ms


def _pool_dispatch_row(reps: int, threads: int) -> Dict[str, object]:
    """Round trip of one *empty* tiled stage through a loaded plan's pool
    (``repro_pool_ping``): what a stage pays for being dispatched before
    its first useful instruction.  A plan replay runs between samples so
    the workers are as asleep as they are between real dispatches.  The
    renderer's inline/tiled threshold (``cgen._MT_MIN_US``) is set
    against this number.
    """
    model = nn.Sequential(nn.ReLU())
    model.eval()
    x = np.zeros((1, 4, 8, 8))
    engine = compile_model(model, backend="cgen", threads=threads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        engine(x)
    info = engine.plan_for(x.shape, x.dtype).backend_info
    row: Dict[str, object] = {
        "op": "pool_dispatch_us",
        "shape": "empty stage",
        "threads": info.get("threads", threads),
        "reps": reps,
        "rendered": info["rendered"],
        "fallback": info["rendered"] == 0,
        "max_abs_diff": 0.0,
    }
    if info["rendered"]:
        # same dlopen handle as the plan's: the live pool is shared
        ping = ctypes.CDLL(info["so"]).repro_pool_ping
        ping.argtypes = [ctypes.c_longlong]
        ping.restype = None
        samples = []
        for _ in range(reps):
            engine(x)
            start = time.perf_counter()
            ping(1)
            samples.append(1e6 * (time.perf_counter() - start))
        row["dispatch_p50_us"] = latency_percentile(samples, 50)
        row["dispatch_p95_us"] = latency_percentile(samples, 95)
    return row


#: what a stubbed replay streams through the caches before the interpreter
#: gets the core back: about what the two replays of a small-r18 frame do
GLUE_EVICT_MB = 8


def _frame_glue_row(reps: int, threads: int) -> Dict[str, object]:
    """The interpreter's share of a served-and-adapted frame: one
    :class:`~repro.pipeline.RealTimePipeline` frame of ``small-r18`` with
    both replays stubbed — every binder sweep, the frame copy, decode,
    accuracy and the loop's bookkeeping run, no kernel does.  In a real
    frame that code finds its objects evicted by ~4 ms of kernels, which
    roughly doubles its cost, so each stubbed replay first streams
    ``GLUE_EVICT_MB`` through the caches; the time inside the stub is
    not part of a sample.
    """
    config = get_config("small-r18", num_lanes=2)
    model = build_model("small-r18", num_lanes=2, rng=np.random.default_rng(0))
    model.eval()
    adapter = LDBNAdapt(
        model, LDBNAdaptConfig(backend="cgen", threads=threads)
    )
    pipeline = RealTimePipeline(model, adapter, PipelineConfig(
        latency_model="wallclock", backend="cgen", threads=threads,
    ))
    pool = ScenarioStream(
        get_scenario("night_cut"), config, seed=11, horizon=16
    ).take(16).samples
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pipeline.run(iter(pool), 4)  # compile; the optimizer's first step
    x = pool[0].image[None]
    infer = pipeline._compiled.plan_for(x.shape, x.dtype)
    adapt = adapter._compiled.plan_for(x)
    ballast = np.zeros(GLUE_EVICT_MB << 17)  # float64
    inside = [0.0]

    def stub():
        start = time.perf_counter()
        np.add(ballast, 1.0, out=ballast)
        inside[0] += time.perf_counter() - start

    infer._steps[:] = [stub]
    adapt._fwd[:], adapt._bwd[:] = [stub], []
    pulled, stubbed = [], []

    def frames():
        for index in range(reps + 1):
            pulled.append(time.perf_counter())
            stubbed.append(inside[0])
            yield pool[index % len(pool)]

    pipeline.run(frames(), reps + 1)
    samples = 1e6 * (np.diff(pulled) - np.diff(stubbed))
    info = infer.backend_info
    return {
        "op": "frame_glue_us",
        "shape": f"small-r18 frame, replays stubbed, {GLUE_EVICT_MB} MB evicted",
        "threads": info.get("threads", threads),
        "reps": reps,
        "rendered": info.get("rendered", 0),
        "fallback": info.get("rendered", 0) == 0,
        "max_abs_diff": 0.0,
        "glue_p50_us": latency_percentile(samples, 50),
        "glue_p95_us": latency_percentile(samples, 95),
    }


def run_micro_threaded(
    reps: int = 200, seed: int = 0, threads: int = 2
) -> List[Dict[str, object]]:
    """Single-thread vs ``threads``-wide cgen, per threaded kernel family.

    Covers the three kernels the worker pool tiles: the identity-columns
    conv GEMM, the fused-im2col 3x3 conv (gather folded into the GEMM —
    no workspace materialization), and the rendered adaptation backward
    (BN gamma/beta grads + reduced chain).  Samples are interleaved so
    machine drift cancels in ``mt_speedup_p95``.  A stage the renderer
    keeps inline (``mt_stages`` 0 — its estimated kernel time does not
    repay a dispatch) runs the same code at both widths and ties.  The
    first row is the dispatch round trip itself
    (:func:`_pool_dispatch_row`), the last the interpreter's share of a
    frame (:func:`_frame_glue_row`).
    """
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = [_pool_dispatch_row(reps, threads)]

    fwd_cases = [
        (
            "conv1x1_gemm_mt",
            nn.Conv2d(32, 64, 1, bias=False, rng=rng),
            rng.standard_normal((2, 32, 16, 40)),
        ),
        (
            "conv3x3_fused_im2col_mt",
            nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng),
            rng.standard_normal((2, 16, 16, 40)),
        ),
    ]
    for name, model, x in fwd_cases:
        model.eval()
        eng_st = compile_model(model, backend="cgen", threads=1)
        eng_mt = compile_model(model, backend="cgen", threads=threads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            y_st = eng_st(x).numpy().copy()
            y_mt = eng_mt(x).numpy().copy()
        info = eng_mt.plan_for(x.shape, x.dtype).backend_info
        st_ms, mt_ms = _interleaved_ms(
            lambda: eng_st(x), lambda: eng_mt(x), reps
        )
        st_p95 = latency_percentile(st_ms, 95)
        mt_p95 = latency_percentile(mt_ms, 95)
        rows.append(
            {
                "op": name,
                "shape": "x".join(str(d) for d in x.shape),
                "threads": info["threads"],
                "reps": reps,
                "cgen_st_p50_ms": latency_percentile(st_ms, 50),
                "cgen_st_p95_ms": st_p95,
                "cgen_mt_p50_ms": latency_percentile(mt_ms, 50),
                "cgen_mt_p95_ms": mt_p95,
                "mt_speedup_p95": st_p95 / mt_p95,
                "mt_stages": info["mt_stages"],
                "rendered": info["rendered"],
                "fallback": info["rendered"] == 0,
                "max_abs_diff": float(np.abs(y_mt - y_st).max()),
            }
        )

    # rendered adaptation backward: BN gamma/beta grads + reduced chain
    from ..engine.compile import CompiledAdaptStep

    model = nn.Sequential(
        nn.Conv2d(8, 16, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(16),
        nn.ReLU(),
    )
    x = rng.standard_normal((4, 8, 16, 40)).astype(np.float32)
    model.train()
    step_st = CompiledAdaptStep(model, backend="cgen", threads=1)
    step_mt = CompiledAdaptStep(model, backend="cgen", threads=threads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        plan_st = step_st.plan_for(x)
        plan_mt = step_mt.plan_for(x)
        loss_st = float(np.asarray(plan_st.run(x)).ravel()[0])
        loss_mt = float(np.asarray(plan_mt.run(x)).ravel()[0])
    info = plan_mt.backend_info
    st_ms, mt_ms = _interleaved_ms(
        lambda: plan_st.run(x), lambda: plan_mt.run(x), reps
    )
    st_p95 = latency_percentile(st_ms, 95)
    mt_p95 = latency_percentile(mt_ms, 95)
    rows.append(
        {
            "op": "rendered_backward_mt",
            "shape": "x".join(str(d) for d in x.shape),
            "threads": info["threads"],
            "reps": reps,
            "cgen_st_p50_ms": latency_percentile(st_ms, 50),
            "cgen_st_p95_ms": st_p95,
            "cgen_mt_p50_ms": latency_percentile(mt_ms, 50),
            "cgen_mt_p95_ms": mt_p95,
            "mt_speedup_p95": st_p95 / mt_p95,
            "mt_stages": info["mt_stages"],
            "rendered": info["rendered"],
            "fallback": info["rendered"] == 0,
            "max_abs_diff": abs(loss_mt - loss_st),
        }
    )
    rows.append(_frame_glue_row(reps, threads))
    return rows


def _timed_us(fn, reps: int) -> List[float]:
    fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(1e6 * (time.perf_counter() - start))
    return samples


def run_micro_serve(reps: int = 200, seed: int = 0) -> List[Dict[str, object]]:
    """The fleet's per-session BN bookkeeping, one flat block a session.

    ``fleet_fold_us``: one launch's fold — ``per_stream_inference`` entered
    and left around nothing — over ``B`` sessions whose states differ.
    ``session_pack_us``: one durable capture of a tiny-r18 session that
    has taken an SGD step and banked two drift regimes, with the number
    of arrays and bytes it packs.
    """
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []

    def sessions_of(name: str, count: int):
        model = build_model(name, num_lanes=2, rng=rng)
        model.eval()
        registry = StreamRegistry(model)
        sessions = []
        for i in range(count):
            session = registry.register(
                f"s{i}", iter(()), LDBNAdapt(model, LDBNAdaptConfig()),
                deadline_ms=33.3,
            )
            session.bn_state.state[2:] += rng.normal(
                0.0, 0.1, session.bn_state.state[2:].shape
            )
            sessions.append(session)
        return model, sessions

    for name, batch in (("tiny-r18", 1), ("small-r18", 4)):
        _, sessions = sessions_of(name, batch)

        def fold():
            with per_stream_inference(sessions):
                pass

        samples = _timed_us(fold, reps)
        rows.append({
            "op": "fleet_fold_us",
            "shape": f"{name} B={batch}",
            "reps": reps,
            "p50_us": latency_percentile(samples, 50),
            "p95_us": latency_percentile(samples, 95),
        })

    model, (session,) = sessions_of("tiny-r18", 1)
    h, w = model.config.input_hw
    frames = rng.uniform(0.0, 1.0, size=(3, 3, h, w)).astype(np.float32)
    frames[1] *= 0.2  # two far-apart regimes to bank
    drift = session.drift = SessionDriftState(DriftResetConfig(), session)
    for banked, arriving in ((frames[0], frames[1]), (frames[1], frames[2])):
        drift.regime_sig = frame_signature(banked)
        drift.reset(session, arriving)
    session.swap_in()  # a step after the resets: momentum slots to pack
    session.adapter.observe_frame(frames[2])
    session.swap_out()
    arrays, _ = capture_session_state(session)
    samples = _timed_us(lambda: pack_session_state(session), reps)
    rows.append({
        "op": "session_pack_us",
        "shape": f"tiny-r18 session, {len(drift.bank)} banked regimes",
        "reps": reps,
        "p50_us": latency_percentile(samples, 50),
        "p95_us": latency_percentile(samples, 95),
        "arrays": len(arrays),
        "kbytes": len(pack_session_state(session)) / 1024,
    })
    return rows


def run_micro_ops(reps: int = 200, seed: int = 0) -> List[Dict[str, object]]:
    """Time each micro kernel through the numpy and cgen backends."""
    rng = np.random.default_rng(seed)
    rows: List[Dict[str, object]] = []
    for name, model, x in _micro_cases(rng):
        stage = next(
            (at for op, at in _ADAPT_STAGES.items() if name.startswith(op)),
            None,
        )
        with warnings.catch_warnings():
            # a missing compiler warns; the row records the fallback
            warnings.simplefilter("ignore", RuntimeWarning)
            fn_np, fn_c, y_np, y_c, info = (
                _forward_pair(model, x) if stage is None
                else _stage_pair(model, x, *stage)
            )

        # cheap ops get more samples (up to 10x) so a p95 over ~10 us
        # calls is not three preemptions deciding the ratio
        probe = min(_interleaved_ms(fn_np, fn_c, 5)[0])
        reps_row = int(min(10 * reps, max(reps, 50.0 / probe)))
        np_ms, c_ms = _interleaved_ms(fn_np, fn_c, reps_row)
        np_p95 = latency_percentile(np_ms, 95)
        c_p95 = latency_percentile(c_ms, 95)
        rows.append(
            {
                "op": name,
                "shape": "x".join(str(d) for d in x.shape),
                # an adaptation row's output (dX, a BN plane) is the
                # size of its input
                "out_pixels": int(
                    np.prod((y_np if stage is None else x).shape[2:])
                ),
                "reps": reps_row,
                "numpy_p50_ms": latency_percentile(np_ms, 50),
                "numpy_p95_ms": np_p95,
                "cgen_p50_ms": latency_percentile(c_ms, 50),
                "cgen_p95_ms": c_p95,
                "speedup_p95": np_p95 / c_p95,
                "rendered": info["rendered"],
                "fallback": info["rendered"] == 0,
                "max_abs_diff": float(np.abs(y_c - y_np).max()),
            }
        )
    return rows

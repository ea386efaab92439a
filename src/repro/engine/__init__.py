"""``repro.engine`` — compiled inference: trace once, replay many.

The serving hot path (one eval-mode forward per camera frame, fleet
batches of them per tick) previously paid full eager-mode overhead on
every call: an autograd ``Context`` and output ``Tensor`` per op, im2col
gather indices rebuilt per conv, fresh padded/column/output arrays per
layer, and four elementwise temporaries per BatchNorm.  This package
removes all of it while staying **bit-exact** with the eager path (on
the default backend; see parity below).

Architecture (four layers):

* :mod:`~repro.engine.tracer` — run the model once on a representative
  input with a hook on ``Function.apply``; every op becomes a node in a
  flat static plan.  BatchNorm layers are captured as opaque nodes
  referencing the live module, so gamma/beta, running statistics and the
  per-sample ``(scale, shift)`` fleet override remain *plan inputs*
  resolved at replay time — LD-BN-ADAPT can keep rewriting BN state
  between frames without ever retracing.
* :mod:`~repro.engine.plan` — lower the trace to closures: conv→BN→ReLU
  chains fuse into a single im2col GEMM (``np.matmul(..., out=)``) with
  the folded BN affine and ReLU applied in place as the GEMM epilogue;
  liveness analysis recycles op outputs through a byte-arena pool
  (:mod:`~repro.engine.backends.core` holds the backend-neutral
  arena/liveness/im2col machinery); and im2col workspaces are cached per
  layer so steady-state replays allocate nothing.
* :mod:`~repro.engine.backends` — pluggable *plan backends* decide what
  executes each lowered stage.  ``numpy`` (the default) replays the
  closures above and is the bit-exact oracle.  ``cgen`` renders the
  fused stage list into one C translation unit per plan, compiles it
  with the host toolchain (``$REPRO_CC``, else cc/gcc/clang) and replays
  consecutive rendered stages as single ctypes calls over a pointer
  table; live BN fold vectors and per-sample fleet overrides are bound
  into that table at replay time, so LD-BN-ADAPT updates never recompile.
  Compiled ``.so``\\ s are cached on disk keyed by source hash
  (``$REPRO_CGEN_CACHE``, default ``~/.cache/repro_cgen``) and the cache
  is consulted *before* the compiler lookup, so hosts without a
  toolchain can serve from a shipped cache.  Parity is structural: any
  stage the renderer declines — and the whole plan, when no compiler
  exists — falls back to the numpy closure, with ``cgen-strict``
  demoting every stage that cannot reproduce the oracle bitwise
  (float64-accumulation GEMMs back the ones that can) and plain ``cgen``
  holding rendered stages to a per-dtype float band instead.  Rendered
  kernels are *threaded*: heavy stages (conv GEMMs with the im2col
  gather fused into the kernel loop — no workspace materialization —
  linear, max-pool, large elementwise sweeps, the rendered BN backward)
  tile their output rows over a persistent pthread pool living inside
  the generated ``.so`` (refcounted across plans sharing a cached
  library, barrier-synced per stage; see
  :mod:`~repro.engine.backends.threading`).  Fixed tile ownership with
  no shared accumulators keeps ``cgen-strict`` bitwise at every pool
  width and every run reproducible.  Width resolves ``threads=`` (on
  ``compile_model``/``CompiledAdaptStep``, ``FleetConfig``,
  ``PipelineConfig``, ``LDBNAdaptConfig``, or ``--threads``) →
  ``$REPRO_CGEN_THREADS`` → device-profile cores → host CPUs;
  ``threads=None`` keeps single-thread plans, bitwise-stable with
  pre-threading runs, while an explicit width also re-prices
  compute-bound roofline latencies via
  :func:`repro.hw.parallel_speedup` so the scheduler and admission see
  the faster device honestly.  Select a backend via
  ``compile_model(model, backend=...)``, ``$REPRO_BACKEND``,
  ``FleetConfig(backend=...)``, ``PipelineConfig(backend=...)``, or the
  ``--backend``/``--parity`` CLI flags on ``fleet`` and the ``bench-*``
  subcommands.
* :mod:`~repro.engine.compile` — :func:`compile_model` /
  :class:`CompiledInference`: a shape-keyed plan cache, retracing
  transparently when the input shape changes (fleet batch sizes).

:class:`repro.pipeline.RealTimePipeline` and
:class:`repro.serve.FleetServer` use this path for inference by default;
``repro.nn.inference_mode(False)`` is the escape hatch back to eager.

The same machinery covers the *adaptation* hot path:
:func:`~repro.engine.tracer.trace_entropy_step` traces one LD-BN-ADAPT
entropy step (train-mode BN forward + entropy loss), and
:mod:`~repro.engine.adapt_plan` lowers it to a second static plan — the
forward replays the eager train kernels (and is offered to the plan
backend's renderer stage-by-stage, exactly like inference), the backward
program is pruned to the gradient paths that reach BN gamma/beta
(conv/linear weight gradients are never computed) and offered to the
renderer too — under ``cgen`` train-mode BN forward, the BN gamma/beta
gradient reductions, max-pool backward and the pruned chain run as
threaded C stages, while conv input gradients stay on BLAS: one shared
dgrad GEMM (:func:`repro.nn.functional._conv_dgrad`) plus an ordered
strided col2im (:func:`repro.nn.functional._col2im_accumulate`, bitwise
the indexed scatter it replaced) that eager and compiled both call — and
activations/saved-buffers/gradients share the engine's arena with
liveness computed over the combined forward+backward program.
:class:`~repro.engine.compile.CompiledAdaptStep` caches those plans per
``(shape, dtype, groups)``; ``groups > 1`` is the fleet's batched
same-phase adaptation: per-group batch statistics and per-group
gamma/beta slots make one replay equal G serial steps.
:class:`repro.adapt.LDBNAdapt` uses this path by default;
``repro.nn.adaptation_mode(False)`` falls back to the eager autograd
step (the correctness oracle).
"""

from .adapt_plan import (
    AdaptationPlan,
    AdaptPlanStats,
    BNLayerTap,
    UnsupportedAdaptGraph,
)
from .backends import (
    PlanBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .compile import CompiledAdaptStep, CompiledInference, compile_model
from .plan import ExecutionPlan, PlanProfile, PlanStats
from .tracer import TraceGraph, trace, trace_entropy_step

__all__ = [
    "AdaptationPlan",
    "AdaptPlanStats",
    "BNLayerTap",
    "CompiledAdaptStep",
    "CompiledInference",
    "PlanBackend",
    "UnsupportedAdaptGraph",
    "available_backends",
    "compile_model",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "ExecutionPlan",
    "PlanProfile",
    "PlanStats",
    "TraceGraph",
    "trace",
    "trace_entropy_step",
]

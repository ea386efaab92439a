"""``repro.engine`` — compiled inference and adaptation: trace once, replay many.

The paper's method is "same network, BN-only update": every frame runs
one eval-mode forward, and inside the same budget the *same* forward
again with train-mode BN plus a backward restricted to gamma/beta.  Run
eagerly, both pay an autograd ``Context`` and output ``Tensor`` per op,
im2col gather indices rebuilt per conv, fresh padded/column/output arrays
per layer, elementwise temporaries per BatchNorm, and conv/linear weight
gradients that are computed and discarded.  This package removes all of
it while staying **bit-exact** with the eager path (on the default
backend; see parity below).

Architecture — one lowering, compiled through one entry point:

* :mod:`~repro.engine.tracer` — one recorder hooks ``Function.apply``
  and runs the model once; every op becomes a node of a flat graph.
  :func:`trace` records the eval forward, :func:`trace_entropy_step` the
  train-mode-BN forward plus entropy loss.  BatchNorm layers are opaque
  nodes referencing the live module, so gamma/beta, running statistics
  and the per-sample ``(scale, shift)`` fleet override remain *plan
  inputs* resolved at replay time — LD-BN-ADAPT rewrites BN state between
  frames without ever retracing.
* :mod:`~repro.engine.plan` — the lowering.  ``StaticPlan`` declares each
  shared op once (op table, numpy closure, renderer offer spec) and owns
  the one liveness analysis over a plan's sections, which recycles
  buffers through a byte-arena pool (:mod:`~repro.engine.backends.core`,
  beside the one column workspace every plan's im2col and max-pool
  columns are views of), so replays allocate nothing.  Every plan
  carries its stage table (``plan.stages``: per section, ``(label,
  step)`` per lowered stage, the steps the plan serves) and times it
  with ``plan.stage_ms(x)``.
  :class:`ExecutionPlan` is the forward program with no backward:
  conv→BN→ReLU chains fuse into one im2col GEMM (``np.matmul(...,
  out=)``) with the folded BN affine and ReLU as its in-place epilogue.
* :mod:`~repro.engine.adapt_plan` — :class:`AdaptationPlan` is that
  forward lowering plus a backward program: grouped train-mode BN and its
  taps, the loss tail, backward rules pruned to the gradient paths that
  reach a BN gamma/beta, and the backward's uses for the shared liveness
  analysis.
  ``groups > 1`` is the fleet's batched same-phase adaptation: per-group
  batch statistics and gamma/beta slots make one replay equal G serial
  steps.  The numpy lowering of a conv input gradient is the one eager
  runs: a BLAS dgrad GEMM (:func:`repro.nn.functional._conv_dgrad`) plus
  a col2im that scatters the columns into a zeroed padded image, one
  ``np.add.at`` per sample through the forward's flat gather index
  (:func:`repro.nn.functional._col2im_scatter`; the max-pool backward
  puts its winners into zeroed columns and runs the same scatter);
  ``cgen`` replaces it with the *gather* form — ``dX`` as a stride-1
  forward conv of ``dY`` per output phase, weights read live, transposed
  and flipped — on the forward's register-blocked kernel, probed against
  that closure.  Train-mode BN takes its batch statistics from the eager
  forward's one formula (:func:`repro.nn.functional.batch_stats`).
* :mod:`~repro.engine.backends` — a *plan backend* contributes only the
  stage renderer handed to the lowering; ``PlanBackend.compile(graph)``
  builds the plan kind the graph records.  ``numpy`` (the default) passes
  none: every stage replays its closure, the bit-exact oracle.  ``cgen``
  turns the offered stages of either plan — forward, train-BN, the
  entropy tail, conv input gradients, the BN gamma/beta reductions,
  max-pool backward, the pruned chain — into rows of a stage table over
  one C kernel library, compiled once per host with the host toolchain
  (``$REPRO_CC``, else cc/gcc/clang), and replays consecutive rows as
  single ctypes calls over a pointer table; live BN vectors and fleet
  overrides are bound into that table at replay time, so LD-BN-ADAPT
  updates never recompile, and neither does a new shape.  The library is
  cached on disk (``$REPRO_CGEN_CACHE``, default ``~/.cache/repro_cgen``),
  consulted *before* the compiler lookup so hosts without a toolchain can
  serve from a shipped cache.  Parity is structural: any stage the renderer
  declines — and the whole plan, when no compiler exists — keeps its
  numpy closure, and every rendered stage is probed against that closure
  within a per-dtype float band (integer outputs bitwise).
  The kernels are *threaded*: heavy stages tile their output rows over a
  persistent pthread pool inside the ``.so`` (refcounted across plans,
  barrier-synced per stage; :mod:`~repro.engine.backends.threading`), and
  fixed tile ownership with no shared accumulators keeps every run
  reproducible at every pool width.  Width resolves ``threads=`` (on
  ``compile_model``/``CompiledAdaptStep``, ``FleetConfig``,
  ``PipelineConfig``, ``LDBNAdaptConfig``, or ``--threads``) →
  ``$REPRO_CGEN_THREADS`` → host CPUs;
  ``threads=None`` compiles at that resolved width but prices the
  roofline at one thread (outputs are bitwise the same at every width),
  while an explicit width also re-prices compute-bound roofline
  latencies via
  :func:`repro.hw.parallel_speedup` so the scheduler and admission see
  the faster device honestly.  Select a backend via
  ``compile_model(model, backend=...)``, ``$REPRO_BACKEND``,
  ``FleetConfig(backend=...)``, ``PipelineConfig(backend=...)``, or the
  ``--backend`` CLI flag on ``fleet`` and ``bench-*``.
* :mod:`~repro.engine.compile` — :func:`compile_model` /
  :class:`CompiledInference` and :class:`CompiledAdaptStep`: plan caches
  keyed by ``(shape, dtype)`` and ``(shape, dtype, groups, from_stem)``,
  retracing transparently when the input shape changes (fleet batch
  sizes).

:class:`repro.serve.FleetServer` (and with it
:class:`repro.pipeline.RealTimePipeline`, a one-stream fleet) and
:class:`repro.adapt.LDBNAdapt` use these paths by default;
``repro.nn.inference_mode(False)`` / ``repro.nn.adaptation_mode(False)``
are the escape hatches back to eager (the correctness oracle).
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
from .plan import ExecutionPlan, PlanStats
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
    "PlanStats",
    "TraceGraph",
    "trace",
    "trace_entropy_step",
]

"""Model-level entry points: shape-keyed plan caches over trace + compile.

:func:`compile_model` wraps a model in a :class:`CompiledInference`
callable.  The first call at a given input shape traces one eval-mode
forward (:mod:`repro.engine.tracer`) and lowers it to an
:class:`~repro.engine.plan.ExecutionPlan`; subsequent calls replay the
plan with zero autograd bookkeeping and no steady-state allocation.  A
new input shape (e.g. a different fleet batch size) transparently
retraces — plans are cached per ``(shape, dtype)``.

:class:`CompiledAdaptStep` is the training-side twin: a cache of
:class:`~repro.engine.adapt_plan.AdaptationPlan` objects keyed by
``(shape, dtype, groups, from_stem)``, tracing the entropy step on
demand.  A ``from_stem`` plan starts from the stem rows an inference
plan of the same backend wrote
(:attr:`~repro.engine.plan.ExecutionPlan.stem_rows`) instead of from the
images, so a served frame's stem conv runs once.

A cached plan is the plan that serves, and the one a per-stage time is
read from: ``plan_for(...).stage_ms(x)`` replays its stage table
(:attr:`~repro.engine.plan.StaticPlan.stages`) once, stage by stage.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor
from .adapt_plan import AdaptationPlan
from .backends import resolve_backend
from .plan import ExecutionPlan
from .tracer import trace, trace_entropy_step


class CompiledInference:
    """Compiled eval-mode forward for one model.

    Bit-exact with the eager path: same kernels, same operand order, same
    dtypes — only dispatch, graph bookkeeping and allocation are removed.
    Parameters and BN state (including the per-sample fleet override) are
    read live at every replay, so adaptation steps between frames need no
    recompilation.

    The returned tensor views plan-owned storage that the next call with
    the same input shape overwrites; copy it if it must outlive a frame.
    """

    def __init__(self, model, backend=None, threads: Optional[int] = None):
        self.model = model
        self.backend = resolve_backend(backend)
        self.threads = threads  # kernel pool width (codegen backends)
        self._plans: Dict[Tuple, ExecutionPlan] = {}

    def _plan(self, arr: np.ndarray) -> ExecutionPlan:
        if self.model.training:
            raise RuntimeError(
                "CompiledInference requires eval mode; call model.eval() "
                "(training/adaptation forwards use the eager path)"
            )
        key = (arr.shape, arr.dtype.str)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self.backend.compile(
                trace(self.model, arr), threads=self.threads
            )
        return plan

    def warm(self, x) -> ExecutionPlan:
        """Trace + compile the plan for ``x``'s signature without
        replaying; returns it.

        Serving loops call this outside their timed regions so the
        one-time trace cost never pollutes per-frame latency statistics.
        """
        return self._plan(x.data if isinstance(x, Tensor) else np.asarray(x))

    def __call__(self, x) -> Tensor:
        arr = x.data if isinstance(x, Tensor) else np.asarray(x)
        return Tensor(self._plan(arr).run(arr), _copy=False)

    @property
    def num_plans(self) -> int:
        return len(self._plans)

    def plan_for(self, shape, dtype=np.float32) -> ExecutionPlan:
        """The cached plan for an input signature (KeyError if untraced)."""
        return self._plans[(tuple(shape), np.dtype(dtype).str)]


def compile_model(model, backend=None,
                  threads: Optional[int] = None) -> CompiledInference:
    """Return a compiled, replayable inference callable for ``model``.

    ``backend`` selects the plan lowering — a registry name (``"numpy"``,
    ``"cgen"``), a :class:`~repro.engine.backends.PlanBackend` instance,
    or ``None`` for ``$REPRO_BACKEND``/numpy.  ``threads`` fixes the
    codegen kernel-pool width per plan (``None`` defers to the backend's
    own resolution chain; the numpy backend ignores it).
    """
    return CompiledInference(model, backend=backend, threads=threads)


def _step_key(shape, dtype, groups, from_stem) -> Tuple:
    return (tuple(shape), np.dtype(dtype).str, int(groups), bool(from_stem))


class CompiledAdaptStep:
    """Compiled LD-BN-ADAPT entropy steps for one model.

    Caches one :class:`~repro.engine.adapt_plan.AdaptationPlan` per
    ``(input shape, dtype, groups, from_stem)``.  A plan of ``G`` groups
    steps ``G`` states at once, each the BN block of an update
    destination: a single-stream adapter's block of the live model, or
    the sessions of a fleet group (``G = 1`` included) — the fleet's
    mechanism for fusing same-phase streams' steps into one replay, and
    for stepping one stream without touching the shared model.  Tracing
    restores every buffer it touches, so building a plan never perturbs
    the model.
    """

    def __init__(self, model, loss_fn=None, backend=None,
                 threads: Optional[int] = None):
        if loss_fn is None:
            from ..adapt.entropy import entropy_loss  # avoid a cycle

            loss_fn = entropy_loss
        self.model = model
        self.loss_fn = loss_fn
        self.backend = resolve_backend(backend)
        self.threads = threads  # kernel pool width (codegen backends)
        self._plans: Dict[Tuple, AdaptationPlan] = {}

    def plan_for(self, arr: np.ndarray, groups: int = 1,
                 from_stem: bool = False) -> AdaptationPlan:
        """The (cached) adaptation plan for the image batch ``arr``'s
        signature; with ``from_stem`` the plan that takes those images'
        stem rows instead (see :mod:`repro.engine.adapt_plan`).

        Raises :class:`~repro.engine.adapt_plan.UnsupportedAdaptGraph`
        when the traced step contains an op the plan cannot lower — the
        caller falls back to the eager autograd step.  The trace graph is
        not retained: the plan's closures captured what replay needs.
        """
        key = _step_key(arr.shape, arr.dtype, groups, from_stem)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self.backend.compile(
                trace_entropy_step(self.model, arr, self.loss_fn),
                groups=groups, threads=self.threads, from_stem=from_stem,
            )
        return plan

    def cached(self, shape, dtype=np.float32, groups: int = 1,
               from_stem: bool = False) -> Optional[AdaptationPlan]:
        """The plan :meth:`plan_for` returns for an image batch of
        ``shape`` and ``dtype``, or None when it is not built yet."""
        return self._plans.get(_step_key(shape, dtype, groups, from_stem))

    def takes_rows_from(self, engine: CompiledInference) -> bool:
        """Whether this step's plans can start from the stem rows
        ``engine``'s plans write: the same backend at the same width, so
        the rows are the bytes this step's own stem conv would write."""
        return engine.backend is self.backend and engine.threads == self.threads

    @property
    def num_plans(self) -> int:
        return len(self._plans)

"""LD-BN-ADAPT — the paper's contribution.

Real-time, fully unsupervised adaptation of a deployed UFLD model (Sec.
III).  After inference on each incoming frame (or small batch of frames),
one adaptation step runs:

(i)  **statistics refresh** — every BatchNorm layer standardizes with the
     mean/std of the *current unlabeled target batch* instead of the stale
     source-domain running statistics;
(ii) **affine update** — the BN scale gamma and shift beta (~1 % of model
     parameters) are optimized by a **single backpropagation pass** of the
     Shannon-entropy loss over the model's predictions.

All other parameters stay frozen.  The updated model serves the next
frame, giving continuous on-device adaptation within the 30 FPS budget.

Implementation notes
--------------------
* Running BN in training mode implements (i): normalization uses batch
  statistics with gradients flowing through them (PyTorch semantics).
  ``stats_mode`` controls what is *persisted* into the running buffers for
  subsequent eval-mode inference: ``"replace"`` stores the latest batch's
  statistics verbatim (the paper's "recomputed from the unlabeled data"),
  ``"ema"`` blends them in with momentum (a smoother variant we ablate).
* With batch size 1 the per-channel statistics still average over H x W
  spatial positions, so conv BN layers remain well-conditioned — this is
  why bs=1 works (and wins, Fig. 2) for a dense prediction task.
* The entropy step runs through the compiled adaptation plan
  (:class:`repro.engine.CompiledAdaptStep`) by default: a traced static
  forward+backward that skips the frozen conv/linear weight gradients
  and replays without autograd bookkeeping, numerically matched against
  the eager step.  ``repro.nn.adaptation_mode(False)`` forces the eager
  path (the correctness oracle); models whose graphs the plan cannot
  lower fall back to it automatically.
* The step's epilogue is the plan's too: its last stage, the *update
  tail*, persists the batch statistics and takes the momentum step on
  gamma/beta over one BN block, once per step on every backend — a
  fleet hands the plan its sessions' blocks, a standalone adapter the
  model's home block (``LDBNAdapt.bn_state``), which the model's BN
  modules view, so the step writes the model with no copy around it.
  The momentum is one ``(2, C)`` block per adapter (``slots``), built
  at construction; each parameter's ``optimizer.state`` buffer is its
  span view for good, so an eager step, a checkpoint restore and
  :meth:`~repro.adapt.base.Adapter.forget_momentum` (``reset()``, a
  drift reset) all write the block in place.  A step
  whose loss is not finite writes nothing: the tail refuses it, and
  :attr:`~repro.adapt.base.Adapter.refused_steps` counts it.
* A served frame's stem conv runs once.  The serving loops hand
  :meth:`~repro.adapt.base.Adapter.observe_frame` the stem rows their
  inference replay wrote (pre-BN, so valid whatever BN state served the
  frame) when :meth:`LDBNAdapt.takes_rows_from` their engine — the same
  backend at the same width, so the rows are the bytes this adapter's
  own stem conv would write.  A step whose every frame carries rows
  replays the plan compiled ``from_stem``, which starts at the stem's
  BN; :meth:`adapt` on images, and any step with a restored frame,
  replays the plan that starts from the images.  Both leave the same
  bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..engine import CompiledAdaptStep, UnsupportedAdaptGraph
from ..engine.backends import available_backends, resolve_backend
from .base import AdaptResult, Adapter, freeze_except, set_bn_training
from .bn_state import BNLayout
from .entropy import entropy_loss


@dataclass(frozen=True)
class LDBNAdaptConfig:
    """Hyper-parameters of LD-BN-ADAPT.

    Attributes
    ----------
    lr:
        Learning rate of the single gamma/beta gradient step.
    momentum:
        SGD momentum (kept across steps; 0 disables).
    batch_size:
        Frames per adaptation step — the paper evaluates 1, 2 and 4
        (adaptation after every image, or every 2/4 images).
    stats_mode:
        "replace" — running stats := current batch stats (paper);
        "ema" — exponential blend with ``ema_momentum`` (ablation).
    ema_momentum:
        Momentum for the "ema" mode.
    backend:
        Plan backend for the compiled adaptation step.  ``None`` — with
        ``threads`` also ``None`` — inherits the serving loop's engine,
        as does a ``backend`` / ``threads`` pair equal to the loop's:
        the pool's step, once :meth:`repro.serve.FleetServer.add_stream`
        registers the adapter (a :class:`repro.pipeline.RealTimePipeline`
        is a one-stream fleet); an adapter used on its own resolves
        ``$REPRO_BACKEND`` / numpy (see :mod:`repro.engine.backends`).
    threads:
        Kernel-pool width for codegen backends (``None`` inherits like
        ``backend``; an adapter used on its own defers to the backend's
        resolution chain, and the numpy backend ignores it).  A pair set
        explicitly that equals the serving loop's shares the loop's step
        too; one that differs is kept: its steps run on their own engine,
        never in a fleet group, and start from the images, never from
        another backend's stem rows.
    """

    lr: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 1
    stats_mode: str = "replace"
    ema_momentum: float = 0.1
    backend: Optional[str] = None
    threads: Optional[int] = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1 when set")
        if self.backend is not None and self.backend not in available_backends():
            raise ValueError(
                f"unknown plan backend {self.backend!r}; expected one of "
                f"{available_backends()}"
            )
        if self.stats_mode not in ("replace", "ema"):
            raise ValueError(f"unknown stats_mode {self.stats_mode!r}")


class LDBNAdapt(Adapter):
    """The paper's adapter: BN statistics refresh + 1-step entropy descent."""

    name = "ld_bn_adapt"

    def __init__(
        self,
        model: nn.Module,
        config: Optional[LDBNAdaptConfig] = None,
        compiled=None,
    ):
        self._bn_modules = BNLayout(model).modules  # raises with none
        super().__init__(model, [
            p for m in self._bn_modules for p in (m.weight, m.bias)
        ])
        self.config = config if config is not None else LDBNAdaptConfig()
        self.optimizer = nn.SGD(
            self._params, lr=self.config.lr, momentum=self.config.momentum
        )
        # CompiledAdaptStep: a fleet hands its pool's shared one down
        # (share_engine), otherwise built on first use from ``config``
        self._compiled = compiled
        # the input kinds (``from_stem`` flags) the graph cannot be
        # lowered from: a step fed that kind stays eager
        self._compiled_unsupported = set()
        # sgd_update's state for a BN block's gamma/beta rows: "work" and,
        # with momentum, "momentum", a (2, C) block whose row spans are
        # the optimizer's per-parameter momentum buffers
        self.slots = {}
        if self.optimizer.momentum:
            layout = self.bn_state.layout
            block = self.slots["momentum"] = np.empty((2, layout.channels))
            views = [row[a:b] for a, b in layout.spans for row in block]
            for param, view in zip(self._params, views):
                self.optimizer.state[id(param)] = {"momentum": view}
            self.forget_momentum()

    # ------------------------------------------------------------------
    @property
    def effective_momentum(self) -> float:
        """Momentum persisted into the running buffers by one step."""
        return (
            1.0 if self.config.stats_mode == "replace" else self.config.ema_momentum
        )

    def step_engine(self) -> CompiledAdaptStep:
        """The :class:`~repro.engine.CompiledAdaptStep` this adapter's
        steps replay (built from ``config`` on first use unless a serving
        loop shared its own)."""
        if self._compiled is None:
            self._compiled = CompiledAdaptStep(
                self.model, backend=self.config.backend,
                threads=self.config.threads,
            )
        return self._compiled

    def share_engine(self, step: CompiledAdaptStep) -> None:
        """Step on a serving loop's compiled ``step`` when the config
        leaves ``backend`` and ``threads`` to it (both ``None``) or names
        the pair ``step`` was built with."""
        backend, threads = self.config.backend, self.config.threads
        if (backend is None and threads is None) or (
            resolve_backend(backend) is step.backend and threads == step.threads
        ):
            self._compiled = step

    def takes_rows_from(self, engine) -> bool:
        return (
            nn.compiled_adaptation_enabled()
            and True not in self._compiled_unsupported
            and self.step_engine().takes_rows_from(engine)
        )

    def _compiled_plan(self, images: np.ndarray, from_stem: bool = False):
        """The adaptation plan for ``images`` (or, ``from_stem``, their
        stem rows), or None to use eager: under ``adaptation_mode(False)``,
        or once the graph refused that input kind.  A refusal is kept per
        kind, so a graph with no stem conv still steps compiled on its
        images."""
        if (not nn.compiled_adaptation_enabled()
                or from_stem in self._compiled_unsupported):
            return None
        try:
            return self.step_engine().plan_for(images, from_stem=from_stem)
        except UnsupportedAdaptGraph:
            self._compiled_unsupported.add(from_stem)
            return None

    def forget_momentum(self) -> None:
        """Refill the momentum block with the zero whose product with the
        momentum is ``-0.0``, the identity of the blend, so the next step
        leaves ``-0.0 + grad``: the per-parameter first step's ``grad``
        bit for bit."""
        block = self.slots.get("momentum")
        if block is not None:
            block[...] = np.copysign(0.0, -self.optimizer.momentum)

    def record_step(self, loss: float, num_frames: int,
                    refused: bool = False) -> AdaptResult:
        """Book one step this adapter's state took (a refused one is
        counted, not taken) and return its result."""
        if refused:
            self.refused_steps += 1
        else:
            self._step += 1
        return AdaptResult(
            loss=loss,
            num_frames=num_frames,
            step_index=self._step,
            extras={"entropy": loss},
            refused=refused,
        )

    def _run_plan(self, plan, x: np.ndarray, num_frames: int) -> AdaptResult:
        """One compiled entropy step on :attr:`bn_state`, the model's own
        block: the plan's update tail persists the batch statistics and
        steps gamma/beta on this adapter's optimizer state, unless the
        loss is not finite."""
        loss = float(plan.run(x, update=(self,))[0])
        return self.record_step(loss, num_frames, refused=not plan.finite[0])

    def _step_frames(self, frames: np.ndarray, rows) -> AdaptResult:
        if rows is not None:
            plan = self._compiled_plan(frames, from_stem=True)
            if plan is not None:
                return self._run_plan(plan, rows, len(frames))
        return self.adapt(frames)

    def adapt(self, images: np.ndarray) -> AdaptResult:
        """One adaptation step on a batch of unlabeled target frames.

        ``images`` is ``(N, 3, H, W)``; N is typically ``config.batch_size``
        (the pipeline buffers frames accordingly, see
        :meth:`observe_frame`).  Runs the compiled plan by default, the
        eager autograd step under ``repro.nn.adaptation_mode(False)`` or
        on a graph the plan cannot lower.  Either refuses a non-finite
        batch — the plan by its loss, the eager step by its loss or the
        BN statistics it wrote — leaving every BN array, momentum buffer
        and step count as it was.
        """
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected (N, 3, H, W) batch, got {images.shape}")

        plan = self._compiled_plan(images)
        if plan is not None:
            return self._run_plan(plan, images, len(images))

        original_momenta = [m.momentum for m in self._bn_modules]
        for module in self._bn_modules:
            module.momentum = self.effective_momentum
        # the rail: what the train forward writes (the home block's
        # statistics and counts), restored on refusal.  Eager ReLU maps NaN
        # to 0, so a poisoned batch can leave the loss finite: the
        # statistics it wrote tell
        state, counts = self.bn_state.read()
        stats = state[:2].copy(), counts.copy()

        # the model is shared: another adapter's constructor may have
        # frozen the parameters this step descends on
        freeze_except(self.model, self._params)
        set_bn_training(self.model, True)
        try:
            logits = self.model(nn.Tensor(images, _copy=False))
            loss = entropy_loss(logits, axis=1)
            finite = bool(np.isfinite(loss.item())) and bool(
                np.isfinite(self.bn_state.read()[0][:2]).all())
            if finite:
                self.model.zero_grad()
                loss.backward()
                self.optimizer.step()
            else:
                self.bn_state.write(*stats)
        finally:
            set_bn_training(self.model, False)
            for module, m in zip(self._bn_modules, original_momenta):
                module.momentum = m
        return self.record_step(
            float(loss.item()), len(images), refused=not finite
        )

    # bench-e2e's ``adapt.observe`` span patches this name in
    # ``LDBNAdapt.__dict__``, so the inherited method is bound here too
    observe_frame = Adapter.observe_frame

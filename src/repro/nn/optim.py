"""Optimizers for the numpy NN framework.

``SGD`` (with momentum, weight decay, Nesterov) — the one optimizer the
reproduction uses: for source training (as in UFLD), for the single-step
entropy-minimization update of LD-BN-ADAPT and for the multi-epoch
retraining of the CARLANE-SOTA baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Only parameters with ``requires_grad=True`` *and* a non-None ``grad``
    are updated by :meth:`step`; this is what lets the adaptation code
    freeze everything but BN gamma/beta simply by flipping
    ``requires_grad`` flags.
    """

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr < 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.lr = lr
        self.state: Dict[int, dict] = {}

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients before the next backward pass.

        With ``set_to_none=True`` (default) gradient arrays are released
        so eager adaptation steps free them between frames; pass False to
        keep the allocations and zero-fill them in place instead.
        """
        for p in self.params:
            if set_to_none:
                p.grad = None
            elif p.grad is not None:
                p.grad.fill(0.0)

    def step(self) -> None:
        raise NotImplementedError

    def _updatable(self) -> Iterable[Tensor]:
        for p in self.params:
            if p.requires_grad and p.grad is not None:
                yield p


def sgd_update(
    data: np.ndarray,
    grad: np.ndarray,
    state: dict,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    nesterov: bool = False,
) -> None:
    """One fused in-place SGD update on raw arrays.

    Issues the same kernel sequence as the classic eager formulation
    (``buf = momentum * buf + grad; p -= lr * buf``) but with ``out=``
    everywhere, reusing the momentum buffer and a float64 work scratch
    kept in ``state`` — no per-parameter temporaries on the adaptation
    hot path.  Shared by :meth:`SGD.step` (source training, the eager
    adaptation step) and the compiled adaptation plan's update tail
    (:func:`repro.engine.adapt_plan._update_tail`), which calls it once
    per step and stream on the gamma/beta rows of a whole BN block, on
    every backend — so eager, serial and batched stepping apply
    bitwise-identical updates: every operation is elementwise.
    """
    work = state.get("work")
    if work is None or work.shape != grad.shape:
        work = np.empty(grad.shape, dtype=np.float64)
        state["work"] = work
    np.copyto(work, grad)  # grad.astype(float64) without the allocation
    if weight_decay:
        np.add(work, weight_decay * data, out=work)
    if momentum:
        buf = state.get("momentum")
        if buf is None:
            buf = work.copy()
            state["momentum"] = buf
        else:
            np.multiply(buf, momentum, out=buf)
            np.add(buf, work, out=buf)
        if nesterov:
            np.add(work, momentum * buf, out=work)
        else:
            np.copyto(work, buf)
    np.multiply(work, lr, out=work)
    if data.dtype == work.dtype:
        np.subtract(data, work, out=data)
    else:
        data -= work.astype(data.dtype)


class SGD(Optimizer):
    """Stochastic gradient descent with momentum / weight decay / Nesterov.

    The update itself is the fused in-place :func:`sgd_update`: momentum
    buffers are mutated in place and the only allocation is a one-time
    per-parameter work scratch, so the LD-BN-ADAPT step (one ``step()``
    per camera frame) allocates nothing in steady state.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        super().__init__(params, lr)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov

    def step(self) -> None:
        for p in self._updatable():
            sgd_update(
                p.data,
                p.grad,
                self.state.setdefault(id(p), {}),
                self.lr,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
                nesterov=self.nesterov,
            )


class LRScheduler:
    """Minimal step-decay learning-rate scheduler."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.epoch = 0
        self.base_lr = optimizer.lr

    def step(self) -> None:
        self.epoch += 1
        decay = self.gamma ** (self.epoch // self.step_size)
        self.optimizer.lr = self.base_lr * decay

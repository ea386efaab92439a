"""CONV-ADAPT / FC-ADAPT — the paper's parameter-group ablation.

Sec. III: "In addition to BN-based adaptation, we also tested
convolutional and fully-connected adaptation but found the BN-based
approach to be the most effective."

These adapters reuse the exact LD-BN-ADAPT recipe (single entropy
backprop step per unlabeled batch) but update a different parameter
group.  BN statistics are *not* refreshed by default, isolating the
effect of the chosen parameters; pass ``refresh_bn_stats=True`` to
combine both (a further ablation).

Why BN wins (observable in the benchmarks): the conv/FC groups have
10^2-10^4 x more free parameters, so a single unsupervised entropy step
either barely moves them (small lr) or drifts toward confident-but-wrong
predictions (large lr) — entropy is minimized by *any* sharp prediction,
and only a tightly constrained parameterization keeps the update safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import nn
from .base import AdaptResult, Adapter, set_bn_training
from .entropy import entropy_loss


@dataclass(frozen=True)
class VariantConfig:
    """Hyper-parameters shared by the parameter-group variants."""

    lr: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 1
    refresh_bn_stats: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class _GroupAdapter(Adapter):
    """Shared implementation: entropy step on an arbitrary parameter group."""

    def __init__(
        self,
        model: nn.Module,
        params: List[nn.Parameter],
        config: Optional[VariantConfig] = None,
    ):
        if not params:
            raise ValueError(f"{self.name}: empty parameter group")
        super().__init__(model, params)
        self.config = config if config is not None else VariantConfig()
        self.optimizer = nn.SGD(
            self._params, lr=self.config.lr, momentum=self.config.momentum
        )

    def adapt(self, images: np.ndarray) -> AdaptResult:
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected (N, 3, H, W) batch, got {images.shape}")
        if self.config.refresh_bn_stats:
            set_bn_training(self.model, True)
        try:
            logits = self.model(nn.Tensor(images, _copy=False))
            loss = entropy_loss(logits, axis=1)
            self.model.zero_grad()
            loss.backward()
            self.optimizer.step()
        finally:
            if self.config.refresh_bn_stats:
                set_bn_training(self.model, False)
        self._step += 1
        return AdaptResult(
            loss=float(loss.item()),
            num_frames=len(images),
            step_index=self._step,
        )

    def reset(self) -> None:
        super().reset()
        self.optimizer.state.clear()


class ConvAdapt(_GroupAdapter):
    """Entropy adaptation of all convolution weights (ablation)."""

    name = "conv_adapt"

    def __init__(self, model, config: Optional[VariantConfig] = None):
        super().__init__(model, model.conv_parameters(), config)


class FCAdapt(_GroupAdapter):
    """Entropy adaptation of the head's fully-connected layers (ablation)."""

    name = "fc_adapt"

    def __init__(self, model, config: Optional[VariantConfig] = None):
        super().__init__(model, model.fc_parameters(), config)

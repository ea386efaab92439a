"""Ultra-Fast Lane Detection (UFLD) model, losses and decoding.

UFLD [Qin et al., ECCV 2020] formulates lane detection as *row-anchor
classification*: for each of ``num_anchors`` predefined image rows and each
of ``num_lanes`` lane slots, the model picks one of ``num_cells`` horizontal
grid cells (or an extra "absent" class) where the lane crosses that row.
The paper under reproduction adapts exactly this model, with gridcells=100,
rowanchors=56, numlanes in {2, 4}.

This module provides:

* :class:`UFLDConfig` — architecture + label-space hyper-parameters, with
  the paper-size and scaled-down presets built in via
  :mod:`repro.models.registry`;
* :class:`UFLD` — backbone + squeeze conv + 2-layer MLP head producing
  ``(N, num_cells+1, num_anchors, num_lanes)`` logits;
* :func:`ufld_loss` — cross-entropy plus UFLD's structural similarity loss;
* :func:`decode_predictions` — logits → per-anchor lane x-positions, with
  argmax or soft-expectation localization.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from .resnet import ResNetBackbone
from .spec import ModelSpec, ufld_spec


@dataclass(frozen=True)
class UFLDConfig:
    """Hyper-parameters of a UFLD model instance.

    Attributes
    ----------
    depth:
        Backbone depth (18 or 34) — the paper evaluates both.
    width_mult:
        Backbone channel scaling (1.0 = paper size).
    input_hw:
        Network input (height, width).  The paper resizes 1280x720 camera
        frames to 288x800 (UFLD's standard) before inference.
    num_cells:
        Number of horizontal grid cells per row anchor (paper: 100).
    num_anchors:
        Number of row anchors (paper: 56).
    num_lanes:
        Lane slots (2 for MoLane, 4 for TuLane/MuLane).
    aux_channels:
        Channels after the 1x1 squeeze conv (UFLD uses 8 at full size).
    hidden_dim:
        Width of the head MLP hidden layer (UFLD uses 2048 at full size).
    """

    depth: int = 18
    width_mult: float = 1.0
    input_hw: Tuple[int, int] = (288, 800)
    num_cells: int = 100
    num_anchors: int = 56
    num_lanes: int = 4
    aux_channels: int = 8
    hidden_dim: int = 2048

    @property
    def num_classes(self) -> int:
        """Cells plus the "no lane on this row" class."""
        return self.num_cells + 1

    @property
    def absent_class(self) -> int:
        """Class index meaning "lane absent at this row anchor"."""
        return self.num_cells

    @property
    def total_dim(self) -> int:
        return self.num_classes * self.num_anchors * self.num_lanes

    def with_lanes(self, num_lanes: int) -> "UFLDConfig":
        """Same architecture, different lane-slot count (Mo vs Tu/MuLane)."""
        return replace(self, num_lanes=num_lanes)

    def to_spec(self, name: Optional[str] = None) -> ModelSpec:
        """Symbolic cost model of this configuration (see spec.py)."""
        return ufld_spec(
            depth=self.depth,
            width_mult=self.width_mult,
            input_hw=self.input_hw,
            num_cells=self.num_cells,
            num_anchors=self.num_anchors,
            num_lanes=self.num_lanes,
            aux_channels=self.aux_channels,
            hidden_dim=self.hidden_dim,
            name=name,
        )


class UFLD(nn.Module):
    """UFLD lane detector: ResNet backbone + row-anchor classification head.

    Output logits have shape ``(N, num_cells + 1, num_anchors, num_lanes)``
    — the layout the paper's entropy objective operates on.
    """

    def __init__(self, config: UFLDConfig, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        self.backbone = ResNetBackbone(
            depth=config.depth, width_mult=config.width_mult, rng=rng
        )
        feat_hw = self.backbone.feature_hw(config.input_hw)
        self.feature_hw = feat_hw
        self.squeeze = nn.Conv2d(
            self.backbone.out_channels, config.aux_channels, kernel_size=1,
            bias=True, rng=rng,
        )
        flat_dim = config.aux_channels * feat_hw[0] * feat_hw[1]
        self.flat_dim = flat_dim
        self.fc1 = nn.Linear(flat_dim, config.hidden_dim, rng=rng)
        self.fc2 = nn.Linear(config.hidden_dim, config.total_dim, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        logits, _ = self.forward_with_features(x)
        return logits

    def forward_with_features(self, x: nn.Tensor):
        """Forward pass that also returns the head's hidden embedding.

        The hidden layer (post-ReLU output of ``fc1``) is the embedding
        space the CARLANE-SOTA baseline clusters and aligns; exposing it
        avoids a second forward pass during that baseline's training.
        Returns ``(logits, hidden)``.
        """
        n = x.shape[0]
        self._check_input(x)
        feat = self.backbone(x)
        feat = self.squeeze(feat)
        flat = feat.flatten(1)
        hidden = F.relu(self.fc1(flat))
        logits = self.fc2(hidden)
        cfg = self.config
        logits = logits.reshape(n, cfg.num_classes, cfg.num_anchors, cfg.num_lanes)
        return logits, hidden

    def _check_input(self, x: nn.Tensor) -> None:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"UFLD expects (N, 3, H, W) input, got {x.shape}")
        if tuple(x.shape[2:]) != tuple(self.config.input_hw):
            raise ValueError(
                f"UFLD configured for {self.config.input_hw}, got {x.shape[2:]}"
            )

    # -- parameter groups used by the adaptation code -------------------
    def bn_modules(self):
        """All BatchNorm modules (the layers LD-BN-ADAPT touches)."""
        return [m for m in self.modules() if isinstance(m, nn.BatchNorm2d)]

    def bn_parameters(self):
        """gamma/beta of every BN layer."""
        params = []
        for m in self.bn_modules():
            params.extend([m.weight, m.bias])
        return params

    def conv_parameters(self):
        """Weights/biases of all convolutions (CONV-ADAPT ablation)."""
        params = []
        for m in self.modules():
            if isinstance(m, nn.Conv2d):
                params.append(m.weight)
                if m.bias is not None:
                    params.append(m.bias)
        return params

    def fc_parameters(self):
        """Weights/biases of the head MLP (FC-ADAPT ablation)."""
        params = []
        for m in self.modules():
            if isinstance(m, nn.Linear):
                params.append(m.weight)
                if m.bias is not None:
                    params.append(m.bias)
        return params


def ufld_loss(
    logits: nn.Tensor,
    targets: np.ndarray,
    sim_weight: float = 0.0,
) -> nn.Tensor:
    """UFLD training loss.

    Parameters
    ----------
    logits:
        ``(N, C, anchors, lanes)`` raw scores, C = num_cells + 1.
    targets:
        ``(N, anchors, lanes)`` integer cell indices; the absent class is
        ``num_cells``.
    sim_weight:
        Weight of UFLD's structural similarity loss — an L1 penalty on the
        difference between classification distributions of adjacent row
        anchors, encoding that lanes are continuous.
    """
    loss = F.cross_entropy(logits, targets)
    if sim_weight > 0.0 and logits.shape[2] > 1:
        probs = F.softmax(logits, axis=1)
        diff = probs[:, :, 1:, :] - probs[:, :, :-1, :]
        loss = loss + sim_weight * diff.abs().mean()
    return loss


@lru_cache(maxsize=None)
def _cell_index(num_cells: int) -> np.ndarray:
    """``arange(num_cells)`` shaped to weight a ``(N, cells, anchors,
    lanes)`` block; shared, so read-only."""
    idx = np.arange(num_cells, dtype=np.float64).reshape(1, -1, 1, 1)
    idx.flags.writeable = False
    return idx


def decode_predictions(
    logits: np.ndarray,
    config: UFLDConfig,
    method: str = "expectation",
) -> np.ndarray:
    """Convert logits to lane x-positions per (image, anchor, lane).

    Returns an ``(N, anchors, lanes)`` float array of x coordinates in
    *cell units* ``[0, num_cells)``; absent points are ``np.nan``.

    ``method="argmax"`` takes the hard winning cell.  ``method=
    "expectation"`` (UFLD's refinement, default) computes the softmax-
    weighted average of cell indices over the location classes, giving
    sub-cell resolution; absence is still decided by the hard argmax.
    """
    if logits.ndim == 3:
        logits = logits[None]
    num_cells = config.num_cells  # the absent class is index num_cells
    if logits.shape[1] != num_cells + 1:
        raise ValueError(
            f"expected {num_cells + 1} classes, got {logits.shape[1]}"
        )
    hard = logits.argmax(axis=1)  # (N, anchors, lanes)

    if method == "argmax":
        positions = hard.astype(np.float64)
    elif method == "expectation":
        loc_logits = logits[:, :num_cells]
        probs = loc_logits - loc_logits.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        positions = (probs * _cell_index(num_cells)).sum(axis=1)
        # float64 already unless the logits were wider than that
        positions = positions.astype(np.float64, copy=False)
    else:
        raise ValueError(f"unknown decode method {method!r}")

    np.putmask(positions, hard == num_cells, np.nan)
    return positions


def cells_to_pixels(
    positions: np.ndarray, config: UFLDConfig, image_width: int
) -> np.ndarray:
    """Map cell-unit x positions to pixel coordinates in a target image."""
    scale = image_width / config.num_cells
    return positions * scale + scale / 2.0

"""Lane-detection accuracy metrics (TuSimple / CARLANE protocol).

The paper's Fig. 2 reports the TuSimple-style accuracy that CARLANE uses::

    accuracy = (number of correctly predicted lane points)
             / (number of ground-truth lane points)

where a predicted point is *correct* when its horizontal distance to the
ground-truth point at the same row anchor is below a threshold (TuSimple:
20 px at 1280 px width, i.e. 1.5625 location cells at 100 cells/row).  We
express the threshold in **cell units** so it transfers unchanged across
the scaled presets (the relative difficulty — threshold vs. cell width —
matches the paper's setup at every scale).

Also provided: lane-level false positives / false negatives with the
standard 85 % match rule, and a convenience evaluator that runs a model
over a dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

# TuSimple: 20 px tolerance / (1280 px / 100 cells) = 1.5625 cells
TUSIMPLE_THRESHOLD_CELLS = 20.0 / (1280.0 / 100.0)
# TuSimple: a lane counts as detected if >= 85% of its points match
LANE_MATCH_RATIO = 0.85


@dataclass(frozen=True)
class LaneMetrics:
    """Aggregate metrics over a dataset (Fig. 2 quantities)."""

    accuracy: float  # point-level accuracy in [0, 1]
    false_positive_rate: float  # predicted lanes that match no GT lane
    false_negative_rate: float  # GT lanes that were missed
    num_gt_points: int
    num_correct_points: int
    num_gt_lanes: int
    num_pred_lanes: int

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.accuracy

    def as_dict(self) -> Dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "accuracy_percent": self.accuracy_percent,
            "fp_rate": self.false_positive_rate,
            "fn_rate": self.false_negative_rate,
            "gt_points": float(self.num_gt_points),
            "correct_points": float(self.num_correct_points),
        }


def point_accuracy(
    pred_cells: np.ndarray,
    gt_cells: np.ndarray,
    threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS,
) -> LaneMetrics:
    """Compute TuSimple accuracy and lane-level FP/FN.

    Parameters
    ----------
    pred_cells / gt_cells:
        ``(N, anchors, lanes)`` continuous positions in cell units with
        NaN marking "absent" (use
        :func:`repro.models.decode_predictions` for predictions and the
        dataset's ``gt_cells`` for ground truth).
    threshold_cells:
        Match tolerance in cell units (default = TuSimple's 20 px rule).

    Notes
    -----
    Only rows where the *ground truth* has a point contribute to the
    denominator, exactly as in the TuSimple benchmark script.  A GT point
    with an absent prediction counts as wrong.  Lane-level FP/FN follow
    the 85 % rule per (image, lane-slot) pair.
    """
    if pred_cells.shape != gt_cells.shape:
        raise ValueError(
            f"shape mismatch: pred {pred_cells.shape} vs gt {gt_cells.shape}"
        )
    if pred_cells.ndim == 2:
        pred_cells = pred_cells[None]
        gt_cells = gt_cells[None]

    gt_present = ~np.isnan(gt_cells)
    pred_present = ~np.isnan(pred_cells)
    # NaN on either side compares False: a correct point has both
    correct = np.abs(pred_cells - gt_cells) <= threshold_cells

    # per (image, lane slot): GT points, matched points
    gt_counts = gt_present.sum(axis=1)
    match_counts = correct.sum(axis=1)
    num_gt = int(gt_counts.sum())
    num_correct = int(match_counts.sum())
    accuracy = num_correct / num_gt if num_gt else 1.0

    # lane-level statistics: a lane exists where it has a point, and is
    # detected — which takes a GT lane and a predicted one — at the ratio
    gt_lane_mask = gt_counts > 0
    pred_lane_mask = pred_present.any(axis=1)
    detected = match_counts / np.maximum(gt_counts, 1) >= LANE_MATCH_RATIO
    num_detected = int(np.count_nonzero(detected))
    num_gt_lanes = int(np.count_nonzero(gt_lane_mask))
    num_pred_lanes = int(np.count_nonzero(pred_lane_mask))
    false_neg = num_gt_lanes - num_detected
    # predicted lane with no GT counterpart, or too few matching points
    false_pos = num_pred_lanes - num_detected

    return LaneMetrics(
        accuracy=accuracy,
        false_positive_rate=false_pos / num_pred_lanes if num_pred_lanes else 0.0,
        false_negative_rate=false_neg / num_gt_lanes if num_gt_lanes else 0.0,
        num_gt_points=num_gt,
        num_correct_points=num_correct,
        num_gt_lanes=num_gt_lanes,
        num_pred_lanes=num_pred_lanes,
    )


def evaluate_model(
    model,
    dataset,
    batch_size: int = 16,
    threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS,
    decode_method: str = "expectation",
) -> LaneMetrics:
    """Run ``model`` over ``dataset`` in eval mode and score it.

    ``model`` is a :class:`repro.models.UFLD`; ``dataset`` a
    :class:`repro.data.LaneDataset`.  No gradients are recorded.
    """
    from .. import nn
    from ..models.ufld import decode_predictions

    model.eval()
    preds = []
    with nn.no_grad():
        for start in range(0, len(dataset), batch_size):
            batch = dataset.images[start : start + batch_size]
            logits = model(nn.Tensor(batch, _copy=False))
            preds.append(
                decode_predictions(logits.numpy(), model.config, method=decode_method)
            )
    pred_cells = np.concatenate(preds, axis=0)
    return point_accuracy(pred_cells, dataset.gt_cells, threshold_cells)

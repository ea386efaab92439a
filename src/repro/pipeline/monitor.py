"""Deadline and accuracy monitoring for the online pipeline.

Tracks, frame by frame, what the paper's Fig. 3 measures (per-frame
latency against the 33.3 ms / 55.5 ms deadlines) and what Fig. 2 measures
(lane accuracy), but *online*, frame by frame over the adaptation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..hw.deadline import deadline_slack_ms
from ..telemetry.sketch import exact_percentile


def latency_percentile(latencies: Sequence[float], q: float) -> float:
    """Percentile ``q`` in [0, 100] of a latency series; 0.0 when empty.

    Thin alias of :func:`repro.telemetry.sketch.exact_percentile` — the
    one shared exact implementation behind :class:`PipelineReport`,
    ``Timer`` and every other list-backed percentile.  (Unbounded fleet
    aggregations use the streaming sketch instead; same [0, 100] /
    0.0-when-empty contract.)  Kept under its historical name because
    the serving and benchmark layers import it from here.
    """
    return exact_percentile(latencies, q)


@dataclass
class FrameRecord:
    """Everything observed about one processed frame."""

    index: int
    timestamp: float
    domain: str
    latency_ms: float
    deadline_ms: float
    deadline_met: bool
    accuracy: float  # point accuracy of this frame's prediction
    entropy: Optional[float] = None  # adaptation loss when a step ran
    adapted: bool = False
    adapt_ms: Optional[float] = None  # adaptation-step latency when one ran
    refused: bool = False  # the step's loss was not finite: nothing written
    rejected: bool = False  # not learnable (non-finite or constant): unbuffered


@dataclass
class PipelineReport:
    """Summary of one online-adaptation run.

    ``truncated`` is set when the source stream ended before the requested
    number of frames — the report then covers only the frames that ran.
    """

    frames: List[FrameRecord] = field(default_factory=list)
    deadline_ms: float = 0.0
    truncated: bool = False

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def mean_accuracy(self) -> float:
        if not self.frames:
            return 0.0
        return float(np.mean([f.accuracy for f in self.frames]))

    def accuracy_over(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mean accuracy over a frame range (e.g. after warm-up)."""
        chunk = self.frames[first:last]
        if not chunk:
            return 0.0
        return float(np.mean([f.accuracy for f in chunk]))

    @property
    def mean_latency_ms(self) -> float:
        if not self.frames:
            return 0.0
        return float(np.mean([f.latency_ms for f in self.frames]))

    @property
    def deadline_miss_rate(self) -> float:
        if not self.frames:
            return 0.0
        return float(np.mean([not f.deadline_met for f in self.frames]))

    @property
    def adaptation_steps(self) -> int:
        return sum(1 for f in self.frames if f.adapted)

    @property
    def refused_steps(self) -> int:
        """Steps whose loss was not finite, so they wrote nothing."""
        return sum(1 for f in self.frames if f.refused)

    @property
    def rejected_frames(self) -> int:
        """Frames the adapter would not learn from (a non-finite pixel,
        or every pixel equal): served, never buffered toward a step."""
        return sum(1 for f in self.frames if f.rejected)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] over all frames."""
        return latency_percentile([f.latency_ms for f in self.frames], q)

    def slack_percentile(self, q: float) -> float:
        """Deadline-slack percentile over all frames (negative = missed).

        Low percentiles (p10) show how close the stream runs to its
        deadline, the signal the fleet's admission controller throttles
        adaptation on.
        """
        return latency_percentile(
            [
                deadline_slack_ms(f.latency_ms, f.deadline_ms)
                for f in self.frames
            ],
            q,
        )

    def adaptation_percentile(self, q: float) -> float:
        """Adaptation-step latency percentile over frames where one ran."""
        return latency_percentile(
            [f.adapt_ms for f in self.frames if f.adapt_ms is not None], q
        )

    @property
    def mean_adapt_ms(self) -> float:
        steps = [f.adapt_ms for f in self.frames if f.adapt_ms is not None]
        return float(np.mean(steps)) if steps else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "frames": float(self.num_frames),
            "mean_accuracy": self.mean_accuracy,
            "mean_latency_ms": self.mean_latency_ms,
            "deadline_ms": self.deadline_ms,
            "deadline_miss_rate": self.deadline_miss_rate,
            "adaptation_steps": float(self.adaptation_steps),
            "truncated": float(self.truncated),
        }

"""``repro.pipeline`` — the online inference→adapt→next-frame loop."""

from .monitor import FrameRecord, PipelineReport
from .realtime import PipelineConfig, RealTimePipeline

__all__ = [
    "RealTimePipeline",
    "PipelineConfig",
    "PipelineReport",
    "FrameRecord",
]

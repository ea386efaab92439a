"""``repro.pipeline`` — the online inference→adapt→next-frame loop of one
vehicle, a one-stream :class:`repro.serve.FleetServer`."""

from ..serve.report import FrameRecord, PipelineReport
from .realtime import PipelineConfig, RealTimePipeline

__all__ = [
    "RealTimePipeline",
    "PipelineConfig",
    "PipelineReport",
    "FrameRecord",
]

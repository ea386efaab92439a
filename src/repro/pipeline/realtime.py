"""One vehicle: inference → adaptation → next frame, as a fleet of one.

The paper's deployment (Sec. III): a 30 FPS camera produces unlabeled
frames; each is inferred (the lane estimate the vehicle acts on), then
one LD-BN-ADAPT step updates the model before the next frame is served.
That is one stream of :class:`repro.serve.FleetServer`, the one serving
loop: :meth:`RealTimePipeline.run` registers the caller's adapter as its
server's only stream, serves it and returns that stream's
:class:`PipelineReport`.  Two constants make the fleet a vehicle: the
camera period is the paper's 30 FPS, and frames are served one at a time
(``max_batch_size=1``), so frame *i*'s step lands before frame *i + 1*
is inferred even when the device falls behind.

``latency_model="orin"`` prices each frame on the analytic Jetson Orin
roofline: a frame that did not queue costs exactly ``inference +
adaptation`` (the step only where one ran), one that waited behind an
overrunning step adds the time it queued.  ``"wallclock"`` measures the
host time of the frame's forward, decode and step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..adapt.base import Adapter
from ..data.dataset import LaneSample
from ..hw.deadline import DEADLINE_30FPS_MS
from ..hw.device import DeviceProfile
from ..metrics.lane_accuracy import TUSIMPLE_THRESHOLD_CELLS
from ..models.spec import ModelSpec
from ..serve import FleetConfig, FleetServer, PipelineReport

# bench-e2e's spans patch these two names through this module's
# ``__dict__``; the frame loop that calls them is the fleet's
# (``repro.serve.pool``), but the names stay importable here
from ..metrics.lane_accuracy import point_accuracy  # noqa: F401
from ..models.ufld import decode_predictions  # noqa: F401

#: the one stream's id on the pipeline's server
STREAM = "vehicle"


@dataclass(frozen=True)
class PipelineConfig:
    """Real-time loop configuration (validated as the fleet's)."""

    deadline_ms: float = DEADLINE_30FPS_MS
    latency_model: str = "orin"  # "orin" | "wallclock"
    decode_method: str = "expectation"
    accuracy_threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS
    backend: str = "numpy"  # plan backend for the compiled forward
    threads: Optional[int] = None  # kernel-pool width (codegen backends)

    def __post_init__(self):
        self.fleet_config()

    def fleet_config(self) -> FleetConfig:
        """The one-stream fleet this vehicle is: a 30 FPS camera, served
        one frame at a time."""
        return FleetConfig(
            deadline_ms=self.deadline_ms,
            frame_period_ms=DEADLINE_30FPS_MS,
            latency_model=self.latency_model,
            decode_method=self.decode_method,
            accuracy_threshold_cells=self.accuracy_threshold_cells,
            backend=self.backend,
            threads=self.threads,
            max_batch_size=1,
        )


class RealTimePipeline:
    """One vehicle: a model + adapter served as a one-stream fleet, with
    deadline tracking."""

    def __init__(
        self,
        model,
        adapter: Adapter,
        config: Optional[PipelineConfig] = None,
        device: Optional[DeviceProfile] = None,
        spec: Optional[ModelSpec] = None,
    ):
        self.model = model
        self.adapter = adapter
        self.config = config if config is not None else PipelineConfig()
        self.server = FleetServer(
            model, self.config.fleet_config(), device=device, spec=spec
        )

    def run(self, stream: Iterable[LaneSample], num_frames: int) -> PipelineReport:
        """Process ``num_frames`` frames; returns the full report.

        Ground-truth labels attached to the stream are used **only** for
        the online accuracy diagnostics — the adapter sees raw images.

        If the stream ends before ``num_frames`` frames were produced, the
        partial report is returned with ``report.truncated`` set.  The
        fleet steps the stream's own BN block, never the model; when the
        run ends that block is written onto the model once, so the
        caller's model holds the adapted state and a later ``run``
        continues from it on the same compiled plans, its camera starting
        where the last run ended.
        """
        session = self.server.add_stream(STREAM, stream, adapter=self.adapter)
        try:
            self.server.run(num_frames)
        finally:
            self.server.remove_stream(STREAM).bn_state.swap_in()
        return session.report

"""The real-time loop: inference → adaptation → next frame.

This is the deployment scenario the paper targets (Sec. III): a 30 FPS
camera produces unlabeled frames; for each frame the model first runs
inference (producing the lane estimate the vehicle acts on), then one
LD-BN-ADAPT step updates the model before the next frame arrives.

Latency accounting is pluggable:

* ``latency_model="orin"`` — per-frame latency comes from the analytic
  Jetson Orin roofline (the configuration under study), so deadline
  statistics reflect the paper's platform rather than the host CPU;
* ``latency_model="wallclock"`` — measured host time (useful for
  profiling the numpy implementation itself).

Inference runs through the compiled engine (:mod:`repro.engine`) by
default — a traced static plan with fused conv-BN-ReLU stages and arena
buffer reuse, bit-exact against eager.  Adaptation steps use the same
machinery: :class:`repro.adapt.LDBNAdapt` replays the compiled entropy
step (train-mode forward + backward restricted to BN gamma/beta), warmed
here outside the timed region like the inference plan.  An adapter that
leaves its backend and width to the loop compiles with the pipeline's,
and is handed each frame's stem rows from the inference replay, so its
steps skip the stem conv the frame was already served through.
``repro.nn.inference_mode(False)`` forces eager inference and
``repro.nn.adaptation_mode(False)`` the eager adaptation step (the
escape hatches).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .. import nn
from ..adapt.base import Adapter
from ..engine import compile_model
from ..engine.backends import available_backends
from ..engine.backends.threading import serving_threads
from ..data.dataset import FrameStream, LaneSample
from ..hw.deadline import DEADLINE_30FPS_MS
from ..hw.device import DeviceProfile
from ..hw.roofline import ld_bn_adapt_latency
from ..metrics.lane_accuracy import TUSIMPLE_THRESHOLD_CELLS, point_accuracy
from ..models.spec import ModelSpec
from ..models.ufld import decode_predictions
from ..utils.profiling import Timer
from .monitor import FrameRecord, PipelineReport


@dataclass(frozen=True)
class PipelineConfig:
    """Real-time loop configuration."""

    deadline_ms: float = DEADLINE_30FPS_MS
    latency_model: str = "orin"  # "orin" | "wallclock"
    decode_method: str = "expectation"
    accuracy_threshold_cells: float = TUSIMPLE_THRESHOLD_CELLS
    backend: str = "numpy"  # plan backend for the compiled forward
    threads: Optional[int] = None  # kernel-pool width (codegen backends)

    def __post_init__(self):
        if self.latency_model not in ("orin", "wallclock"):
            raise ValueError(f"unknown latency model {self.latency_model!r}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown plan backend {self.backend!r}; expected one of "
                f"{available_backends()}"
            )
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.decode_method not in ("argmax", "expectation"):
            raise ValueError(f"unknown decode method {self.decode_method!r}")
        if self.accuracy_threshold_cells <= 0:
            raise ValueError(
                f"accuracy_threshold_cells must be positive, "
                f"got {self.accuracy_threshold_cells}"
            )


class RealTimePipeline:
    """Drives a model + adapter over a frame stream with deadline tracking."""

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
        # explicit threads both fixes the plans' width and re-prices the
        # roofline model; None prices one thread and compiles at the
        # backend's resolved width
        self.threads: Optional[int] = serving_threads(self.config.threads)
        if self.config.latency_model == "orin":
            if device is None or spec is None:
                raise ValueError(
                    "latency_model='orin' requires a DeviceProfile and a "
                    "paper-size ModelSpec (the platform under study)"
                )
            breakdown = ld_bn_adapt_latency(
                spec, device, adapter.batch_size, threads=self.threads or 1
            )
            # inference happens every frame; the adaptation step is paid on
            # the frames where a step actually runs
            self._infer_ms = breakdown.inference_ms
            self._adapt_ms = breakdown.adaptation_ms
        else:
            self._infer_ms = None
            self._adapt_ms = None
        self.timer = Timer()
        self._compiled = None  # built lazily on the first compiled forward
        adapter.share_engine(self.config.backend, self.threads)
        # frame signatures already traced/compiled -> the stem rows view
        # the adapter is handed (None: it steps on the images)
        self._warmed: dict = {}

    # ------------------------------------------------------------------
    def _warm_engine(self, frame: LaneSample) -> Optional[np.ndarray]:
        """Trace/compile outside the timed region, once per frame
        signature: shape, dtype and the compiled-path switches in force
        (so a run under a toggled mode still warms what it will use).
        Returns where the inference replay leaves the frame's stem rows
        when the adapter takes them, else None."""
        image = frame.image
        compiled_inference = nn.compiled_inference_enabled()
        key = (
            image.shape, image.dtype, compiled_inference,
            nn.compiled_adaptation_enabled(),
        )
        if key in self._warmed:
            return self._warmed[key]
        rows = None
        if compiled_inference:
            if self._compiled is None:
                self._compiled = compile_model(
                    self.model, backend=self.config.backend,
                    threads=self.threads,
                )
            self.model.eval()
            self._compiled.warm(image[None])
            stem = self._compiled.plan_for(
                (1,) + image.shape, image.dtype
            ).stem_rows
            if stem is not None and self.adapter.takes_rows_from(
                self._compiled
            ):
                rows = stem[0]
        self.adapter.warm(image, from_stem=rows is not None)
        self._warmed[key] = rows
        return rows

    def _predict(self, frame: LaneSample) -> np.ndarray:
        """Lane estimates ``(1, anchors, lanes)`` of one frame."""
        batch = frame.image[None]
        if nn.compiled_inference_enabled():
            # `_warm_engine` built the engine and set eval mode once: no
            # per-frame model walk, the engine refuses a training model
            logits = self._compiled(batch)
        else:
            self.model.eval()
            with nn.no_grad():
                logits = self.model(nn.Tensor(batch, _copy=False))
        return decode_predictions(
            logits.numpy(), self.model.config, method=self.config.decode_method
        )

    def run(self, stream: Iterable[LaneSample], num_frames: int) -> PipelineReport:
        """Process ``num_frames`` frames; returns the full report.

        Ground-truth labels attached to the stream are used **only** for
        the online accuracy diagnostics — the adapter sees raw images.

        If the stream ends before ``num_frames`` frames were produced, the
        partial report is returned with ``report.truncated`` set instead of
        leaking the stream's ``StopIteration``.
        """
        config = self.config
        deadline_ms = config.deadline_ms
        threshold = config.accuracy_threshold_cells
        modelled = config.latency_model == "orin"
        report = PipelineReport(deadline_ms=deadline_ms)
        frames = report.frames
        timer, observe = self.timer, self.adapter.observe_frame
        clock = time.perf_counter
        iterator = iter(stream)

        for index in range(num_frames):
            try:
                frame = next(iterator)
            except StopIteration:
                report.truncated = True
                break

            rows = self._warm_engine(frame)
            start = clock()
            pred = self._predict(frame)
            served = clock()
            result = observe(frame.image, rows)
            adapt_s = clock() - served
            timer.add("inference", served - start)
            timer.add("adaptation", adapt_s)

            accuracy = point_accuracy(
                pred, frame.gt_cells[None], threshold
            ).accuracy

            if modelled:
                latency = self._infer_ms + (self._adapt_ms if result else 0.0)
                adapt_ms = self._adapt_ms if result else None
            else:
                latency = 1e3 * (served - start) + 1e3 * adapt_s
                adapt_ms = 1e3 * adapt_s if result else None

            frames.append(
                FrameRecord(
                    index=index,
                    timestamp=frame.timestamp,
                    domain=frame.domain,
                    latency_ms=latency,
                    deadline_ms=deadline_ms,
                    deadline_met=latency <= deadline_ms,
                    accuracy=accuracy,
                    entropy=result.loss if result else None,
                    adapted=result is not None,
                    adapt_ms=adapt_ms,
                    refused=result is not None and result.refused,
                )
            )
        return report

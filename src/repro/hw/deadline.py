"""Real-time deadline definitions and feasibility checks.

Two deadlines from the paper (Sec. IV):

* **33.3 ms** — the 30 FPS camera rate ("tight real-time performance
  constraints of up to 30 FPS");
* **55.5 ms** — 18 FPS, "similar to Audi A8 sedan with level 3 autonomous
  driving system".
"""

from __future__ import annotations

from typing import Dict

from .device import DeviceProfile

DEADLINE_30FPS_MS = 1000.0 / 30.0  # 33.33 ms
DEADLINE_18FPS_MS = 1000.0 / 18.0  # 55.56 ms

NAMED_DEADLINES: Dict[str, float] = {
    "30fps": DEADLINE_30FPS_MS,
    "18fps_audi_a8": DEADLINE_18FPS_MS,
}


def parallel_speedup(device: DeviceProfile, threads: int) -> float:
    """Amdahl speedup of a ``threads``-wide kernel pool on ``device``.

    ``1 / ((1 - p) + p / t)`` with ``p = device.thread_efficiency`` and
    ``t`` clamped to ``[1, device.cpu_cores]`` — asking for more threads
    than the power mode's gated CPU cluster has buys nothing, and the
    serial fraction (stage dispatch, barriers, epilogues) caps the gain.
    This is the factor the roofline model divides *compute* time by when
    pricing a threaded-backend device; memory time is shared-bus bound
    and does not scale.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t = float(min(threads, max(1, device.cpu_cores)))
    p = device.thread_efficiency
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"thread_efficiency must be in [0, 1], got {p}")
    return 1.0 / ((1.0 - p) + p / t)


def meets_deadline(latency_ms: float, deadline_ms: float) -> bool:
    """True when a per-frame latency fits within the frame period."""
    if latency_ms < 0 or deadline_ms <= 0:
        raise ValueError("latencies and deadlines must be positive")
    return latency_ms <= deadline_ms


def deadline_slack_ms(latency_ms: float, deadline_ms: float) -> float:
    """Slack a frame finished with: ``deadline - latency`` (negative = miss).

    The quantity the fleet's admission controller watches — sustained low
    or negative slack means the device is hot and optional work (the
    adaptation step) should be shed.
    """
    if latency_ms < 0 or deadline_ms <= 0:
        raise ValueError("latencies and deadlines must be positive")
    return deadline_ms - latency_ms


def adaptation_budget_ms(
    batch_deadline_ms: float,
    inference_done_ms: float,
    headroom_ms: float = 0.0,
) -> float:
    """Time left for adaptation steps after a served batch's forward pass.

    ``batch_deadline_ms`` is the earliest absolute deadline in the batch
    and ``inference_done_ms`` the absolute clock at which the shared
    forward completes; whatever remains (minus a safety ``headroom_ms``)
    is the budget the admission controller may spend on adaptation
    without the roofline model predicting a new deadline miss.  May be
    negative — the batch is already doomed and no step should be granted.
    """
    if headroom_ms < 0:
        raise ValueError("headroom_ms must be non-negative")
    return batch_deadline_ms - inference_done_ms - headroom_ms


def stream_utilization(service_ms: float, period_ms: float) -> float:
    """Fraction of one device a stream occupies, per camera period.

    ``service_ms`` is the stream's roofline-estimated per-period service
    demand on a *specific* device (inference at batch 1 plus its share
    of the adaptation step) — heterogeneous pools price the same stream
    differently per power mode.  The device-pool placement policies sum
    these utilizations to compare device loads; a device whose total
    exceeds ~1.0 cannot keep up even with perfect batching.
    """
    if period_ms <= 0:
        raise ValueError(f"period_ms must be positive, got {period_ms}")
    if service_ms < 0:
        raise ValueError(f"service_ms must be >= 0, got {service_ms}")
    return service_ms / period_ms


def max_fps(latency_ms: float) -> float:
    """Highest sustainable frame rate for a per-frame latency."""
    if latency_ms <= 0:
        raise ValueError("latency must be positive")
    return 1000.0 / latency_ms

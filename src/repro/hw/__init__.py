"""``repro.hw`` — analytic Jetson Orin latency/energy model (Fig. 3 substrate)."""

from .deadline import (
    DEADLINE_18FPS_MS,
    DEADLINE_30FPS_MS,
    NAMED_DEADLINES,
    adaptation_budget_ms,
    deadline_slack_ms,
    max_fps,
    meets_deadline,
    parallel_speedup,
    stream_utilization,
)
from .device import (
    ORIN_POWER_MODES,
    POWER_MODE_ORDER,
    DeviceProfile,
    build_device_pool,
    get_power_mode,
)
from .energy import (
    EnergyEstimate,
    OperatingPoint,
    design_space,
    frame_energy,
    select_operating_point,
)
from .roofline import (
    LatencyBreakdown,
    amortized_frame_latency,
    backward_latency,
    batched_inference_latency_ms,
    forward_latency,
    ld_bn_adapt_latency,
    sota_epoch_latency,
    update_latency,
)

__all__ = [
    "DeviceProfile",
    "ORIN_POWER_MODES",
    "POWER_MODE_ORDER",
    "get_power_mode",
    "build_device_pool",
    "LatencyBreakdown",
    "forward_latency",
    "backward_latency",
    "update_latency",
    "ld_bn_adapt_latency",
    "amortized_frame_latency",
    "batched_inference_latency_ms",
    "sota_epoch_latency",
    "DEADLINE_30FPS_MS",
    "DEADLINE_18FPS_MS",
    "NAMED_DEADLINES",
    "meets_deadline",
    "deadline_slack_ms",
    "adaptation_budget_ms",
    "stream_utilization",
    "parallel_speedup",
    "max_fps",
    "EnergyEstimate",
    "frame_energy",
    "OperatingPoint",
    "design_space",
    "select_operating_point",
]

"""Roofline latency model: layer specs x device profiles → milliseconds.

Each layer's time is ``max(compute time, memory time) + launch overhead``
(the classic roofline), summed over the model.  Backward passes cost ~2x
the forward compute (two GEMMs: input-gradient and weight-gradient) and
~2x the traffic.  An LD-BN-ADAPT step is one train-mode forward plus one
backward — although only gamma/beta are *updated*, their gradients flow
through every downstream layer, so the backward sweep is not cheaper than
a regular one; the savings are in optimizer/update work, which is
negligible (~0.02 % of parameters).

These functions reproduce Fig. 3 (per-power-mode latency of inference +
adaptation, batch size 1) and the Sec. II claim that one epoch of the
CARLANE-SOTA baseline takes over an hour on the Orin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..models.spec import ModelSpec
from .deadline import parallel_speedup
from .device import DeviceProfile

# backward ≈ 2x forward compute for GEMM layers (dX and dW products)
BACKWARD_COMPUTE_FACTOR = 2.0
# backward reads activations + gradients and writes gradients
BACKWARD_BYTES_FACTOR = 2.0


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-frame latency decomposition (milliseconds)."""

    inference_ms: float
    adapt_forward_ms: float
    adapt_backward_ms: float
    update_ms: float

    @property
    def adaptation_ms(self) -> float:
        return self.adapt_forward_ms + self.adapt_backward_ms + self.update_ms

    @property
    def total_ms(self) -> float:
        return self.inference_ms + self.adaptation_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "inference_ms": self.inference_ms,
            "adapt_forward_ms": self.adapt_forward_ms,
            "adapt_backward_ms": self.adapt_backward_ms,
            "update_ms": self.update_ms,
            "adaptation_ms": self.adaptation_ms,
            "total_ms": self.total_ms,
        }


def _pass_time(
    spec: ModelSpec,
    device: DeviceProfile,
    batch_size: int,
    compute_factor: float,
    bytes_factor: float,
    efficiency: float,
    threads: int = 1,
) -> float:
    """Roofline time (seconds) of one pass over the network.

    ``threads`` is the kernel-pool width of the serving backend: only
    the *compute* term is divided by the Amdahl speedup
    (:func:`~repro.hw.deadline.parallel_speedup`) — DRAM traffic rides a
    shared bus and does not scale, so memory-bound layers keep their
    cost and the model re-prices exactly what threading accelerates.
    ``threads=1`` is an exact no-op, keeping every archived single-
    thread latency stable.
    """
    total = 0.0
    eff_flops = device.peak_flops * efficiency
    speedup = parallel_speedup(device, threads) if threads > 1 else 1.0
    for layer in spec.layers:
        flops = layer.flops * batch_size * compute_factor
        data = layer.bytes_moved * batch_size * bytes_factor
        compute_t = flops / eff_flops / speedup
        memory_t = data / device.mem_bandwidth
        total += max(compute_t, memory_t) + device.kernel_overhead_s
    return total


def forward_latency(
    spec: ModelSpec, device: DeviceProfile, batch_size: int = 1,
    training: bool = False, threads: int = 1,
) -> float:
    """Forward-pass latency in seconds."""
    eff = device.efficiency_train if training else device.efficiency_infer
    return _pass_time(spec, device, batch_size, 1.0, 1.0, eff, threads=threads)


def backward_latency(
    spec: ModelSpec, device: DeviceProfile, batch_size: int = 1,
    threads: int = 1,
) -> float:
    """Backward-pass latency in seconds."""
    return _pass_time(
        spec,
        device,
        batch_size,
        BACKWARD_COMPUTE_FACTOR,
        BACKWARD_BYTES_FACTOR,
        device.efficiency_train,
        threads=threads,
    )


def update_latency(
    spec: ModelSpec, device: DeviceProfile, params_updated: int,
    threads: int = 1,
) -> float:
    """Optimizer-update latency (seconds) — reads grad, writes param.

    Pure DRAM traffic; ``threads`` is accepted for interface symmetry
    but memory time does not scale with the kernel-pool width.
    """
    bytes_touched = 3 * 4 * params_updated  # param + grad + momentum, fp32
    return bytes_touched / device.mem_bandwidth + device.kernel_overhead_s


def ld_bn_adapt_latency(
    spec: ModelSpec,
    device: DeviceProfile,
    batch_size: int = 1,
    threads: int = 1,
) -> LatencyBreakdown:
    """Per-frame latency of inference followed by one LD-BN-ADAPT step.

    Matches the paper's measurement protocol: each incoming frame is
    processed by (a) eval-mode inference, then (b) an adaptation step on a
    ``batch_size`` batch (Fig. 3 uses batch size 1, i.e. adaptation after
    every frame).
    """
    bn_params = spec.bn_params
    return LatencyBreakdown(
        inference_ms=1e3 * forward_latency(
            spec, device, 1, training=False, threads=threads),
        adapt_forward_ms=1e3 * forward_latency(
            spec, device, batch_size, training=True, threads=threads),
        adapt_backward_ms=1e3 * backward_latency(
            spec, device, batch_size, threads=threads),
        update_ms=1e3 * update_latency(spec, device, bn_params),
    )


def batched_inference_latency_ms(
    spec: ModelSpec, device: DeviceProfile, batch_size: int,
    threads: int = 1,
) -> float:
    """Latency (ms) of one eval-mode forward over a ``batch_size`` batch.

    This is the quantity the fleet-serving scheduler plans with: FLOP and
    DRAM terms scale linearly with the batch, but the per-layer kernel
    launch overhead is paid once per batch, so the *per-frame* cost
    ``batched_inference_latency_ms(b) / b`` strictly decreases with ``b``
    — the roofline-level case for cross-stream batching.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return 1e3 * forward_latency(
        spec, device, batch_size, training=False, threads=threads
    )


def amortized_frame_latency(
    spec: ModelSpec, device: DeviceProfile, adapt_batch_size: int
) -> float:
    """Mean per-frame latency (ms) when adapting every ``adapt_batch_size``
    frames: every frame pays inference; the adaptation step is shared."""
    breakdown = ld_bn_adapt_latency(spec, device, adapt_batch_size)
    return breakdown.inference_ms + breakdown.adaptation_ms / adapt_batch_size


def sota_epoch_latency(
    spec: ModelSpec,
    device: DeviceProfile,
    num_source: int,
    num_target: int,
    batch_size: int = 16,
    kmeans_clusters: int = 10,
    kmeans_iters: int = 20,
    embed_dim: int = 2048,
    io_overhead_s: float = 12e-3,
) -> Dict[str, float]:
    """Latency (seconds) of ONE epoch of the CARLANE-SOTA baseline.

    Components per epoch (Sec. II): an embedding pass over both domains,
    k-means on the embeddings, a pseudo-labeling pass over the target,
    and a full forward+backward training sweep over source + target.
    ``io_overhead_s`` models per-sample CPU preprocessing of the 1280x720
    frames (JPEG decode + resize + augmentation, ~12 ms on the Orin's CPU
    cluster), paid on every pass that touches images.
    """
    total_samples = num_source + num_target
    fwd = forward_latency(spec, device, batch_size, training=False) / batch_size
    fwd_train = forward_latency(spec, device, batch_size, training=True) / batch_size
    bwd = backward_latency(spec, device, batch_size) / batch_size

    embed_time = total_samples * (fwd + io_overhead_s)
    pseudo_time = num_target * (fwd + io_overhead_s)
    train_time = total_samples * (fwd_train + bwd + io_overhead_s)
    # k-means: iters x N x k x D MACs at training efficiency
    kmeans_flops = 2.0 * kmeans_iters * total_samples * kmeans_clusters * embed_dim
    kmeans_time = kmeans_flops / device.effective_flops_train

    total = embed_time + pseudo_time + train_time + kmeans_time
    return {
        "embedding_s": embed_time,
        "pseudo_label_s": pseudo_time,
        "training_s": train_time,
        "kmeans_s": kmeans_time,
        "total_s": total,
        "total_hours": total / 3600.0,
    }

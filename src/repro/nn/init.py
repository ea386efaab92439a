"""Weight initializers (Kaiming-uniform, PyTorch's bias rule) for the numpy
NN framework.

These operate in place on :class:`~repro.nn.tensor.Tensor` data and follow
the fan conventions of ``torch.nn.init`` so that a ResNet initialized here
behaves like the torchvision reference at the start of training.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for linear and conv weight shapes.

    Linear weights are (out, in); conv weights are (out, in, kh, kw) with a
    receptive-field multiplier, matching PyTorch's convention.
    """
    if len(shape) < 2:
        raise ValueError("fan computation requires at least 2 dimensions")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def _gain(nonlinearity: str, a: float = 0.0) -> float:
    """Recommended gain for a nonlinearity (subset of torch.nn.init.calculate_gain)."""
    if nonlinearity == "relu":
        return math.sqrt(2.0)
    if nonlinearity == "leaky_relu":
        return math.sqrt(2.0 / (1.0 + a * a))
    if nonlinearity in ("linear", "sigmoid", "conv2d"):
        return 1.0
    if nonlinearity == "tanh":
        return 5.0 / 3.0
    raise ValueError(f"unsupported nonlinearity {nonlinearity!r}")


def kaiming_uniform_(
    tensor: Tensor,
    a: float = math.sqrt(5.0),
    mode: str = "fan_in",
    nonlinearity: str = "leaky_relu",
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """He-uniform initialization (PyTorch's default for conv/linear), in place."""
    fan_in, fan_out = _fan_in_out(tensor.shape)
    fan = fan_in if mode == "fan_in" else fan_out
    bound = _gain(nonlinearity, a) * math.sqrt(3.0 / fan)
    gen = rng if rng is not None else np.random.default_rng()
    tensor.data[...] = gen.uniform(-bound, bound, size=tensor.shape).astype(tensor.dtype)
    return tensor


def uniform_bias_(
    tensor: Tensor,
    weight_shape: Tuple[int, ...],
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    fan_in, _ = _fan_in_out(weight_shape)
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    gen = rng if rng is not None else np.random.default_rng()
    tensor.data[...] = gen.uniform(-bound, bound, size=tensor.shape).astype(tensor.dtype)
    return tensor


def constant_(tensor: Tensor, value: float) -> Tensor:
    """Fill with a constant, in place."""
    tensor.data[...] = value
    return tensor


def zeros_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 0.0)


def ones_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 1.0)

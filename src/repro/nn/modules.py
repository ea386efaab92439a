"""Layer/module system for the numpy NN framework.

Provides the :class:`Module` container abstraction (parameters, buffers,
submodules, train/eval modes, ``state_dict`` round-trips) and the concrete
layers a UFLD/ResNet stack needs.  The API deliberately shadows the PyTorch
subset used by the paper's released description, so the modelling code in
:mod:`repro.models` reads like the original.

:class:`BatchNorm2d` is the layer LD-BN-ADAPT manipulates: it exposes its
running statistics as buffers and its affine scale/shift as parameters, and
supports *statistics refresh* (recomputing mu/sigma from a target batch)
independently from the gamma/beta gradient step.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a learnable parameter of a Module."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffer arrays (via
    :meth:`register_buffer`) and child Modules as attributes; this base
    class tracks them for iteration, mode switching and serialization.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute interception ---------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register a non-learnable persistent array (e.g. BN running stats)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def _set_buffer(self, name: str, array: np.ndarray) -> None:
        """Replace a buffer's contents in place (keeps external references valid)."""
        self._buffers[name][...] = array

    # -- iteration ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix + mod_name + ".")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def apply(self, fn) -> "Module":
        """Apply ``fn`` to self and every submodule (like torch's Module.apply)."""
        for module in self.modules():
            fn(module)
        return self

    # -- modes ------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self, set_to_none: bool = True) -> None:
        for p in self.parameters():
            if set_to_none:
                p.grad = None
            elif p.grad is not None:
                p.grad.fill(0.0)

    def requires_grad_(self, flag: bool = True) -> "Module":
        for p in self.parameters():
            p.requires_grad = flag
        return self

    # -- serialization ------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = []
        for name, param in own_params.items():
            if name in state:
                if param.data.shape != state[name].shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{param.data.shape} vs {state[name].shape}"
                    )
                param.data[...] = state[name]
            else:
                missing.append(name)
        for name, buf in own_buffers.items():
            if name in state:
                buf[...] = state[name]
            else:
                missing.append(name)
        unexpected = [
            k for k in state if k not in own_params and k not in own_buffers
        ]
        if strict and (missing or unexpected):
            raise KeyError(
                f"load_state_dict mismatch: missing={missing} unexpected={unexpected}"
            )

    # -- call -----------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total scalar parameter count."""
        return sum(
            p.size
            for p in self.parameters()
            if (p.requires_grad or not trainable_only)
        )

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        header = self.__class__.__name__
        if not child_lines:
            return f"{header}()"
        return header + "(\n" + "\n".join(child_lines) + "\n)"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for idx, module in enumerate(modules):
            setattr(self, str(idx), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]


class Identity(Module):
    """No-op module (useful for optional downsample paths)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)

    def __repr__(self) -> str:
        return f"Flatten(start_dim={self.start_dim})"


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, rng=self.rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Conv2d(Module):
    """2-D convolution layer (cross-correlation, like PyTorch)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.weight = Parameter(np.empty((out_channels, in_channels, kh, kw)))
        init.kaiming_uniform_(self.weight, rng=rng)
        if bias:
            self.bias = Parameter(np.empty(out_channels))
            init.uniform_bias_(self.bias, self.weight.shape, rng=rng)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, bias={self.bias is not None})"
        )


class Linear(Module):
    """Affine layer y = x W^T + b."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features)))
        init.kaiming_uniform_(self.weight, rng=rng)
        if bias:
            self.bias = Parameter(np.empty(out_features))
            init.uniform_bias_(self.bias, self.weight.shape, rng=rng)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )


class _BatchNormBase(Module):
    """Shared implementation for BatchNorm1d/2d.

    * ``weight``/``bias`` are the affine gamma/beta — the only parameters
      LD-BN-ADAPT optimizes.
    * ``running_mean``/``running_var`` are buffers; the adaptation's
      *statistics refresh* step replaces them with target-batch statistics.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float64))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float64))
        self.register_buffer("num_batches_tracked", np.zeros(1, dtype=np.int64))
        # Optional (scale, shift) pair of (N, C) arrays: when set, eval-mode
        # forward normalizes each *sample* with its own statistics instead of
        # this module's running buffers.  The fleet-serving subsystem uses
        # this to batch frames from many streams (each with its own adapted
        # BN state) through one shared forward pass — see repro.serve.streams.
        self.per_sample_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _param_shape(self, ndim: int) -> Tuple[int, ...]:
        if ndim == 4:
            return (1, self.num_features, 1, 1)
        return (1, self.num_features)

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        if self.per_sample_stats is not None and not self.training:
            return self._per_sample_forward(x)
        shape = self._param_shape(x.ndim)
        gamma = self.weight.reshape(*shape)
        beta = self.bias.reshape(*shape)
        if self.training:
            self.num_batches_tracked += 1
        return F.batch_norm(
            x,
            gamma,
            beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def _check_input(self, x: Tensor) -> None:
        raise NotImplementedError

    def _per_sample_forward(self, x: Tensor) -> Tensor:
        """Eval-mode normalization with per-sample precomputed affines.

        Eval-mode batch norm is an affine map per channel; with per-sample
        ``scale``/``shift`` arrays of shape ``(N, C)`` the same holds per
        sample, which lets one batched forward serve inputs whose BN state
        differs (multi-stream serving).  Inference-only: gradients through
        the folded constants are not meaningful, so run under ``no_grad``.
        """
        scale, shift = self.per_sample_stats
        if scale.shape != (x.shape[0], self.num_features):
            raise ValueError(
                f"per_sample_stats shaped {scale.shape}, expected "
                f"({x.shape[0]}, {self.num_features})"
            )
        shape = (x.shape[0], self.num_features) + (1,) * (x.ndim - 2)
        out = x * Tensor(scale.reshape(shape), _copy=False) + Tensor(
            shift.reshape(shape), _copy=False
        )
        # computed in the statistics' float64, cast once, as eval BN does
        return out if out.dtype == x.dtype else out.astype(x.dtype)

    def refresh_statistics(self, x: Tensor) -> None:
        """Replace running statistics with the statistics of batch ``x``.

        This is step (i) of LD-BN-ADAPT: standardize with the *target*
        data's mu/sigma instead of the stale source-domain running stats.
        No graph is recorded.
        """
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        self._set_buffer("running_mean", x.data.mean(axis=axes))
        self._set_buffer("running_var", x.data.var(axis=axes))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}({self.num_features}, eps={self.eps}, "
            f"momentum={self.momentum})"
        )


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over (N, C, H, W) inputs, per channel."""

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d({self.num_features}) got {x.shape[1]} channels"
            )


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over (N, C) inputs, per feature."""

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects 2-D input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d({self.num_features}) got {x.shape[1]} features"
            )


class MaxPool2d(Module):
    def __init__(self, kernel_size, stride=None, padding=0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"MaxPool2d(kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class AvgPool2d(Module):
    def __init__(self, kernel_size, stride=None, padding=0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size=1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)

    def __repr__(self) -> str:
        return f"AdaptiveAvgPool2d(output_size={self.output_size})"

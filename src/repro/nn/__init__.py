"""``repro.nn`` — a from-scratch numpy autograd + neural-network framework.

This package replaces PyTorch 1.11 (which the paper used but which is not
available in this environment).  It provides tensors with reverse-mode
autodiff, the layers needed by ResNet/UFLD, optimizers and serialization.
See DESIGN.md section 2 for why this substitution preserves the paper's
behaviour.

Typical usage::

    from repro import nn
    from repro.nn import functional as F

    layer = nn.Conv2d(3, 16, 3, padding=1)
    y = F.relu(layer(nn.Tensor(x)))
"""

from . import functional
from . import init
from .autograd import (
    adaptation_mode,
    compiled_adaptation_enabled,
    compiled_inference_enabled,
    enable_grad,
    gradcheck,
    inference_mode,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from .modules import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .optim import SGD, LRScheduler, Optimizer
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    concatenate,
    from_numpy,
    ones,
    randn,
    stack,
    zeros,
)

__all__ = [
    "Tensor",
    "from_numpy",
    "zeros",
    "ones",
    "randn",
    "stack",
    "concatenate",
    "no_grad",
    "enable_grad",
    "inference_mode",
    "compiled_inference_enabled",
    "adaptation_mode",
    "compiled_adaptation_enabled",
    "is_grad_enabled",
    "set_grad_enabled",
    "gradcheck",
    "Module",
    "Parameter",
    "Sequential",
    "Identity",
    "ReLU",
    "Flatten",
    "Dropout",
    "Conv2d",
    "Linear",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Optimizer",
    "SGD",
    "LRScheduler",
    "save_checkpoint",
    "load_checkpoint",
    "functional",
    "init",
]

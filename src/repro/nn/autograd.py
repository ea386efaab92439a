"""Autograd bookkeeping: global gradient mode and numerical grad checking.

This module holds the process-wide "is gradient tracking enabled" flag used
by :class:`repro.nn.tensor.Tensor`, the :func:`no_grad` /:func:`enable_grad`
context managers, and :func:`gradcheck`, a central-finite-difference checker
used throughout the test suite to validate every differentiable op.

The design mirrors the small, explicit core of PyTorch's autograd: a tensor
produced by an operation remembers the :class:`~repro.nn.tensor.Function`
that created it, and ``backward()`` walks the resulting DAG in reverse
topological order.  Keeping the mode flag here (rather than on ``Tensor``)
avoids a circular import between the tensor and functional modules.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return _GRAD_ENABLED


def set_grad_enabled(mode: bool) -> None:
    """Globally enable or disable autograd graph recording."""
    global _GRAD_ENABLED
    _GRAD_ENABLED = bool(mode)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Used for inference and for the statistics-only part of BN adaptation
    (recomputing mu/sigma must not build a graph).

    >>> from repro.nn import tensor as T
    >>> with no_grad():
    ...     y = T.Tensor([1.0], requires_grad=True) * 2.0
    >>> y.requires_grad
    False
    """
    previous = _GRAD_ENABLED
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)


@contextlib.contextmanager
def enable_grad():
    """Context manager that (re-)enables gradient tracking."""
    previous = _GRAD_ENABLED
    set_grad_enabled(True)
    try:
        yield
    finally:
        set_grad_enabled(previous)


# ----------------------------------------------------------------------
# compiled-inference mode
# ----------------------------------------------------------------------
# When True (default), the eval-mode serving loop (FleetServer, which
# also serves RealTimePipeline) runs forwards through the compiled engine:
# traced static plans with fused conv-BN-ReLU stages and arena buffer
# reuse, bit-exact against the eager path.  The flag lives here, next to
# the grad mode, so repro.nn can expose it without importing the engine.
_INFERENCE_MODE = True


def compiled_inference_enabled() -> bool:
    """Return True when serving loops should use the compiled engine."""
    return _INFERENCE_MODE


@contextlib.contextmanager
def inference_mode(mode: bool = True):
    """Escape hatch for the compiled inference engine.

    ``with inference_mode(False):`` forces the eager autograd forward in
    every serving loop (useful for debugging a suspected engine/parity
    issue or for profiling the eager path); ``inference_mode(True)`` is
    the default state.  Outputs are bit-exact either way — this toggles
    *how* the forward runs, never what it computes.
    """
    global _INFERENCE_MODE
    previous = _INFERENCE_MODE
    _INFERENCE_MODE = bool(mode)
    try:
        yield
    finally:
        _INFERENCE_MODE = previous


# When True (default), LD-BN-ADAPT entropy steps run through the compiled
# adaptation plan in repro.engine (traced train-mode forward + static
# backward restricted to BN gamma/beta).  The eager autograd step remains
# the correctness oracle; flip this flag to fall back to it.
_ADAPTATION_MODE = True


def compiled_adaptation_enabled() -> bool:
    """Return True when adaptation steps should use the compiled plan."""
    return _ADAPTATION_MODE


@contextlib.contextmanager
def adaptation_mode(mode: bool = True):
    """Escape hatch for the compiled adaptation step.

    ``with adaptation_mode(False):`` forces the eager autograd
    forward+backward for every LD-BN-ADAPT entropy step (the correctness
    oracle the compiled plan is validated against); ``adaptation_mode(
    True)`` is the default state.  The compiled step issues the same
    kernels on the same values, minus graph bookkeeping and the unused
    conv/linear weight gradients.
    """
    global _ADAPTATION_MODE
    previous = _ADAPTATION_MODE
    _ADAPTATION_MODE = bool(mode)
    try:
        yield
    finally:
        _ADAPTATION_MODE = previous


def _central_difference(
    func: Callable[[], "np.ndarray"],
    array: np.ndarray,
    index: tuple,
    eps: float,
) -> np.ndarray:
    """Numerically estimate d func() / d array[index] via central differences."""
    original = array[index]
    array[index] = original + eps
    plus = np.asarray(func(), dtype=np.float64).copy()
    array[index] = original - eps
    minus = np.asarray(func(), dtype=np.float64).copy()
    array[index] = original
    return (plus - minus) / (2.0 * eps)


def gradcheck(
    fn: Callable[..., "object"],
    inputs: Sequence["object"],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
    raise_on_failure: bool = True,
) -> bool:
    """Check autograd gradients of ``fn`` against finite differences.

    Parameters
    ----------
    fn:
        Callable taking the tensors in ``inputs`` and returning a single
        Tensor (any shape; it is reduced with ``sum()`` internally so the
        scalar chain rule applies).
    inputs:
        Sequence of :class:`~repro.nn.tensor.Tensor`.  Gradients are checked
        for every input with ``requires_grad=True``.  Inputs should be
        float64 for meaningful tolerances.
    eps, atol, rtol:
        Finite-difference step and comparison tolerances.
    raise_on_failure:
        When True (default) raise ``AssertionError`` with a diagnostic;
        otherwise return False.

    Returns
    -------
    bool
        True when all analytic gradients match the numerical estimates.
    """
    from .tensor import Tensor  # local import to avoid cycle

    tensors = [t for t in inputs if isinstance(t, Tensor)]
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ValueError("gradcheck requires float64 inputs for stability")
        t.grad = None

    out = fn(*inputs)
    total = out.sum()
    total.backward()

    def forward_value() -> np.ndarray:
        with no_grad():
            result = fn(*inputs)
        return result.data.sum()

    ok = True
    for arg_idx, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            numeric[idx] = _central_difference(forward_value, t.data, idx, eps)
            it.iternext()
        close = np.allclose(analytic, numeric, atol=atol, rtol=rtol)
        if not close:
            ok = False
            if raise_on_failure:
                diff = np.abs(analytic - numeric)
                worst = np.unravel_index(np.argmax(diff), diff.shape)
                raise AssertionError(
                    f"gradcheck failed for input #{arg_idx}: "
                    f"max |analytic-numeric| = {diff.max():.3e} at {worst} "
                    f"(analytic={analytic[worst]:.6e}, numeric={numeric[worst]:.6e})"
                )
    return ok


def topological_order(root: "object") -> Iterable["object"]:
    """Yield tensors of the autograd graph rooted at ``root`` in reverse
    topological order (root first).

    Iterative DFS — recursion would overflow on deep ResNet graphs.
    """
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        ctx = getattr(node, "_ctx", None)
        if ctx is not None:
            for parent in ctx.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
    return reversed(order)

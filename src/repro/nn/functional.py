"""Differentiable neural-network operations on top of :mod:`repro.nn.tensor`.

Everything a UFLD/ResNet model needs, each with a hand-derived backward pass
that is validated by finite differences in the test suite:

* ``conv2d`` — im2col/col2im based 2-D convolution (stride, padding);
* ``max_pool2d`` / ``avg_pool2d`` / ``adaptive_avg_pool2d``;
* ``relu``, ``sigmoid``, ``tanh``, ``dropout``;
* ``softmax`` / ``log_softmax`` (numerically stable) and
  ``cross_entropy`` / ``nll_loss``;
* ``batch_norm`` — the centrepiece for LD-BN-ADAPT, with the full
  train-mode backward (gradients flow through the batch statistics,
  matching PyTorch semantics) and an eval-mode path using running stats;
* ``linear`` and ``flatten`` conveniences.

All functions accept and return :class:`~repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Context, Function, Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


# ----------------------------------------------------------------------
# im2col machinery (shared by conv and pooling)
# ----------------------------------------------------------------------
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _im2col_indices(
    channels: int,
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
):
    """Build gather indices mapping a padded image to its column matrix.

    Returns ``(k, i, j, out_h, out_w)`` where indexing a padded ``(N, C,
    H+2p, W+2p)`` array with ``[:, k, i, j]`` yields columns of shape
    ``(N, C*kh*kw, out_h*out_w)``.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = _conv_output_size(height, kh, sh, ph)
    out_w = _conv_output_size(width, kw, sw, pw)

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
):
    """Expand ``x`` (N,C,H,W) into columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    ph, pw = padding
    if ph or pw:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (ph, ph), (pw, pw)),
            mode="constant",
        )
    k, i, j, out_h, out_w = _im2col_indices(c, h, w, kernel, stride, padding)
    cols = x[:, k, i, j]
    return cols, out_h, out_w


def _im2col_flat(c: int, h: int, w: int, kernel: Tuple[int, int],
                 stride: Tuple[int, int], padding: Tuple[int, int]):
    """The im2col gather as one flat intp index ``(C*kh*kw, out_h*out_w)``
    into one padded ``(C, H+2p, W+2p)`` sample: ``(k*Hp + i)*Wp + j``."""
    k, i, j, _, _ = _im2col_indices(c, h, w, kernel, stride, padding)
    return ((k * (h + 2 * padding[0]) + i) * (w + 2 * padding[1])
            + j).astype(np.intp)


def _col2im_scatter(padded: np.ndarray, cols: np.ndarray,
                    flat: np.ndarray) -> None:
    """Write the col2im of columns ``(N, K, P)`` into ``padded`` ``(N, C,
    Hp, Wp)``: zero it, then one ``np.add.at`` per sample through the
    :func:`_im2col_flat` index (1-D intp: numpy's ``ufunc.at`` fast path).
    Rows ``k = (c, a, b)`` go in ascending order, so every cell sums its
    contributions in ascending kernel-offset order, from zero."""
    padded.fill(0.0)
    index = flat.reshape(-1)
    for image, sample in zip(padded.reshape(len(padded), -1), cols):
        np.add.at(image, index, sample.reshape(-1))


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add columns back to image space (adjoint of :func:`_im2col`)."""
    n, c, h, w = x_shape
    ph, pw = padding
    padded = np.empty((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    _col2im_scatter(padded, cols,
                    _im2col_flat(c, h, w, kernel, stride, padding))
    return np.ascontiguousarray(padded[:, :, ph:ph + h, pw:pw + w])


def _conv_dgrad(
    w_mat: np.ndarray, g_mat: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Column-space input gradient of a conv: (K, F) @ (N, F, P) -> (N, K, P).

    Shared by the eager backward and the compiled adaptation plan so both
    issue the same BLAS call on the same operands.
    """
    return np.matmul(w_mat.T, g_mat, out=out)


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
class _Conv2d(Function):
    @staticmethod
    def forward(ctx, x, weight, bias, stride, padding):
        stride = _pair(stride)
        padding = _pair(padding)
        out_channels, in_channels, kh, kw = weight.shape
        if x.shape[1] != in_channels:
            raise ValueError(
                f"conv2d: input has {x.shape[1]} channels, weight expects {in_channels}"
            )
        cols, out_h, out_w = _im2col(x, (kh, kw), stride, padding)
        w_mat = weight.reshape(out_channels, -1)
        # (F, K) @ (N, K, P) -> (N, F, P).  The compiled inference engine
        # (repro.engine) replays this exact matmul kernel with out=, so the
        # two paths stay bit-identical.
        out = np.matmul(w_mat, cols)
        if bias is not None:
            out += bias.reshape(1, -1, 1)
        out = out.reshape(x.shape[0], out_channels, out_h, out_w)
        ctx.save_for_backward(cols, w_mat)
        ctx.attrs.update(
            x_shape=x.shape,
            w_shape=weight.shape,
            stride=stride,
            padding=padding,
            has_bias=bias is not None,
        )
        return out

    @staticmethod
    def backward(ctx, g):
        cols, w_mat = ctx.saved
        x_shape = ctx.attrs["x_shape"]
        w_shape = ctx.attrs["w_shape"]
        out_channels = w_shape[0]
        kh, kw = w_shape[2], w_shape[3]
        n = g.shape[0]
        g_mat = g.reshape(n, out_channels, -1)

        grad_w = np.einsum("nfp,nkp->fk", g_mat, cols, optimize=True)
        grad_w = grad_w.reshape(w_shape)
        grad_b = g_mat.sum(axis=(0, 2)) if ctx.attrs["has_bias"] else None
        grad_x = _col2im(
            _conv_dgrad(w_mat, g_mat),
            x_shape,
            (kh, kw),
            ctx.attrs["stride"],
            ctx.attrs["padding"],
        )
        if ctx.attrs["has_bias"]:
            return grad_x, grad_w, grad_b
        return grad_x, grad_w


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution over an (N, C, H, W) input.

    Implemented with im2col so the inner loop is a single GEMM — the same
    strategy cuDNN uses for small kernels, and fast enough in numpy for the
    scaled-down experiment presets.
    """
    if bias is None:
        return _Conv2d.apply(x, weight, None, stride, padding)
    return _Conv2d.apply(x, weight, bias, stride, padding)


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def _winner_base(planes: int, taps: int, p_total: int) -> np.ndarray:
    """Flat offset of each window's tap 0 in ``(planes, taps, P)`` columns,
    ``(planes, P)`` intp: what :func:`_put_winners` adds ``arg * P`` to."""
    return (np.arange(planes, dtype=np.intp)[:, None] * (taps * p_total)
            + np.arange(p_total, dtype=np.intp))


def _put_winners(cols: np.ndarray, arg: np.ndarray, g: np.ndarray,
                 base: np.ndarray, index: Optional[np.ndarray] = None) -> None:
    """Zero the max-pool column gradient ``cols`` ``(NC, kh*kw, P)`` and
    put each window's gradient ``g`` at its winning tap ``arg`` ``(NC,
    P)``, one flat put at ``arg * P + base`` (``index``: intp scratch of
    ``arg``'s shape, or None to allocate)."""
    cols.fill(0.0)
    index = np.multiply(arg, cols.shape[2], out=index)
    np.add(index, base, out=index)
    cols.put(index, g)


class _MaxPool2d(Function):
    @staticmethod
    def forward(ctx, x, kernel, stride, padding):
        kernel = _pair(kernel)
        stride = _pair(stride if stride is not None else kernel)
        padding = _pair(padding)
        n, c, h, w = x.shape
        # treat channels as batch so pooling windows never mix channels
        x_flat = x.reshape(n * c, 1, h, w)
        if padding[0] or padding[1]:
            # pad with -inf so padded cells never win the max
            x_flat = np.pad(
                x_flat,
                ((0, 0), (0, 0), (padding[0], padding[0]), (padding[1], padding[1])),
                mode="constant",
                constant_values=-np.inf,
            )
        cols, out_h, out_w = _im2col(x_flat, kernel, stride, (0, 0))
        # cols: (n*c, kh*kw, P)
        arg = cols.argmax(axis=1)
        out = cols.max(axis=1).reshape(n, c, out_h, out_w)
        ctx.attrs.update(
            x_shape=(n, c, h, w),
            kernel=kernel,
            stride=stride,
            padding=padding,
            arg=arg,
        )
        return out

    @staticmethod
    def backward(ctx, g):
        n, c, h, w = ctx.attrs["x_shape"]
        arg = ctx.attrs["arg"]  # (n*c, P) winning window offsets
        kernel = ctx.attrs["kernel"]
        taps, p_total = kernel[0] * kernel[1], arg.shape[1]
        grad_cols = np.empty((n * c, taps, p_total), dtype=g.dtype)
        _put_winners(grad_cols, arg, g, _winner_base(n * c, taps, p_total))
        # the forward's -inf border is the col2im padding: gradient that
        # lands on it is clipped away
        grad = _col2im(
            grad_cols.reshape(n, c * taps, p_total),
            (n, c, h, w),
            kernel,
            ctx.attrs["stride"],
            ctx.attrs["padding"],
        )
        return (grad,)


def max_pool2d(
    x: Tensor,
    kernel_size: IntPair,
    stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Max pooling with arbitrary kernel/stride/padding (N, C, H, W)."""
    return _MaxPool2d.apply(x, kernel_size, stride, padding)


class _AvgPool2d(Function):
    @staticmethod
    def forward(ctx, x, kernel, stride, padding):
        kernel = _pair(kernel)
        stride = _pair(stride if stride is not None else kernel)
        padding = _pair(padding)
        n, c, h, w = x.shape
        x_flat = x.reshape(n * c, 1, h, w)
        cols, out_h, out_w = _im2col(x_flat, kernel, stride, padding)
        out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
        ctx.attrs.update(
            x_shape=(n, c, h, w),
            kernel=kernel,
            stride=stride,
            padding=padding,
            cols_shape=cols.shape,
        )
        return out

    @staticmethod
    def backward(ctx, g):
        n, c, h, w = ctx.attrs["x_shape"]
        kernel = ctx.attrs["kernel"]
        window = kernel[0] * kernel[1]
        g_flat = g.reshape(n * c, 1, -1) / window
        grad_cols = np.broadcast_to(
            g_flat, ctx.attrs["cols_shape"]
        ).astype(g.dtype, copy=True)
        grad = _col2im(
            grad_cols.reshape(n, c * window, -1),
            (n, c, h, w),
            kernel,
            ctx.attrs["stride"],
            ctx.attrs["padding"],
        )
        return (grad,)


def avg_pool2d(
    x: Tensor,
    kernel_size: IntPair,
    stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Average pooling (N, C, H, W)."""
    return _AvgPool2d.apply(x, kernel_size, stride, padding)


def adaptive_avg_pool2d(x: Tensor, output_size: IntPair = 1) -> Tensor:
    """Adaptive average pooling; only the global (1, 1) case is needed by
    the ResNet classification stem, which reduces to a spatial mean."""
    oh, ow = _pair(output_size)
    if (oh, ow) != (1, 1):
        raise NotImplementedError("only global adaptive average pooling is supported")
    pooled = x.mean(axis=(2, 3), keepdims=True)
    return pooled


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
class _ReLU(Function):
    @staticmethod
    def forward(ctx, x):
        mask = x > 0
        ctx.attrs["mask"] = mask
        return np.where(mask, x, 0.0).astype(x.dtype, copy=False)

    @staticmethod
    def backward(ctx, g):
        return (g * ctx.attrs["mask"],)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, elementwise max(x, 0)."""
    return _ReLU.apply(x)


class _Sigmoid(Function):
    @staticmethod
    def forward(ctx, x):
        out = 1.0 / (1.0 + np.exp(-x))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, g):
        (out,) = ctx.saved
        return (g * out * (1.0 - out),)


def sigmoid(x: Tensor) -> Tensor:
    return _Sigmoid.apply(x)


class _Tanh(Function):
    @staticmethod
    def forward(ctx, x):
        out = np.tanh(x)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, g):
        (out,) = ctx.saved
        return (g * (1.0 - out * out),)


def tanh(x: Tensor) -> Tensor:
    return _Tanh.apply(x)


class _Dropout(Function):
    @staticmethod
    def forward(ctx, x, p, rng):
        keep = 1.0 - p
        gen = rng if rng is not None else np.random.default_rng()
        mask = (gen.random(x.shape) < keep).astype(x.dtype) / keep
        ctx.attrs["mask"] = mask
        return x * mask

    @staticmethod
    def backward(ctx, g):
        return (g * ctx.attrs["mask"],)


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout; identity in eval mode."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return _Dropout.apply(x, p, rng)


# ----------------------------------------------------------------------
# softmax family
# ----------------------------------------------------------------------
def _log_softmax(x: np.ndarray, axis: int, out: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``x - max - log(sum(exp(x - max)))`` along ``axis``, the shifted
    input in ``out`` and its exponentials in ``scratch`` (None: allocate)."""
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    log_sum = np.exp(shifted, out=scratch).sum(axis=axis, keepdims=True)
    np.log(log_sum, out=log_sum)
    return np.subtract(shifted, log_sum, out=shifted)


def _log_softmax_grad(g: np.ndarray, y: np.ndarray, axis: int,
                      out: Optional[np.ndarray] = None,
                      scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The input gradient of a log-softmax with output ``y``: ``g -
    exp(y) * sum(g)``, the softmax recomputed into ``scratch`` (None:
    allocate).  The eager backward and the compiled step call it."""
    softmax = np.exp(y, out=scratch)
    np.multiply(softmax, g.sum(axis=axis, keepdims=True), out=softmax)
    return np.subtract(g, softmax, out=out)


class _LogSoftmax(Function):
    @staticmethod
    def forward(ctx, x, axis):
        out = _log_softmax(x, axis)
        ctx.attrs["axis"] = axis
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, g):
        (out,) = ctx.saved
        return (_log_softmax_grad(g, out, ctx.attrs["axis"]),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return _LogSoftmax.apply(x, axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (via exp(log_softmax) for stability)."""
    return log_softmax(x, axis=axis).exp()


class _NLLLoss(Function):
    """Negative log-likelihood over pre-computed log-probabilities.

    ``log_probs`` has shape (N, C) (or (N, C, ...) flattened by the
    caller); ``targets`` are integer class ids of shape (N,).
    """

    @staticmethod
    def forward(ctx, log_probs, targets, reduction):
        n = log_probs.shape[0]
        rows = np.arange(n)
        picked = log_probs[rows, targets]
        ctx.attrs.update(shape=log_probs.shape, targets=targets, reduction=reduction)
        if reduction == "mean":
            return np.asarray(-picked.mean(), dtype=log_probs.dtype)
        if reduction == "sum":
            return np.asarray(-picked.sum(), dtype=log_probs.dtype)
        return -picked

    @staticmethod
    def backward(ctx, g):
        shape = ctx.attrs["shape"]
        targets = ctx.attrs["targets"]
        reduction = ctx.attrs["reduction"]
        n = shape[0]
        grad = np.zeros(shape, dtype=g.dtype)
        rows = np.arange(n)
        if reduction == "mean":
            grad[rows, targets] = -g / n
        elif reduction == "sum":
            grad[rows, targets] = -g
        else:
            grad[rows, targets] = -g
        return (grad,)


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log likelihood on (N, C) log-probabilities."""
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("nll_loss expects 1-D integer targets")
    return _NLLLoss.apply(log_probs, targets.astype(np.int64), reduction)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, axis: int = 1, reduction: str = "mean"
) -> Tensor:
    """Cross entropy between raw logits and integer class targets.

    Supports arbitrary trailing dimensions: logits of shape
    ``(N, C, d1, d2, ...)`` with targets ``(N, d1, d2, ...)`` are flattened
    to rows, matching PyTorch's convention — which is exactly the layout
    the UFLD row-anchor classification loss uses.
    """
    if axis != 1 and logits.ndim > 1:
        order = list(range(logits.ndim))
        order.insert(1, order.pop(axis))
        logits = logits.transpose(*order)
    n_class = logits.shape[1]
    targets = np.asarray(targets)
    if logits.ndim > 2:
        rest = int(np.prod(logits.shape[2:]))
        flat = logits.transpose(0, *range(2, logits.ndim), 1).reshape(-1, n_class)
        targets = targets.reshape(-1)
        log_probs = log_softmax(flat, axis=-1)
        return nll_loss(log_probs, targets, reduction=reduction)
    log_probs = log_softmax(logits, axis=-1)
    return nll_loss(log_probs, targets, reduction=reduction)


# ----------------------------------------------------------------------
# batch normalization — the operation LD-BN-ADAPT adapts
# ----------------------------------------------------------------------
def _bn_affine_grads(g: np.ndarray, x_hat: np.ndarray,
                     axes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """The gamma and beta gradients of a BN layer (keepdims): the sums
    of ``g * x_hat`` and of ``g`` over ``axes``."""
    return (g * x_hat).sum(axis=axes, keepdims=True), g.sum(
        axis=axes, keepdims=True)


def _bn_input_grad(g: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray,
                   gamma: np.ndarray, axes: Tuple[int, ...],
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """The train-mode BN input gradient (through the batch statistics over
    ``axes``); its last multiply lands in ``out`` (None: allocate)."""
    m = float(np.prod([g.shape[a] for a in axes]))
    dx_hat = g * gamma
    return np.multiply(
        inv_std / m,
        m * dx_hat
        - dx_hat.sum(axis=axes, keepdims=True)
        - x_hat * (dx_hat * x_hat).sum(axis=axes, keepdims=True),
        out=out,
    )


class _BatchNorm(Function):
    """Batch normalization with full train-mode backward.

    Gradients flow through the batch statistics (mean and variance), the
    same semantics PyTorch implements; this matters for the entropy-
    minimization step, where a single backward pass updates gamma/beta
    while x is normalized by the *current batch's* statistics.
    """

    @staticmethod
    def forward(ctx, x, gamma, beta, mean, var, axes, eps):
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv_std
        shape = gamma.shape  # broadcast shape, e.g. (1, C, 1, 1)
        out = gamma * x_hat + beta
        ctx.save_for_backward(x_hat, inv_std, gamma)
        ctx.attrs.update(axes=axes, eps=eps)
        return out.astype(x.dtype, copy=False)

    @staticmethod
    def backward(ctx, g):
        x_hat, inv_std, gamma = ctx.saved
        axes = ctx.attrs["axes"]
        grad_gamma, grad_beta = _bn_affine_grads(g, x_hat, axes)
        grad_x = _bn_input_grad(g, x_hat, inv_std, gamma, axes)
        # mean/var enter as plain arrays (non-parents): no gradient entries
        return grad_x.astype(g.dtype, copy=False), grad_gamma, grad_beta


class _BatchNormEval(Function):
    """Eval-mode BN: running statistics are constants."""

    @staticmethod
    def forward(ctx, x, gamma, beta, mean, var, axes, eps):
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv_std
        ctx.save_for_backward(x_hat, inv_std, gamma)
        ctx.attrs.update(axes=axes)
        return (gamma * x_hat + beta).astype(x.dtype, copy=False)

    @staticmethod
    def backward(ctx, g):
        x_hat, inv_std, gamma = ctx.saved
        grad_gamma, grad_beta = _bn_affine_grads(g, x_hat, ctx.attrs["axes"])
        grad_x = (g * gamma * inv_std).astype(g.dtype, copy=False)
        return grad_x, grad_gamma, grad_beta


def batch_stats(
    x: np.ndarray,
    axes: Tuple[int, ...],
    centered: Optional[np.ndarray] = None,
    square: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch mean and biased variance of ``x`` over ``axes`` (keepdims),
    the bytes of ``x.mean`` and ``x.var``: ``np.var``'s own ufunc sequence
    (sum, divide by the intp count, subtract, square, sum, divide) run
    once — its mean is the mean.  ``x - mean`` lands in ``centered``, its
    square in ``square`` (``x``-shaped, or None to allocate).  Train-mode
    BN's one formula: the eager forward and the compiled step call it."""
    count = np.intp(np.prod([x.shape[a] for a in axes]))
    mean = np.add.reduce(x, axis=axes, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    centered = np.subtract(x, mean, out=centered)
    square = np.square(centered, out=square)
    var = np.add.reduce(square, axis=axes, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    return mean, var


def update_running_stat(
    running: np.ndarray, batch: np.ndarray, momentum: float
) -> None:
    """In place, ``running <- (1 - momentum) * running + momentum * batch``.

    Every path that persists batch statistics (the eager train forward,
    the compiled adaptation step, the fleet's fused group step) goes
    through here, so they stay bitwise each other's.  Momentum exactly
    1.0 — ``stats_mode="replace"`` — is a plain copy: the blend's
    ``running * 0.0`` keeps a non-finite running value forever
    (``nan * 0 = inf * 0 = nan``), and "replace" must replace.  For
    finite buffers the copy is bitwise the blend, up to the sign of an
    exactly-zero statistic.
    """
    if momentum == 1.0:
        running[...] = batch
    else:
        running *= 1.0 - momentum
        running += momentum * batch


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Functional batch normalization for (N, C) or (N, C, H, W) inputs.

    In training mode the batch statistics normalize ``x`` (with gradient
    flowing through them) and the running statistics are updated in-place
    with exponential momentum.  In eval mode the running statistics are
    used as constants.

    ``gamma``/``beta`` must already be shaped for broadcasting, e.g.
    ``(1, C, 1, 1)`` for 4-D inputs — :class:`repro.nn.modules.BatchNorm2d`
    handles that reshape.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        stat_shape = (1, x.shape[1], 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        stat_shape = (1, x.shape[1])
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        batch_mean, batch_var = batch_stats(x.data, axes)
        # update running stats in place (buffers are flat C-vectors)
        update_running_stat(running_mean, batch_mean.reshape(-1), momentum)
        update_running_stat(running_var, batch_var.reshape(-1), momentum)
        return _BatchNorm.apply(x, gamma, beta, batch_mean, batch_var, axes, eps)

    mean = running_mean.reshape(stat_shape)
    var = running_var.reshape(stat_shape)
    return _BatchNormEval.apply(x, gamma, beta, mean, var, axes, eps)


# ----------------------------------------------------------------------
# linear / misc
# ----------------------------------------------------------------------
class _Linear(Function):
    @staticmethod
    def forward(ctx, x, weight, bias):
        ctx.save_for_backward(x, weight)
        ctx.attrs["has_bias"] = bias is not None
        out = x @ weight.T
        if bias is not None:
            out += bias
        return out

    @staticmethod
    def backward(ctx, g):
        x, weight = ctx.saved
        grad_x = g @ weight
        grad_w = g.T @ x
        if ctx.attrs["has_bias"]:
            return grad_x, grad_w, g.sum(axis=0)
        return grad_x, grad_w


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for (N, in) inputs."""
    if bias is None:
        return _Linear.apply(x, weight, None)
    return _Linear.apply(x, weight, bias)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    """Flatten all dims from ``start_dim`` onward."""
    return x.flatten(start_dim)


def mse_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    diff = pred - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq

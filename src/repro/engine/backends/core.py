"""Backend-neutral lowering machinery shared by every plan backend.

The compile-time infrastructure under the one plan lowering
(:class:`~repro.engine.plan.StaticPlan`, which both the inference and
the adaptation plan are built from); every :class:`PlanBackend` (numpy
closures, generated C) builds on the same objects:

* :class:`_Arena` / :class:`_Block` — the byte-arena pool every plan
  buffer is recycled through, driven by the one liveness table
  (:meth:`~repro.engine.plan.StaticPlan._lifetimes`) both plan kinds
  build over their sections;
* :data:`COLUMNS` — the process's one column workspace: every numpy
  plan's im2col and max-pool column matrices, and every adaptation
  stage's scratch, are views of it;
* :class:`ConvLowering` / :class:`PoolLowering` — the im2col geometry of
  one conv/pool layer (gather indices, its own padded image and window
  view, its claim on :data:`COLUMNS`) computed once at compile time.

Nothing in this module touches numpy kernels at replay time — the
workspaces are plain arrays the backends capture however they like.
"""

from __future__ import annotations

import mmap
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...nn.functional import _conv_output_size, _im2col_flat

_ALIGN = 64

#: a padded gather with output rows this wide copies from a window view;
#: narrower rows keep the flat ``take``, faster on 2x5 / 1x3 grids
_WINDOW_MIN_ROW = 8


class _Block:
    """One arena-backed byte buffer, viewable as any (shape, dtype)."""

    __slots__ = ("raw", "nbytes", "alive")

    def __init__(self, nbytes: int):
        self.raw = np.empty(nbytes, dtype=np.uint8)
        self.nbytes = nbytes
        self.alive: set = set()  # liveness keys currently backed by this block

    def view(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        need = int(np.prod(shape)) * dtype.itemsize
        return self.raw[:need].view(dtype).reshape(shape)


class _Arena:
    """Size-class-free best-fit pool of :class:`_Block` buffers."""

    def __init__(self):
        self.blocks: List[_Block] = []
        self._free: List[_Block] = []
        self.total_bytes = 0
        self.requested_bytes = 0  # sum of all allocation requests (pre-reuse)

    def alloc(self, shape: Tuple[int, ...], dtype) -> Tuple[_Block, np.ndarray]:
        dtype = np.dtype(dtype)
        need = max(int(np.prod(shape)) * dtype.itemsize, 1)
        self.requested_bytes += need
        aligned = -(-need // _ALIGN) * _ALIGN
        best = None
        for block in self._free:
            if block.nbytes >= aligned and (
                best is None or block.nbytes < best.nbytes
            ):
                best = block
        if best is not None:
            self._free.remove(best)
            block = best
        else:
            block = _Block(aligned)
            self.blocks.append(block)
            self.total_bytes += aligned
        return block, block.view(shape, dtype)

    def release(self, block: _Block) -> None:
        self._free.append(block)


class _Claim(list):
    """A view of :data:`COLUMNS` in a cell: ``claim[0]`` is a ``(shape,
    dtype)`` array over bytes ``[start, end)``, rebound when the buffer
    moves — a replay reads it through the claim, one list index."""

    __slots__ = ("shape", "dtype", "start", "end", "__weakref__")


class _Columns:
    """The process's one column workspace: every numpy plan's im2col and
    max-pool columns, at every batch size, and every adaptation stage's
    scratch (held by its numpy step, served or a rendered stage's
    fallback) are views of it.

    **Invariant:** a claim is written at the start of the one stage that
    reads it, and no two stages run at once (plans replay one at a time on
    the one serving thread; the C worker pool never touches numpy
    workspaces), so claims may overlap; parts one stage holds together are
    laid end to end.  Sized to the largest live claim (a claim lives as
    long as its holder); an anonymous mapping, so a shrunken buffer's
    pages go back to the OS."""

    def __init__(self):
        self.raw = np.empty(0, dtype=np.uint8)
        self._live: Dict[int, Tuple[weakref.ref, int]] = {}  # id: ref, end

    def claims(self) -> List[_Claim]:
        return [c for c in (ref() for ref, _ in list(self._live.values()))
                if c is not None]

    def claim(self, shape: Tuple[int, ...], dtype,
              after: Optional[_Claim] = None) -> _Claim:
        """A view of ``shape``/``dtype`` from the buffer's start, or from
        the end of ``after``: a part live in the same stage."""
        claim = _Claim([None])
        claim.shape, claim.dtype = tuple(shape), np.dtype(dtype)
        claim.start = 0 if after is None else -(-after.end // _ALIGN) * _ALIGN
        claim.end = claim.start + int(np.prod(shape)) * claim.dtype.itemsize
        key = id(claim)
        ref = weakref.ref(claim, lambda _: self.release(key))
        self._live[key] = ref, claim.end
        self._resize(max(claim.end, self.raw.nbytes), claim)
        return claim

    def release(self, key: int) -> None:
        """Drop the claim ``id`` ``key``: its holder died, or gathers."""
        _, end = self._live.pop(key, (None, -1))
        if end == self.raw.nbytes:  # it may have been the largest
            self._resize(max((e for _, e in self._live.values()), default=0))

    def _resize(self, need: int, new: Optional[_Claim] = None) -> None:
        """Hold ``need`` bytes, binding every claim when the buffer moves
        (else only ``new``)."""
        live = [new] if new is not None else []
        if need != self.raw.nbytes:
            self.raw = np.frombuffer(mmap.mmap(-1, need), dtype=np.uint8) \
                if need else np.empty(0, dtype=np.uint8)
            live = self.claims()
        for c in live:
            c[0] = self.raw[c.start:c.end].view(c.dtype).reshape(c.shape)


#: the one column workspace of this process (see :class:`_Columns`)
COLUMNS = _Columns()


@dataclass(kw_only=True)
class _Gather:
    """Compile-time geometry + workspaces of one gather (conv im2col or
    max-pool windows): ``flat`` indexes the (optionally padded) input per
    column entry; ``padded``/``core`` are the layer's own padded image
    (its ``workspace_nbytes``; the border, zeros or ``-inf``, written
    once) and ``cols`` its claim on :data:`COLUMNS`, which replays
    :meth:`gather` into, with one ``np.copyto`` from ``window`` (rows of
    :data:`_WINDOW_MIN_ROW` up), a strided ``(n, c, kh, kw, out_h,
    out_w)`` view of ``padded``: the bytes the ``take`` gathers."""

    n: int
    c: int
    h: int
    w: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_h: int
    out_w: int
    p_total: int
    x_dtype: np.dtype
    flat: Optional[np.ndarray] = None
    padded: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    window: Optional[np.ndarray] = None
    cols: Optional[_Claim] = None
    workspace_nbytes: int = 0

    def _pad(self, padded: np.ndarray) -> None:
        """Own ``padded`` and, for rows wide enough, the window over it."""
        (ph, pw), (sh, sw) = self.padding, self.stride
        self.padded, self.workspace_nbytes = padded, padded.nbytes
        self.core = padded[..., ph:ph + self.h, pw:pw + self.w]
        if self.out_w >= _WINDOW_MIN_ROW:
            st = padded.reshape(self.n, self.c, *padded.shape[-2:]).strides
            self.window = np.lib.stride_tricks.as_strided(
                padded, (self.n, self.c, *self.kernel, self.out_h, self.out_w),
                st + (st[2] * sh, st[3] * sw), writeable=False)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The columns of input ``x``, gathered into the claim; a 1x1
        conv's input is its own column matrix."""
        if self.flat is None:
            return x.reshape(self.n, self.c, self.p_total)
        cols = self.cols[0]
        if self.padded is not None:
            self.core[...] = x.reshape(self.core.shape)
            if self.window is not None:
                np.copyto(cols.reshape(self.window.shape), self.window)
                return cols
            x = self.padded
        np.take(x.reshape(len(cols), -1), self.flat, axis=1, out=cols,
                mode="clip")
        return cols

    def release_workspace(self) -> None:
        """Drop the gather workspaces (padded image, window, column claim).

        Called by a codegen backend once every stage using this lowering
        gathers inside its own kernel (fused im2col) — the plan-side
        buffers would otherwise sit resident for the plan's lifetime.
        ``flat`` stays: it is compile-time geometry, not workspace.
        Irreversible for this plan; the numpy closures that captured
        these arrays must already be unreachable.
        """
        if self.cols is not None:
            COLUMNS.release(id(self.cols))
        self.padded = self.core = self.window = self.cols = None
        self.workspace_nbytes = 0


@dataclass(kw_only=True)
class ConvLowering(_Gather):
    """The :class:`_Gather` of one conv layer, one column per ``(k, p)``
    entry.  When the kernel is 1x1/stride-1/unpadded (``identity_cols``)
    the input itself is the column matrix and no workspace exists.
    Backends that build their columns structurally (the C renderer) need
    only the scalar geometry."""

    f_out: int
    k_total: int
    compute_dtype: np.dtype
    identity_cols: bool


def lower_conv(
    x_shape: Tuple[int, ...],
    weight_shape: Tuple[int, ...],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    compute_dtype,
    x_dtype,
) -> ConvLowering:
    """im2col geometry and gather workspaces of one conv layer."""
    n, c, h, w = x_shape
    f_out, _, kh, kw = weight_shape
    out_h = _conv_output_size(h, kh, stride[0], padding[0])
    out_w = _conv_output_size(w, kw, stride[1], padding[1])
    p_total = out_h * out_w
    k_total = c * kh * kw
    compute_dtype = np.dtype(compute_dtype)
    x_dtype = np.dtype(x_dtype)

    geo = ConvLowering(
        n=n, c=c, h=h, w=w, f_out=f_out, kernel=(kh, kw), stride=stride,
        padding=padding, out_h=out_h, out_w=out_w, p_total=p_total,
        k_total=k_total, compute_dtype=compute_dtype, x_dtype=x_dtype,
        identity_cols=(
            kh == 1 and kw == 1 and stride == (1, 1) and padding == (0, 0)
        ),
    )
    if not geo.identity_cols:
        geo.flat = _im2col_flat(c, h, w, (kh, kw), stride, padding)
        hp, wp = h + 2 * padding[0], w + 2 * padding[1]
        cols_dtype = x_dtype
        if padding != (0, 0):
            geo._pad(np.zeros((n, c, hp, wp), dtype=compute_dtype))
            cols_dtype = compute_dtype
        geo.cols = COLUMNS.claim((n, k_total, p_total), cols_dtype)
    return geo


class PoolLowering(_Gather):
    """The :class:`_Gather` of one max-pool layer, one column per window
    entry."""


def lower_pool(
    x_shape: Tuple[int, ...],
    out_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    x_dtype,
) -> PoolLowering:
    """Window geometry and gather workspaces of one max-pool layer."""
    n, c, h, w = x_shape
    _, _, out_h, out_w = out_shape
    p_total = out_h * out_w
    x_dtype = np.dtype(x_dtype)

    geo = PoolLowering(
        n=n, c=c, h=h, w=w, kernel=kernel, stride=stride, padding=padding,
        out_h=out_h, out_w=out_w, p_total=p_total, x_dtype=x_dtype,
        flat=_im2col_flat(1, h, w, kernel, stride, padding),
        cols=COLUMNS.claim((n * c, kernel[0] * kernel[1], p_total), x_dtype),
    )
    if padding != (0, 0):
        geo._pad(np.full((n * c, h + 2 * padding[0], w + 2 * padding[1]),
                         -np.inf, dtype=x_dtype))
    return geo

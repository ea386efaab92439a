"""Property-based tests (hypothesis) for the autograd core and BN.

These probe the algebraic invariants the rest of the system leans on:
gradient correctness on random shapes, BN's normalization contract, the
entropy bounds the adaptation loss relies on, and softmax normalization.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.autograd import gradcheck
from repro.nn.tensor import Tensor

SETTINGS = dict(max_examples=25, deadline=None)


def arrays(draw, shape, lo=-3.0, hi=3.0):
    elems = st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64)
    flat = draw(st.lists(elems, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.asarray(flat, dtype=np.float64).reshape(shape)


small_shapes = st.sampled_from([(2, 3), (1, 4), (3, 1), (2, 2, 2), (5,)])


class TestArithmeticProperties:
    @given(shape=small_shapes, data=st.data())
    @settings(**SETTINGS)
    def test_add_commutes(self, shape, data):
        a = arrays(data.draw, shape)
        b = arrays(data.draw, shape)
        lhs = (Tensor(a) + Tensor(b)).numpy()
        rhs = (Tensor(b) + Tensor(a)).numpy()
        np.testing.assert_allclose(lhs, rhs)

    @given(shape=small_shapes, data=st.data())
    @settings(**SETTINGS)
    def test_mul_grad_is_other_operand(self, shape, data):
        a = Tensor(arrays(data.draw, shape), requires_grad=True)
        b_val = arrays(data.draw, shape)
        out = a * Tensor(b_val)
        out.backward(np.ones(shape))
        np.testing.assert_allclose(a.grad, b_val, rtol=1e-10)

    @given(shape=small_shapes, data=st.data())
    @settings(**SETTINGS)
    def test_sum_grad_is_ones(self, shape, data):
        a = Tensor(arrays(data.draw, shape), requires_grad=True)
        a.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(shape))

    @given(shape=small_shapes, data=st.data())
    @settings(**SETTINGS)
    def test_chain_rule_linear_combination(self, shape, data):
        a = Tensor(arrays(data.draw, shape), requires_grad=True)
        alpha = data.draw(st.floats(-2.0, 2.0, allow_nan=False))
        (alpha * a + a * a).sum().backward()
        np.testing.assert_allclose(a.grad, alpha + 2 * a.data, rtol=1e-8, atol=1e-8)


class TestSoftmaxProperties:
    @given(
        n=st.integers(1, 6), c=st.integers(2, 12), data=st.data()
    )
    @settings(**SETTINGS)
    def test_softmax_is_distribution(self, n, c, data):
        logits = arrays(data.draw, (n, c), -20, 20)
        probs = F.softmax(Tensor(logits), axis=1).numpy()
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    @given(n=st.integers(1, 4), c=st.integers(2, 8), data=st.data())
    @settings(**SETTINGS)
    def test_softmax_shift_invariance(self, n, c, data):
        logits = arrays(data.draw, (n, c), -5, 5)
        shift = data.draw(st.floats(-100, 100, allow_nan=False))
        a = F.softmax(Tensor(logits), axis=1).numpy()
        b = F.softmax(Tensor(logits + shift), axis=1).numpy()
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)

    @given(n=st.integers(1, 4), c=st.integers(2, 8), data=st.data())
    @settings(**SETTINGS)
    def test_cross_entropy_lower_bounded_by_entropy_zero(self, n, c, data):
        logits = arrays(data.draw, (n, c), -10, 10)
        targets = np.asarray(
            [data.draw(st.integers(0, c - 1)) for _ in range(n)], dtype=np.int64
        )
        loss = F.cross_entropy(Tensor(logits), targets).item()
        assert loss >= -1e-9


class TestEntropyProperties:
    @given(
        c=st.integers(2, 20),
        n=st.integers(1, 4),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_entropy_bounds(self, c, n, data):
        """0 <= H <= log C for any logits (the adaptation loss range)."""
        from repro.adapt import entropy_loss

        logits = arrays(data.draw, (n, c, 2, 2), -15, 15)
        h = entropy_loss(Tensor(logits)).item()
        assert -1e-9 <= h <= np.log(c) + 1e-6

    @given(c=st.integers(2, 10), data=st.data())
    @settings(**SETTINGS)
    def test_entropy_matches_plain_numpy(self, c, data):
        from repro.adapt import entropy_loss
        from repro.metrics import mean_entropy

        logits = arrays(data.draw, (2, c, 3, 1), -8, 8)
        assert entropy_loss(Tensor(logits)).item() == pytest.approx(
            mean_entropy(logits), rel=1e-5, abs=1e-7
        )


class TestBatchNormProperties:
    @given(
        n=st.integers(2, 6),
        c=st.integers(1, 4),
        hw=st.integers(2, 5),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_train_mode_output_standardized(self, n, c, hw, data):
        """With gamma=1, beta=0 the train-mode output is ~N(0,1) per channel."""
        x = arrays(data.draw, (n, c, hw, hw), -10, 10)
        # degenerate all-equal channels have zero variance; skip those
        x += np.random.default_rng(0).normal(0, 1e-3, x.shape)
        out = F.batch_norm(
            Tensor(x),
            Tensor(np.ones((1, c, 1, 1))),
            Tensor(np.zeros((1, c, 1, 1))),
            np.zeros(c),
            np.ones(c),
            training=True,
        ).numpy()
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        var = out.var(axis=(0, 2, 3))
        assert (var < 1.0 + 1e-3).all()

    @given(
        n=st.integers(2, 5), c=st.integers(1, 3), data=st.data()
    )
    @settings(**SETTINGS)
    def test_refresh_statistics_idempotent(self, n, c, data):
        x = Tensor(arrays(data.draw, (n, c, 3, 3)).astype(np.float32))
        bn = nn.BatchNorm2d(c)
        bn.refresh_statistics(x)
        mean1 = bn.running_mean.copy()
        bn.refresh_statistics(x)
        np.testing.assert_array_equal(bn.running_mean, mean1)

    @given(scale=st.floats(0.5, 4.0), data=st.data())
    @settings(**SETTINGS)
    def test_train_output_invariant_to_channel_scaling(self, scale, data):
        """BN(a*x) == BN(x) for a > 0 — why BN-stat refresh neutralizes
        global illumination/contrast shift, the core of the paper's method."""
        x = arrays(data.draw, (4, 2, 3, 3), -5, 5)
        gamma = Tensor(np.ones((1, 2, 1, 1)))
        beta = Tensor(np.zeros((1, 2, 1, 1)))
        out1 = F.batch_norm(
            Tensor(x), gamma, beta, np.zeros(2), np.ones(2), training=True
        ).numpy()
        out2 = F.batch_norm(
            Tensor(scale * x), gamma, beta, np.zeros(2), np.ones(2), training=True
        ).numpy()
        np.testing.assert_allclose(out1, out2, rtol=1e-4, atol=1e-5)


class TestConvShapeProperties:
    @given(
        h=st.integers(4, 12),
        w=st.integers(4, 12),
        k=st.integers(1, 3),
        s=st.integers(1, 2),
        p=st.integers(0, 2),
    )
    @settings(**SETTINGS)
    def test_conv_shape_formula(self, h, w, k, s, p):
        from repro.models.spec import conv_out_size

        x = Tensor(np.zeros((1, 1, h, w), dtype=np.float32))
        weight = Tensor(np.zeros((1, 1, k, k), dtype=np.float32))
        out = F.conv2d(x, weight, stride=s, padding=p)
        assert out.shape[2] == conv_out_size(h, k, s, p)
        assert out.shape[3] == conv_out_size(w, k, s, p)

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        f=st.integers(1, 4),
    )
    @settings(**SETTINGS)
    def test_conv1x1_equals_channel_matmul(self, n, c, f):
        rng = np.random.default_rng(n * 100 + c * 10 + f)
        x = rng.standard_normal((n, c, 4, 5))
        w = rng.standard_normal((f, c, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w)).numpy()
        expected = np.einsum("fc,nchw->nfhw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-8)


def _scatter_col2im(cols, x_shape, kernel, stride, padding):
    """A tuple-index ``np.add.at`` scatter over the im2col indices — kept
    here only, as the summation-order reference for the flat-index
    col2im: ``(N, C, Hp, Wp)``, padding cells included."""
    n, c, h, w = x_shape
    ph, pw = padding
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    k, i, j, _, _ = F._im2col_indices(c, h, w, kernel, stride, padding)
    np.add.at(padded, (slice(None), k, i, j), cols)
    return padded


def _flat_col2im(cols, x_shape, kernel, stride, padding):
    """``F._col2im_scatter`` into a padded image, padding cells included."""
    n, c, h, w = x_shape
    ph, pw = padding
    padded = np.full((n, c, h + 2 * ph, w + 2 * pw), np.nan, dtype=cols.dtype)
    flat = F._im2col_flat(c, h, w, kernel, stride, padding)
    F._col2im_scatter(padded, cols, flat)
    return padded


def _model_geometries():
    """Every ``(C, H, W, kernel, stride, padding)`` a conv or max-pool of
    tiny-r18 and small-r18 scatters its input gradient over (batch 1)."""
    from repro.engine.plan import op_kind
    from repro.engine.tracer import ValueRef, trace
    from repro.models import build_model

    geometries = set()
    for preset in ("tiny-r18", "small-r18"):
        model = build_model(preset, rng=np.random.default_rng(0))
        model.eval()
        x = np.zeros((1, 3) + tuple(model.config.input_hw))
        graph = trace(model, x)
        shapes = {graph.input_vid: graph.input_shape}
        for node in graph.nodes:
            shapes[node.out_vid] = node.out_shape
            kind = op_kind(node)
            if kind == "conv":
                kernel = node.inputs[1].tensor.shape[2:]
                stride, padding = node.inputs[3], node.inputs[4]
            elif kind == "maxpool":
                kernel, stride, padding = node.inputs[1:4]
                stride = kernel if stride is None else stride
            else:
                continue
            assert isinstance(node.inputs[0], ValueRef)
            _, c, h, w = shapes[node.inputs[0].vid]
            geometries.add((c, h, w, F._pair(kernel), F._pair(stride),
                            F._pair(padding)))
    return sorted(geometries)


MODEL_GEOMETRIES = _model_geometries()


def _geometry_id(geometry):
    c, h, w, kernel, stride, padding = geometry
    return f"{c}x{h}x{w}-k{kernel[0]}s{stride[0]}p{padding[0]}"


@st.composite
def col2im_cases(draw):
    """Random geometry: non-square kernels, stride below the kernel
    (overlapping windows) and above it (gaps), padding 0-2, f32/f64."""
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    x_shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9)),
        draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 9)),
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**31))
    return x_shape, kernel, stride, padding, dtype, seed


def _wide_range(rng, shape, dtype):
    """Values over twelve decades, so another summation order would show."""
    return (
        rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    ).astype(dtype)


class TestCol2imProperties:
    @given(case=col2im_cases())
    @settings(max_examples=60, deadline=None)
    def test_scatter_is_bitwise_the_tuple_scatter(self, case):
        """The flat index visits every cell's contributions in ascending
        kernel-offset order, as the tuple-index scatter does — equal
        bytes, padding cells included, not just close values."""
        x_shape, kernel, stride, padding, dtype, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape).astype(dtype)
        cols, _, _ = F._im2col(x, kernel, stride, padding)
        grad = _wide_range(rng, cols.shape, dtype)
        want = _scatter_col2im(grad, x_shape, kernel, stride, padding)
        got = _flat_col2im(grad, x_shape, kernel, stride, padding)
        assert got.tobytes() == want.tobytes()
        _, _, h, w = x_shape
        ph, pw = padding
        core = np.ascontiguousarray(want[:, :, ph:ph + h, pw:pw + w])
        assert F._col2im(grad, x_shape, kernel, stride, padding).tobytes() == (
            core.tobytes()
        )

    def test_model_geometries_cover_every_layer_kind(self):
        kinds = {geometry[3:] for geometry in MODEL_GEOMETRIES}
        assert {
            ((7, 7), (2, 2), (3, 3)),  # the stem
            ((3, 3), (1, 1), (1, 1)),
            ((3, 3), (2, 2), (1, 1)),  # also the max-pool's
            ((1, 1), (2, 2), (0, 0)),  # the downsample
        } <= kinds

    @pytest.mark.parametrize("geometry", MODEL_GEOMETRIES, ids=_geometry_id)
    def test_every_model_geometry(self, geometry):
        """Every conv and max-pool geometry of tiny-r18 and small-r18,
        batch 2, both dtypes."""
        c, h, w, kernel, stride, padding = geometry
        rng = np.random.default_rng(c * h * w)
        x_shape = (2, c, h, w)
        for dtype in (np.float32, np.float64):
            cols, _, _ = F._im2col(np.zeros(x_shape, dtype), kernel, stride,
                                   padding)
            grad = _wide_range(rng, cols.shape, dtype)
            assert _flat_col2im(grad, x_shape, kernel, stride, padding) \
                .tobytes() == _scatter_col2im(
                    grad, x_shape, kernel, stride, padding).tobytes()

    @pytest.mark.parametrize("geometry", MODEL_GEOMETRIES, ids=_geometry_id)
    def test_planted_order_sensitive_cells(self, geometry):
        """The cell with the most taps fed 1e16, 1 and -1e16 by its first
        three (in every order: the sum is 0 or 1 depending on where the 1
        comes), then every one of its contributions -0.0 (a zeroed image
        plus -0.0 is +0.0)."""
        c, h, w, kernel, stride, padding = geometry
        x_shape = (1, c, h, w)
        flat = F._im2col_flat(c, h, w, kernel, stride, padding)
        cells, counts = np.unique(flat, return_counts=True)
        most = cells[np.argmax(counts)]
        taps = np.argwhere(flat == most)  # ascending (k, p)

        def scatters_agree(grad):
            got = _flat_col2im(grad, x_shape, kernel, stride, padding)
            want = _scatter_col2im(grad, x_shape, kernel, stride, padding)
            assert got.tobytes() == want.tobytes()
            return got

        if len(taps) >= 3:
            for values in itertools.permutations((1e16, 1.0, -1e16)):
                grad = np.zeros((1,) + flat.shape)
                for (k, p), value in zip(taps, values):
                    grad[0, k, p] = value
                scatters_agree(grad)
        grad = np.zeros((1,) + flat.shape)
        grad[0][flat == most] = -0.0
        assert not np.signbit(scatters_agree(grad)).any()

    @given(case=col2im_cases())
    @settings(**SETTINGS)
    def test_scatter_is_the_adjoint_of_im2col(self, case):
        """<im2col(x), y> == <x, col2im(y)> through the flat scatter."""
        x_shape, kernel, stride, padding, _, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(x_shape)
        cols, _, _ = F._im2col(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape)
        x_back = F._col2im(y, x_shape, kernel, stride, padding)
        lhs, rhs = float((cols * y).sum()), float((x * x_back).sum())
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)

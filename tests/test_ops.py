"""Layer primitive contracts: forward oracles and gradient checks."""

import tracemalloc

import numpy as np
import pytest

from mmseqseg import ops, tensor
from mmseqseg.gradcheck import grad_check
from mmseqseg.ops import BatchNormParams
from mmseqseg.tensor import (NumericalError, ShapeError, Tensor, make_node,
                             no_grad)


def assert_bits(actual, expected):
    """Equal dtype, shape and bytes: unlike assert_array_equal, a -0.0
    does not match a 0.0."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def naive_conv2d(x, k, b, pad):
    """Direct 6-loop nested-sum cross-correlation oracle."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for y in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += xp[ni, ci, y + dy, xi + dx] * k[co, ci, dy, dx]
                    out[ni, co, y, xi] = acc + b[co]
    return out


class TestConv2d:
    def test_scalar_scaling(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = Tensor([[[[2.0]]]])
        b = Tensor([0.0])
        out = ops.conv2d(x, k, b)
        np.testing.assert_array_equal(out.data[0, 0], [[2, 4], [6, 8]])

    def test_sum_of_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor([0.0])
        out = ops.conv2d(x, k, b)
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == 9.0  # the only full window
        assert out.data[0, 0, 0, 0] == 4.0  # a corner window sees 2x2 input

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = ops.conv2d(Tensor(x), Tensor(k), Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, b, 1), atol=1e-6)

    def test_same_keeps_extents(self):
        out = ops.conv2d(Tensor(np.zeros((1, 1, 8, 6))),
                         Tensor(np.zeros((2, 1, 5, 5))), None)
        assert out.shape == (1, 2, 8, 6)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 6, 6))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        a = ops.conv2d(Tensor(2.5 * x), k, None).data
        b = 2.5 * ops.conv2d(Tensor(x), k, None).data
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            ops.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                       Tensor(np.zeros((1, 3, 3, 3))), None)
        # a kernel with half the input's channels is a mismatch, never an
        # inferred 2-group convolution
        with pytest.raises(ShapeError, match="channel mismatch"):
            ops.conv2d(Tensor(np.zeros((1, 4, 4, 4))),
                       Tensor(np.zeros((2, 2, 3, 3))), None)

    def test_even_kernel_same_padding_raises(self):
        with pytest.raises(ShapeError, match="odd kernel"):
            ops.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                       Tensor(np.zeros((1, 1, 2, 2))), None)

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_batched_non_square_matches_oracle(self, cin, k):
        rng = np.random.default_rng(10 * cin + k)
        x = rng.standard_normal((3, cin, 5, 7))
        kern = rng.standard_normal((2, cin, k, k))
        b = rng.standard_normal(2)
        out = ops.conv2d(Tensor(x), Tensor(kern), Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, kern, b, k // 2),
                                   atol=1e-12)

    def test_outputs_not_divisible_by_groups_raises(self):
        with pytest.raises(ShapeError, match="groups"):
            ops.conv2d(Tensor(np.zeros((1, 4, 4, 4))),
                       Tensor(np.zeros((6, 1, 3, 3))), None, groups=4)

    @staticmethod
    def _per_group(x, k, b, groups):
        """conv2d of each channel group on its own, concatenated."""
        ci, co = x.shape[1] // groups, k.shape[0] // groups
        outs = [ops.conv2d(Tensor(x[:, g * ci:(g + 1) * ci]),
                           Tensor(k[g * co:(g + 1) * co]),
                           Tensor(b[g * co:(g + 1) * co]))
                for g in range(groups)]
        return np.concatenate([o.data for o in outs], axis=1)

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_grouped_forward_bit_equal_per_group(self, groups, cin):
        rng = np.random.default_rng(100 * groups + cin)
        x = rng.standard_normal((3, groups * cin, 8, 6)).astype(np.float32)
        k = rng.standard_normal((groups * 5, cin, 3, 3)).astype(np.float32)
        b = rng.standard_normal(groups * 5).astype(np.float32)
        out = ops.conv2d(Tensor(x), Tensor(k), Tensor(b), groups=groups)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data,
                                      self._per_group(x, k, b, groups))

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_grouped_gradients_match_per_group(self, groups, cin):
        rng = np.random.default_rng(200 * groups + cin)
        x = rng.standard_normal((2, groups * cin, 6, 5))
        k = rng.standard_normal((groups * 2, cin, 3, 3))
        b = rng.standard_normal(groups * 2)
        coeffs = rng.standard_normal((2, groups * 2, 6, 5))
        grouped = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        ops.project(ops.conv2d(*grouped, groups=groups), coeffs).backward()
        ci, co = cin, 2
        for g in range(groups):
            parts = [Tensor(x[:, g * ci:(g + 1) * ci], requires_grad=True),
                     Tensor(k[g * co:(g + 1) * co], requires_grad=True),
                     Tensor(b[g * co:(g + 1) * co], requires_grad=True)]
            ops.project(ops.conv2d(*parts),
                        coeffs[:, g * co:(g + 1) * co]).backward()
            for whole, part, sl in zip(
                    grouped, parts,
                    ((slice(None), slice(g * ci, (g + 1) * ci)),
                     slice(g * co, (g + 1) * co), slice(g * co, (g + 1) * co))):
                np.testing.assert_allclose(whole.grad[sl], part.grad,
                                           rtol=0, atol=1e-12)

    def test_nonfinite_output_raises(self):
        x = Tensor(np.full((1, 1, 2, 2), 1e308))
        k = Tensor(np.full((1, 1, 1, 1), 1e308))
        with pytest.raises(NumericalError):
            with pytest.warns(RuntimeWarning, match="overflow"):
                ops.conv2d(x, k, None)


def tap_loop_im2col(x, kh, kw):
    """The tap-by-tap form of _im2col: a zeroed (N, C, kh, kw, H, W)
    buffer, each tap filled from the shifted window of the unpadded
    input that stays inside the image."""
    n, c, h, w = x.shape
    col = np.zeros((n, c, kh, kw, h, w), dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            sy, sx = dy - kh // 2, dx - kw // 2
            ylo, yhi = max(0, -sy), min(h, h - sy)
            xlo, xhi = max(0, -sx), min(w, w - sx)
            col[:, :, dy, dx, ylo:yhi, xlo:xhi] = \
                x[:, :, ylo + sy:yhi + sy, xlo + sx:xhi + sx]
    return col.reshape(n, c * kh * kw, h * w)


def tap_plan_col2im(col, x_shape, kh, kw):
    """The tap-plan form of _col2im: a zeroed image, and each tap's slab
    added, taps in order, onto the pixels of the unpadded image that the
    tap reaches."""
    n, c, h, w = x_shape
    col = col.reshape(n, c, kh, kw, h, w)
    img = np.zeros(x_shape, dtype=col.dtype)

    def shift(size, d):
        lo = max(0, -d)
        hi = max(lo, min(size, size - d))
        return slice(lo, hi), slice(lo + d, hi + d)

    for dy in range(kh):
        oy, iy = shift(h, dy - kh // 2)
        for dx in range(kw):
            ox, ix = shift(w, dx - kw // 2)
            img[:, :, iy, ix] += col[:, :, dy, dx, oy, ox]
    return img


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("hw", [4, 8, 32, 128])
    def test_matches_tap_loop(self, dtype, k, hw):
        rng = np.random.default_rng(hw + k)
        x = rng.standard_normal((2, 3, hw, hw)).astype(dtype)
        col = ops._im2col(x, k, k)
        assert col.flags.c_contiguous
        assert_bits(col, tap_loop_im2col(x, k, k))

    def test_non_square_kernel_and_map(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 5, 7))
        assert_bits(ops._im2col(x, 5, 3), tap_loop_im2col(x, 5, 3))

    def test_one_by_one_pads_nothing(self):
        # a 1x1 kernel reads the image itself, not a padded copy; a
        # non-contiguous image is made contiguous for the window view
        x = np.random.default_rng(2).standard_normal((2, 3, 4, 6))
        assert ops._pad(x, 1, 1) is x
        xt = x.transpose(0, 1, 3, 2)
        assert_bits(ops._im2col(xt, 1, 1), tap_loop_im2col(xt, 1, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 3), (7, 5)])
    def test_col2im_bit_equal_to_tap_plan(self, dtype, n, kh, kw):
        # the padded scatter adds each pixel's taps in the tap plan's
        # order; 7x5 is larger than the 5x4 map
        shape = (n, 2, 5, 4)
        col = np.random.default_rng(kh * kw + n).standard_normal(
            (n, 2 * kh * kw, 5 * 4)).astype(dtype)
        assert_bits(ops._col2im(col, shape, kh, kw),
                    tap_plan_col2im(col, shape, kh, kw))

    @pytest.mark.parametrize("shape,kh,kw", [((3, 2, 5, 7), 3, 3),
                                             ((2, 1, 4, 3), 5, 3),
                                             ((1, 2, 2, 3), 7, 5)])
    def test_col2im_is_adjoint(self, shape, kh, kw):
        # <im2col(x), y> == <x, col2im(y)>; the last case has a kernel
        # larger than the image
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape)
        n, c, h, w = shape
        y = rng.standard_normal((n, c * kh * kw, h * w))
        col = ops._im2col(x, kh, kw)
        assert col.shape == y.shape
        np.testing.assert_allclose((col * y).sum(),
                                   (x * ops._col2im(y, shape, kh, kw)).sum(),
                                   rtol=1e-12)


def batched_conv(x, kernel, groups, g):
    """The batched form of the convolution: one (N, C*kh*kw, H*W) patch
    matrix for every image, one batched matmul, and a kernel gradient
    summed over the image axis. Returns (out, dkernel, dx) for the
    upstream gradient g."""
    n, _, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    col = ops._im2col(x, kh, kw).reshape(n, groups, -1, h * w)
    w_col = kernel.reshape(groups, cout // groups, -1)
    out = (w_col @ col).reshape(n, cout, h, w)
    g = g.reshape(n, groups, cout // groups, h * w)
    dk = (g @ col.transpose(0, 1, 3, 2)).sum(axis=0).reshape(kernel.shape)
    dx = ops._col2im(w_col.transpose(0, 2, 1) @ g, x.shape, kh, kw)
    return out, dk, dx


class TestPerFrameConv:
    """The convolution builds one image's patches at a time and rebuilds
    them in the backward; its output and both gradients equal the
    batched form bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 3)])
    @pytest.mark.parametrize("grads", ["x", "kernel", "both"])
    def test_bit_equal_to_batched(self, dtype, groups, n, kh, kw, grads):
        rng = np.random.default_rng(7 * n + kh + groups)
        x = rng.standard_normal((n, 2 * groups, 7, 6)).astype(dtype)
        k = rng.standard_normal((3 * groups, 2, kh, kw)).astype(dtype)
        g = rng.standard_normal((n, 3 * groups, 7, 6)).astype(dtype)
        xt = Tensor(x, requires_grad=grads in ("x", "both"))
        kt = Tensor(k, requires_grad=grads in ("kernel", "both"))
        out = ops.conv2d(xt, kt, groups=groups)
        ops.project(out, g).backward()  # hands the conv exactly g
        ref_out, ref_dk, ref_dx = batched_conv(x, k, groups, g)
        assert_bits(out.data, ref_out)
        if xt.requires_grad:
            assert_bits(xt.grad, ref_dx)
        else:
            assert xt.grad is None
        if kt.requires_grad:
            assert_bits(kt.grad, ref_dk)
        else:
            assert kt.grad is None

    def test_no_patch_matrix_held(self):
        # a graph-built conv-BN-ReLU layer: while it runs and while its
        # node lives, memory stays below its input, its two outputs and
        # one image's patches, where the batched form held all N
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((3, 32, 64, 64)).astype(np.float32),
                   requires_grad=True)
        kernel = Tensor(rng.standard_normal((32, 32, 3, 3)).astype(np.float32),
                        requires_grad=True)
        bn = BatchNormParams(32)
        frame_patches = x.data[0].nbytes * 9
        bound = 3 * x.data.nbytes + frame_patches
        tracemalloc.start()
        try:
            node = ops.conv_bn_relu(x, kernel, bn, "train", 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert node._backward is not None
        assert peak < bound, (peak, bound)
        assert held < bound - frame_patches, (held, bound)


def frame_conv(x, kernel, groups):
    """The whole-frame form of the convolution's forward: one
    (C*kh*kw, H*W) patch matrix per image and one matmul into that
    image's output slab."""
    n, _, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    w_col = kernel.reshape(groups, cout // groups, -1)
    out = np.empty((n, cout, h, w), dtype=np.result_type(w_col, x))
    for i in range(n):
        np.matmul(w_col,
                  ops._im2col(x[i:i + 1], kh, kw).reshape(groups, -1, h * w),
                  out=out[i].reshape(groups, cout // groups, h * w))
    return out


class TestBandedConv:
    """The forward takes each image in bands of output rows, one matmul
    per band; its output equals the whole-frame form bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("hw", [16, 64, 128])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("band_bytes", [None, 1, 10000])
    def test_bit_equal_to_whole_frame(self, dtype, groups, hw, k, band_bytes,
                                      monkeypatch):
        # band_bytes None keeps the default; 1 makes one row per band;
        # 10000 makes bands that leave a shorter last one
        if band_bytes is not None:
            monkeypatch.setattr(ops, "_BAND_BYTES", band_bytes)
        rng = np.random.default_rng(hw + k + groups)
        x = rng.standard_normal((2, 8 * groups, hw, hw)).astype(dtype)
        kernel = rng.standard_normal((4 * groups, 8, k, k)).astype(dtype)
        with no_grad():
            out = ops.conv2d(Tensor(x), Tensor(kernel), None, groups)
        assert_bits(out.data, frame_conv(x, kernel, groups))

    def test_patch_memory_one_band(self):
        # the last decoder layer on one 128 x 128 frame: its whole patch
        # matrix (4.7 MB) is never built, only about _BAND_BYTES of it
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 8, 128, 128)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((8, 8, 3, 3)).astype(np.float32))
        padded = 8 * 130 * 130 * 4
        bound = 2 * x.data.nbytes + padded + ops._BAND_BYTES
        tracemalloc.start()
        try:
            with no_grad():
                ops.conv_bn_relu(x, kernel, BatchNormParams(8), "eval", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestBatchBand:
    """A batch whose patches fit in _BAND_BYTES is one band: one _pad,
    one patch copy and one stacked matmul for every image. Its output
    equals the whole-frame form and its gradients the batched form, bit
    for bit, whether the batch fits exactly or misses by one row."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 3)])
    @pytest.mark.parametrize("fits", [True, False])
    def test_bit_equal_at_the_band_edge(self, dtype, groups, n, kh, kw, fits,
                                        monkeypatch):
        rng = np.random.default_rng(5 * n + kh + groups)
        x = rng.standard_normal((n, 2 * groups, 7, 6)).astype(dtype)
        k = rng.standard_normal((3 * groups, 2, kh, kw)).astype(dtype)
        g = rng.standard_normal((n, 3 * groups, 7, 6)).astype(dtype)
        ref_out = frame_conv(x, k, groups)
        _, ref_dk, ref_dx = batched_conv(x, k, groups, g)
        row_bytes = 2 * groups * kh * kw * 6 * x.itemsize
        monkeypatch.setattr(ops, "_BAND_BYTES",
                            n * 7 * row_bytes - (0 if fits else row_bytes))
        pads, pad = [], ops._pad
        monkeypatch.setattr(ops, "_pad", lambda a, kh, kw: (
            pads.append(a.shape[0]), pad(a, kh, kw))[1])
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        out = ops.conv2d(xt, kt, groups=groups)
        assert pads == ([n] if fits else [1] * n)
        ops.project(out, g).backward()  # hands the conv exactly g
        assert_bits(out.data, ref_out)
        assert_bits(xt.grad, ref_dx)
        assert_bits(kt.grad, ref_dk)

    def test_empty_batch_gives_empty_output(self):
        out = ops.conv2d(Tensor(np.zeros((0, 2, 4, 4))),
                         Tensor(np.ones((3, 2, 3, 3))))
        assert out.shape == (0, 3, 4, 4)

    def test_large_batch_builds_one_band_at_a_time(self):
        # three images of the last decoder layer at 128 x 128: the batch's
        # patches (14 MB) miss the band, so each image is padded alone and
        # about _BAND_BYTES of its patches are built at a time
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 8, 128, 128)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((8, 8, 3, 3)).astype(np.float32))
        padded = 8 * 130 * 130 * 4
        bound = x.data.nbytes + padded + ops._BAND_BYTES
        tracemalloc.start()
        try:
            with no_grad():
                out = ops.conv2d(x, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < bound, (peak, bound)


class TestLayout:
    def test_outputs_c_contiguous(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 3, 6, 4)))
        conv = ops.conv2d(x, Tensor(rng.standard_normal((5, 3, 3, 3))),
                          Tensor(np.zeros(5)))
        bn = BatchNormParams(5, dtype=np.float64)
        outs = {"conv2d": conv,
                "batchnorm": ops.batchnorm(conv, bn, "train"),
                "maxpool2x2": ops.maxpool2x2(conv),
                "relu": ops.relu(conv)}
        for name, out in outs.items():
            assert out.data.flags.c_contiguous, name


def tensordot_conv_transpose2d(x, k, b):
    """The four-tensordot form of a stride-2 2x2 transposed convolution
    and its gradients (dx, dk, db) under upstream gradient g, one
    tensordot per kernel tap."""
    n, cin, h, w = x.shape
    cout = k.shape[1]
    out = np.empty((n, cout, 2 * h, 2 * w))
    for dy in range(2):
        for dx in range(2):
            piece = np.tensordot(x, k[:, :, dy, dx], axes=([1], [0]))
            out[:, :, dy::2, dx::2] = piece.transpose(0, 3, 1, 2)
    out += b[None, :, None, None]

    def grads(g):
        gx = np.zeros(x.shape)
        gk = np.empty(k.shape)
        for dy in range(2):
            for dx in range(2):
                sub = g[:, :, dy::2, dx::2]
                gx += np.tensordot(sub, k[:, :, dy, dx],
                                   axes=([1], [1])).transpose(0, 3, 1, 2)
                gk[:, :, dy, dx] = np.tensordot(x, sub,
                                                axes=([0, 2, 3], [0, 2, 3]))
        return gx, gk, g.sum(axis=(0, 2, 3))

    return out, grads


class TestConvTranspose2d:
    def test_single_pixel_broadcast(self):
        x = Tensor(np.full((1, 1, 1, 1), 5.0))
        k = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor([0.0])
        out = ops.conv_transpose2d(x, k, b)
        np.testing.assert_array_equal(out.data[0, 0], np.full((2, 2), 5.0))

    def test_corner_kernel_scatter(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 2, 2))
        k = np.zeros((1, 1, 2, 2))
        k[0, 0, 0, 0] = 1.0
        out = ops.conv_transpose2d(Tensor(x), Tensor(k),
                                   Tensor(np.zeros(1))).data
        expect = np.zeros((1, 1, 4, 4))
        expect[0, 0, ::2, ::2] = x[0, 0]
        np.testing.assert_array_equal(out, expect)

    def test_adjoint_of_conv_oracle(self):
        # forward conv_transpose equals the input-gradient of a stride-2
        # conv with the transposed kernel, computed by direct loops
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 4, 4))
        k = rng.standard_normal((2, 3, 2, 2))  # (Cin, Cout, 2, 2)
        out = ops.conv_transpose2d(Tensor(x), Tensor(k),
                                   Tensor(np.zeros(3))).data
        # direct scatter oracle (the adjoint of a stride-2 valid conv)
        expect = np.zeros((1, 3, 8, 8))
        for ci in range(2):
            for co in range(3):
                for y in range(4):
                    for xx in range(4):
                        for dy in range(2):
                            for dx in range(2):
                                expect[0, co, 2 * y + dy, 2 * xx + dx] += \
                                    x[0, ci, y, xx] * k[ci, co, dy, dx]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    @pytest.mark.parametrize("shape,cout", [((1, 2, 4, 4), 3),
                                            ((3, 5, 3, 7), 4),
                                            ((2, 1, 1, 1), 1)])
    def test_matches_tensordot_oracle(self, shape, cout):
        rng = np.random.default_rng(sum(shape) + cout)
        x = rng.standard_normal(shape)
        k = rng.standard_normal((shape[1], cout, 2, 2))
        b = rng.standard_normal(cout)
        ts = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        out = ops.conv_transpose2d(*ts)
        expect, grads = tensordot_conv_transpose2d(x, k, b)
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)
        g = rng.standard_normal(expect.shape)
        ops.project(out, g).backward()
        for t, ref in zip(ts, grads(g)):
            np.testing.assert_allclose(t.grad, ref, rtol=0, atol=1e-12)

    def test_exactly_doubles_extents(self):
        for h, w in [(1, 1), (3, 5), (4, 4)]:
            out = ops.conv_transpose2d(Tensor(np.zeros((1, 2, h, w))),
                                       Tensor(np.zeros((2, 2, 2, 2))),
                                       Tensor(np.zeros(2)))
            assert out.shape == (1, 2, 2 * h, 2 * w)


class TestMaxPool:
    def test_max_of_window(self):
        out = ops.maxpool2x2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data[0, 0, 0, 0] == 4.0

    def test_constant_invariance(self):
        out = ops.maxpool2x2(Tensor(np.full((1, 2, 4, 6), 3.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 3), 3.5))

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 6, 6))
        c = 1.75
        a = ops.maxpool2x2(Tensor(x + c)).data
        b = ops.maxpool2x2(Tensor(x)).data + c
        np.testing.assert_array_equal(a, b)

    def test_odd_extent_raises(self):
        with pytest.raises(ShapeError, match="even"):
            ops.maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_tie_gradient_goes_to_first(self):
        x = Tensor(np.array([[[[2.0, 2.0], [2.0, 2.0]]]]), requires_grad=True)
        out = ops.maxpool2x2(x)
        out.backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[1, 0], [0, 0]])


    def test_gradient_matches_argmax_rule(self):
        # small integers give many ties; the gradient goes to the first
        # maximum of each window in row-major order, as argmax picks it
        rng = np.random.default_rng(19)
        n, c, h, w = 2, 3, 6, 8
        x = Tensor(rng.integers(0, 3, size=(n, c, h, w)).astype(np.float64),
                   requires_grad=True)
        g = rng.standard_normal((n, c, h // 2, w // 2))
        ops.project(ops.maxpool2x2(x), g).backward()
        win = (x.data.reshape(n, c, h // 2, 2, w // 2, 2)
               .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4))
        expect = np.zeros_like(win)
        np.put_along_axis(expect, win.argmax(axis=-1)[..., None],
                          g[..., None], axis=-1)
        expect = (expect.reshape(n, c, h // 2, w // 2, 2, 2)
                  .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))
        assert (win == win.max(axis=-1, keepdims=True)).sum(axis=-1).max() > 1
        np.testing.assert_array_equal(x.grad, expect)

    def test_route_allocates_one_pooled_mask(self):
        # the routing reuses one boolean buffer of the pooled shape for
        # every corner; at (2, 64, 64, 64) pooled, 512 KiB, it stands out
        # of numpy's ufunc buffers (about 64 KiB)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 64, 128, 128)).astype(np.float32)
        out = ops._pool(x)
        g = rng.standard_normal(out.shape).astype(np.float32)
        dx = np.empty_like(x)
        free = np.ones(out.shape, dtype=bool)
        tracemalloc.start()
        try:
            ops._route(x, out, g, dx, free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not free.any()
        assert peak <= out.size + 131072, (peak, out.size)


def three_pass_maxpool(x):
    """A left-to-right np.maximum over the four window corners in
    row-major order."""
    corners = [x[:, :, a::2, b::2] for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    out = np.maximum(corners[0], corners[1])
    np.maximum(out, corners[2], out=out)
    np.maximum(out, corners[3], out=out)
    return out


class TestTwoPassMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_three_pass_with_ties(self, dtype):
        x = np.random.default_rng(24).integers(0, 3, (2, 3, 16, 40)).astype(dtype)
        assert_bits(ops.maxpool2x2(Tensor(x)).data, three_pass_maxpool(x))

    def test_matches_three_pass_on_signed_zeros(self):
        # every window over {-1, -0, 0, 1}: ties between -0.0 and 0.0
        # are where the order of the maxima shows
        values = np.array([-1.0, -0.0, 0.0, 1.0], dtype=np.float32)
        win = values[np.indices((4, 4, 4, 4)).reshape(4, -1)]  # (4, 256)
        x = np.empty((1, 1, 2, 2 * win.shape[1]), dtype=np.float32)
        x[0, 0, 0, 0::2], x[0, 0, 0, 1::2] = win[0], win[1]
        x[0, 0, 1, 0::2], x[0, 0, 1, 1::2] = win[2], win[3]
        assert_bits(ops.maxpool2x2(Tensor(x)).data, three_pass_maxpool(x))


class TestMaximumTieRule:
    """_pool's corner order and conv_bn_relu_pool's ReLU after the pool
    rely on np.maximum returning its second operand when the operands
    tie, as +0.0 and -0.0 do; pinned for numpy's scalar and SIMD loops
    (short, odd and long arrays, contiguous and strided)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 16, 17, 1000])
    @pytest.mark.parametrize("step", [1, 2])
    def test_second_operand_on_signed_zero_tie(self, dtype, n, step):
        pos = np.zeros(n * step, dtype)[::step]
        neg = np.full(n * step, -0.0, dtype)[::step]
        assert np.signbit(np.maximum(pos, neg)).all()
        assert not np.signbit(np.maximum(neg, pos)).any()
        assert not np.signbit(np.maximum(neg, 0)).any()


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(5)
        bn = BatchNormParams(3, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 3, 8, 8)) * 2 + 1)
        out = ops.batchnorm(x, bn, "train").data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_eval_identity(self):
        rng = np.random.default_rng(6)
        bn = BatchNormParams(2, dtype=np.float64)
        x = rng.standard_normal((2, 2, 4, 4))
        out = ops.batchnorm(Tensor(x), bn, "eval").data
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_two_pass_statistics_oracle(self):
        rng = np.random.default_rng(7)
        bn = BatchNormParams(3, dtype=np.float64)
        bn.scale.data = rng.standard_normal(3)
        bn.shift.data = rng.standard_normal(3)
        x = rng.standard_normal((2, 3, 4, 4)) * 3 - 1
        out = ops.batchnorm(Tensor(x), bn, "train").data
        for c in range(3):
            vals = x[:, c]
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            expect = bn.scale.data[c] * (vals - mu) / np.sqrt(var + bn.epsilon) \
                + bn.shift.data[c]
            np.testing.assert_allclose(out[:, c], expect, atol=1e-5)

    def test_eval_matches_formula(self):
        rng = np.random.default_rng(20)
        bn = BatchNormParams(3)
        bn.scale.data = rng.standard_normal(3).astype(np.float32)
        bn.shift.data = rng.standard_normal(3).astype(np.float32)
        bn.running_mean = rng.standard_normal(3).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, 3).astype(np.float32)
        x = (rng.standard_normal((2, 3, 4, 5)) * 2).astype(np.float32)
        out = ops.batchnorm(Tensor(x), bn, "eval").data
        c = (slice(None), None, None)
        expect = ((x - bn.running_mean[c]) / np.sqrt(bn.running_var[c]
                                                     + bn.epsilon)
                  * bn.scale.data[c] + bn.shift.data[c])
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, expect, rtol=1e-5, atol=1e-5)

    def test_running_stats_ema(self):
        bn = BatchNormParams(1, dtype=np.float64)
        x = np.ones((1, 1, 2, 2)) * 4.0
        ops.batchnorm(Tensor(x), bn, "train")
        np.testing.assert_allclose(bn.running_mean, [0.9 * 0 + 0.1 * 4])

    def test_zero_variance_no_division_error(self):
        bn = BatchNormParams(1, dtype=np.float64)
        out = ops.batchnorm(Tensor(np.full((1, 1, 2, 2), 7.0)), bn, "train")
        assert np.all(np.isfinite(out.data))

    def test_eval_folds_conv_bias_into_running_mean(self):
        # a conv bias b before an eval-mode batch norm equals running
        # mean rm - b without it: the identity old checkpoints load by
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        bn = BatchNormParams(4, dtype=np.float64)
        bn.scale.data = rng.standard_normal(4)
        bn.shift.data = rng.standard_normal(4)
        bn.running_mean = rng.standard_normal(4)
        bn.running_var = rng.uniform(0.5, 2.0, 4)
        with_bias = ops.batchnorm(ops.conv2d(x, k, b), bn, "eval").data
        bn.running_mean = bn.running_mean - b.data
        folded = ops.batchnorm(ops.conv2d(x, k), bn, "eval").data
        np.testing.assert_allclose(folded, with_bias, rtol=0, atol=1e-6)

    def test_running_stats_update_in_place(self):
        bn = BatchNormParams(2, dtype=np.float64)
        mean, var = bn.running_mean, bn.running_var
        ops.batchnorm(Tensor(np.arange(16.0).reshape(2, 2, 2, 2)), bn,
                      "train")
        assert bn.running_mean is mean and bn.running_var is var
        np.testing.assert_allclose(mean, 0.1 * np.array([5.5, 9.5]))

    def test_update_copies_no_statistic_of_its_dtype(self):
        # a float32 statistic folds into float32 running statistics with
        # one temporary, the scaled statistic, and the bits of a copy
        c = 1 << 16
        rng = np.random.default_rng(24)
        mean = rng.standard_normal(c).astype(np.float32)
        var = rng.uniform(0.5, 2.0, c).astype(np.float32)
        bn = BatchNormParams(c)
        tracemalloc.start()
        try:
            bn.update(mean, var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * mean.nbytes, peak
        for run, stat, start in ((bn.running_mean, mean, 0.0),
                                 (bn.running_var, var, 1.0)):
            expect = np.full(c, start, dtype=np.float32)
            expect *= bn.momentum
            expect += (1.0 - bn.momentum) * stat.copy()
            assert_bits(run, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 8, 64, 64), (2, 5, 7, 3),
                                       (1, 4, 1, 2)])
    def test_train_statistics_equal_numpy_mean_var(self, dtype, shape):
        rng = np.random.default_rng(23)
        x = (rng.standard_normal(shape) * 3 + 2).astype(dtype)
        bn = BatchNormParams(shape[1], dtype=dtype)
        bn.momentum = 0.0  # the running statistics become the batch's
        ops.batchnorm(Tensor(x), bn, "train")
        np.testing.assert_array_equal(bn.running_mean, x.mean(axis=(0, 2, 3)))
        np.testing.assert_array_equal(bn.running_var, x.var(axis=(0, 2, 3)))

    def test_single_element_train_raises(self):
        bn = BatchNormParams(1)
        with pytest.raises(ShapeError):
            ops.batchnorm(Tensor(np.zeros((1, 1, 1, 1))), bn, "train")


def separate_conv_bn_relu(x, kernel, bn, mode, groups):
    return ops.relu(ops.batchnorm(ops.conv2d(x, kernel, groups=groups), bn,
                                  mode))


def conv_bn_setup(rng, dtype, groups):
    """(x, kernel, bn) tensors of a grouped 3x3 conv-BN layer with
    random scale, shift and running statistics."""
    cin, cout = 2 * groups, 3 * groups
    x = Tensor(rng.standard_normal((3, cin, 8, 6)).astype(dtype),
               requires_grad=True)
    kernel = Tensor(rng.standard_normal((cout, 2, 3, 3)).astype(dtype),
                    requires_grad=True)
    bn = BatchNormParams(cout, dtype=dtype)
    bn.scale.data = (1.0 + 0.5 * rng.standard_normal(cout)).astype(dtype)
    bn.shift.data = (0.5 * rng.standard_normal(cout)).astype(dtype)
    bn.running_mean = rng.standard_normal(cout).astype(dtype)
    bn.running_var = rng.uniform(0.5, 2.0, cout).astype(dtype)
    return x, kernel, bn


def twin(x, kernel, bn):
    """Independent copies of conv_bn_setup's tensors."""
    copy = BatchNormParams(bn.scale.size, dtype=bn.scale.dtype)
    copy.scale.data, copy.shift.data = bn.scale.data.copy(), bn.shift.data.copy()
    copy.running_mean = bn.running_mean.copy()
    copy.running_var = bn.running_var.copy()
    return (Tensor(x.data.copy(), requires_grad=True),
            Tensor(kernel.data.copy(), requires_grad=True), copy)


class TestConvBnRelu:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_bit_equal_to_three_ops(self, mode, groups):
        rng = np.random.default_rng(groups)
        x, kernel, bn = conv_bn_setup(rng, np.float32, groups)
        x2, kernel2, bn2 = twin(x, kernel, bn)
        ref = separate_conv_bn_relu(x, kernel, bn, mode, groups)
        out = ops.conv_bn_relu(x2, kernel2, bn2, mode, groups)
        assert_bits(out.data, ref.data)
        assert out.data.flags.c_contiguous
        assert (out.data == 0).any() and (out.data > 0).any()
        assert_bits(bn2.running_mean, bn.running_mean)
        assert_bits(bn2.running_var, bn.running_var)
        coeffs = rng.standard_normal(ref.shape)
        ops.project(ref, coeffs).backward()
        ops.project(out, coeffs).backward()
        for a, b in ((x2, x), (kernel2, kernel), (bn2.scale, bn.scale),
                     (bn2.shift, bn.shift)):
            assert_bits(a.grad, b.grad)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_graph_free_output_equal(self, mode):
        # under no_grad the affine and the ReLU run in the conv buffer
        x, kernel, bn = conv_bn_setup(np.random.default_rng(9), np.float32, 2)
        x2, kernel2, bn2 = twin(x, kernel, bn)
        recorded = ops.conv_bn_relu(x, kernel, bn, mode, 2)
        with no_grad():
            free = ops.conv_bn_relu(x2, kernel2, bn2, mode, 2)
        assert recorded._backward is not None and free._backward is None
        assert_bits(free.data, recorded.data)
        assert_bits(bn2.running_mean, bn.running_mean)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        rng = np.random.default_rng(seed)
        x, kernel, bn = conv_bn_setup(rng, np.float64, 2)
        ts = {"x": x, "kernel": kernel, "scale": bn.scale, "shift": bn.shift}
        coeffs = rng.standard_normal((3, 6, 8, 6))
        report = grad_check(
            lambda: ops.project(ops.conv_bn_relu(x, kernel, bn, "train", 2),
                                coeffs), ts, tolerance=1e-4)
        assert report.passed, report.max_rel_error

    def test_one_node_and_one_finite_check(self, monkeypatch):
        checked = []

        def counting(arr, what):
            checked.append(what)
            return arr
        monkeypatch.setattr(tensor, "check_finite", counting)
        x, kernel, bn = conv_bn_setup(np.random.default_rng(3), np.float32, 1)
        out = ops.conv_bn_relu(x, kernel, bn, "train", 1)
        assert checked == ["conv_bn_relu output"]
        assert set(map(id, out._parents)) == set(
            map(id, (x, kernel, bn.scale, bn.shift)))

    def test_masked_non_finite_conv_output_raises(self):
        # the conv output -inf becomes -inf after the affine, which the
        # ReLU would turn into 0: the check must come before the ReLU
        x = Tensor(np.array([[[[-np.inf, 1.0], [2.0, 3.0]]]], np.float32))
        kernel = Tensor(np.ones((1, 1, 1, 1), np.float32), requires_grad=True)
        bn = BatchNormParams(1)
        with pytest.raises(NumericalError):
            ops.conv2d(x, kernel)
        for record in (True, False):
            with pytest.raises(NumericalError, match="conv_bn_relu"):
                if record:
                    ops.conv_bn_relu(x, kernel, bn, "eval", 1)
                else:
                    with no_grad():
                        ops.conv_bn_relu(x, kernel, bn, "eval", 1)

    def test_channel_mismatch_raises(self):
        x, kernel, _ = conv_bn_setup(np.random.default_rng(4), np.float64, 1)
        with pytest.raises(ShapeError, match="batchnorm channel mismatch"):
            ops.conv_bn_relu(x, kernel, BatchNormParams(4), "eval", 1)


def pool_setup(rng, dtype, groups, x_grad):
    """(x, kernel, bn) of a grouped 3x3 conv-BN layer on small integers:
    the convolution outputs repeat, so many pooling windows hold tied
    maxima, and some windows are all zero after the ReLU."""
    x, kernel, bn = conv_bn_setup(rng, dtype, groups)
    x.data = rng.integers(-1, 2, x.shape).astype(dtype)
    x.requires_grad = x_grad
    kernel.data = rng.integers(-1, 2, kernel.shape).astype(dtype)
    return x, kernel, bn


def window_maxima(z):
    # per 2x2 window of z: how many of its four values equal its max
    n, c, h, w = z.shape
    win = z.reshape(n, c, h // 2, 2, w // 2, 2)
    return (win == win.max(axis=(3, 5), keepdims=True)).sum(axis=(3, 5))


class TestConvBnReluPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_bit_equal_to_two_ops(self, dtype, groups, mode, x_grad):
        rng = np.random.default_rng(groups + 10 * x_grad)
        x, kernel, bn = pool_setup(rng, dtype, groups, x_grad)
        x2, kernel2, bn2 = twin(x, kernel, bn)
        x2.requires_grad = x_grad
        relu_map = ops.conv_bn_relu(x, kernel, bn, mode, groups)
        ref = ops.maxpool2x2(relu_map)
        tied = window_maxima(relu_map.data) > 1
        assert (tied & (ref.data > 0)).any()  # tied positive maxima
        assert (ref.data == 0).any()  # windows all zero after the ReLU
        out = ops.conv_bn_relu_pool(x2, kernel2, bn2, mode, groups)
        assert_bits(out.data, ref.data)
        assert out.data.flags.c_contiguous
        assert_bits(bn2.running_mean, bn.running_mean)
        assert_bits(bn2.running_var, bn.running_var)
        coeffs = rng.standard_normal(ref.shape)
        ops.project(ref, coeffs).backward()
        ops.project(out, coeffs).backward()
        assert_bits(kernel2.grad, kernel.grad)
        assert_bits(bn2.scale.grad, bn.scale.grad)
        assert_bits(bn2.shift.grad, bn.shift.grad)
        if x_grad:
            assert_bits(x2.grad, x.grad)
        else:
            assert x.grad is None and x2.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_bit_equal_to_four_ops(self, dtype, groups, mode):
        # the ReLU after the pool, against the ReLU before it: on maps
        # with all-negative windows, exact-zero maxima, tied corners and
        # -0.0 maxima. The second image is the first negated, so every
        # channel's batch mean is exactly 0; the shift is -0.0, and in eval
        # mode a running mean of -0.0 under a negative scale makes -0.0
        rng = np.random.default_rng(groups)
        x, kernel, bn = pool_setup(rng, dtype, groups, True)
        half = rng.integers(-1, 2, (1, x.shape[1], 16, 12)).astype(dtype)
        x.data = np.concatenate([half, -half])
        odd = np.arange(bn.scale.size) % 2 == 1
        bn.scale.data = np.where(odd, -bn.scale.data, bn.scale.data)
        bn.shift.data = np.full(bn.scale.size, -0.0, dtype)
        bn.running_mean = np.where(odd, -0.0, 0.0).astype(dtype)
        x2, kernel2, bn2 = twin(x, kernel, bn)
        z = ops.batchnorm(ops.conv2d(x, kernel, groups=groups), bn, mode)
        ref = ops.maxpool2x2(ops.relu(z))
        maxima = ops._pool(z.data)
        assert (maxima < 0).any() and (maxima == 0).any()
        assert ((window_maxima(z.data) > 1) & (maxima > 0)).any()
        if mode == "eval":
            assert (np.signbit(maxima) & (maxima == 0)).any()
        out = ops.conv_bn_relu_pool(x2, kernel2, bn2, mode, groups)
        assert_bits(out.data, ref.data)
        assert_bits(bn2.running_mean, bn.running_mean)
        assert_bits(bn2.running_var, bn.running_var)
        coeffs = rng.standard_normal(ref.shape).astype(dtype)
        ops.project(ref, coeffs).backward()
        ops.project(out, coeffs).backward()
        for a, b in ((x2, x), (kernel2, kernel), (bn2.scale, bn.scale),
                     (bn2.shift, bn.shift)):
            assert_bits(a.grad, b.grad)

    def test_backward_makes_no_full_size_mask(self, monkeypatch):
        # the backward holds the recomputed float32 affine map (4 bytes
        # an element) and the routing's pooled-size masks (about 1 byte an
        # element); a full-size boolean mask would add 1 byte an element.
        # Blocks of two channels keep the batch-norm backward's buffers
        # below the routing's
        monkeypatch.setattr(ops, "_BN_BLOCK_BYTES", 1)
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 8, 32, 32)).astype(np.float32))
        kernel = Tensor(rng.standard_normal((64, 8, 3, 3)).astype(np.float32))
        bn = BatchNormParams(64)
        node = ops.conv_bn_relu_pool(x, kernel, bn, "train", 1)
        g = rng.standard_normal(node.shape).astype(np.float32)
        map_elems = 4 * node.size
        tracemalloc.start()
        try:
            node._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bn.scale.grad is not None
        assert peak < 4 * map_elems + 1.5 * map_elems, (peak, map_elems)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_graph_free_output_equal(self, mode):
        x, kernel, bn = pool_setup(np.random.default_rng(9), np.float32, 2,
                                   True)
        x2, kernel2, bn2 = twin(x, kernel, bn)
        recorded = ops.conv_bn_relu_pool(x, kernel, bn, mode, 2)
        with no_grad():
            free = ops.conv_bn_relu_pool(x2, kernel2, bn2, mode, 2)
        assert recorded._backward is not None and free._backward is None
        assert_bits(free.data, recorded.data)
        assert_bits(bn2.running_mean, bn.running_mean)

    def test_node_holds_no_relu_map(self):
        # while the node lives it holds the convolution output and the
        # pooled map, a quarter of it; the two-op chain also held the
        # full-size ReLU map
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 16, 64, 64)).astype(np.float32),
                   requires_grad=True)
        kernel = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32),
                        requires_grad=True)
        bn = BatchNormParams(16)
        conv_bytes = x.data.nbytes
        tracemalloc.start()
        try:
            node = ops.conv_bn_relu_pool(x, kernel, bn, "train", 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert node._backward is not None
        assert held < 1.25 * conv_bytes + 65536, (held, conv_bytes)

    def test_odd_extents_raise_before_statistics_update(self):
        x, kernel, bn = conv_bn_setup(np.random.default_rng(4), np.float64, 1)
        x.data = x.data[:, :, :7]
        mean = bn.running_mean.copy()
        with pytest.raises(ShapeError, match="even"):
            ops.conv_bn_relu_pool(x, kernel, bn, "train", 1)
        assert_bits(bn.running_mean, mean)

    def test_masked_non_finite_conv_output_raises(self):
        # -inf in a window whose max is finite: the pooled map alone
        # would hide it, so the check comes before the ReLU and the pool
        x = Tensor(np.array([[[[-np.inf, 1.0], [2.0, 3.0]]]], np.float32))
        kernel = Tensor(np.ones((1, 1, 1, 1), np.float32), requires_grad=True)
        for record in (True, False):
            with pytest.raises(NumericalError, match="conv_bn_relu_pool"):
                if record:
                    ops.conv_bn_relu_pool(x, kernel, BatchNormParams(1),
                                          "eval", 1)
                else:
                    with no_grad():
                        ops.conv_bn_relu_pool(x, kernel, BatchNormParams(1),
                                              "eval", 1)


def whole_array_bn_backward(x, params, mode, g):
    """The batch-norm backward over whole arrays, one temporary per
    step: (dx, scale gradient, shift gradient) for upstream g."""
    n, c, h, w = x.shape
    m = n * h * w
    if mode == "train":
        mean = x.sum(axis=(0, 2, 3)) / m
        d = x - mean[:, None, None]
        d *= d
        var = d.sum(axis=(0, 2, 3)) / m
    else:
        mean = params.running_mean.astype(x.dtype)
        var = params.running_var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + params.epsilon)
    a = params.scale.data * inv_std
    gsum = g.sum(axis=(0, 2, 3))
    xhat = (x - mean[:, None, None]) * inv_std[:, None, None]
    gxhat = (g * xhat).sum(axis=(0, 2, 3))
    if mode == "train":
        xhat *= (gxhat / m)[:, None, None]
        dx = g - (gsum / m)[:, None, None]
        dx -= xhat
        dx *= a[:, None, None]
    else:
        dx = g * a[:, None, None]
    return dx, gxhat, gsum


class TestBlockedBatchNormBackward:
    """The batch-norm backward works in blocks of channels and writes dx
    into the buffer it is handed; its results equal the whole-array
    backward bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", [
        (3, 8, 64, 64), (3, 12, 16, 20), (3, 24, 32, 32), (3, 64, 32, 32),
        (3, 128, 16, 16), (3, 256, 8, 8), (2, 5, 7, 3), (3, 3, 9, 9),
        (2, 1, 4, 4)])
    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_bit_equal_to_whole_array(self, dtype, mode, shape, block_bytes,
                                      monkeypatch):
        # block_bytes None keeps the default; 1 makes blocks of two or
        # three channels
        if block_bytes is not None:
            monkeypatch.setattr(ops, "_BN_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(shape[1])
        c = shape[1]
        bn = BatchNormParams(c, dtype=dtype)
        bn.scale.data = (1.0 + 0.5 * rng.standard_normal(c)).astype(dtype)
        bn.running_mean = rng.standard_normal(c).astype(dtype)
        bn.running_var = rng.uniform(0.5, 2.0, c).astype(dtype)
        x = (rng.standard_normal(shape) * 2 + 1).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        dx, dscale, dshift = whole_array_bn_backward(x, bn, mode, g)
        buf = g.copy()
        assert ops._bn(x, bn, mode)[2](buf) is buf
        assert_bits(buf, dx)
        assert_bits(bn.scale.grad, dscale)
        assert_bits(bn.shift.grad, dshift)

    def test_input_without_grad_keeps_scale_and_shift_bits(self):
        # the backward always computes dx; batchnorm accumulates it only
        # into an input that requires a gradient, and the scale and shift
        # gradients do not depend on whether it does
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8, 16, 16))
        g = rng.standard_normal(x.shape)
        grads = []
        for requires_grad in (False, True):
            bn = BatchNormParams(8, np.float64)
            xt = Tensor(x, requires_grad=requires_grad)
            ops.project(ops.batchnorm(xt, bn, "train"), g).backward()
            assert (xt.grad is None) != requires_grad
            grads.append((bn.scale.grad, bn.shift.grad))
        for without, with_dx in zip(*grads):
            assert_bits(without, with_dx)

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 8, 64, 256])
    @pytest.mark.parametrize("channel_bytes", [1, 12288, 1 << 20])
    def test_blocks_cover_channels_with_none_of_one(self, c, channel_bytes):
        blocks = ops._channel_blocks(c, channel_bytes)
        assert [i for cs in blocks for i in range(c)[cs]] == list(range(c))
        assert all(cs.stop - cs.start >= min(2, c) for cs in blocks)
        # about _BN_BLOCK_BYTES each, or three channels at most where
        # blocks of two or three channels are already larger
        assert all(cs.stop - cs.start <= max(3, ops._BN_BLOCK_BYTES
                                             // channel_bytes + 1)
                   for cs in blocks)


class TestActivations:
    def test_relu_values(self):
        out = ops.relu(Tensor(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)))
        np.testing.assert_array_equal(out.data.reshape(-1), [0, 0, 2])

    def test_relu_gradient_zero_at_and_below_zero(self):
        x = Tensor(np.array([[[[-2.0, -0.0, 0.0, 1e-300, 3.0]]]]),
                   requires_grad=True)
        g = np.array([5.0, 7.0, 11.0, 13.0, 17.0]).reshape(1, 1, 1, 5)
        ops.project(ops.relu(x), g).backward()
        np.testing.assert_array_equal(x.grad.reshape(-1), [0, 0, 0, 13, 17])

    def test_sigmoid_tanh_at_zero(self):
        z = Tensor(np.zeros((1, 1, 1, 1)))
        assert ops.sigmoid(z).data[0, 0, 0, 0] == 0.5
        assert ops.tanh(z).data[0, 0, 0, 0] == 0.0

    def test_ranges(self):
        rng = np.random.default_rng(8)
        # magnitudes kept below ~15 so float64 tanh stays strictly inside
        # the open interval instead of rounding to +-1
        x = Tensor(np.clip(rng.standard_normal((2, 2, 3, 3)) * 5, -15, 15))
        s = ops.sigmoid(x).data
        t = ops.tanh(x).data
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))
        assert np.all(ops.relu(x).data >= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_expit_matches_two_branch_form_bit_for_bit(self, dtype):
        # the two-branch form expit had before, kept as the oracle
        def two_branch(z):
            with np.errstate(over="ignore"):
                e = np.exp(-np.abs(z))
                return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        info = np.finfo(dtype)
        edges = [0.0, info.smallest_subnormal, info.tiny, 1e-8, 0.5, 1.0,
                 17.0, 88.7, 745.0, info.max, np.inf]
        z = np.array(edges + [-v for v in edges], dtype=dtype)
        z = np.concatenate([z, (np.random.default_rng(10).standard_normal(
            1000) * 30).astype(dtype)])
        out = ops.expit(z)
        assert out.dtype == dtype
        assert out.tobytes() == two_branch(z).tobytes()

    @pytest.mark.parametrize("fn", [ops.sigmoid, ops.tanh])
    def test_gradients_match_fd(self, fn):
        rng = np.random.default_rng(9)
        ts = {"x": Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)}
        coeffs = rng.standard_normal((2, 2, 3, 3))
        report = grad_check(lambda: ops.project(fn(ts["x"]), coeffs), ts,
                            tolerance=1e-4)
        assert report.passed, report.max_rel_error


class TestElementwiseMul:
    def test_identity_and_commutativity(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(
            ops.elementwise_mul(Tensor(a), Tensor(np.ones_like(a))).data, a)
        np.testing.assert_array_equal(
            ops.elementwise_mul(Tensor(a), Tensor(b)).data,
            ops.elementwise_mul(Tensor(b), Tensor(a)).data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.elementwise_mul(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 1))))

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        ts = {"a": Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True),
              "b": Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)}
        coeffs = rng.standard_normal((2, 3, 4, 4))
        report = grad_check(
            lambda: ops.project(ops.elementwise_mul(ts["a"], ts["b"]), coeffs),
            ts, tolerance=1e-4)
        assert report.passed


class TestTake:
    def test_value_is_the_row_as_a_view(self):
        x = Tensor(np.arange(24.0).reshape(4, 3, 2))
        out = ops.take(x, 2)
        assert out.shape == (1, 3, 2)
        assert_bits(out.data, x.data[2:3])
        assert np.shares_memory(out.data, x.data)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_out_of_range_index_raises(self, i):
        with pytest.raises(ShapeError, match="out of range"):
            ops.take(Tensor(np.zeros((4, 3))), i)

    @pytest.mark.parametrize("i", [0, 2])
    def test_gradcheck_reaches_only_row_i(self, i):
        rng = np.random.default_rng(12)
        ts = {"x": Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)}
        coeffs = rng.standard_normal((1, 2, 4, 4))
        report = grad_check(
            lambda: ops.project(ops.take(ts["x"], i), coeffs), ts,
            tolerance=1e-4)
        assert report.passed, report.max_rel_error
        grad = ts["x"].grad
        assert_bits(grad[i:i + 1], coeffs)
        assert not np.delete(grad, i, axis=0).any()


class TestSoftmaxCeLoss:
    def test_uniform_logits_ln_k(self):
        logits = Tensor(np.zeros((1, 5, 3, 3)))
        labels = np.zeros((1, 3, 3), dtype=int)
        loss = ops.softmax_ce_loss(logits, labels, np.ones(5))
        np.testing.assert_allclose(float(loss.data), np.log(5), rtol=1e-12)
        np.testing.assert_allclose(ops.softmax(logits.data).sum(axis=1), 1.0,
                                   atol=1e-6)

    def test_one_hot_limit(self):
        labels = np.zeros((1, 2, 2), dtype=int)
        losses = []
        for mag in (1.0, 10.0, 100.0):
            logits = np.zeros((1, 3, 2, 2))
            logits[:, 0] = mag
            loss = ops.softmax_ce_loss(Tensor(logits), labels, np.ones(3))
            losses.append(float(loss.data))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((2, 4, 3, 3))
        labels = rng.integers(0, 4, size=(2, 3, 3))
        wts = rng.uniform(0.1, 3.0, size=4)
        loss = ops.softmax_ce_loss(Tensor(logits), labels, wts)
        total = 0.0
        for n in range(2):
            for y in range(3):
                for x in range(3):
                    z = logits[n, :, y, x]
                    p = np.exp(z) / np.exp(z).sum()
                    total += wts[labels[n, y, x]] * -np.log(p[labels[n, y, x]])
        np.testing.assert_allclose(float(loss.data), total / 18, rtol=1e-6)
        np.testing.assert_allclose(ops.softmax(logits).sum(axis=1), 1.0,
                                   atol=1e-6)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ShapeError, match="labels"):
            ops.softmax_ce_loss(Tensor(np.zeros((1, 3, 2, 2))),
                                np.full((1, 2, 2), 3), np.ones(3))

    def test_probabilities_normalized_for_extreme_logits(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((1, 5, 4, 4)) * 50
        np.testing.assert_allclose(ops.softmax(logits).sum(axis=1), 1.0,
                                   atol=1e-6)


def ogrid_softmax_ce(logits, labels, wts):
    """The loss and logits gradient of softmax_ce_loss, with the
    true-class entries read and updated through an np.ogrid index."""
    n, _, h, w = logits.shape
    probs = ops.softmax(logits)
    ni, hi, wi = np.ogrid[:n, :h, :w]
    p_true = probs[ni, labels, hi, wi]
    pix_w = wts[labels]
    floor = np.finfo(p_true.dtype).tiny
    loss = float((pix_w * -np.log(np.maximum(p_true, floor))).mean())
    d = probs.copy()
    d[ni, labels, hi, wi] -= 1.0
    d *= pix_w[:, None, :, :] * (1.0 / (n * h * w))
    return np.asarray(loss, dtype=logits.dtype), d


class TestSoftmaxCeGather:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [5, 7])
    def test_bit_equal_to_ogrid_form(self, dtype, k):
        rng = np.random.default_rng(k)
        logits = (3 * rng.standard_normal((2, k, 5, 6))).astype(dtype)
        labels = rng.integers(0, k, size=(2, 5, 6))
        wts = rng.uniform(0.5, 2.0, size=k).astype(dtype)
        t = Tensor(logits, requires_grad=True)
        loss = ops.softmax_ce_loss(t, labels, wts)
        loss.backward()
        ref_loss, ref_grad = ogrid_softmax_ce(logits, labels, wts)
        assert_bits(loss.data, ref_loss)
        assert_bits(t.grad, ref_grad)


class TestGradCheckHarness:
    def test_linear_op_near_exact(self):
        rng = np.random.default_rng(14)
        k = Tensor(rng.standard_normal((2, 2, 3, 3)))
        ts = {"x": Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)}
        coeffs = rng.standard_normal((1, 2, 4, 4))
        report = grad_check(lambda: ops.project(ops.conv2d(ts["x"], k, None),
                                                coeffs), ts, tolerance=1e-8)
        assert report.passed
        assert report.worst() <= 1e-8

    def test_corrupted_backward_fails(self):
        rng = np.random.default_rng(15)
        ts = {"x": Tensor(rng.standard_normal((2, 3)), requires_grad=True)}
        coeffs = rng.standard_normal((2, 3))

        def corrupted():
            x = ts["x"]
            out = ops.project(x, coeffs)
            orig = out._backward

            def bad(g):
                orig(g)
                x.grad[0, 0] *= 1.10  # +10% on one gradient entry
            out._backward = bad
            return out

        report = grad_check(corrupted, ts, tolerance=1e-4)
        assert not report.passed

    def test_kink_judged_by_one_sided_slope(self):
        # relu at exactly 0: the central difference is half the right
        # slope, the analytic gradient is the left slope (0)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 2, 3, 3))
        x[0, 1, 2, 0] = 0.0
        ts = {"x": Tensor(x, requires_grad=True)}
        coeffs = rng.standard_normal((1, 2, 3, 3))
        report = grad_check(lambda: ops.project(ops.relu(ts["x"]), coeffs),
                            ts, tolerance=1e-4)
        assert report.kinks == 1
        assert report.passed, report.max_rel_error

    def test_gradient_matching_no_slope_at_kink_fails(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 1, 2, 3))
        x[0, 0, 1, 1] = 0.0
        ts = {"x": Tensor(x, requires_grad=True)}
        coeffs = rng.standard_normal((1, 1, 2, 3))

        def corrupted():
            out = ops.relu(ts["x"])
            orig = out._backward

            def bad(g):
                orig(g)
                ts["x"].grad[0, 0, 1, 1] = 2.0 * g[0, 0, 1, 1]
            out._backward = bad
            return ops.project(out, coeffs)

        report = grad_check(corrupted, ts, tolerance=1e-4)
        assert report.kinks == 1
        assert not report.passed

    def test_smooth_op_off_by_five_tolerances_fails(self):
        # exp(10 x) with an analytic gradient 5e-4 too large: at step
        # 1e-4 its one-sided slopes differ by about 1e-3 from curvature
        # alone, and the gradient sits on one of them; the smaller step
        # shows the gap shrinking, so no entry counts as a kink
        rng = np.random.default_rng(18)
        ts = {"x": Tensor(0.3 * rng.standard_normal((2, 3)),
                          requires_grad=True)}
        coeffs = rng.standard_normal((2, 3))

        def exp10():
            x = ts["x"]
            e = np.exp(10.0 * x.data)

            def backward(g):
                x._accumulate(g * 10.0 * e * (1.0 + 5e-4))
            return ops.project(make_node(e, (x,), backward, "exp10"), coeffs)

        report = grad_check(exp10, ts, tolerance=1e-4)
        assert report.kinks == 0
        assert not report.passed
        assert report.worst() > 4e-4

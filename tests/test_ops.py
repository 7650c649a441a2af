"""Layer primitive contracts: forward oracles and gradient checks."""

import numpy as np
import pytest

from mmseqseg import ops
from mmseqseg.gradcheck import grad_check
from mmseqseg.ops import BatchNormParams
from mmseqseg.tensor import NumericalError, ShapeError, Tensor


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

    def test_even_kernel_same_padding_raises(self):
        with pytest.raises(ShapeError, match="odd kernel"):
            ops.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                       Tensor(np.zeros((1, 1, 2, 2))), None)

    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("k", [3, 5])
    def test_batched_non_square_matches_oracle(self, cin, k):
        rng = np.random.default_rng(10 * cin + k)
        x = rng.standard_normal((3, cin, 5, 7))
        kern = rng.standard_normal((2, cin, k, k))
        b = rng.standard_normal(2)
        out = ops.conv2d(Tensor(x), Tensor(kern), Tensor(b))
        np.testing.assert_allclose(out.data, naive_conv2d(x, kern, b, k // 2),
                                   atol=1e-12)

    def test_nonfinite_output_raises(self):
        x = Tensor(np.full((1, 1, 2, 2), 1e308))
        k = Tensor(np.full((1, 1, 1, 1), 1e308))
        with pytest.raises(NumericalError):
            ops.conv2d(x, k, None)


class TestIm2col:
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
        out = ops.conv_transpose2d(Tensor(x), Tensor(k), None).data
        expect = np.zeros((1, 1, 4, 4))
        expect[0, 0, ::2, ::2] = x[0, 0]
        np.testing.assert_array_equal(out, expect)

    def test_adjoint_of_conv_oracle(self):
        # forward conv_transpose equals the input-gradient of a stride-2
        # conv with the transposed kernel, computed by direct loops
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 4, 4))
        k = rng.standard_normal((2, 3, 2, 2))  # (Cin, Cout, 2, 2)
        out = ops.conv_transpose2d(Tensor(x), Tensor(k), None).data
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

    def test_exactly_doubles_extents(self):
        for h, w in [(1, 1), (3, 5), (4, 4)]:
            out = ops.conv_transpose2d(Tensor(np.zeros((1, 2, h, w))),
                                       Tensor(np.zeros((2, 2, 2, 2))), None)
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

    def test_single_element_train_raises(self):
        bn = BatchNormParams(1)
        with pytest.raises(ShapeError):
            ops.batchnorm(Tensor(np.zeros((1, 1, 1, 1))), bn, "train")


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


class TestSoftmaxCeLoss:
    def test_uniform_logits_ln_k(self):
        logits = Tensor(np.zeros((1, 5, 3, 3)))
        labels = np.zeros((1, 3, 3), dtype=int)
        loss, probs = ops.softmax_ce_loss(logits, labels, np.ones(5))
        np.testing.assert_allclose(float(loss.data), np.log(5), rtol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_one_hot_limit(self):
        labels = np.zeros((1, 2, 2), dtype=int)
        losses = []
        for mag in (1.0, 10.0, 100.0):
            logits = np.zeros((1, 3, 2, 2))
            logits[:, 0] = mag
            loss, _ = ops.softmax_ce_loss(Tensor(logits), labels, np.ones(3))
            losses.append(float(loss.data))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-10

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((2, 4, 3, 3))
        labels = rng.integers(0, 4, size=(2, 3, 3))
        wts = rng.uniform(0.1, 3.0, size=4)
        loss, probs = ops.softmax_ce_loss(Tensor(logits), labels, wts)
        total = 0.0
        for n in range(2):
            for y in range(3):
                for x in range(3):
                    z = logits[n, :, y, x]
                    p = np.exp(z) / np.exp(z).sum()
                    total += wts[labels[n, y, x]] * -np.log(p[labels[n, y, x]])
        np.testing.assert_allclose(float(loss.data), total / 18, rtol=1e-6)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ShapeError, match="labels"):
            ops.softmax_ce_loss(Tensor(np.zeros((1, 3, 2, 2))),
                                np.full((1, 2, 2), 3), np.ones(3))

    def test_probabilities_normalized_for_extreme_logits(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((1, 5, 4, 4)) * 50
        _, probs = ops.softmax_ce_loss(Tensor(logits),
                                       np.zeros((1, 4, 4), dtype=int), np.ones(5))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


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

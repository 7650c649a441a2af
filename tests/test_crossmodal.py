"""Modality stacking, CMC, and multiplicative fusion contracts."""

import numpy as np
import pytest

from mmseqseg import ops
from mmseqseg.crossmodal import CmcParams, cmc_forward, mrf_fuse, stack_modalities
from mmseqseg.gradcheck import grad_check
from mmseqseg.tensor import ShapeError, Tensor


def rand_maps(rng, m=4, shape=(1, 3, 5, 5)):
    return [Tensor(rng.standard_normal(shape)) for _ in range(m)]


class TestStackModalities:
    def test_identical_maps(self):
        x = np.arange(12.0).reshape(1, 3, 2, 2)
        stack = stack_modalities([Tensor(x.copy()) for _ in range(4)])
        assert stack.shape == (1, 3, 4, 2, 2)
        for m in range(4):
            np.testing.assert_array_equal(stack.data[:, :, m], x)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        maps = rand_maps(rng)
        stack = stack_modalities(maps)
        for m, orig in enumerate(maps):
            np.testing.assert_array_equal(stack.data[:, :, m], orig.data)

    def test_constant_placement(self):
        maps = [Tensor(np.full((1, 2, 3, 3), float(m + 1))) for m in range(4)]
        stack = stack_modalities(maps)
        for m in range(4):
            np.testing.assert_array_equal(stack.data[:, :, m],
                                          np.full((1, 2, 3, 3), m + 1.0))

    def test_batched_layout(self):
        rng = np.random.default_rng(1)
        maps = [Tensor(rng.standard_normal((2, 3, 4, 4))) for _ in range(4)]
        stack = stack_modalities(maps)
        assert stack.shape == (2, 3, 4, 4, 4)
        np.testing.assert_array_equal(stack.data[:, :, 2], maps[2].data)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            stack_modalities([Tensor(np.zeros((1, 2, 3, 3))),
                              Tensor(np.zeros((1, 2, 3, 4)))])


class TestCmcForward:
    def test_one_hot_selector_bit_exact(self):
        rng = np.random.default_rng(2)
        maps = rand_maps(rng)
        stack = stack_modalities(maps)
        for m in range(4):
            p = CmcParams(3, 4, dtype=np.float64)
            p.weights.data = np.zeros((3, 4))
            p.weights.data[:, m] = 1.0
            out = cmc_forward(stack, p)
            np.testing.assert_array_equal(out.data, maps[m].data)

    def test_uniform_weights_average(self):
        rng = np.random.default_rng(3)
        maps = rand_maps(rng)
        p = CmcParams(3, 4, dtype=np.float64)  # ctor default is 1/M
        out = cmc_forward(stack_modalities(maps), p)
        expect = np.mean([t.data for t in maps], axis=0)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(4)
        maps = rand_maps(rng, shape=(1, 2, 3, 3))
        p = CmcParams(2, 4, dtype=np.float64)
        p.weights.data = rng.standard_normal((2, 4))
        p.bias.data = rng.standard_normal(2)
        out = cmc_forward(stack_modalities(maps), p).data
        for c in range(2):
            for y in range(3):
                for x in range(3):
                    acc = p.bias.data[c]
                    for m in range(4):
                        acc += p.weights.data[c, m] * maps[m].data[0, c, y, x]
                    assert abs(out[0, c, y, x] - acc) < 1e-6

    def test_linearity_in_stack(self):
        rng = np.random.default_rng(5)
        p = CmcParams(3, 4, dtype=np.float64)
        p.weights.data = rng.standard_normal((3, 4))
        x = rng.standard_normal((1, 3, 4, 5, 5))
        y = rng.standard_normal((1, 3, 4, 5, 5))
        a, b = 1.7, -0.4
        lhs = cmc_forward(Tensor(a * x + b * y), p).data
        rhs = a * cmc_forward(Tensor(x), p).data + b * cmc_forward(Tensor(y), p).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        p = CmcParams(2, 4, dtype=np.float64)
        p.weights.data = rng.standard_normal((2, 4))
        ts = {"stack": Tensor(rng.standard_normal((1, 2, 4, 3, 3)),
                              requires_grad=True),
              "w": p.weights, "b": p.bias}
        coeffs = rng.standard_normal((1, 2, 3, 3))
        report = grad_check(lambda: ops.project(cmc_forward(ts["stack"], p),
                                                coeffs), ts, tolerance=1e-4)
        assert report.passed, report.max_rel_error

    def test_mismatched_weights_raise(self):
        p = CmcParams(3, 4)
        with pytest.raises(ShapeError):
            cmc_forward(Tensor(np.zeros((1, 2, 4, 3, 3))), p)


class TestMrfFuse:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 4))
        out = mrf_fuse(Tensor(a), Tensor(np.ones_like(a)))
        np.testing.assert_array_equal(out.data, a)

    def test_annihilator(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.standard_normal((3, 4, 4)))
        z = Tensor(np.zeros((3, 4, 4)))
        assert not np.any(mrf_fuse(a, z).data)
        assert not np.any(mrf_fuse(z, a).data)

    def test_commutativity(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.standard_normal((3, 4, 4)))
        b = Tensor(rng.standard_normal((3, 4, 4)))
        np.testing.assert_array_equal(mrf_fuse(a, b).data, mrf_fuse(b, a).data)

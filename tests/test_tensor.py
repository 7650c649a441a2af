"""Autograd core: no_grad recording and the graph-releasing backward sweep."""

import numpy as np
import pytest

from mmseqseg import ops, tensor
from mmseqseg.tensor import NumericalError, Tensor, no_grad


def _square_sum(x):
    # scalar x·x summed, with coefficients 1: sum(x_i * x_i)
    return ops.project(ops.elementwise_mul(x, x), np.ones(x.shape))


class TestNoGrad:
    def test_outputs_are_constants(self):
        x = Tensor(np.arange(6.0).reshape(1, 1, 2, 3), requires_grad=True)
        with no_grad():
            y = ops.relu(ops.add(x, x))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        np.testing.assert_array_equal(y.data, 2 * x.data)

    def test_finite_check_still_runs(self):
        x = Tensor(np.array([[np.inf, 1.0]]), requires_grad=True)
        with no_grad(), pytest.raises(NumericalError):
            ops.relu(x)

    def test_nests(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            with no_grad():
                assert ops.add(x, x)._backward is None
            assert ops.add(x, x)._backward is None
        assert ops.add(x, x)._backward is not None

    def test_restores_recording_after_exception(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                with no_grad():
                    1 / 0
        assert tensor._recording
        assert ops.add(x, x)._backward is not None


class TestBackwardReleasesGraph:
    def test_interior_nodes_released_leaves_keep_gradients(self):
        x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2), requires_grad=True)
        y = ops.elementwise_mul(x, x)
        z = ops.relu(y)
        loss = ops.project(z, np.ones(z.shape))
        loss.backward()
        for node in (y, z, loss):
            assert node._backward is None and node._parents == ()
            assert node.grad is not None
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_second_backward_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = _square_sum(x)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_through_consumed_subgraph_raises(self):
        # two losses over one shared node: the first sweep consumes it, so
        # the second would silently drop the shared path's gradient
        x = Tensor(np.arange(3.0), requires_grad=True)
        shared = ops.elementwise_mul(x, x)
        a = ops.project(shared, np.ones(3))
        b = ops.project(shared, np.full(3, 2.0))
        a.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            b.backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

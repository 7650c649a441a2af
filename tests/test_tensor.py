"""Autograd core: no_grad recording and the graph-releasing backward sweep."""

import threading

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
        assert tensor._recording.get()
        assert ops.add(x, x)._backward is not None

    def test_per_thread(self):
        # A enters, B enters, A leaves, B leaves: at every step each
        # thread sees only its own no_grad, and neither thread's exit
        # turns recording back on for the other
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        steps = [threading.Event() for _ in range(4)]
        seen = {}

        def records():
            return ops.add(x, x)._backward is not None

        def thread_a():
            seen["a before"] = records()
            with no_grad():
                steps[0].set()
                steps[1].wait(5)
                seen["a inside, b inside"] = records()
            seen["a after, b inside"] = records()
            steps[2].set()

        def thread_b():
            steps[0].wait(5)
            with no_grad():
                seen["b inside, a inside"] = records()
                steps[1].set()
                steps[2].wait(5)
                seen["b inside, a after"] = records()
            seen["b after"] = records()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        with no_grad():  # the main thread's no_grad reaches neither thread
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        assert seen == {"a before": True, "a inside, b inside": False,
                        "a after, b inside": True,
                        "b inside, a inside": False,
                        "b inside, a after": False, "b after": True}
        assert records()


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


class TestGradientAccumulation:
    def test_sweep_sums_its_contributions_before_a_held_gradient(self):
        # x holds 1e8 from a first sweep; a second uses x twice, with
        # contributions 3 and 3. In float32, (1e8 + 3) + 3 rounds to 1e8
        # but 1e8 + (3 + 3) to 1e8 + 8: the sweep's sum joins in one step
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        ops.project(x, np.full(1, 1e8)).backward()
        c = np.full(1, 3.0)
        ops.add(ops.project(x, c), ops.project(x, c)).backward()
        assert x.grad.dtype == np.float32
        assert x.grad[0] == np.float32(1e8) + np.float32(6.0) == 1e8 + 8


class TestCheckFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_raises(self, dtype, shape, bad):
        arr = np.ones(shape, dtype=dtype)
        assert tensor.check_finite(arr, "x") is arr
        for i in (0, arr.size - 1):
            arr.reshape(-1)[i] = bad
            with pytest.raises(NumericalError, match="non-finite values in x"):
                tensor.check_finite(arr, "x")
            arr.reshape(-1)[i] = 1.0

    def test_large_finite_and_empty_arrays_pass(self):
        big = np.full((2, 3), np.finfo(np.float32).max, dtype=np.float32)
        empty = np.zeros((0, 3))
        assert tensor.check_finite(big, "x") is big
        assert tensor.check_finite(empty, "x") is empty

"""Minimal reverse-mode autodiff tensor.

Holds a dense numpy array plus an optional gradient and a backward
closure. Operations live in ops.py and build the graph; calling
``backward()`` on a scalar output accumulates gradients into every
reachable tensor with ``requires_grad=True``.

Memory: inside ``no_grad()`` ops record no parents and no backward
closure, so the buffers a closure would save (pooling inputs,
batch-norm inputs) die as soon as the op returns; ``network.forward``
(and with it predict and eval) runs that way. A convolution saves no
im2col patches even when recording: its backward rebuilds each image's
patches from the input, which the graph already holds as a parent. An
encoder stage's node (``ops.conv_bn_relu_pool``) saves its convolution
output and its pooled map and makes no full-size ReLU map: it takes the
ReLU after the pool, and its backward recomputes the batch-norm affine
from the convolution output and routes the gradient on it. The
batch-norm backward works one block of channels at a time and writes
the input gradient into the buffer its caller hands it, never into a
tensor's ``grad``. Recording is per thread: ``no_grad()`` in one thread
leaves every other thread's ops recording, and a pool thread does not
inherit its caller's ``no_grad()``, so the window loop that
``network.predict_volume`` runs on every thread enters ``no_grad()``
itself. The backward sweep releases each node's closure
and parents once it has run, so a saved buffer is freed as soon as it is
dead, and one ``backward()`` consumes the graph.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class NumericalError(ArithmeticError):
    """A forward or backward value came out NaN/Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def check_finite(arr, what):
    # counting the finite entries costs less than ndarray.all's reduce on
    # the small arrays most nodes hold
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NumericalError(f"non-finite values in {what}")
    return arr


# False inside no_grad(); each thread starts with its own value, True
_recording = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Ops inside build no graph: outputs carry no parents and no
    backward closure. Nests, and restores recording on exit, also when
    an exception leaves the block. Holds for the calling thread only."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def records_graph(parents):
    """Whether an op over `parents` records a graph node: outside
    no_grad(), with at least one parent that needs a gradient."""
    if _recording.get():
        for p in parents:
            if p.requires_grad:
                return True
    return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_swept")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._swept = False  # set once a backward sweep released this node

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=False)
        else:
            self.grad = self.grad + g

    def backward(self, seed=None):
        """Reverse-mode sweep from a scalar output.

        seed optionally replaces the default gradient of 1 (used to
        scale contributions when averaging losses over a batch).

        One backward consumes the graph: each node drops its backward
        closure and its parents once the sweep has passed it, so the
        buffers the closure saved are freed as soon as they are dead.
        Gradients stay on every tensor that received one. A tensor that
        already holds a gradient gets the sum of this sweep's
        contributions added to it in one step, so a batch's gradient is
        the sum of its samples' gradients however many times each
        sample's graph uses the tensor. A second backward() through any
        released node raises RuntimeError.
        """
        if self.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._swept:
                raise RuntimeError("backward() already ran on this graph")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        held = [(n, n.grad) for n in topo
                if n.grad is not None and n is not self]
        for node, _ in held:
            node.grad = None
        if seed is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad = np.full_like(self.data, seed)
        while topo:
            node = topo.pop()  # reverse topological order
            if node._backward is None:
                continue
            if node.grad is not None:
                check_finite(node.grad, "gradient (backward sweep)")
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            node._swept = True
        for node, g in held:
            node.grad = g if node.grad is None else g + node.grad


def make_node(data, parents, backward, what):
    """Build a graph tensor from already-computed forward data. Under
    no_grad() the output is a plain constant and `backward` is dropped."""
    check_finite(data, what)
    out = Tensor(data)
    if records_graph(parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out

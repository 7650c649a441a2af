"""Minimal reverse-mode autodiff tensor.

Holds a dense numpy array plus an optional gradient and a backward
closure. Operations live in ops.py and build the graph; calling
``backward()`` on a scalar output accumulates gradients into every
reachable tensor with ``requires_grad=True``.
"""

import numpy as np


class NumericalError(ArithmeticError):
    """A forward or backward value came out NaN/Inf."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {what}")
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        if seed is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad = np.full_like(self.data, seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                check_finite(node.grad, "gradient (backward sweep)")
                node._backward(node.grad)


def make_node(data, parents, backward, what="op output"):
    """Build a graph tensor from already-computed forward data."""
    check_finite(data, what)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out

"""Modality stacking, cross-modality convolution, and multiplicative
multi-resolution fusion.

The CMC layer holds one length-M filter per channel stack (a 4x1x1
kernel over the modality axis): it weights each modality's feature map
and sums, preserving the channel count.
"""

import numpy as np

from .ops import elementwise_mul
from .tensor import ShapeError, Tensor, make_node


class CmcParams:
    """weights (C, M): per-channel modality filter; bias (C,)."""

    def __init__(self, channels, modalities=4, dtype=np.float32):
        self.weights = Tensor(
            np.full((channels, modalities), 1.0 / modalities, dtype=dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)


def stack_modalities(per_modality):
    """Stack M same-shape (N,C,h,w) feature maps along a new modality
    axis right after the channel axis: (N,C,M,h,w). Pure re-indexing.
    """
    if not per_modality:
        raise ShapeError("stack_modalities needs at least one modality")
    shape0 = per_modality[0].shape
    for t in per_modality:
        if t.shape != shape0:
            raise ShapeError(
                f"modality shape mismatch: {t.shape} vs {shape0}"
            )
    if len(shape0) != 4:
        raise ShapeError("stack_modalities expects (N,C,h,w) maps")
    data = np.stack([t.data for t in per_modality], axis=2)

    def backward(g):
        pieces = np.moveaxis(g, 2, 0)
        for m, t in enumerate(per_modality):
            if t.requires_grad:
                t._accumulate(pieces[m])

    return make_node(data, tuple(per_modality), backward, "stack_modalities output")


def cmc_forward(stack, params):
    """out[n,c,y,x] = sum_m weights[c,m] * stack[n,c,m,y,x] + bias[c]."""
    c, m = params.weights.shape
    if stack.ndim != 5 or stack.shape[1:3] != (c, m):
        raise ShapeError(
            f"cmc_forward: stack {stack.shape} does not match weights {(c, m)}"
        )
    w, b = params.weights, params.bias
    out = np.einsum("ncmyx,cm->ncyx", stack.data, w.data)
    out += b.data[None, :, None, None]

    def backward(g):
        if stack.requires_grad:
            stack._accumulate(np.einsum("ncyx,cm->ncmyx", g, w.data))
        if w.requires_grad:
            w._accumulate(np.einsum("ncyx,ncmyx->cm", g, stack.data))
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))

    return make_node(out, (stack, w, b), backward, "cmc_forward output")


def mrf_fuse(cmc_map, decoder_map):
    """Multiplicative multi-resolution fusion of two same-shape maps."""
    return elementwise_mul(cmc_map, decoder_map)

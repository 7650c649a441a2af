"""Modality stacking, cross-modality convolution, and multiplicative
multi-resolution fusion.

The encoder's grouped map (N, M*C, h, w) holds modality m's channels in
channel group m; the modality stack (N, M, C, h, w) is a view of it. The
CMC layer holds one length-M filter per channel stack (a 4x1x1 kernel
over the modality axis): it weights each modality's feature map and
sums, preserving the channel count.
"""

import numpy as np

from .ops import elementwise_mul
from .tensor import ShapeError, Tensor, make_node


class CmcParams:
    """weights (C, M): per-channel modality filter; bias (C,)."""

    def __init__(self, channels, modalities, dtype=np.float32):
        self.weights = Tensor(
            np.full((channels, modalities), 1.0 / modalities, dtype=dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)


def stack_modalities(grouped, modalities):
    """The modality stack (N,M,C,h,w) of a grouped map (N,M*C,h,w) whose
    channels m*C ... (m+1)*C - 1 are modality m's. Pure re-indexing: the
    stack is a view of the grouped map.
    """
    if grouped.ndim != 4:
        raise ShapeError("stack_modalities expects a grouped (N,M*C,h,w) map")
    n, mc, h, w = grouped.shape
    if modalities < 1 or mc % modalities:
        raise ShapeError(f"stack_modalities: {mc} channels do not split "
                         f"into {modalities} modalities")

    def backward(g):
        if grouped.requires_grad:
            grouped._accumulate(g.reshape(grouped.shape))

    data = grouped.data.reshape(n, modalities, mc // modalities, h, w)
    return make_node(data, (grouped,), backward, "stack_modalities output")


def cmc_forward(stack, params):
    """out[n,c,y,x] = sum_m weights[c,m] * stack[n,m,c,y,x] + bias[c]."""
    c, m = params.weights.shape
    if stack.ndim != 5 or stack.shape[1:3] != (m, c):
        raise ShapeError(
            f"cmc_forward: stack {stack.shape} does not match weights {(c, m)}"
        )
    w, b = params.weights, params.bias
    out = np.einsum("nmcyx,cm->ncyx", stack.data, w.data)
    out += b.data[None, :, None, None]

    def backward(g):
        if stack.requires_grad:
            stack._accumulate(np.einsum("ncyx,cm->nmcyx", g, w.data))
        if w.requires_grad:
            w._accumulate(np.einsum("ncyx,nmcyx->cm", g, stack.data))
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))

    return make_node(out, (stack, w, b), backward, "cmc_forward output")


def mrf_fuse(cmc_map, decoder_map):
    """Multiplicative multi-resolution fusion of two same-shape maps."""
    return elementwise_mul(cmc_map, decoder_map)

"""Convolutional LSTM cell and sequence unroll.

Gates use same-padded convolutions so hidden maps keep the input's
spatial extents; weights are shared across all timesteps.
"""

import numpy as np

from .ops import add, conv2d, elementwise_mul, sigmoid, tanh
from .tensor import ShapeError, Tensor


class ConvLstmParams:
    """Eight gate kernels plus four per-channel biases.

    Input-to-state kernels are (Ch, Cx, k, k); state-to-state kernels
    are (Ch, Ch, k, k).
    """

    GATES = ("i", "f", "c", "o")

    def __init__(self, in_channels, hidden_channels, kernel_size=3,
                 dtype=np.float32):
        if kernel_size % 2 == 0:
            raise ShapeError("convLSTM kernel size must be odd for same padding")
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        self.kernel_size = kernel_size
        k = kernel_size
        z = lambda *s: Tensor(np.zeros(s, dtype=dtype), requires_grad=True)
        for g in self.GATES:
            setattr(self, f"W_x{g}", z(hidden_channels, in_channels, k, k))
            setattr(self, f"W_h{g}", z(hidden_channels, hidden_channels, k, k))
            setattr(self, f"b_{g}", z(hidden_channels))

    def named_tensors(self, prefix=""):
        out = {}
        for g in self.GATES:
            out[f"{prefix}W_x{g}"] = getattr(self, f"W_x{g}")
            out[f"{prefix}W_h{g}"] = getattr(self, f"W_h{g}")
            out[f"{prefix}b_{g}"] = getattr(self, f"b_{g}")
        return out


class ConvLstmState:
    """Hidden and cell maps, same shape (N, Ch, h, w)."""

    def __init__(self, h, c):
        if h.shape != c.shape:
            raise ShapeError("hidden and cell state must share shape")
        self.h = h
        self.c = c

    @classmethod
    def zeros(cls, n, channels, hs, ws, dtype=np.float32):
        return cls(Tensor(np.zeros((n, channels, hs, ws), dtype=dtype)),
                   Tensor(np.zeros((n, channels, hs, ws), dtype=dtype)))


def _gate(x_t, h_prev, wx, wh, b):
    return add(conv2d(x_t, wx, b), conv2d(h_prev, wh, None))


def convlstm_step(x_t, state, params):
    """One recurrence step; returns (h_t, next_state)."""
    if x_t.shape[-2:] != state.h.shape[-2:]:
        raise ShapeError(
            f"input spatial {x_t.shape[-2:]} does not match state "
            f"{state.h.shape[-2:]}"
        )
    p = params
    i_t = sigmoid(_gate(x_t, state.h, p.W_xi, p.W_hi, p.b_i))
    f_t = sigmoid(_gate(x_t, state.h, p.W_xf, p.W_hf, p.b_f))
    g_t = tanh(_gate(x_t, state.h, p.W_xc, p.W_hc, p.b_c))
    o_t = sigmoid(_gate(x_t, state.h, p.W_xo, p.W_ho, p.b_o))
    c_t = add(elementwise_mul(state.c, f_t), elementwise_mul(i_t, g_t))
    h_t = elementwise_mul(o_t, tanh(c_t))
    return h_t, ConvLstmState(h_t, c_t)


def convlstm_sequence(xs, params):
    """Unroll over a list of inputs with shared weights from a zero
    state; returns all h_t."""
    if not xs:
        raise ShapeError("convlstm_sequence needs at least one input")
    n, _, hs, ws = xs[0].shape
    state = ConvLstmState.zeros(n, params.hidden_channels, hs, ws,
                                dtype=xs[0].dtype)
    hs_out = []
    for x_t in xs:
        h_t, state = convlstm_step(x_t, state, params)
        hs_out.append(h_t)
    return hs_out

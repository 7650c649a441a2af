"""Convolutional LSTM cell and sequence unroll.

Gates use same-padded convolutions so hidden maps keep the input's
spatial extents; weights are shared across all timesteps.

The parameters are stored gate-stacked along the output-channel axis in
i, f, c, o order: one (4*Ch, Cx, k, k) input kernel, one (4*Ch, Ch, k,
k) recurrent kernel and one (4*Ch,) bias (the form of Shi et al. 2015).
A sequence is one (T, Cx, h, w) tensor, the T steps of a single
sequence, and its output is the (T, Ch, h, w) tensor of h_1 ... h_T.
The input convolution does not depend on the recurrence, so a sequence
runs it once over all T inputs. Step t takes its row of that projection
(ops.take), adds the recurrent convolution of h_{t-1} to it (ops.add;
neither at t=0, where h is zero) and makes two cell nodes on the sum,
c_t = f*c_{t-1} + i*g and h_t = o*tanh(c_t). One concat0 joins the T
hidden maps.
"""

import numpy as np

from .ops import add, concat0, conv2d, expit, take
from .tensor import ShapeError, Tensor, make_node


class ConvLstmParams:
    """The gate-stacked kernels and bias: wx (4*Ch, Cx, k, k), wh
    (4*Ch, Ch, k, k) and b (4*Ch,), gate g in rows g*Ch ... (g+1)*Ch - 1
    of each, in GATES order."""

    GATES = ("i", "f", "c", "o")

    def __init__(self, in_channels, hidden_channels, kernel_size,
                 dtype=np.float32):
        if kernel_size % 2 == 0:
            raise ShapeError("convLSTM kernel size must be odd for same padding")
        self.hidden_channels = hidden_channels
        k, rows = kernel_size, 4 * hidden_channels
        z = lambda *s: Tensor(np.zeros(s, dtype=dtype), requires_grad=True)
        self.wx = z(rows, in_channels, k, k)
        self.wh = z(rows, hidden_channels, k, k)
        self.b = z(rows)

    def named_tensors(self, prefix):
        return {f"{prefix}wx": self.wx, f"{prefix}wh": self.wh,
                f"{prefix}b": self.b}

    def gate_records(self, prefix):
        """Each gate's input kernel, recurrent kernel and bias as views
        into the stacks, named `W_x<g>`, `W_h<g>` and `b_<g>`."""
        ch, out = self.hidden_channels, {}
        for i, g in enumerate(self.GATES):
            rows = slice(i * ch, (i + 1) * ch)
            out[f"{prefix}W_x{g}"] = self.wx.data[rows]
            out[f"{prefix}W_h{g}"] = self.wh.data[rows]
            out[f"{prefix}b_{g}"] = self.b.data[rows]
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


def _cell(z, c_prev):
    """One step of the cell on the stacked gate pre-activation z, the
    (N, 4*Ch, h, w) sum of the step's input and recurrent projections.
    Returns the nodes (h_t, c_t); each hands its share of dz to z."""
    ch = c_prev.shape[1]
    s = expit(z.data)  # one call over all four gates; the c rows go unused
    i, f, o = s[:, :ch], s[:, ch:2 * ch], s[:, 3 * ch:]
    g = np.tanh(z.data[:, 2 * ch:3 * ch])
    c = c_prev.data * f
    c += i * g
    tc = np.tanh(c)

    def c_backward(gc):
        dz = np.zeros(z.shape, dtype=z.dtype)
        dz[:, :ch] = gc * g * i * (1.0 - i)
        dz[:, ch:2 * ch] = gc * c_prev.data * f * (1.0 - f)
        dz[:, 2 * ch:3 * ch] = gc * i * (1.0 - g * g)
        if c_prev.requires_grad:
            c_prev._accumulate(gc * f)
        if z.requires_grad:
            z._accumulate(dz)

    def h_backward(gh):
        dz = np.zeros(z.shape, dtype=z.dtype)
        dz[:, 3 * ch:] = gh * tc * o * (1.0 - o)
        if c_t.requires_grad:
            c_t._accumulate(gh * o * (1.0 - tc * tc))
        if z.requires_grad:
            z._accumulate(dz)

    c_t = make_node(c, (z, c_prev), c_backward, "convLSTM cell state")
    h_t = make_node(o * tc, (z, c_t), h_backward, "convLSTM hidden state")
    return h_t, c_t


def convlstm_step(x_t, state, params):
    """One recurrence step; returns (h_t, next_state)."""
    if (x_t.shape[0], *x_t.shape[-2:]) != (state.h.shape[0], *state.h.shape[-2:]):
        raise ShapeError(
            f"input batch and spatial {x_t.shape} do not match state "
            f"{state.h.shape}"
        )
    h_t, c_t = _cell(add(conv2d(x_t, params.wx, params.b),
                         conv2d(state.h, params.wh, None)), state.c)
    return h_t, ConvLstmState(h_t, c_t)


def convlstm_sequence(x, params):
    """Unroll one sequence with shared weights from a zero state.

    x is one (T, Cx, h, w) tensor whose row t is step t's input.
    Returns the (T, Ch, h, w) tensor of h_1 ... h_T.
    """
    if x.ndim != 4 or x.shape[0] == 0:
        raise ShapeError(
            f"convlstm_sequence needs one (T, C, h, w) input with T >= 1, "
            f"got shape {x.shape}")
    zx = conv2d(x, params.wx, params.b)  # every step's input projection
    c = Tensor(np.zeros((1, params.hidden_channels) + x.shape[2:],
                        dtype=x.dtype))
    hs = []
    for t in range(x.shape[0]):
        z = take(zx, t)
        if hs:
            z = add(z, conv2d(hs[-1], params.wh, None))
        h_t, c = _cell(z, c)
        hs.append(h_t)
    return concat0(hs)

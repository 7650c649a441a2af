"""Differentiable layer primitives on the minimal autograd tensor.

All spatial ops take NCHW input and return C-contiguous NCHW arrays.
Convolution is same-padded cross-correlation (no kernel flip), lowered
to batched im2col: each image's patches form a (C*kh*kw, H*W) matrix,
filled tap by tap from shifted windows of the unpadded input (taps that
fall in the zero padding stay zero, so no padded copy is made). The
product of the (Cout, C*kh*kw) kernel matrix with it is already the
(Cout, H*W) NCHW output, so neither the patches nor the result is
transposed. Everything else is plain numpy on strided views.
"""

import numpy as np

from .tensor import ShapeError, Tensor, make_node


def _shift(n, d):
    # for an offset d: the slices out and src of range(n) with
    # out + d == src, both inside [0, n)
    lo = max(0, -d)
    hi = max(lo, min(n, n - d))
    return slice(lo, hi), slice(lo + d, hi + d)


def _taps(h, w, kh, kw):
    # each kernel tap (dy, dx) of a same-padded window with the output
    # pixels it reaches inside the image and the input pixels it reads
    for dy in range(kh):
        oy, iy = _shift(h, dy - kh // 2)
        for dx in range(kw):
            ox, ix = _shift(w, dx - kw // 2)
            yield dy, dx, (..., oy, ox), (..., iy, ix)


def _im2col(x, kh, kw):
    # x: (N, C, H, W) -> (N, C*kh*kw, H*W), same padding, stride 1
    n, c, h, w = x.shape
    col = np.zeros((n, c, kh, kw, h, w), dtype=x.dtype)
    for dy, dx, out_win, in_win in _taps(h, w, kh, kw):
        col[:, :, dy, dx][out_win] = x[in_win]
    return col.reshape(n, c * kh * kw, h * w)


def _col2im(col, x_shape, kh, kw):
    # adjoint of _im2col: scatter-add (N, C*kh*kw, H*W) into x_shape
    n, c, h, w = x_shape
    col = col.reshape(n, c, kh, kw, h, w)
    img = np.zeros(x_shape, dtype=col.dtype)
    for dy, dx, out_win, in_win in _taps(h, w, kh, kw):
        img[in_win] += col[:, :, dy, dx][out_win]
    return img


def conv2d(x, kernel, bias=None):
    """Same-padded cross-correlation, stride 1. kernel (Cout, Cin, kh, kw)
    with odd kh, kw."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW kernel")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, kernel {cin_k}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("same-padding needs odd kernel extents")

    col = _im2col(x.data, kh, kw)
    w_col = kernel.data.reshape(cout, -1)
    out = w_col @ col  # (N, Cout, H*W)
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        g = g.reshape(n, cout, h * w)
        if kernel.requires_grad:
            dk = (g @ col.transpose(0, 2, 1)).sum(axis=0)
            kernel._accumulate(dk.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            x._accumulate(_col2im(w_col.T @ g, x.shape, kh, kw))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return make_node(out.reshape(n, cout, h, w), parents, backward,
                     "conv2d output")


def conv_transpose2d(x, kernel, bias=None, stride=2):
    """Stride-2 transposed convolution with a 2x2 kernel (Cin, Cout, 2, 2).

    Windows are disjoint, so output extents are exactly doubled.
    """
    if stride != 2:
        raise ShapeError("conv_transpose2d supports stride 2 only")
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError("conv_transpose2d expects NCHW input and IOHW kernel")
    n, cin, h, w = x.shape
    cin_k, cout, kh, kw = kernel.shape
    if cin != cin_k:
        raise ShapeError(
            f"conv_transpose2d channel mismatch: input {cin}, kernel {cin_k}"
        )
    if (kh, kw) != (2, 2):
        raise ShapeError("conv_transpose2d supports 2x2 kernels only")

    out = np.empty((n, cout, 2 * h, 2 * w), dtype=x.dtype)
    for dy in range(2):
        for dx in range(2):
            # (N,Cin,H,W) x (Cin,Cout) -> (N,H,W,Cout)
            piece = np.tensordot(x.data, kernel.data[:, :, dy, dx], axes=([1], [0]))
            out[:, :, dy::2, dx::2] = piece.transpose(0, 3, 1, 2)
    if bias is not None:
        out += bias.data[None, :, None, None]

    def backward(g):
        if x.requires_grad:
            dx_acc = np.zeros(x.shape, dtype=x.dtype)
            for dy in range(2):
                for dx in range(2):
                    sub = g[:, :, dy::2, dx::2]
                    dx_acc += np.tensordot(
                        sub, kernel.data[:, :, dy, dx], axes=([1], [1])
                    ).transpose(0, 3, 1, 2)
            x._accumulate(dx_acc)
        if kernel.requires_grad:
            dk = np.empty(kernel.shape, dtype=kernel.dtype)
            for dy in range(2):
                for dx in range(2):
                    sub = g[:, :, dy::2, dx::2]
                    dk[:, :, dy, dx] = np.tensordot(
                        x.data, sub, axes=([0, 2, 3], [0, 2, 3])
                    )
            kernel._accumulate(dk)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return make_node(out, parents, backward, "conv_transpose2d output")


def maxpool2x2(x):
    """Disjoint 2x2 max pooling; gradient goes to the first max in
    row-major window order."""
    if x.ndim != 4:
        raise ShapeError("maxpool2x2 expects NCHW input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even extents, got {h}x{w}")
    # the four window positions in row-major order, as strided views
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    corners = [x.data[:, :, a::2, b::2] for a, b in offsets]
    out = np.maximum(corners[0], corners[1])
    np.maximum(out, corners[2], out=out)
    np.maximum(out, corners[3], out=out)

    def backward(g):
        if x.requires_grad:
            dx = np.empty(x.shape, dtype=x.dtype)
            free = np.ones(out.shape, dtype=bool)  # window not yet routed
            for (a, b), corner in zip(offsets, corners):
                hit = free & (corner == out)
                np.multiply(g, hit, out=dx[:, :, a::2, b::2])
                free &= ~hit
            x._accumulate(dx)

    return make_node(out, (x,), backward, "maxpool2x2 output")


class BatchNormParams:
    """Per-channel affine parameters and running statistics."""

    momentum = 0.9  # running-statistics decay
    epsilon = 1e-5

    def __init__(self, channels, dtype=np.float32):
        self.scale = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def batchnorm(x, params, mode="train"):
    """Per-channel batch normalization over the N, H, W axes."""
    if x.ndim != 4:
        raise ShapeError("batchnorm expects NCHW input")
    n, c, h, w = x.shape
    if params.scale.size != c:
        raise ShapeError(f"batchnorm channel mismatch: {params.scale.size} vs {c}")
    eps = params.epsilon
    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ShapeError("train-mode batchnorm needs N*H*W >= 2")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        params.running_mean = (
            params.momentum * params.running_mean
            + (1.0 - params.momentum) * mean.astype(params.running_mean.dtype)
        )
        params.running_var = (
            params.momentum * params.running_var
            + (1.0 - params.momentum) * var.astype(params.running_var.dtype)
        )
    elif mode == "eval":
        mean = params.running_mean.astype(x.dtype)
        var = params.running_var.astype(x.dtype)
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")

    inv_std = 1.0 / np.sqrt(var + eps)
    scale, shift = params.scale, params.shift
    # scale * (x - mean) * inv_std + shift as one per-channel affine
    a = scale.data * inv_std
    b = shift.data - mean * a
    out = x.data * a[:, None, None]
    out += b[:, None, None]

    def backward(g):
        gsum = g.sum(axis=(0, 2, 3))
        # xhat is recomputed here, not held from the forward
        xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
        gxhat = (g * xhat).sum(axis=(0, 2, 3))
        if shift.requires_grad:
            shift._accumulate(gsum)
        if scale.requires_grad:
            scale._accumulate(gxhat)
        if x.requires_grad:
            if mode == "train":
                xhat *= (gxhat / m)[:, None, None]
                dx = g - (gsum / m)[:, None, None]
                dx -= xhat
                dx *= a[:, None, None]
            else:
                dx = g * a[:, None, None]
            x._accumulate(dx)

    return make_node(out, (x, scale, shift), backward, "batchnorm output")


def relu(x):
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (out > 0))

    return make_node(out, (x,), backward, "relu output")


def sigmoid(x):
    with np.errstate(over="ignore"):
        s = np.where(
            x.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x.data))),
            np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))),
        )

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return make_node(s, (x,), backward, "sigmoid output")


def tanh(x):
    t = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - t * t))

    return make_node(t, (x,), backward, "tanh output")


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return make_node(a.data + b.data, (a, b), backward, "add output")


def elementwise_mul(a, b):
    """Hadamard product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return make_node(a.data * b.data, (a, b), backward, "elementwise_mul output")


def take(x, i):
    """Slice x[i:i+1] along axis 0, keeping the axis."""
    if not 0 <= i < x.shape[0]:
        raise ShapeError(f"take index {i} out of range for axis size {x.shape[0]}")

    def backward(g):
        if x.requires_grad:
            full = np.zeros(x.shape, dtype=x.dtype)
            full[i:i + 1] = g
            x._accumulate(full)

    return make_node(x.data[i:i + 1], (x,), backward, "take output")


def concat0(tensors):
    """Concatenate along axis 0."""
    if not tensors:
        raise ShapeError("concat0 of empty list")
    sizes = [t.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    data = np.concatenate([t.data for t in tensors], axis=0)
    return make_node(data, tuple(tensors), backward, "concat0 output")


def project(x, coeffs):
    """Scalar projection sum(x * coeffs) against a constant array.

    Used to scalarize multi-output ops for gradient checking.
    """
    coeffs = np.asarray(coeffs, dtype=x.dtype)
    if coeffs.shape != x.shape:
        raise ShapeError("projection coefficients must match tensor shape")

    def backward(g):
        if x.requires_grad:
            x._accumulate(float(g) * coeffs)

    return make_node(np.asarray((x.data * coeffs).sum(), dtype=x.dtype),
                     (x,), backward, "project output")


def softmax(logits_data, axis=1):
    """Plain-array softmax used for reporting probabilities."""
    z = logits_data - logits_data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_ce_loss(logits, labels, class_weights):
    """Per-pixel weighted softmax cross-entropy.

    logits (N,K,H,W), labels (N,H,W) integer class ids, class_weights (K,).
    Returns (scalar loss tensor, probability array). Loss is the plain
    mean over pixels of weight[label] * (-log p[label]).
    """
    if logits.ndim != 4:
        raise ShapeError("softmax_ce_loss expects NKHW logits")
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ShapeError(f"label shape {labels.shape} does not match logits")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"labels must lie in [0,{k}), got range "
                         f"[{labels.min()},{labels.max()}]")
    wts = np.asarray(class_weights, dtype=logits.dtype)
    if wts.shape != (k,):
        raise ShapeError("class_weights must have one entry per class")
    if np.any(wts < 0):
        raise ShapeError("class_weights must be nonnegative")

    probs = softmax(logits.data, axis=1)
    npix = n * h * w
    ni, hi, wi = np.ogrid[:n, :h, :w]
    p_true = probs[ni, labels, hi, wi]
    pix_w = wts[labels]
    # floor at the dtype's tiny: a float64 literal would underflow to 0
    # under float32 promotion and let a saturated softmax produce -inf
    floor = np.finfo(p_true.dtype).tiny
    loss = float((pix_w * -np.log(np.maximum(p_true, floor))).mean())

    # gradient: (probs - onehot) * weight[label] / npix, scaled by upstream g
    def backward(g):
        if logits.requires_grad:
            d = probs.copy()
            d[ni, labels, hi, wi] -= 1.0
            d *= pix_w[:, None, :, :] * (float(g) / npix)
            logits._accumulate(d)

    out = make_node(np.asarray(loss, dtype=logits.dtype), (logits,), backward,
                    "softmax_ce_loss output")
    return out, probs

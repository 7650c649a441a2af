"""Differentiable layer primitives on the minimal autograd tensor.

Convolutions are im2col + one big matmul; everything else is plain
numpy. Convolution is cross-correlation (no kernel flip). All spatial
ops take NCHW layout.
"""

import numpy as np

from .tensor import ShapeError, Tensor, make_node


def _im2col(x, kh, kw, pad):
    # x: (N, C, H, W) -> (N*Ho*Wo, C*kh*kw), stride 1
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    col = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for dy in range(kh):
        for dx in range(kw):
            col[:, :, dy, dx] = x[:, :, dy:dy + ho, dx:dx + wo]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * ho * wo, -1), ho, wo


def _col2im(col, x_shape, kh, kw, pad):
    # inverse scatter-add of _im2col
    n, c, h, w = x_shape
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    col = col.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for dy in range(kh):
        for dx in range(kw):
            img[:, :, dy:dy + ho, dx:dx + wo] += col[:, :, dy, dx]
    return img[:, :, pad:pad + h, pad:pad + w]


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
    pad = (kh - 1) // 2

    col, ho, wo = _im2col(x.data, kh, kw, pad)
    w_col = kernel.data.reshape(cout, -1)
    out = col @ w_col.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    def backward(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, cout)
        if kernel.requires_grad:
            kernel._accumulate((g2.T @ col).reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))
        if x.requires_grad:
            x._accumulate(_col2im(g2 @ w_col, x.shape, kh, kw, pad))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return make_node(out, parents, backward, "conv2d output")


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
    ho, wo = h // 2, w // 2
    win = (
        x.data.reshape(n, c, ho, 2, wo, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, ho, wo, 4)
    )
    idx = win.argmax(axis=-1)  # first max wins on ties
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if x.requires_grad:
            dwin = np.zeros_like(win)
            np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
            x._accumulate(
                dwin.reshape(n, c, ho, wo, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w)
            )

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
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = (
        params.scale.data[None, :, None, None] * xhat
        + params.shift.data[None, :, None, None]
    )
    scale, shift = params.scale, params.shift

    def backward(g):
        if shift.requires_grad:
            shift._accumulate(g.sum(axis=(0, 2, 3)))
        if scale.requires_grad:
            scale._accumulate((g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            coeff = scale.data[None, :, None, None] * inv_std[None, :, None, None]
            if mode == "train":
                gm = g.mean(axis=(0, 2, 3))[None, :, None, None]
                gx = (g * xhat).mean(axis=(0, 2, 3))[None, :, None, None]
                x._accumulate(coeff * (g - gm - xhat * gx))
            else:
                x._accumulate(coeff * g)

    return make_node(out, (x, scale, shift), backward, "batchnorm output")


def relu(x):
    mask = x.data > 0

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return make_node(x.data * mask, (x,), backward, "relu output")


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

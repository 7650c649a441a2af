"""Differentiable layer primitives on the minimal autograd tensor.

All spatial ops take NCHW input and return C-contiguous NCHW arrays.
Convolution is same-padded cross-correlation (no kernel flip), lowered
to im2col: an image's patches form a (C*kh*kw, H*W) matrix, made from
one zero-padded copy of the image as one copy of its (C, kh, kw, H, W)
window view. The product of the (Cout, C*kh*kw) kernel matrix with it
is already that image's (Cout, H*W) slab of the NCHW output, written in
place, so neither the patches nor the result is transposed; a grouped
convolution splits both into G blocks and takes their G products in one
matmul. The forward builds the patches of a band at a time, about a
megabyte, and writes each band's product into its rows of the output:
a band is every image of a batch whose patches fit, else a band of one
image's output rows. No patch matrix is kept for the backward: it
rebuilds each image's patches from the input, takes the kernel gradient
image by image and scatters the patch gradients back as the adjoint of
the padding and the window view, adding each tap's slab into a
zero-padded buffer where the view reads it.

`conv_bn_relu` is a convolution, its batch norm and a ReLU as one graph
node, equal bit for bit to `relu(batchnorm(conv2d(...)))`: it shares
the convolution and the batch-norm statistics, affine and backward with
`conv2d` and `batchnorm`, and runs the affine and the ReLU in the
buffers it owns. `conv_bn_relu_pool` adds the 2x2 max-pool of
`maxpool2x2` to that node, taking the ReLU on the pooled map, and keeps
only the convolution output and the pooled map; its backward recomputes
the batch-norm affine from the convolution output with the forward's
own ops. The batch-norm backward works in
blocks of channels and writes the input gradient into the buffer its
caller hands it. Everything else is plain numpy on strided views.
"""

import functools

import numpy as np

from . import tensor  # check_finite is looked up at each call, as in make_node
from .tensor import ShapeError, Tensor, make_node, records_graph

# most bytes of the patches one forward matmul of a convolution reads
# (a band of at least one output row): about half of a 2 MB L2, and the
# whole patch matrix of a small batch
_BAND_BYTES = 1 << 20

# about the bytes of input that one block of channels of a batch-norm
# backward covers
_BN_BLOCK_BYTES = 1 << 18


@functools.lru_cache(maxsize=256)
def _bands(h, w, row_bytes, band_bytes):
    # the bands of output rows of a block of h x w images whose patches
    # take row_bytes per row: (first row, rows, output columns) of each band.
    # As many bands as band_bytes of patches each need, their rows evened
    # out, so that no band is left with a few rows
    rows = -(-h // -(-h * row_bytes // band_bytes))
    return tuple((y, min(rows, h - y), slice(y * w, min(y + rows, h) * w))
                 for y in range(0, h, rows))


def _pad(x, kh, kw):
    # (N, C, H, W) -> its zero-padded (N, C, H + kh - 1, W + kw - 1) copy;
    # a 1x1 kernel pads nothing, so x itself (made C-contiguous, as the
    # window view of _patches needs)
    if kh == kw == 1:
        return np.ascontiguousarray(x)
    n, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    return padded


def _patches(padded, kh, kw, y, rows):
    # the (N, C*kh*kw, rows*W) patches of output rows y ... y+rows-1 of a
    # _pad-ded batch: one copy of its (N, C, kh, kw, rows, W) window view,
    # whose tap (dy, dx) is the padded image shifted by (dy, dx)
    n, c, _, wp = padded.shape
    w = wp - (kw - 1)
    sn, sc, sy, sx = padded.strides
    windows = np.ndarray((n, c, kh, kw, rows, w), padded.dtype, padded,
                         y * sy, (sn, sc, sy, sx, sy, sx))
    return windows.reshape(n, c * kh * kw, rows * w)


def _im2col(x, kh, kw):
    # x: (N, C, H, W) -> (N, C*kh*kw, H*W), same padding, stride 1
    return _patches(_pad(x, kh, kw), kh, kw, 0, x.shape[2])


def _col2im(col, x_shape, kh, kw):
    # adjoint of _im2col: each tap's slab of (N, C*kh*kw, H*W) is added,
    # taps in order, into a zero-padded buffer where _patches reads that
    # tap, and the padding is cut off
    n, c, h, w = x_shape
    col = col.reshape(n, c, kh, kw, h, w)
    padded = np.zeros((n, c, h + kh - 1, w + kw - 1), dtype=col.dtype)
    for dy in range(kh):
        for dx in range(kw):
            padded[:, :, dy:dy + h, dx:dx + w] += col[:, :, dy, dx]
    return padded[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w]


def _conv(x, kernel, groups):
    # the convolution shared by conv2d and conv_bn_relu: the
    # (N, Cout, H, W) output, owned by the caller, and the backward that
    # takes its gradient to x and kernel
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW kernel")
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = kernel.shape
    if cin != groups * cin_g:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, kernel "
                         f"{cin_g} per group x {groups} groups")
    if cout % groups:
        raise ShapeError(f"conv2d: {cout} output channels do not split "
                         f"into {groups} groups")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("same-padding needs odd kernel extents")

    # No patch matrix outlives the gemm that reads it. The forward takes
    # the batch in blocks of images, and each block in bands of output
    # rows whose patches fill about _BAND_BYTES; a block is the whole
    # batch when its patches fit in one band, so a small convolution
    # pads, copies and multiplies once, else one image. Each band's
    # product is written into its rows of the output: a band's patches
    # are exactly its images' patch columns of those rows, and the
    # stacked matmul takes one (G, Cout/G, K) x (G, K, columns) product
    # per image, so every output value is the same dot product. The
    # backward rebuilds each frame's whole (G, C/G*kh*kw, H*W) patches
    # from x.data, which the graph holds as a parent. That is exact
    # because nothing writes into an op's input after the op has run: the
    # in-place writes, the ReLU of conv_bn_relu and conv_bn_relu_pool,
    # happen before their output is consumed.
    w_col = kernel.data.reshape(groups, cout // groups, -1)
    out = np.empty((n, cout, h, w), dtype=np.result_type(w_col, x.data))
    row_bytes = cin * kh * kw * w * x.data.itemsize
    block = max(n, 1) if n * h * row_bytes <= _BAND_BYTES else 1
    bands = _bands(h, w, block * row_bytes, _BAND_BYTES)
    for i in range(0, n, block):
        padded = _pad(x.data[i:i + block], kh, kw)
        frames = out[i:i + block].reshape(block, groups, cout // groups, h * w)
        for y, band, cols in bands:
            np.matmul(w_col, _patches(padded, kh, kw, y, band).reshape(
                block, groups, -1, band * w), out=frames[..., cols])

    def frame_col(i):
        return _im2col(x.data[i:i + 1], kh, kw).reshape(groups, -1, h * w)

    def backward(g):
        g = g.reshape(n, groups, cout // groups, h * w)
        if kernel.requires_grad:
            # added frame by frame, in the order a sum over frames adds; the
            # (G, C/G*kh*kw, Cout/G) orientation is the faster gemm
            dk = frame_col(0) @ g[0].transpose(0, 2, 1)
            for i in range(1, n):
                dk += frame_col(i) @ g[i].transpose(0, 2, 1)
            kernel._accumulate(dk.transpose(0, 2, 1).reshape(kernel.shape))
        if x.requires_grad:
            dx = np.empty(x.shape, dtype=np.result_type(w_col, g))
            for i in range(n):
                dx[i] = _col2im(w_col.transpose(0, 2, 1) @ g[i],
                                (1,) + x.shape[1:], kh, kw)[0]
            x._accumulate(dx)

    return out, backward


def conv2d(x, kernel, bias=None, groups=1):
    """Same-padded cross-correlation, stride 1. kernel (Cout, Cin/groups,
    kh, kw) with odd kh, kw.

    With G groups, input channels g*Cin/G ... (g+1)*Cin/G - 1 feed only
    output channels g*Cout/G ... (g+1)*Cout/G - 1 (the grouped
    convolution of AlexNet and ResNeXt): the patches of each image split
    into G row blocks, and one matmul takes the product of each group's
    kernel matrix with its block. G = 1 is the plain convolution.
    """
    out, conv_backward = _conv(x, kernel, groups)
    if bias is not None:
        out += bias.data[:, None, None]

    def backward(g):
        if bias is not None and bias.requires_grad:
            n, cout = g.shape[:2]
            bias._accumulate(g.reshape(n, cout, -1).sum(axis=(0, 2)))
        conv_backward(g)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return make_node(out, parents, backward, "conv2d output")


def conv_transpose2d(x, kernel, bias):
    """Stride-2 transposed convolution with a 2x2 kernel (Cin, Cout, 2, 2).

    Windows are disjoint, so output extents are exactly doubled. The
    kernel, as a (Cout*2*2, Cin) matrix, times each image's (Cin, H*W)
    pixels gives every output pixel in one gemm; one re-layout moves the
    (Cout, dy, dx, H, W) result to (Cout, 2H+dy, 2W+dx). The backward
    re-lays the gradient out the other way and uses the same matrix.
    """
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

    w_mat = kernel.data.reshape(cin, 4 * cout).T  # rows (Cout, dy, dx)
    pixels = x.data.reshape(n, cin, h * w)
    taps = (w_mat @ pixels).reshape(n, cout, 2, 2, h, w)
    out = np.ascontiguousarray(taps.transpose(0, 1, 4, 2, 5, 3)).reshape(
        n, cout, 2 * h, 2 * w)
    out += bias.data[None, :, None, None]

    def backward(g):
        g_taps = np.ascontiguousarray(g.reshape(n, cout, h, 2, w, 2).transpose(
            0, 1, 3, 5, 2, 4)).reshape(n, 4 * cout, h * w)
        if x.requires_grad:
            x._accumulate((w_mat.T @ g_taps).reshape(x.shape))
        if kernel.requires_grad:
            dk = (pixels @ g_taps.transpose(0, 2, 1)).sum(axis=0)
            kernel._accumulate(dk.reshape(kernel.shape))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    return make_node(out, (x, kernel, bias), backward, "conv_transpose2d output")


def _check_poolable(shape):
    if len(shape) != 4:
        raise ShapeError("maxpool2x2 expects NCHW input")
    if shape[2] % 2 or shape[3] % 2:
        raise ShapeError(f"maxpool2x2 needs even extents, got "
                         f"{shape[2]}x{shape[3]}")


def _pool(x):
    # the disjoint 2x2 maxima of an (N, C, H, W) array: the max of each
    # row's column pairs, then of each pair of those rows. np.maximum
    # keeps its second operand on a tie, so this keeps the last maximum in
    # row-major window order, as a left-to-right max over the four corners
    # does; the order shows only in the sign of a zero maximum
    cols = np.maximum(x[:, :, :, 0::2], x[:, :, :, 1::2])
    return np.maximum(cols[:, :, 0::2], cols[:, :, 1::2])


def _route(x, out, g, dx, free):
    # the backward of out = _pool(x): g, out's gradient, goes to the first
    # maximum of each window in row-major order, in the windows that the
    # boolean array free (of out's shape, consumed) marks; every other
    # corner gets g times 0. Written into dx, of x's shape, and returned;
    # dx may be x itself, as each corner of x is read before the same
    # corner of dx is written. One boolean buffer serves every corner: as
    # hit is a subset of free, free ^= hit clears exactly the hit windows
    hit = np.empty(out.shape, dtype=bool)
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.equal(x[:, :, a::2, b::2], out, out=hit)
        hit &= free
        np.multiply(g, hit, out=dx[:, :, a::2, b::2])
        free ^= hit
    return dx


def maxpool2x2(x):
    """Disjoint 2x2 max pooling; gradient goes to the first max in
    row-major window order."""
    _check_poolable(x.shape)
    out = _pool(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_route(x.data, out, g, np.empty(x.shape, x.dtype),
                                 np.ones(out.shape, dtype=bool)))

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

    def update(self, mean, var):
        """Fold one batch's channel mean and variance into the running
        statistics, in place."""
        for run, batch in ((self.running_mean, mean), (self.running_var, var)):
            run *= self.momentum
            run += (1.0 - self.momentum) * batch.astype(run.dtype, copy=False)


def _channel_blocks(c, channel_bytes):
    # the channel slices of a batch-norm backward over c channels of
    # channel_bytes each: as few blocks as _BN_BLOCK_BYTES each need, their
    # sizes evened out, and none of one channel unless c is 1. A channel's
    # sum over (N, H, W) then adds the N images' H*W sums as the whole
    # array's does; in a one-channel block numpy sums all N*H*W values as
    # one run, which differs in the last bits
    k = min(max(1, c // 2), -(-c * channel_bytes // _BN_BLOCK_BYTES))
    return [slice(c * i // k, c * (i + 1) // k) for i in range(k)]


def _bn(x, params, mode):
    # the batch norm shared by batchnorm, conv_bn_relu and
    # conv_bn_relu_pool, over the (N, C, H, W) array x. Returns (a, b,
    # backward): the per-channel affine x * a + b, from the batch's
    # statistics in train mode (which also update the running
    # statistics), else from the running ones; and backward(g), which
    # takes an upstream gradient g to scale and shift, then writes the
    # gradient of x into g and returns it. So g must be a buffer the
    # caller owns, never a tensor's .grad
    n, c, h, w = x.shape
    if params.scale.size != c:
        raise ShapeError(f"batchnorm channel mismatch: {params.scale.size} vs {c}")
    m = n * h * w
    if mode == "train":
        if m < 2:
            raise ShapeError("train-mode batchnorm needs N*H*W >= 2")
        # the sums np.mean and np.var make, with one pass for the mean
        mean = x.sum(axis=(0, 2, 3)) / m
        d = x - mean[:, None, None]
        d *= d
        var = d.sum(axis=(0, 2, 3)) / m
        del d  # freed before the caller allocates its output
        params.update(mean, var)
    elif mode == "eval":
        mean = params.running_mean.astype(x.dtype)
        var = params.running_var.astype(x.dtype)
    else:
        raise ValueError(f"unknown batchnorm mode {mode!r}")

    inv_std = 1.0 / np.sqrt(var + params.epsilon)
    scale, shift = params.scale, params.shift
    # scale * (x - mean) * inv_std + shift as one per-channel affine
    a = scale.data * inv_std
    b = shift.data - mean * a

    def backward(g):
        gsum = g.sum(axis=(0, 2, 3))
        # xhat is recomputed here, not held from the forward, one block of
        # channels at a time; each block's train-mode dx needs only its
        # own channels' sums
        gxhat = []
        for cs in _channel_blocks(c, m * x.itemsize):
            xhat = np.subtract(x[:, cs], mean[cs, None, None])
            xhat *= inv_std[cs, None, None]
            gxhat.append((g[:, cs] * xhat).sum(axis=(0, 2, 3)))
            if mode == "train":
                xhat *= (gxhat[-1] / m)[:, None, None]
                dx = g[:, cs]
                dx -= (gsum[cs] / m)[:, None, None]
                dx -= xhat
                dx *= a[cs, None, None]
        if shift.requires_grad:
            shift._accumulate(gsum)
        if scale.requires_grad:
            scale._accumulate(np.concatenate(gxhat))
        if mode == "eval":
            g *= a[:, None, None]
        return g

    return a, b, backward


def batchnorm(x, params, mode):
    """Per-channel batch normalization over the N, H, W axes."""
    if x.ndim != 4:
        raise ShapeError("batchnorm expects NCHW input")
    a, b, bn_backward = _bn(x.data, params, mode)
    out = x.data * a[:, None, None]
    out += b[:, None, None]

    def backward(g):
        dx = bn_backward(g.copy())
        if x.requires_grad:
            x._accumulate(dx)

    return make_node(out, (x, params.scale, params.shift), backward,
                     "batchnorm output")


def relu(x):
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (out > 0))

    return make_node(out, (x,), backward, "relu output")


def _conv_bn(x, kernel, bn, mode, groups):
    # the convolution and batch norm shared by conv_bn_relu and
    # conv_bn_relu_pool. Returns (parents, z, affine, backward): the
    # node's parents; z, the batch-norm affine of the convolution output
    # y, in y's own buffer when no graph is recorded; affine(out), which
    # writes that affine into out; and backward(dz), which takes the
    # gradient of z, in a buffer the caller owns, to the parents
    y, conv_backward = _conv(x, kernel, groups)
    a, b, bn_backward = _bn(y, bn, mode)
    parents = (x, kernel, bn.scale, bn.shift)

    def affine(out):
        np.multiply(y, a[:, None, None], out=out)
        out += b[:, None, None]
        return out

    def backward(dz):
        conv_backward(bn_backward(dz))

    z = affine(np.empty_like(y) if records_graph(parents) else y)
    return parents, z, affine, backward


def conv_bn_relu(x, kernel, bn, mode, groups):
    """relu(batchnorm(conv2d(x, kernel, groups=groups), bn, mode)) as one
    node, equal to the three ops bit for bit.

    The batch-norm affine runs in the convolution's buffer when no graph
    is recorded; when the backward needs the convolution output, it runs
    into a second buffer. The one finite check is on the affine result,
    before the ReLU, so a non-finite value cannot hide behind a zero;
    the ReLU then runs in place.
    """
    parents, out, _, affine_backward = _conv_bn(x, kernel, bn, mode, groups)

    def backward(g):
        affine_backward(g * (out > 0))

    node = make_node(out, parents, backward, "conv_bn_relu output")
    np.maximum(out, 0, out=out)
    return node


def conv_bn_relu_pool(x, kernel, bn, mode, groups):
    """maxpool2x2(conv_bn_relu(x, kernel, bn, mode, groups)) as one node,
    equal to the two ops bit for bit.

    The ReLU runs on the pooled map: pooling commutes with it, and as
    np.maximum keeps its second operand on a tie, the ReLU turns a -0.0
    maximum into the +0.0 it makes of each -0.0 before a pool. The node
    keeps the convolution output and the pooled map; the backward
    recomputes the batch-norm affine with the forward's own ops and, in
    that buffer, routes the gradient of each window whose output is
    above 0 to its first maximum, as maxpool2x2 does. The affine result
    is checked for finite values before the pool, as in conv_bn_relu.
    """
    _check_poolable(x.shape)
    parents, z, affine, affine_backward = _conv_bn(x, kernel, bn, mode,
                                                   groups)
    tensor.check_finite(z, "conv_bn_relu_pool output")
    out = _pool(z)
    np.maximum(out, 0, out=out)
    shape = z.shape

    def backward(g):
        r = affine(np.empty(shape, out.dtype))
        affine_backward(_route(r, out, g, r, out > 0))

    return make_node(out, parents, backward, "conv_bn_relu_pool output")


def expit(z):
    """Plain-array logistic sigmoid in a form that cannot overflow:
    exp(-|z|) is at most 1."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    s = expit(x.data)

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

    def backward(g):
        lo = 0
        for t in tensors:
            hi = lo + t.shape[0]
            if t.requires_grad:
                t._accumulate(g[lo:hi])
            lo = hi

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


def softmax(logits_data):
    """Plain-array softmax over the class axis of (N, K, H, W) logits,
    used for reporting probabilities."""
    z = logits_data - logits_data.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_ce_loss(logits, labels, class_weights):
    """Per-pixel weighted softmax cross-entropy.

    logits (N,K,H,W), labels (N,H,W) integer class ids, class_weights (K,).
    Returns the scalar loss tensor, the plain mean over pixels of
    weight[label] * (-log p[label]).
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

    probs = softmax(logits.data)
    npix = n * h * w
    true_class = labels[:, None]  # (N, 1, H, W): the class axis's index
    p_true = np.take_along_axis(probs, true_class, axis=1)[:, 0]
    pix_w = wts[labels]
    # floor at the dtype's tiny: a float64 literal would underflow to 0
    # under float32 promotion and let a saturated softmax produce -inf
    floor = np.finfo(p_true.dtype).tiny
    loss = float((pix_w * -np.log(np.maximum(p_true, floor))).mean())

    # gradient: (probs - onehot) * weight[label] / npix, scaled by upstream g
    def backward(g):
        if logits.requires_grad:
            d = probs.copy()
            np.put_along_axis(d, true_class, p_true[:, None] - 1.0, axis=1)
            d *= pix_w[:, None, :, :] * (float(g) / npix)
            logits._accumulate(d)

    return make_node(np.asarray(loss, dtype=logits.dtype), (logits,), backward,
                     "softmax_ce_loss output")

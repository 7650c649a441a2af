"""End-to-end model: per-modality encoders, CMC at every scale,
convLSTM at the bottleneck, decoder with multiplicative fusion, and a
per-pixel classifier.

Spatial flow for input H x W (divisible by 16): the encoder halves the
extents at each of its 4 stages; CMC aggregates the 4 modalities after
every pooling; the deepest CMC map drives the convLSTM; the decoder
multiplies each scale's CMC map into its path and doubles the extents
back up to H x W.

The M encoders are stored grouped: `params.encoders[s]` is one conv-BN
block over M*C channels whose kernel rows and batch-norm channels
m*C ... (m+1)*C - 1 are modality m's. They run as one chain over a
grouped map (T, M*C, h, w) whose channel group m is modality m's: each
stage is one grouped `ops.conv_bn_relu_pool` node over all M modalities,
bit for bit the separate conv2d, batchnorm, relu and maxpool2x2, which
takes the ReLU after the pool and so holds the convolution output and
the pooled map but makes no full-size ReLU map. Every decoder conv-BN
block runs as one `ops.conv_bn_relu` node, bit for bit the separate
conv2d, batchnorm and relu.
`ModelParams.records()` names modality m's and each convLSTM gate's
slices for the checkpoint.

predict_volume runs the serial window loop on every core: each thread
takes the next depth window and runs it whole, encoder, convLSTM (the
one layer that links slices, and only within a window) and decoder.
"""

import functools
import os
from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .convlstm import ConvLstmParams, convlstm_sequence
from .crossmodal import CmcParams, cmc_forward, mrf_fuse, stack_modalities
from .ops import (BatchNormParams, conv2d, conv_bn_relu, conv_bn_relu_pool,
                  conv_transpose2d)
from .tensor import ShapeError, Tensor, no_grad

N_SCALES = 4  # pooling stages; input extents must divide by 2**N_SCALES


@dataclass
class ModelConfig:
    """Model half of the run configuration. The fields of ModelConfig
    and training.TrainConfig are the config-file keys and defaults."""

    modality_count: int = 4
    class_count: int = 5
    encoder_channels: tuple = (8, 16, 32, 64)
    sequence_length: int = 3
    convlstm_kernel: int = 3
    seed: int = 0

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        if len(self.encoder_channels) != N_SCALES:
            raise ValueError(f"encoder_channels needs {N_SCALES} widths")
        for name in ("modality_count", "class_count", "sequence_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.class_count > 256:
            raise ValueError("class_count must be at most 256: labels are "
                             "stored as u8")
        if min(self.encoder_channels) < 1:
            raise ValueError("every encoder_channels width must be at least 1")
        if self.convlstm_kernel < 1 or self.convlstm_kernel % 2 == 0:
            raise ValueError("convlstm_kernel must be a positive odd number")


def config_text(*configs):
    """Sorted `key=value` lines over the fields of the given config
    dataclasses; a tuple is written `8,16,32,64`."""
    items = {}
    for cfg in configs:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            items[f.name] = (",".join(map(str, value)) if f.type is tuple
                             else str(value))
    return "".join(f"{k}={items[k]}\n" for k in sorted(items))


def parse_config(cls, values):
    """cls built from a dict of text values, each cast by its field's
    type (int, float, or a tuple of ints written `8,16,32,64`). Keys
    that are not fields of cls are skipped; absent fields keep their
    defaults. A bad value or a failed validation raises ValueError."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in values:
            continue
        text = values[f.name]
        try:
            kwargs[f.name] = (tuple(int(v) for v in text.split(","))
                              if f.type is tuple else f.type(text))
        except ValueError as e:
            raise ValueError(f"bad value for {f.name}: {text!r}") from e
    return cls(**kwargs)


def parameter_count(config):
    """Values that ModelParams(config) holds, trainable tensors and
    batch-norm state, computed without allocating any of them."""
    widths, m = config.encoder_channels, config.modality_count

    def convbn(cin, cout):  # kernel, then scale, shift, running mean, var
        return cout * cin * 9 + 4 * cout

    n = sum(convbn(cin, m * c) for cin, c in zip((1,) + widths[:-1], widths))
    n += sum(c * m + c for c in widths)  # CMC weights and bias
    ch, kl = widths[-1], config.convlstm_kernel
    n += 4 * (2 * ch * ch * kl * kl + ch)  # convLSTM kernels and biases
    for cin, cout in zip(widths[::-1], widths[-2::-1] + widths[:1]):
        n += cin * cout * 4 + cout + convbn(cout, cout)  # decoder stage
    return n + config.class_count * (widths[0] + 1)  # classifier


class ConvBnParams:
    """One 3x3 convolution plus its batch norm. The convolution has no
    bias: batch norm subtracts the channel mean, which cancels one, and
    its `shift` is the per-channel offset."""

    def __init__(self, cin, cout, dtype):
        self.kernel = Tensor(np.zeros((cout, cin, 3, 3), dtype=dtype),
                             requires_grad=True)
        self.bn = BatchNormParams(cout, dtype=dtype)


class DecoderStageParams:
    """Stride-2 transposed convolution then conv + batch norm."""

    def __init__(self, cin, cout, dtype):
        self.up_kernel = Tensor(np.zeros((cin, cout, 2, 2), dtype=dtype),
                                requires_grad=True)
        self.up_bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.conv = ConvBnParams(cout, cout, dtype=dtype)


class ModelParams:
    def __init__(self, config, dtype=np.float32):
        self.config = config
        widths = config.encoder_channels
        m, k = config.modality_count, config.class_count
        # one grouped conv-BN block per scale, modality m in rows
        # m*C ... (m+1)*C - 1
        self.encoders = [ConvBnParams(cin, m * c, dtype=dtype)
                         for cin, c in zip((1,) + widths[:-1], widths)]
        self.cmc = [CmcParams(c, m, dtype=dtype) for c in widths]
        self.lstm = ConvLstmParams(widths[-1], widths[-1],
                                   config.convlstm_kernel, dtype=dtype)
        self.decoder = []
        for s in range(N_SCALES - 1, -1, -1):
            cin = widths[s]
            cout = widths[s - 1] if s > 0 else widths[0]
            self.decoder.append(DecoderStageParams(cin, cout, dtype=dtype))
        self.cls_kernel = Tensor(np.zeros((k, widths[0], 1, 1), dtype=dtype),
                                 requires_grad=True)
        self.cls_bias = Tensor(np.zeros(k, dtype=dtype), requires_grad=True)

    def named_tensors(self):
        """All trainable tensors, stable order."""
        out = {}

        def convbn(prefix, p):
            out[f"{prefix}.kernel"] = p.kernel
            out[f"{prefix}.bn.scale"] = p.bn.scale
            out[f"{prefix}.bn.shift"] = p.bn.shift

        for s, p in enumerate(self.encoders):
            convbn(f"enc.s{s}", p)
        for s, p in enumerate(self.cmc):
            out[f"cmc{s}.weights"] = p.weights
            out[f"cmc{s}.bias"] = p.bias
        out.update(self.lstm.named_tensors("lstm."))
        for i, p in enumerate(self.decoder):
            out[f"dec{i}.up.kernel"] = p.up_kernel
            out[f"dec{i}.up.bias"] = p.up_bias
            convbn(f"dec{i}.conv", p.conv)
        out["cls.kernel"] = self.cls_kernel
        out["cls.bias"] = self.cls_bias
        return out

    def records(self):
        """The checkpoint's records in file order, each a view into the
        stored arrays: modality m's rows of every encoder block
        (`enc<m>.s<s>.kernel`, `.bn.scale`, `.bn.shift`, by modality and
        then scale), the CMC tensors, each gate's rows of the convLSTM
        stacks (`lstm.W_x<g>`, `lstm.W_h<g>`, `lstm.b_<g>`), the decoder
        and classifier tensors whole, then every batch norm's
        `.running_mean` and `.running_var`, encoders first."""
        m, widths = self.config.modality_count, self.config.encoder_channels
        # (name, conv-BN block, rows) of every batch norm
        enc = [(f"enc{mod}.s{s}", p, slice(mod * c, (mod + 1) * c))
               for mod in range(m)
               for s, (p, c) in enumerate(zip(self.encoders, widths))]
        dec = [(f"dec{i}.conv", p.conv, slice(None))
               for i, p in enumerate(self.decoder)]
        out = {}

        def convbn(name, p, rows):
            out[f"{name}.kernel"] = p.kernel.data[rows]
            out[f"{name}.bn.scale"] = p.bn.scale.data[rows]
            out[f"{name}.bn.shift"] = p.bn.shift.data[rows]

        for block in enc:
            convbn(*block)
        for s, p in enumerate(self.cmc):
            out[f"cmc{s}.weights"] = p.weights.data
            out[f"cmc{s}.bias"] = p.bias.data
        out.update(self.lstm.gate_records("lstm."))
        for i, p in enumerate(self.decoder):
            out[f"dec{i}.up.kernel"] = p.up_kernel.data
            out[f"dec{i}.up.bias"] = p.up_bias.data
            convbn(*dec[i])
        out["cls.kernel"] = self.cls_kernel.data
        out["cls.bias"] = self.cls_bias.data
        for name, p, rows in enc + dec:
            out[f"{name}.bn.running_mean"] = p.bn.running_mean[rows]
            out[f"{name}.bn.running_var"] = p.bn.running_var[rows]
        return out


def orthogonal_kernel(rng, shape, dtype):
    """Kernel whose (rows = out-channels) flattening is orthonormal."""
    n = shape[0]
    m = int(np.prod(shape[1:]))
    if n > m:
        raise ValueError("orthogonal init needs out_channels <= fan_in")
    a = rng.standard_normal((m, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix signs for determinism
    return np.ascontiguousarray(q.T.reshape(shape), dtype=dtype)


def he_kernel(rng, shape, dtype):
    fan_in = int(np.prod(shape[1:]))
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


def init_params(config, dtype=np.float32):
    """Fresh parameters: He init for plain convolutions, orthogonal
    init for every convLSTM kernel, forget-gate bias 1, CMC weights at
    the uniform modality average. Each record is drawn whole, in record
    order (an encoder block per modality, a convLSTM kernel per gate)."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, dtype=dtype)
    for name, view in params.records().items():
        if name.startswith("lstm.W_"):
            view[...] = orthogonal_kernel(rng, view.shape, dtype)
        elif name.endswith(".up.kernel"):
            cin, cout = view.shape[:2]  # drawn (Cout, Cin, 2, 2), fan-in Cin*4
            view[...] = he_kernel(rng, (cout, cin, 2, 2),
                                  dtype).transpose(1, 0, 2, 3)
        elif name.endswith(".kernel"):
            view[...] = he_kernel(rng, view.shape, dtype)
    params.lstm.gate_records("")["b_f"][...] = 1.0
    return params


def _encode(params, x_seq, mode):
    """The M encoders as one chain over a grouped map, then CMC at every
    scale. Each stage is one grouped conv_bn_relu_pool node over all M
    modalities: conv, batch norm, 2x2 max-pool and ReLU (the same bits as
    the ReLU before the pool), whose backward recomputes the batch-norm
    affine rather than holding it.

    x_seq: (T, M, H, W) array, the grouped map of the input. Returns list
    of N_SCALES CMC map tensors, each (T, C_s, H/2^(s+1), W/2^(s+1)).
    """
    t, m, h, w = x_seq.shape
    cfg = params.config
    if m != cfg.modality_count:
        raise ShapeError(f"expected {cfg.modality_count} modalities, got {m}")
    div = 2 ** N_SCALES
    if h % div or w % div:
        raise ShapeError(f"input extents must be divisible by {div}, got {h}x{w}")

    feat = Tensor(x_seq)
    cmc_maps = []
    for p, cmc in zip(params.encoders, params.cmc):
        feat = conv_bn_relu_pool(feat, p.kernel, p.bn, mode, m)
        cmc_maps.append(cmc_forward(stack_modalities(feat, m), cmc))
    return cmc_maps


def _decode(params, cmc_maps, d, mode):
    """The decoder, with the CMC map of each scale fused in, and the
    classifier: logits (T, K, H, W) from _encode's CMC maps of T frames
    and the convLSTM's (T, C, h, w) output d for them."""
    for stage, s in zip(params.decoder, range(N_SCALES - 1, -1, -1)):
        d = mrf_fuse(cmc_maps[s], d)
        d = conv_transpose2d(d, stage.up_kernel, stage.up_bias)
        d = conv_bn_relu(d, stage.conv.kernel, stage.conv.bn, mode, 1)
    return conv2d(d, params.cls_kernel, params.cls_bias)


def forward_logits(params, x_seq, mode, intermediates=None):
    """Full forward pass to classifier logits (T, K, H, W)."""
    cmc_maps = _encode(params, x_seq, mode)
    if intermediates is not None:
        intermediates["cmc"] = [c.data for c in cmc_maps]
    # the deepest CMC map (T, C, h, w) is the T steps of one sequence
    d = convlstm_sequence(cmc_maps[-1], params.lstm)
    return _decode(params, cmc_maps, d, mode)


def forward(params, sequence, mode="eval", intermediates=None):
    """Probability maps for one (T, M, H, W) sequence of modal slice
    stacks: a (T, K, H, W) array. Builds no autograd graph, so each op's
    saved buffers die as soon as the op returns.
    """
    with no_grad():
        logits = forward_logits(params, np.asarray(sequence), mode,
                                intermediates)
    return ops.softmax(logits.data)


def predict_volume(params, volume, seq_len):
    """Argmax label volume (D,H,W) for a normalized (M,D,H,W) volume.

    Depth is tiled in non-overlapping windows of seq_len; a final
    partial window is run as the shorter sequence it is. That gives the
    same labels as padding it to seq_len: the convLSTM runs forward in
    depth, so a slice never sees a later one, and every other layer
    works per slice (batch norm runs on its running statistics). Ties go
    to the lowest class id.

    The convLSTM starts each window from a zero state, so windows are
    independent jobs. _frame_pool() runs the serial window loop on this
    thread and on a worker per further core; each thread takes the next
    window start from one shared iterator and runs that window whole,
    encoding its slices one at a time, running its convLSTM, then
    decoding its slices one at a time into their own rows of the output.
    So each thread holds one slice's working set and one window's CMC
    maps, and a volume of fewer windows than cores runs on fewer cores.
    After an error no thread takes another window, and the first error
    is raised here. Each slice's values are the ones forward() computes
    for it over the whole window, bit for bit.
    """
    volume = np.asarray(volume)
    m, d, h, w = volume.shape
    if d < 1:
        raise ShapeError("volume has no depth")
    out = np.empty((d, h, w), dtype=np.uint8)
    # next() on a range iterator is one step under the GIL, so each
    # start goes to one thread
    starts, errors = iter(range(0, d, seq_len)), []

    def run_window(start):
        x = volume[:, start:start + seq_len].transpose(1, 0, 2, 3)
        maps = [_encode(params, x[j:j + 1], "eval") for j in range(len(x))]
        hs = convlstm_sequence(Tensor(np.concatenate(
            [frame[-1].data for frame in maps])), params.lstm)
        for j, frame in enumerate(maps):
            logits = _decode(params, frame, Tensor(hs.data[j:j + 1]), "eval")
            _class_argmax(ops.softmax(logits.data), out[start + j, None])

    def windows():
        try:
            with no_grad():
                for start in starts:
                    run_window(start)
        except BaseException as e:
            errors.append(e)
            for _ in starts:  # no thread takes another window
                pass

    _frame_pool(windows)
    if errors:
        raise errors[0]
    return out


def _frame_pool(task):
    """Run task() on the calling thread and on a worker thread for each
    further core of os.sched_getaffinity(0), and return when every run
    has returned; a run's error is raised here. BLAS runs on one thread
    meanwhile, so that the threads do not contend for cores, and its
    thread count is restored afterwards. On one core, where the platform
    does not tell the cores a process may use, or where numpy's BLAS
    offers no thread control, task runs on the calling thread alone and
    BLAS is left as it is. A worker does not inherit the caller's
    no_grad(): task enters it itself."""
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else 1)
    if cores < 2 or _blas_threads() is None:
        return task()
    from concurrent.futures import ThreadPoolExecutor
    get_threads, set_threads = _blas_threads()
    threads = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(cores - 1) as pool:
            runs = [pool.submit(task) for _ in range(cores - 1)]
            task()
        for run in runs:
            run.result()
    finally:
        set_threads(threads)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    looked up on first use; None where numpy's BLAS does not export
    them."""
    import ctypes
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _class_argmax(probs, out):
    """Write probs.argmax(axis=1) of a (T, K, H, W) array into the
    (T, H, W) array out. One strict > per class plane keeps the lowest
    class on a tie, as argmax does, and runs faster than NumPy's argmax
    over a non-last axis."""
    best = probs[:, 0].copy()
    out[...] = 0
    for k in range(1, probs.shape[1]):
        plane = probs[:, k]
        np.copyto(out, k, where=plane > best)
        np.maximum(best, plane, out=best)

"""End-to-end model: per-modality encoders, CMC at every scale,
convLSTM at the bottleneck, decoder with multiplicative fusion, and a
per-pixel classifier.

Spatial flow for input H x W (divisible by 16): the encoder halves the
extents at each of its 4 stages; CMC aggregates the 4 modalities after
every pooling; the deepest CMC map drives the convLSTM; the decoder
multiplies each scale's CMC map into its path and doubles the extents
back up to H x W.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .convlstm import ConvLstmParams, convlstm_sequence
from .crossmodal import CmcParams, cmc_forward, mrf_fuse, stack_modalities
from .ops import BatchNormParams, batchnorm, conv2d, conv_transpose2d, maxpool2x2, relu
from .tensor import ShapeError, Tensor, no_grad

N_SCALES = 4  # pooling stages; input extents must divide by 2**N_SCALES


@dataclass
class ModelConfig:
    """Model half of the run configuration. The fields of ModelConfig
    and training.TrainConfig are the config-file keys and defaults."""

    modality_count: int = 4
    class_count: int = 5
    encoder_channels: tuple = (8, 16, 32, 64)
    input_height: int = 64
    input_width: int = 64
    sequence_length: int = 3
    convlstm_kernel: int = 3
    seed: int = 0

    def __post_init__(self):
        self.encoder_channels = tuple(int(c) for c in self.encoder_channels)
        if len(self.encoder_channels) != N_SCALES:
            raise ValueError(f"need {N_SCALES} encoder channel widths")
        div = 2 ** N_SCALES
        if self.input_height % div or self.input_width % div:
            raise ValueError(f"input extents must be divisible by {div}")


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


class ConvBnParams:
    """One 3x3 convolution plus its batch norm."""

    def __init__(self, cin, cout, dtype=np.float32):
        self.kernel = Tensor(np.zeros((cout, cin, 3, 3), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.bn = BatchNormParams(cout, dtype=dtype)


class DecoderStageParams:
    """Stride-2 transposed convolution then conv + batch norm."""

    def __init__(self, cin, cout, dtype=np.float32):
        self.up_kernel = Tensor(np.zeros((cin, cout, 2, 2), dtype=dtype),
                                requires_grad=True)
        self.up_bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.conv = ConvBnParams(cout, cout, dtype=dtype)


class ModelParams:
    def __init__(self, config, dtype=np.float32):
        self.config = config
        widths = config.encoder_channels
        m, k = config.modality_count, config.class_count
        self.encoders = []  # [modality][scale] -> ConvBnParams
        for _ in range(m):
            stages, cin = [], 1
            for c in widths:
                stages.append(ConvBnParams(cin, c, dtype=dtype))
                cin = c
            self.encoders.append(stages)
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
            out[f"{prefix}.bias"] = p.bias
            out[f"{prefix}.bn.scale"] = p.bn.scale
            out[f"{prefix}.bn.shift"] = p.bn.shift

        for m, stages in enumerate(self.encoders):
            for s, p in enumerate(stages):
                convbn(f"enc{m}.s{s}", p)
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

    def batchnorms(self):
        """Every batch norm by name: encoders by modality and scale, then
        the decoder stages. This order is the checkpoint's."""
        table = {}
        for m, stages in enumerate(self.encoders):
            for s, p in enumerate(stages):
                table[f"enc{m}.s{s}.bn"] = p.bn
        for i, p in enumerate(self.decoder):
            table[f"dec{i}.conv.bn"] = p.conv.bn
        return table

    def named_state(self):
        """Non-trainable state (batch-norm running statistics)."""
        out = {}
        for name, bn in self.batchnorms().items():
            out[f"{name}.running_mean"] = bn.running_mean
            out[f"{name}.running_var"] = bn.running_var
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
    the uniform modality average."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, dtype=dtype)
    for stages in params.encoders:
        for p in stages:
            p.kernel.data = he_kernel(rng, p.kernel.shape, dtype)
    for g in ConvLstmParams.GATES:
        for side in ("x", "h"):
            t = getattr(params.lstm, f"W_{side}{g}")
            t.data = orthogonal_kernel(rng, t.shape, dtype)
    params.lstm.b_f.data = np.ones_like(params.lstm.b_f.data)
    for p in params.decoder:
        p.up_kernel.data = he_kernel(
            rng, (p.up_kernel.shape[1],) + (p.up_kernel.shape[0],) + (2, 2), dtype
        ).transpose(1, 0, 2, 3).copy()
        p.conv.kernel.data = he_kernel(rng, p.conv.kernel.shape, dtype)
    params.cls_kernel.data = he_kernel(rng, params.cls_kernel.shape, dtype)
    return params


def _encode(params, x_seq, mode):
    """Per-modality encoders + CMC at every scale.

    x_seq: (T, M, H, W) array. Returns list of N_SCALES CMC map tensors,
    each (T, C_s, H/2^(s+1), W/2^(s+1)).
    """
    t, m, h, w = x_seq.shape
    cfg = params.config
    if m != cfg.modality_count:
        raise ShapeError(f"expected {cfg.modality_count} modalities, got {m}")
    div = 2 ** N_SCALES
    if h % div or w % div:
        raise ShapeError(f"input extents must be divisible by {div}, got {h}x{w}")

    per_scale = [[] for _ in range(N_SCALES)]  # [scale][modality]
    for mi in range(m):
        feat = Tensor(x_seq[:, mi:mi + 1])
        for s, stage in enumerate(params.encoders[mi]):
            feat = relu(batchnorm(conv2d(feat, stage.kernel, stage.bias), stage.bn,
                                  mode))
            feat = maxpool2x2(feat)
            per_scale[s].append(feat)
    return [cmc_forward(stack_modalities(maps), params.cmc[s])
            for s, maps in enumerate(per_scale)]


def forward_logits(params, x_seq, mode="train", intermediates=None):
    """Full forward pass to classifier logits (T, K, H, W)."""
    cmc_maps = _encode(params, x_seq, mode)
    if intermediates is not None:
        intermediates["cmc"] = [c.data for c in cmc_maps]

    t = x_seq.shape[0]
    xs = [ops.take(cmc_maps[-1], i) for i in range(t)]
    hs = convlstm_sequence(xs, params.lstm)
    d = ops.concat0(hs)

    for stage, s in zip(params.decoder, range(N_SCALES - 1, -1, -1)):
        d = mrf_fuse(cmc_maps[s], d)
        d = conv_transpose2d(d, stage.up_kernel, stage.up_bias)
        d = relu(batchnorm(conv2d(d, stage.conv.kernel, stage.conv.bias),
                           stage.conv.bn, mode))
    return conv2d(d, params.cls_kernel, params.cls_bias)


def forward(params, sequence, mode="eval", intermediates=None):
    """Probability maps for a sequence of modal slice stacks.

    sequence: list of T (M,H,W) arrays or one (T,M,H,W) array.
    Returns a list of T (K,H,W) probability arrays. Builds no autograd
    graph, so each op's saved buffers die as soon as the op returns.
    """
    x_seq = np.asarray([np.asarray(s) for s in sequence]) \
        if isinstance(sequence, (list, tuple)) else np.asarray(sequence)
    with no_grad():
        logits = forward_logits(params, x_seq, mode, intermediates)
    probs = ops.softmax(logits.data, axis=1)
    return [probs[i] for i in range(probs.shape[0])]


def predict_volume(params, volume, seq_len):
    """Argmax label volume (D,H,W) for a normalized (M,D,H,W) volume.

    Depth is tiled in non-overlapping windows of seq_len; a final
    partial window is padded by repeating the last slice and trimmed
    after prediction. Ties go to the lowest class id.
    """
    volume = np.asarray(volume)
    m, d, h, w = volume.shape
    if d < 1:
        raise ShapeError("volume has no depth")
    out = np.empty((d, h, w), dtype=np.uint8)
    for start in range(0, d, seq_len):
        idx = np.minimum(np.arange(start, start + seq_len), d - 1)
        x_seq = volume[:, idx].transpose(1, 0, 2, 3)  # (T, M, H, W)
        probs = forward(params, x_seq, mode="eval")
        for j, depth in enumerate(range(start, min(start + seq_len, d))):
            out[depth] = probs[j].argmax(axis=0).astype(np.uint8)
    return out

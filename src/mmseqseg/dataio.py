"""Bit-exact volume (MMV1) and checkpoint (MMCK) formats, synthetic
phantom generation, and intensity normalization.

MMV1 layout: magic "MMV1"; u32 LE n_channels, D, H, W; one dtype byte
(0 = f32 LE, 1 = u8 label, which has one channel); raw payload in
channel, depth, row, column order. Header is 21 bytes.

MMCK layout: magic "MMCK"; u32 version (1); u32 config text length +
utf-8 config; per tensor: u32 name length, utf-8 name bytes, u32 ndim,
u32 dims, f32 LE payload. Older files also hold a `<block>.bias` for
every conv-BN block; loading folds it into the block's running mean.
"""

import math
import os
import struct
from dataclasses import fields

import numpy as np

from .network import (ModelConfig, ModelParams, config_text, parameter_count,
                      parse_config)

MAGIC_VOLUME = b"MMV1"
MAGIC_CHECKPOINT = b"MMCK"
CHECKPOINT_VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1
MAX_NDIM = 4  # conv kernels; every other tensor has fewer dims

T1C_CHANNEL = 3


class FormatError(ValueError):
    """A file-format violation; the message says which."""


def _bytes_left(f):
    return os.fstat(f.fileno()).st_size - f.tell()


def _check_left(f, n, what):
    # n may come from a forged header: check it against the bytes left in
    # the file before anything of n bytes is allocated
    left = _bytes_left(f)
    if n > left:
        raise FormatError(
            f"{what} declares {n} bytes, the file has {left} left")


def _read_exact(f, n, what):
    _check_left(f, n, what)
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated payload while reading {what}")
    return buf


def _read_array(f, shape, dtype, what):
    # a new array of shape and dtype read straight from the file, with no
    # bytes object in between, under _read_exact's checks
    dtype = np.dtype(dtype)
    n = math.prod(shape) * dtype.itemsize
    _check_left(f, n, what)
    arr = np.empty(shape, dtype=dtype)
    if f.readinto(arr.reshape(-1).view(np.uint8)) != n:
        raise FormatError(f"truncated payload while reading {what}")
    return arr


def write_volume(path, volume, kind):
    """kind 'modal': (C,D,H,W) float32; kind 'label': (D,H,W) uint8."""
    volume = np.asarray(volume)
    if kind == "modal":
        if volume.ndim != 4:
            raise ValueError("modal volume must be (C,D,H,W)")
        data = np.ascontiguousarray(volume, dtype="<f4")
        dtype_code = DTYPE_F32
        shape = volume.shape
    elif kind == "label":
        if volume.ndim != 3:
            raise ValueError("label volume must be (D,H,W)")
        if volume.min() < 0 or volume.max() > 255:
            raise ValueError("label values out of uint8 range")
        data = np.ascontiguousarray(volume, dtype=np.uint8)
        dtype_code = DTYPE_U8
        shape = (1,) + volume.shape
    else:
        raise ValueError(f"unknown volume kind {kind!r}")
    with open(path, "wb") as f:
        f.write(MAGIC_VOLUME)
        f.write(struct.pack("<4I", *shape))
        f.write(struct.pack("<B", dtype_code))
        f.write(data.tobytes())


def read_volume(path):
    """Returns (array, kind). Labels come back as (D,H,W) uint8."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC_VOLUME:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC_VOLUME!r}")
        c, d, h, w = struct.unpack("<4I", _read_exact(f, 16, "header dims"))
        if not c * d * h * w:
            raise FormatError(f"volume declares an empty extent {(c, d, h, w)}")
        (code,) = struct.unpack("<B", _read_exact(f, 1, "dtype code"))
        if code == DTYPE_F32:
            arr = _read_array(f, (c, d, h, w), "<f4", "f32 payload")
            kind = "modal"
        elif code == DTYPE_U8:
            if c != 1:
                raise FormatError(f"label volume declares {c} channels, not 1")
            arr = _read_array(f, (d, h, w), np.uint8, "u8 payload")
            kind = "label"
        else:
            raise FormatError(f"unknown dtype code {code}")
        if f.read(1):
            raise FormatError("trailing bytes after payload")
    if kind == "modal":
        # one modality at a time, so no volume-sized mask is made
        for m, channel in enumerate(arr):
            finite = np.isfinite(channel)
            if not finite.all():
                at = tuple(int(i) for i in np.unravel_index(
                    np.argmin(finite), finite.shape))
                raise FormatError(
                    f"{path} holds a non-finite value at (modality, slice, "
                    f"row, column) {(m,) + at}")
    return arr, kind


def save_checkpoint(path, params):
    """Serialize model config + every record of `params.records()`
    (trainable tensors and BN state)."""
    tensors = params.records()
    cfg_bytes = config_text(params.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC_CHECKPOINT)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        for name, arr in tensors.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path):
    """Returns (ModelParams, ModelConfig). A record holding a NaN or an
    infinity is a FormatError naming it."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC_CHECKPOINT:
            raise FormatError(
                f"bad magic {magic!r}, expected {MAGIC_CHECKPOINT!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        config = _parse_model_config(
            _decode(_read_exact(f, cfg_len, "config"), "config"))
        # the config sizes ModelParams: check it against the file first
        need = parameter_count(config)
        left = _bytes_left(f) // 4
        if need > left:
            raise FormatError(
                f"config declares {need} parameters, the file holds at most "
                f"{left} values")
        params = ModelParams(config)
        records = params.records()
        seen, biases = set(), {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise FormatError("truncated tensor name length")
            (nlen,) = struct.unpack("<I", head)
            name = _decode(_read_exact(f, nlen, "tensor name"), "tensor name")
            if name in seen:
                raise FormatError(f"duplicate tensor name {name}")
            seen.add(name)
            (ndim,) = struct.unpack("<I", _read_exact(f, 4, "ndim"))
            if ndim > MAX_NDIM:
                raise FormatError(f"{name} declares {ndim} dims, a model "
                                  f"tensor has at most {MAX_NDIM}")
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "dims"))
            arr = _read_array(f, dims, "<f4", f"payload of {name}")
            if not np.isfinite(arr).all():
                raise FormatError(f"{name} holds a non-finite value")
            # a file written while conv-BN blocks had a conv bias holds a
            # `<block>.bias`, folded into the block's running mean below
            mean = name.removesuffix(".bias") + ".bn.running_mean"
            legacy = (name not in records and name.endswith(".bias")
                      and mean in records)
            view = records[mean] if legacy else records.get(name)
            if view is None:
                raise FormatError(f"checkpoint holds unknown tensor {name}")
            if arr.shape != view.shape:
                raise FormatError(f"shape mismatch for {name}")
            if legacy:
                biases[mean] = arr
            else:
                view[...] = arr
    missing = [name for name in records if name not in seen]
    if missing:
        raise FormatError(f"checkpoint missing tensor {missing[0]}")
    for mean, bias in biases.items():
        # as in eval mode: (conv + b - rm) * a + shift
        # == (conv - (rm - b)) * a + shift
        records[mean] -= bias
    return params, config


def _decode(raw, what):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8") from e


def _parse_model_config(text):
    """ModelConfig from checkpoint `key=value` lines; unknown keys are
    skipped, a missing or bad value is a FormatError."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.strip().partition("=")
        values[key] = value
    missing = [f.name for f in fields(ModelConfig) if f.name not in values]
    if missing:
        raise FormatError(f"checkpoint config lacks {', '.join(missing)}")
    try:
        return parse_config(ModelConfig, values)
    except ValueError as e:
        raise FormatError(f"bad checkpoint config: {e}") from e


def normalize_volume(volume):
    """Per-modality z-score over the whole volume."""
    volume = np.asarray(volume, dtype=np.float32)
    out = np.empty_like(volume)
    for c in range(volume.shape[0]):
        ch = volume[c]
        std = ch.std()
        # (ch - mean) / std written into the output, with no temporaries
        np.subtract(ch, ch.mean(), out=out[c])
        out[c] /= std if std > 0 else 1.0
    return out


# Per-class intensity means per modality (flair, t2, t1, t1c); the
# cartoon version of the clinical responses: edema bright in FLAIR/T2,
# enhancing core bright in T1c.
_CLASS_MEANS = np.array([
    #  flair  t2    t1    t1c
    [0.30, 0.30, 0.40, 0.30],   # 0 normal tissue
    [0.95, 0.90, 0.35, 0.40],   # 1 edema
    [0.75, 0.70, 0.55, 0.55],   # 2 non-enhancing core
    [0.55, 0.75, 0.15, 0.15],   # 3 necrotic core
    [0.70, 0.60, 0.60, 1.00],   # 4 enhancing core
], dtype=np.float32)

NOISE_SIGMA = 0.04
MIN_EXTENT = 16  # smallest phantom extent along each axis


def _ellipsoid_mask(dims, center, radii):
    d, h, w = dims
    zz, yy, xx = np.ogrid[:d, :h, :w]
    return ((zz - center[0]) / radii[0]) ** 2 \
        + ((yy - center[1]) / radii[1]) ** 2 \
        + ((xx - center[2]) / radii[2]) ** 2 <= 1.0


def gen_synthetic_case(seed, dims):
    """Deterministic multi-modal phantom with nested tumor shells.

    Places 1-3 ellipsoidal tumors: an edema shell (label 1) containing
    non-enhancing (2), necrotic (3) and enhancing (4) cores. Tumor
    voxels stay within 1-10% of the volume; every class is present.
    Returns (volume (4,D,H,W) float32, labels (D,H,W) uint8).
    """
    d, h, w = dims
    if min(dims) < MIN_EXTENT:
        raise ValueError(f"each extent must be at least {MIN_EXTENT}")
    rng = np.random.default_rng(seed)
    total = d * h * w

    for _ in range(64):  # re-roll until the tumor fraction lands in range
        labels = np.zeros(dims, dtype=np.uint8)
        n_tumors = int(rng.integers(1, 4))
        core_labels = [2, 3, 4]
        for ti in range(n_tumors):
            radii = np.array([
                rng.uniform(0.14, 0.22) * d,
                rng.uniform(0.14, 0.22) * h,
                rng.uniform(0.14, 0.22) * w,
            ])
            center = np.array([
                rng.uniform(radii[0] + 1, d - radii[0] - 1),
                rng.uniform(radii[1] + 1, h - radii[1] - 1),
                rng.uniform(radii[2] + 1, w - radii[2] - 1),
            ])
            edema = _ellipsoid_mask(dims, center, radii)
            labels[edema] = 1
            # nested cores inside the edema shell
            for lab in core_labels:
                cr = radii * rng.uniform(0.30, 0.45)
                off = (radii - cr) * rng.uniform(-0.5, 0.5, size=3)
                core = _ellipsoid_mask(dims, center + off, cr)
                labels[core & edema] = lab
        frac = np.count_nonzero(labels) / total
        present = np.bincount(labels.reshape(-1), minlength=5)[:5] > 0
        if 0.01 <= frac <= 0.10 and present.all():
            break
    else:
        raise RuntimeError("could not generate a valid phantom")

    # modality by modality, in the rng's draw order: the float64 noise is
    # one (D, H, W) draw at a time, not a (4, D, H, W) one and its sum
    volume = np.empty((_CLASS_MEANS.shape[1], d, h, w), dtype=np.float32)
    for c, means in enumerate(_CLASS_MEANS.T):
        volume[c] = means[labels] + rng.normal(0.0, NOISE_SIGMA, size=dims)
    return volume, labels

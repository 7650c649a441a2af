"""Bit-exact volume (MMV1) and checkpoint (MMCK) formats, synthetic
phantom generation, and intensity normalization.

MMV1 layout: magic "MMV1"; u32 LE n_channels, D, H, W; one dtype byte
(0 = f32 LE, 1 = u8 label); raw payload in channel, depth, row, column
order. Header is 21 bytes.

MMCK layout: magic "MMCK"; u32 version (1); u32 config text length +
utf-8 config; per tensor: u32 name length, name bytes, u32 ndim, u32
dims, f32 LE payload.
"""

import math
import os
import struct
from dataclasses import fields

import numpy as np

from .network import ModelConfig, ModelParams, config_text, parse_config

MAGIC_VOLUME = b"MMV1"
MAGIC_CHECKPOINT = b"MMCK"
CHECKPOINT_VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1

T1C_CHANNEL = 3


class FormatError(ValueError):
    """Base class for file-format violations."""


class BadMagicError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class UnknownDtypeError(FormatError):
    pass


class VersionError(FormatError):
    pass


class NameCollisionError(FormatError):
    pass


def _read_exact(f, n, what):
    # n may come from a forged header: check it against the bytes left in
    # the file before read() allocates n bytes
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise TruncatedPayloadError(
            f"{what} declares {n} bytes, the file has {left} left")
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedPayloadError(f"truncated payload while reading {what}")
    return buf


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
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC_VOLUME!r}")
        c, d, h, w = struct.unpack("<4I", _read_exact(f, 16, "header dims"))
        (code,) = struct.unpack("<B", _read_exact(f, 1, "dtype code"))
        if code == DTYPE_F32:
            n = c * d * h * w
            raw = _read_exact(f, 4 * n, "f32 payload")
            arr = np.frombuffer(raw, dtype="<f4").reshape(c, d, h, w).copy()
            kind = "modal"
        elif code == DTYPE_U8:
            n = c * d * h * w
            raw = _read_exact(f, n, "u8 payload")
            arr = np.frombuffer(raw, dtype=np.uint8).reshape(c, d, h, w).copy()
            if c == 1:
                arr = arr[0]
            kind = "label"
        else:
            raise UnknownDtypeError(f"unknown dtype code {code}")
        if f.read(1):
            raise TruncatedPayloadError("trailing bytes after payload")
    return arr, kind


def save_checkpoint(path, params):
    """Serialize model config + every tensor (trainable and BN state)."""
    tensors = {name: t.data for name, t in params.named_tensors().items()}
    for name, arr in params.named_state().items():
        if name in tensors:
            raise NameCollisionError(f"duplicate tensor name {name}")
        tensors[name] = arr
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
    """Returns (ModelParams, ModelConfig)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC_CHECKPOINT:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC_CHECKPOINT!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        config = _parse_model_config(
            _read_exact(f, cfg_len, "config").decode("utf-8"))
        tensors = {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise TruncatedPayloadError("truncated tensor name length")
            (nlen,) = struct.unpack("<I", head)
            name = _read_exact(f, nlen, "tensor name").decode("utf-8")
            if name in tensors:
                raise NameCollisionError(f"duplicate tensor name {name}")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4, "ndim"))
            dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "dims"))
            n = math.prod(dims)
            raw = _read_exact(f, 4 * n, f"payload of {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    def stored(name, like):
        if name not in tensors:
            raise TruncatedPayloadError(f"checkpoint missing tensor {name}")
        if tensors[name].shape != like.shape:
            raise FormatError(f"shape mismatch for {name}")
        return tensors[name]

    params = ModelParams(config)
    for name, t in params.named_tensors().items():
        t.data = stored(name, t)
    for name, bn in params.batchnorms().items():
        bn.running_mean = stored(f"{name}.running_mean", bn.running_mean)
        bn.running_var = stored(f"{name}.running_var", bn.running_var)
    return params, config


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
        out[c] = (ch - ch.mean()) / (std if std > 0 else 1.0)
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
    if min(dims) < 16:
        raise ValueError("each extent must be at least 16")
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

    volume = _CLASS_MEANS.T[:, labels]  # (4, D, H, W)
    volume = volume + rng.normal(0.0, NOISE_SIGMA, size=volume.shape)
    return volume.astype(np.float32), labels

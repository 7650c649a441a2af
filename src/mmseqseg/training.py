"""Median-frequency class weighting, tumor-aware sampling, Adam, and
the two-phase training loop.

Phase 1 samples only tumor-bearing slice sequences and weights the
cross-entropy by median-frequency balancing; phase 2 samples the
natural distribution with unit weights at a lower learning rate.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor  # check_finite is looked up at each call, as in ops
from .network import forward_logits
from .ops import softmax_ce_loss
from .tensor import NumericalError


@dataclass
class ClassWeights:
    alpha: np.ndarray       # per-class loss weight, 0 for absent classes
    freq: np.ndarray        # per-class frequency in [0,1]
    median_freq: float


@dataclass
class TrainConfig:
    batch_size: int = 3
    sequence_length: int = 3
    lr_phase1: float = 1e-4
    lr_phase2: float = 1e-6
    phase1_steps: int = 300
    phase2_steps: int = 100
    clip_norm: float = 5.0  # 0 disables clipping
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "sequence_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("phase1_steps", "phase2_steps", "clip_norm", "seed"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must not be negative")
        for name in ("lr_phase1", "lr_phase2"):
            if not 0 <= getattr(self, name) < float("inf"):  # NaN fails too
                raise ValueError(f"{name} must be finite and not negative")
        if self.phase2_steps > 0 and self.phase1_steps > 0 \
                and not self.lr_phase2 < self.lr_phase1:
            raise ValueError("phase-2 learning rate must be below phase 1")


def compute_class_weights(label_volumes, k):
    """Median-frequency balancing over 2D slices.

    freq(c) = pixels of class c / total pixels of the slices where c is
    present; alpha(c) = median(present freqs) / freq(c). Absent classes
    get alpha 0 and stay out of the median.
    """
    class_pixels = np.zeros(k, dtype=np.int64)
    present_pixels = np.zeros(k, dtype=np.int64)
    for vol in label_volumes:
        vol = np.asarray(vol)
        slices = vol.reshape(-1, vol.shape[-2], vol.shape[-1]) \
            if vol.ndim == 3 else vol[None]
        for sl in slices:
            counts = np.bincount(sl.reshape(-1), minlength=k)[:k]
            class_pixels += counts
            present_pixels += np.where(counts > 0, sl.size, 0)
    present = present_pixels > 0
    if not present.any():
        raise ValueError("no class present in the label corpus")
    freq = np.zeros(k, dtype=np.float64)
    freq[present] = class_pixels[present] / present_pixels[present]
    median_freq = float(np.median(freq[present]))
    alpha = np.zeros(k, dtype=np.float64)
    alpha[present] = median_freq / freq[present]
    return ClassWeights(alpha=alpha, freq=freq, median_freq=median_freq)


class SequenceDataset:
    """All T-length slice windows (stride 1) over a list of cases.

    Each case is (image (M,D,H,W) float array, labels (D,H,W) ints).
    """

    def __init__(self, cases, seq_len):
        self.cases = cases
        self.seq_len = seq_len
        self.windows = []       # (case index, start depth)
        self.tumor_windows = []
        for ci, (img, lbl) in enumerate(cases):
            d = lbl.shape[0]
            if seq_len > d:
                raise ValueError(f"sequence length {seq_len} exceeds depth {d}")
            for start in range(d - seq_len + 1):
                self.windows.append((ci, start))
                if np.any(lbl[start:start + seq_len] > 0):
                    self.tumor_windows.append((ci, start))

    def fetch(self, window):
        ci, start = window
        img, lbl = self.cases[ci]
        x_seq = img[:, start:start + self.seq_len].transpose(1, 0, 2, 3)
        y_seq = lbl[start:start + self.seq_len]
        return np.ascontiguousarray(x_seq), np.ascontiguousarray(y_seq)


def sample_phase1(dataset, rng, batch_size):
    """Uniform draw over tumor-bearing sequences."""
    if not dataset.tumor_windows:
        raise ValueError("no tumor-bearing sequence available for phase 1")
    picks = rng.integers(0, len(dataset.tumor_windows), size=batch_size)
    return [dataset.fetch(dataset.tumor_windows[i]) for i in picks]


def sample_natural(dataset, rng, batch_size):
    """Uniform draw over all sequences (phase 2)."""
    picks = rng.integers(0, len(dataset.windows), size=batch_size)
    return [dataset.fetch(dataset.windows[i]) for i in picks]


# Adam's moment decay rates and denominator offset
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class OptimizerState:
    """Adam moment accumulators keyed by parameter name."""

    def __init__(self, named_params):
        self.m = {k: np.zeros_like(t.data) for k, t in named_params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in named_params.items()}
        self.step = 0


def adam_update(named_params, state, lr):
    """Standard Adam step with bias correction. The moments and every
    parameter's array are updated in place, so views of them stay live."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in named_params.items():
        g = p.grad
        if g is None:
            continue
        tensor.check_finite(g, f"gradient of parameter {name}")
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def clip_gradients(named_params, max_norm):
    """Global-norm gradient clipping; returns the pre-clip norm."""
    total = 0.0
    for p in named_params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in named_params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def train_step(params, named, batch, alpha, opt_state, lr, config,
               bn_mode="train"):
    """One optimizer step over a batch of (x_seq, y_seq) pairs."""
    for p in named.values():
        p.zero_grad()
    total = 0.0
    inv_b = 1.0 / len(batch)
    for x_seq, y_seq in batch:
        # the logits are named nowhere, so the backward sweep frees them
        # and their gradient with the rest of the graph, before the next
        # sequence's forward
        loss = softmax_ce_loss(forward_logits(params, x_seq, mode=bn_mode),
                               y_seq, alpha.astype(x_seq.dtype))
        total += float(loss.data)
        loss.backward(seed=inv_b)  # batch gradients average

    clip_gradients(named, config.clip_norm)
    adam_update(named, opt_state, lr)
    return total * inv_b


def run_two_phase(config, params, dataset):
    """Two-phase schedule; returns the list of log records.

    Phase 1: tumor-only sampling with median-frequency weights at
    lr_phase1. Phase 2: natural sampling with unit weights at
    lr_phase2, normalizing with the frozen phase-1 running statistics
    (natural batches are background-heavy; letting them re-estimate the
    batch-norm statistics the classifier co-adapted to in phase 1
    wrecks the minority classes). One `phase= step= loss= lr=` record
    per step.
    """
    k = params.config.class_count
    rng = np.random.default_rng(config.seed)
    named = params.named_tensors()
    opt_state = OptimizerState(named)
    balanced = compute_class_weights([lbl for _, lbl in dataset.cases], k).alpha
    unit = np.ones(k, dtype=np.float64)
    records = []

    step_id = 0
    schedule = [
        (1, config.phase1_steps, config.lr_phase1, balanced, sample_phase1,
         "train"),
        (2, config.phase2_steps, config.lr_phase2, unit, sample_natural,
         "eval"),
    ]
    for phase, steps, lr, alpha, sampler, bn_mode in schedule:
        for _ in range(steps):
            batch = sampler(dataset, rng, config.batch_size)
            loss = train_step(params, named, batch, alpha, opt_state, lr,
                              config, bn_mode)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged at phase={phase} step={step_id}"
                )
            records.append(f"phase={phase} step={step_id} loss={loss:.6f} lr={lr:g}")
            step_id += 1
    return records

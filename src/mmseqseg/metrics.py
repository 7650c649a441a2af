"""Volumetric evaluation: per-class IU / MeanIU plus Dice, PPV and
Sensitivity over the clinical tumor regions.

Every score comes from one K x K confusion matrix, in exact integer
arithmetic. A region binarizes both volumes by membership in its label
set, so its counts are sums of one block of the matrix: the
intersection sums the rows and columns of the region's labels, the
predicted count its columns and the true count its rows.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RegionSpec:
    name: str
    labels: frozenset

    def __post_init__(self):
        if not self.labels:
            raise ValueError("region label set must be nonempty")
        if 0 in self.labels:
            raise ValueError("label 0 (normal tissue) cannot be in a region")


DEFAULT_REGIONS = (
    RegionSpec("complete", frozenset({1, 2, 3, 4})),
    RegionSpec("core", frozenset({1, 3, 4})),
    RegionSpec("enhancing", frozenset({4})),
)


SLAB = 1 << 16  # voxels confusion() indexes at a time


def confusion(pred, truth, k):
    """K x K counts; entry (t, p) = voxels with true t predicted p.
    Counted one slab of voxels at a time, so that the int64 index is one
    slab's, not the volume's."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.max() >= k or truth.max() >= k:
        raise ValueError(f"labels must be below {k}")
    pred, truth = pred.reshape(-1), truth.reshape(-1)
    cm = np.zeros(k * k, dtype=np.int64)
    for i in range(0, pred.size, SLAB):
        idx = truth[i:i + SLAB].astype(np.int64)
        idx *= k
        idx += pred[i:i + SLAB]
        cm += np.bincount(idx, minlength=k * k)
        del idx  # before the next slab's is made
    return cm.reshape(k, k)


def mean_iu(cm):
    """Per-class IU and their mean over classes with nonempty union."""
    cm = np.asarray(cm, dtype=np.int64)
    k = cm.shape[0]
    diag = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - diag
    iu = np.full(k, np.nan)
    included = union > 0
    iu[included] = diag[included] / union[included]
    return iu, float(iu[included].mean())


def region_counts(cm, region):
    """(intersection, predicted, true) voxel counts of a region from a
    confusion matrix; labels at or above its size K count 0."""
    k = cm.shape[0]
    labels = [c for c in region.labels if c < k]
    block = cm[labels]  # true rows in the region
    return (int(block[:, labels].sum()), int(cm[:, labels].sum()),
            int(block.sum()))


def scores_from_counts(inter, npred, ntruth):
    """Dice/PPV/Sensitivity with the empty-region conventions: both
    empty -> all 1; exactly one empty -> 0 (undefined ratio reported 0)."""
    if npred == 0 and ntruth == 0:
        return 1.0, 1.0, 1.0
    dice = 2.0 * inter / (npred + ntruth)
    ppv = inter / npred if npred else 0.0
    sens = inter / ntruth if ntruth else 0.0
    return dice, ppv, sens


def region_scores(pred, truth, region):
    """Dice/PPV/Sensitivity of one region over a pair of label arrays."""
    k = int(max(np.max(pred, initial=0), np.max(truth, initial=0))) + 1
    return scores_from_counts(*region_counts(confusion(pred, truth, k), region))


@dataclass
class MetricsReport:
    iu: np.ndarray
    mean_iu: float
    regions: dict = field(default_factory=dict)  # name -> (dice, ppv, sens)

    def to_text(self):
        """Canonical report: stable key order for diff-based testing."""
        lines = [f"mean_iu={self.mean_iu:.10g}"]
        for c, v in enumerate(self.iu):
            lines.append(f"iu[{c}]={'nan' if np.isnan(v) else format(v, '.10g')}")
        for name in sorted(self.regions):
            d, p, s = self.regions[name]
            lines.append(f"region[{name}].dice={d:.10g}")
            lines.append(f"region[{name}].ppv={p:.10g}")
            lines.append(f"region[{name}].sensitivity={s:.10g}")
        return "".join(l + "\n" for l in lines)


def evaluate(pred_volumes, truth_volumes, k):
    """Aggregate report over paired label volumes: one confusion matrix
    pooled over all voxels, and every score derived from it."""
    cm = np.zeros((k, k), dtype=np.int64)
    for pred, truth in zip(pred_volumes, truth_volumes):
        cm += confusion(pred, truth, k)
    iu, miu = mean_iu(cm)
    return MetricsReport(iu=iu, mean_iu=miu, regions={
        r.name: scores_from_counts(*region_counts(cm, r))
        for r in DEFAULT_REGIONS})

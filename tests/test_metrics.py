"""Metric correctness against brute-force voxel-set counting."""

import tracemalloc

import numpy as np
import pytest

from mmseqseg import metrics
from mmseqseg.metrics import (DEFAULT_REGIONS, MetricsReport, RegionSpec,
                              confusion, evaluate, mean_iu, region_counts,
                              region_scores, scores_from_counts)


def brute_confusion(pred, truth, k):
    cm = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth.reshape(-1), pred.reshape(-1)):
        cm[t, p] += 1
    return cm


class TestConfusion:
    def test_perfect_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 5, size=(4, 4, 4))
        cm = confusion(x, x, 5)
        assert cm.sum() == x.size
        assert np.all(cm == np.diag(np.diag(cm)))

    def test_two_voxel_hand_case(self):
        cm = confusion(np.array([1, 1]), np.array([0, 1]), 2)
        assert cm[0, 1] == 1 and cm[1, 1] == 1 and cm.sum() == 2

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 5, size=(16, 16, 16))
        pred = rng.integers(0, 5, size=(16, 16, 16))
        np.testing.assert_array_equal(confusion(pred, truth, 5),
                                      brute_confusion(pred, truth, 5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int), 5)

    def test_label_too_big(self):
        with pytest.raises(ValueError):
            confusion(np.array([5]), np.array([0]), 5)


class TestConfusionSlabs:
    @pytest.mark.parametrize("k", [5, 256])
    def test_equals_one_shot_count(self, k):
        # 3 slabs and a part: the slab does not divide the size
        rng = np.random.default_rng(k)
        shape = (3, 7, metrics.SLAB // 7 + 5)
        truth = rng.integers(0, k, size=shape).astype(np.uint8)
        pred = rng.integers(0, k, size=shape).astype(np.uint8)
        assert truth.size % metrics.SLAB
        one_shot = np.bincount(truth.reshape(-1).astype(np.int64) * k
                               + pred.reshape(-1),
                               minlength=k * k).reshape(k, k)
        cm = confusion(pred, truth, k)
        assert cm.dtype == one_shot.dtype
        np.testing.assert_array_equal(cm, one_shot)

    def test_peak_memory_is_one_slab(self):
        # an eval case's label pair is 0.8 MB; a whole-volume int64 index
        # would be 6.3 MB
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 5, size=(48, 128, 128)).astype(np.uint8)
        pred = rng.integers(0, 5, size=(48, 128, 128)).astype(np.uint8)
        tracemalloc.start()
        try:
            confusion(pred, truth, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak


class TestMeanIu:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 4, size=(8, 8))
        iu, miu = mean_iu(confusion(x, x, 5))
        assert miu == 1.0
        present = np.unique(x)
        assert np.all(iu[present] == 1.0)
        assert np.isnan(iu[4])  # absent class excluded

    def test_disjoint_class_zero_iu(self):
        truth = np.array([1, 1, 0, 0])
        pred = np.array([0, 0, 1, 1])
        iu, _ = mean_iu(confusion(pred, truth, 2))
        assert iu[0] == 0.0 and iu[1] == 0.0

    def test_set_count_oracle(self):
        # truth has 6 voxels of class 1, pred marks 4 of which 3 overlap
        truth = np.zeros(20, dtype=int)
        truth[:6] = 1
        pred = np.zeros(20, dtype=int)
        pred[3:7] = 1
        iu, _ = mean_iu(confusion(pred, truth, 2))
        assert iu[1] == pytest.approx(3 / 7)


class TestRegionScores:
    def test_perfect(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 5, size=(6, 6, 6))
        for region in DEFAULT_REGIONS:
            if np.isin(x, list(region.labels)).any():
                assert region_scores(x, x, region) == (1.0, 1.0, 1.0)

    def test_hand_counts(self):
        # |P|=4, |T|=6, |P&T|=3
        truth = np.zeros(20, dtype=int)
        truth[:6] = 4
        pred = np.zeros(20, dtype=int)
        pred[3:7] = 4
        dice, ppv, sens = region_scores(pred, truth, DEFAULT_REGIONS[2])
        assert dice == pytest.approx(0.6)
        assert ppv == pytest.approx(0.75)
        assert sens == pytest.approx(0.5)

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            truth = rng.integers(0, 5, size=(8, 8, 8))
            pred = rng.integers(0, 5, size=(8, 8, 8))
            for region in DEFAULT_REGIONS:
                dice, ppv, sens = region_scores(pred, truth, region)
                if ppv + sens > 0:
                    assert dice == pytest.approx(
                        2 * ppv * sens / (ppv + sens), abs=1e-12)

    def test_empty_conventions(self):
        zeros = np.zeros(10, dtype=int)
        ones_region = zeros.copy()
        ones_region[0] = 4
        region = DEFAULT_REGIONS[2]
        assert region_scores(zeros, zeros, region) == (1.0, 1.0, 1.0)
        dice, ppv, sens = region_scores(ones_region, zeros, region)
        assert (dice, sens) == (0.0, 0.0)
        dice, ppv, sens = region_scores(zeros, ones_region, region)
        assert (dice, ppv) == (0.0, 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 5, size=(6, 6))
        truth = rng.integers(0, 5, size=(6, 6))
        for region in DEFAULT_REGIONS:
            d1, p1, s1 = region_scores(pred, truth, region)
            d2, p2, s2 = region_scores(truth, pred, region)
            assert d1 == pytest.approx(d2, abs=1e-15)
            assert p1 == pytest.approx(s2, abs=1e-15)
            assert s1 == pytest.approx(p2, abs=1e-15)


class TestRegionsFromConfusion:
    @staticmethod
    def isin_scores(preds, truths, region):
        """Dice/PPV/Sensitivity from voxel sets pooled over volumes."""
        labels = list(region.labels)
        inter = npred = ntruth = 0
        for pred, truth in zip(preds, truths):
            p, t = np.isin(pred, labels), np.isin(truth, labels)
            inter += int(np.count_nonzero(p & t))
            npred += int(np.count_nonzero(p))
            ntruth += int(np.count_nonzero(t))
        return scores_from_counts(inter, npred, ntruth)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_evaluate_matches_isin_oracle(self, k):
        # k below 5 leaves some region labels out of the matrix
        rng = np.random.default_rng(20 + k)
        for _ in range(10):
            shapes = [tuple(rng.integers(1, 9, size=3)) for _ in range(3)]
            preds = [rng.integers(0, k, size=s) for s in shapes]
            truths = [rng.integers(0, k, size=s) for s in shapes]
            report = evaluate(preds, truths, k)
            for region in DEFAULT_REGIONS:
                assert report.regions[region.name] == \
                    self.isin_scores(preds, truths, region)

    def test_counts_are_blocks_of_the_matrix(self):
        cm = np.arange(25).reshape(5, 5)
        region = RegionSpec("x", frozenset({1, 3}))
        rows = cm[1] + cm[3]
        assert region_counts(cm, region) == (
            cm[1, 1] + cm[1, 3] + cm[3, 1] + cm[3, 3],
            cm[:, 1].sum() + cm[:, 3].sum(), rows.sum())

    def test_labels_beyond_the_matrix_count_zero(self):
        cm = np.arange(9).reshape(3, 3)
        assert region_counts(cm, RegionSpec("x", frozenset({4}))) == (0, 0, 0)
        assert region_counts(cm, RegionSpec("x", frozenset({2, 4}))) == \
            region_counts(cm, RegionSpec("x", frozenset({2})))


class TestRegionSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RegionSpec("x", frozenset())

    def test_rejects_background(self):
        with pytest.raises(ValueError):
            RegionSpec("x", frozenset({0, 1}))

    def test_defaults_follow_the_legend(self):
        by_name = {r.name: r.labels for r in DEFAULT_REGIONS}
        assert by_name["complete"] == {1, 2, 3, 4}
        assert by_name["core"] == {1, 3, 4}
        assert by_name["enhancing"] == {4}


class TestReportText:
    def test_stable_key_order(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 5, size=(8, 8, 8))
        pred = rng.integers(0, 5, size=(8, 8, 8))
        rep = evaluate([pred], [truth], 5)
        text = rep.to_text()
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == ["mean_iu", "iu[0]", "iu[1]", "iu[2]", "iu[3]", "iu[4]",
                        "region[complete].dice", "region[complete].ppv",
                        "region[complete].sensitivity",
                        "region[core].dice", "region[core].ppv",
                        "region[core].sensitivity",
                        "region[enhancing].dice", "region[enhancing].ppv",
                        "region[enhancing].sensitivity"]
        assert rep.to_text() == evaluate([pred], [truth], 5).to_text()

    def test_aggregate_equals_confusion_sum(self):
        rng = np.random.default_rng(7)
        vols = [(rng.integers(0, 5, size=(6, 6, 6)),
                 rng.integers(0, 5, size=(6, 6, 6))) for _ in range(3)]
        rep = evaluate([p for p, _ in vols], [t for _, t in vols], 5)
        total = sum(confusion(p, t, 5) for p, t in vols)
        iu, miu = mean_iu(total)
        assert rep.mean_iu == miu

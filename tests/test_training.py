"""Class weighting, sampling, Adam, and the two-phase schedule."""

import numpy as np
import pytest

from mmseqseg.network import ModelConfig, init_params
from mmseqseg.tensor import NumericalError, Tensor
from mmseqseg.training import (OptimizerState, SequenceDataset, TrainConfig,
                               adam_update, clip_gradients,
                               compute_class_weights, run_two_phase,
                               sample_natural, sample_phase1)

TINY_MODEL = dict(encoder_channels=(2, 3, 4, 5), input_height=16,
                  input_width=16, sequence_length=2)


def labels_with_freqs():
    """One-slice corpus with class frequencies 0.7 / 0.2 / 0.1."""
    sl = np.zeros((1, 10, 10), dtype=np.uint8)
    flat = sl.reshape(-1)
    flat[:70] = 0
    flat[70:90] = 1
    flat[90:] = 2
    return [sl]


class TestClassWeights:
    def test_formula_on_known_freqs(self):
        cw = compute_class_weights(labels_with_freqs(), 3)
        np.testing.assert_allclose(cw.freq, [0.7, 0.2, 0.1])
        assert cw.median_freq == pytest.approx(0.2)
        np.testing.assert_allclose(cw.alpha, [0.2 / 0.7, 1.0, 2.0])

    def test_uniform_freqs_unit_alpha(self):
        sl = np.zeros((1, 2, 2), dtype=np.uint8)
        sl.reshape(-1)[:] = [0, 1, 2, 3]
        cw = compute_class_weights([sl], 4)
        np.testing.assert_allclose(cw.alpha, 1.0)

    def test_single_present_class(self):
        cw = compute_class_weights([np.zeros((1, 4, 4), dtype=np.uint8)], 5)
        assert cw.alpha[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(cw.alpha[1:], 0.0)

    def test_alpha_freq_product_is_median(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vols = [rng.integers(0, 5, size=(4, 8, 8)).astype(np.uint8)
                    for _ in range(3)]
            cw = compute_class_weights(vols, 5)
            present = cw.freq > 0
            np.testing.assert_allclose(cw.alpha[present] * cw.freq[present],
                                       cw.median_freq, atol=1e-9)

    def test_dominant_class_deweighted(self):
        rng = np.random.default_rng(1)
        vols = [rng.choice(5, size=(4, 8, 8), p=[0.8, 0.1, 0.05, 0.03, 0.02])
                .astype(np.uint8) for _ in range(4)]
        cw = compute_class_weights(vols, 5)
        order = np.argsort(cw.freq)
        present = cw.freq[order] > 0
        alphas = cw.alpha[order][present]
        assert np.all(np.diff(alphas) <= 0)  # higher freq -> lower alpha

    def test_per_present_slice_denominator(self):
        # class 1 appears in only one of two slices; its denominator
        # counts only that slice's pixels
        a = np.zeros((1, 2, 2), dtype=np.uint8)
        b = np.zeros((1, 2, 2), dtype=np.uint8)
        b.reshape(-1)[0] = 1
        cw = compute_class_weights([a, b], 2)
        assert cw.freq[1] == pytest.approx(1 / 4)
        assert cw.freq[0] == pytest.approx(7 / 8)


def tiny_dataset(tumor_cases=1, empty_cases=0, seq_len=2, seed=0):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(tumor_cases):
        img = rng.standard_normal((4, 4, 16, 16)).astype(np.float32)
        lbl = np.zeros((4, 16, 16), dtype=np.uint8)
        lbl[1, 4:8, 4:8] = 1
        lbl[1, 5:7, 5:7] = 4
        cases.append((img, lbl))
    for i in range(empty_cases):
        img = rng.standard_normal((4, 4, 16, 16)).astype(np.float32)
        cases.append((img, np.zeros((4, 16, 16), dtype=np.uint8)))
    return SequenceDataset(cases, seq_len)


class TestSampling:
    def test_all_batches_from_only_candidate(self):
        ds = tiny_dataset(tumor_cases=1, empty_cases=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            for x, y in sample_phase1(ds, rng, 3):
                assert np.any(y > 0)

    def test_no_all_background_sequences(self):
        ds = tiny_dataset(tumor_cases=2, empty_cases=2, seed=3)
        rng = np.random.default_rng(4)
        draws = sample_phase1(ds, rng, 200)
        assert all(np.any(y > 0) for _, y in draws)

    def test_no_qualifying_sequence_raises(self):
        ds = tiny_dataset(tumor_cases=0, empty_cases=1)
        with pytest.raises(ValueError):
            sample_phase1(ds, np.random.default_rng(0))

    def test_uniform_over_qualifying(self):
        # chi-square against uniform within 3 sigma over 10k draws
        ds = tiny_dataset(tumor_cases=3, empty_cases=1, seed=5)
        q = len(ds.tumor_windows)
        assert q >= 3
        # window identity recovered from the (unique) image bytes
        lookup = {ds.fetch(w)[0].tobytes(): i
                  for i, w in enumerate(ds.tumor_windows)}
        counts = np.zeros(q)
        rng = np.random.default_rng(6)
        for x, _ in sample_phase1(ds, rng, 10000):
            counts[lookup[x.tobytes()]] += 1
        expected = 10000 / q
        chi2 = ((counts - expected) ** 2 / expected).sum()
        df = q - 1
        assert chi2 < df + 3 * np.sqrt(2 * df)

    def test_natural_sampling_covers_background(self):
        ds = tiny_dataset(tumor_cases=1, empty_cases=3, seed=7)
        rng = np.random.default_rng(8)
        draws = sample_natural(ds, rng, 500)
        assert any(not np.any(y > 0) for _, y in draws)


class TestAdam:
    def named(self, value):
        return {"w": Tensor(np.asarray(value, dtype=np.float64),
                            requires_grad=True)}

    def test_zero_gradient_fixed_point(self):
        named = self.named([1.0, -2.0])
        named["w"].grad = np.zeros(2)
        state = OptimizerState(named)
        adam_update(named, state, lr=0.1)
        np.testing.assert_array_equal(named["w"].data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        named = self.named([0.0])
        named["w"].grad = np.array([3.7])
        state = OptimizerState(named)
        adam_update(named, state, lr=1e-2)
        # bias-corrected first step is lr * g/|g| up to epsilon
        assert abs(abs(named["w"].data[0]) - 1e-2) < 1e-6

    def test_quadratic_bowl_matches_scalar_oracle(self):
        # independent scalar Adam recurrence on f(w) = w**2
        w, m, v = 1.0, 0.0, 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
        oracle = []
        for t in range(1, 301):
            g = 2.0 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            oracle.append(w)

        named = self.named([1.0])
        state = OptimizerState(named)
        for t in range(300):
            named["w"].grad = 2.0 * named["w"].data
            adam_update(named, state, lr=lr)
            assert named["w"].data[0] == pytest.approx(oracle[t], rel=1e-12)
        # 200 steps leaves |w| at ~1.6e-2; convergence below 1e-2 needs ~220
        assert abs(oracle[199]) < 2e-2
        assert abs(named["w"].data[0]) < 1e-2

    def test_gradient_rescale_keeps_sign_pattern(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal(50)
        a = self.named(np.zeros(50))
        a["w"].grad = g.copy()
        adam_update(a, OptimizerState(a), lr=1e-3)
        b = self.named(np.zeros(50))
        b["w"].grad = 10.0 * g
        adam_update(b, OptimizerState(b), lr=1e-3)
        np.testing.assert_array_equal(np.sign(a["w"].data), np.sign(b["w"].data))

    def test_nonfinite_gradient_raises(self):
        named = self.named([1.0])
        named["w"].grad = np.array([np.nan])
        with pytest.raises(NumericalError, match="w"):
            adam_update(named, OptimizerState(named), lr=1e-3)


class TestClip:
    def test_norm_reduced(self):
        named = {"w": Tensor(np.zeros(4), requires_grad=True)}
        named["w"].grad = np.full(4, 10.0)
        pre = clip_gradients(named, 5.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(named["w"].grad) == pytest.approx(5.0)

    def test_disabled_with_zero(self):
        named = {"w": Tensor(np.zeros(4), requires_grad=True)}
        named["w"].grad = np.full(4, 10.0)
        clip_gradients(named, 0.0)
        np.testing.assert_array_equal(named["w"].grad, 10.0)


class TestTwoPhase:
    def run(self, phase1, phase2, seed=0):
        ds = tiny_dataset(tumor_cases=1, empty_cases=1, seed=seed)
        config = TrainConfig(batch_size=2, sequence_length=2,
                             phase1_steps=phase1, phase2_steps=phase2,
                             seed=seed)
        params = init_params(ModelConfig(seed=seed, **TINY_MODEL))
        records = run_two_phase(config, params, ds)
        return params, records

    def test_zero_phase1_is_pure_phase2(self):
        _, records = self.run(0, 3)
        assert len(records) == 3
        assert all(r.startswith("phase=2") for r in records)

    def test_log_bookkeeping(self):
        _, records = self.run(3, 2)
        assert len(records) == 5
        steps = [int(r.split("step=")[1].split()[0]) for r in records]
        assert steps == list(range(5))
        phases = [r.split()[0] for r in records]
        assert phases == ["phase=1"] * 3 + ["phase=2"] * 2

    def test_bit_reproducible(self):
        p1, r1 = self.run(2, 2, seed=5)
        p2, r2 = self.run(2, 2, seed=5)
        assert r1 == r2
        for (n1, t1), (n2, t2) in zip(p1.named_tensors().items(),
                                      p2.named_tensors().items()):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_loss_finite_throughout(self):
        _, records = self.run(4, 2)
        for r in records:
            assert np.isfinite(float(r.split("loss=")[1].split()[0]))

    def test_phase2_freezes_bn_statistics(self):
        ds = tiny_dataset(tumor_cases=1, empty_cases=1)
        config = TrainConfig(batch_size=1, sequence_length=2, phase1_steps=2,
                             phase2_steps=0, seed=0)
        params = init_params(ModelConfig(seed=0, **TINY_MODEL))
        run_two_phase(config, params, ds)
        before = {k: v.copy() for k, v in params.named_state().items()}
        config2 = TrainConfig(batch_size=1, sequence_length=2, phase1_steps=0,
                              phase2_steps=3, seed=1)
        run_two_phase(config2, params, ds)
        for k, v in params.named_state().items():
            np.testing.assert_array_equal(v, before[k])

    def test_lr_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_phase1=1e-6, lr_phase2=1e-4)

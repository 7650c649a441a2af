"""Acceptance battery A1-A8.

Each test emits one `A<n> <name>: PASS|FAIL ...` line (echoed in the
terminal summary via conftest, past pytest's capture) and asserts the
same condition, so both the console stream and the pytest report carry
the verdicts.

A1 note: unit operations are checked at 1e-4; the end-to-end probe is
checked at 1e-3, the tolerance the network contract itself states for
the composed float-graph check.
"""

import time

import numpy as np
import pytest

from conftest import VERDICTS

from mmseqseg.convlstm import ConvLstmParams, ConvLstmState, convlstm_step
from mmseqseg.dataio import (gen_synthetic_case, load_checkpoint,
                             normalize_volume, save_checkpoint)
from mmseqseg.gradsuite import CHECKS
from mmseqseg.metrics import (DEFAULT_REGIONS, confusion, evaluate, mean_iu,
                              region_scores)
from mmseqseg.network import (ModelConfig, forward, init_params,
                              predict_volume)
from mmseqseg.tensor import Tensor
from mmseqseg.training import (SequenceDataset, TrainConfig,
                               compute_class_weights, run_two_phase)

# A2/A3 training configuration. The criterion pins cases, dims, channel
# widths, steps, batch and T; the learning rate is a free config key and
# the defaults are far too timid for a 400-step overfit, so the
# acceptance run sets it explicitly.
PHASE1_LR = 1e-2
PHASE2_LR = 1e-3


def verdict(tag, ok, detail=""):
    line = f"{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    VERDICTS.append(line)
    assert ok, line


def make_corpus(seed0):
    cases = []
    for i in range(4):
        img, lbl = gen_synthetic_case(seed0 + i, (32, 64, 64))
        cases.append((normalize_volume(img), lbl))
    return cases


def train_model(cases, phase1_steps, phase2_steps):
    dataset = SequenceDataset(cases, 3)
    config = TrainConfig(batch_size=3, sequence_length=3,
                         lr_phase1=PHASE1_LR, lr_phase2=PHASE2_LR,
                         phase1_steps=phase1_steps, phase2_steps=phase2_steps,
                         seed=0)
    params = init_params(ModelConfig(seed=0))
    records = run_two_phase(config, params, dataset)
    losses = [float(r.split("loss=")[1].split()[0]) for r in records]
    return params, losses


@pytest.fixture(scope="module")
def train_cases():
    return make_corpus(0)


@pytest.fixture(scope="module")
def overfit_run(train_cases):
    t0 = time.time()
    params, losses = train_model(train_cases, 300, 100)
    return params, losses, time.time() - t0


def test_A1_gradient_integrity():
    t0 = time.time()
    failures = []
    worst = 0.0
    for name, fn, tol in CHECKS:  # 1e-4 everywhere, e2e probe at 1e-3
        for seed in (0, 1, 2):
            report = fn(seed, tol)
            worst = max(worst, report.worst())
            if not report.passed:
                failures.append(f"{name}@seed{seed}={report.worst():.2e}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    verdict("A1 gradient-integrity", ok,
            f"13 ops x 3 seeds, worst_rel_err={worst:.2e}, {elapsed:.0f}s"
            + (f", failures={failures}" if failures else ""))


@pytest.mark.slow
def test_A2_overfit_sanity(train_cases, overfit_run):
    params, losses, elapsed = overfit_run
    preds = [predict_volume(params, img, 3) for img, _ in train_cases]
    report = evaluate(preds, [lbl for _, lbl in train_cases], 5)
    ratio = losses[-1] / losses[0]
    ok = report.mean_iu >= 0.85 and ratio < 0.20 and elapsed < 900.0
    verdict("A2 overfit-sanity", ok,
            f"mean_iu={report.mean_iu:.3f}, loss_ratio={ratio:.3f}, "
            f"{elapsed:.0f}s")


@pytest.mark.slow
def test_A3_two_phase_direction(train_cases, overfit_run):
    held_out = make_corpus(100)
    two_phase, _, _ = overfit_run
    phase1_only, _ = train_model(train_cases, 400, 0)

    def label0_accuracy(params):
        hits = total = 0
        for img, lbl in held_out:
            pred = predict_volume(params, img, 3)
            mask = lbl == 0
            hits += int(np.count_nonzero(pred[mask] == 0))
            total += int(np.count_nonzero(mask))
        return hits / total

    acc_two = label0_accuracy(two_phase)
    acc_one = label0_accuracy(phase1_only)
    verdict("A3 two-phase-direction", acc_two >= acc_one,
            f"label0 acc two-phase={acc_two:.4f} vs phase1-only={acc_one:.4f}")


def test_A4_metric_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    for _ in range(100):
        truth = rng.integers(0, 5, size=(16, 16, 16))
        pred = rng.integers(0, 5, size=(16, 16, 16))

        cm = np.zeros((5, 5), dtype=np.int64)
        for t, p in zip(truth.reshape(-1), pred.reshape(-1)):
            cm[t, p] += 1
        assert np.array_equal(confusion(pred, truth, 5), cm)

        iu, miu = mean_iu(confusion(pred, truth, 5))
        ius = []
        for c in range(5):
            inter = cm[c, c]
            union = cm[c, :].sum() + cm[:, c].sum() - inter
            if union:
                ius.append(inter / union)
                assert iu[c] == inter / union
        assert miu == sum(ius) / len(ius)

        for region in DEFAULT_REGIONS:
            pset = np.isin(pred, list(region.labels))
            tset = np.isin(truth, list(region.labels))
            np_, nt, ni = pset.sum(), tset.sum(), (pset & tset).sum()
            dice, ppv, sens = region_scores(pred, truth, region)
            assert ppv == (ni / np_ if np_ else (0.0, 1.0)[nt == 0])
            assert sens == (ni / nt if nt else (0.0, 1.0)[np_ == 0])
            assert dice == (2 * ni / (np_ + nt) if np_ + nt else 1.0)
            if np_ and nt and ppv + sens > 0:
                worst_gap = max(worst_gap,
                                abs(dice - 2 * ppv * sens / (ppv + sens)))
    verdict("A4 metric-oracle-equivalence", worst_gap < 1e-12,
            f"100 volumes exact, harmonic gap={worst_gap:.1e}")


def test_A5_cmc_selector_exactness():
    from mmseqseg.ops import batchnorm, conv2d, maxpool2x2, relu
    config = ModelConfig(seed=0, encoder_channels=(2, 3, 4, 5),
                         input_height=16, input_width=16, sequence_length=2)
    rng = np.random.default_rng(7)
    seq = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
    exact = True
    for m in range(4):
        params = init_params(config)
        for cmc in params.cmc:
            w = np.zeros_like(cmc.weights.data)
            w[:, m] = 1.0
            cmc.weights.data = w
        masked = np.zeros_like(seq)
        masked[:, m] = seq[:, m]
        inter = {}
        forward(params, masked, mode="eval", intermediates=inter)
        # the equivalent single-encoder path: modality m's encoder alone
        feat = Tensor(seq[:, m:m + 1])
        for s, stage in enumerate(params.encoders[m]):
            feat = maxpool2x2(relu(batchnorm(
                conv2d(feat, stage.kernel, stage.bias), stage.bn, "eval")))
            if not np.array_equal(inter["cmc"][s], feat.data):
                exact = False
    verdict("A5 cmc-selector-exactness", exact,
            "one-hot CMC == single-encoder path, bit-exact, 4 modalities")


def test_A6_class_weight_law():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        vols = [rng.integers(0, k, size=(2, 6, 6)).astype(np.uint8)
                for _ in range(int(rng.integers(1, 4)))]
        cw = compute_class_weights(vols, k)
        present = cw.freq > 0
        gap = np.abs(cw.alpha[present] * cw.freq[present] - cw.median_freq)
        worst = max(worst, float(gap.max()))
    verdict("A6 class-weight-law", worst < 1e-9,
            f"1000 corpora, worst |alpha*freq - median|={worst:.1e}")


def test_A7_determinism_and_persistence(tmp_path):
    tiny = dict(encoder_channels=(2, 3, 4, 5), input_height=16,
                input_width=16, sequence_length=2)
    rng = np.random.default_rng(3)
    cases = [(rng.standard_normal((4, 4, 16, 16)).astype(np.float32),
              (rng.random((4, 16, 16)) < 0.2).astype(np.uint8))]
    paths = []
    for run in range(2):
        config = TrainConfig(batch_size=1, sequence_length=2,
                             phase1_steps=3, phase2_steps=2, seed=9)
        params = init_params(ModelConfig(seed=9, **tiny))
        run_two_phase(config, params,
                      SequenceDataset(cases, 2))
        path = tmp_path / f"run{run}.mmck"
        save_checkpoint(path, params)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    loaded, config = load_checkpoint(paths[0])
    seq = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
    before = forward(params, seq, mode="eval")
    after = forward(loaded, seq, mode="eval")
    roundtrip = all(np.array_equal(a, b) for a, b in zip(before, after))
    verdict("A7 determinism-persistence", identical and roundtrip,
            f"checkpoints bit-identical={identical}, "
            f"eval roundtrip bit-exact={roundtrip}")


def test_A8_convlstm_identities():
    rng = np.random.default_rng(5)
    params = ConvLstmParams(in_channels=3, hidden_channels=4, kernel_size=3,
                            dtype=np.float64)
    for g in ConvLstmParams.GATES:   # random kernels, biases stay zero
        for side in ("x", "h"):
            t = getattr(params, f"W_{side}{g}")
            t.data = rng.standard_normal(t.shape)
    state = ConvLstmState.zeros(1, 4, 8, 8, dtype=np.float64)
    x = Tensor(np.zeros((1, 3, 8, 8)))
    h, nxt = convlstm_step(x, state, params)
    zero_ok = np.all(h.data == 0.0) and np.all(nxt.c.data == 0.0)

    counts = []
    for t in (1, 3, 5):
        p = init_params(ModelConfig(seed=0, encoder_channels=(2, 3, 4, 5),
                                    input_height=16, input_width=16,
                                    sequence_length=t))
        counts.append(sum(v.data.size for v in p.named_tensors().values()))
    const_ok = counts[0] == counts[1] == counts[2]
    verdict("A8 convlstm-identities", zero_ok and const_ok,
            f"zero-step output exactly 0={zero_ok}, "
            f"param count T=1/3/5: {counts}")

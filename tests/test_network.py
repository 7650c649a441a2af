"""Model assembly: init, shapes, determinism, symmetry, graph-free
inference, memory, prediction."""

import tracemalloc

import numpy as np
import pytest

from mmseqseg import crossmodal, ops, tensor
from mmseqseg.gradsuite import check_end_to_end
from mmseqseg.network import (ModelConfig, init_params, forward, forward_logits,
                              orthogonal_kernel, predict_volume)
from mmseqseg.tensor import ShapeError, Tensor, no_grad
from mmseqseg.training import OptimizerState, TrainConfig, train_step

TINY = dict(encoder_channels=(2, 3, 4, 5), input_height=16, input_width=16,
            sequence_length=2)


class TestInit:
    def test_convlstm_kernels_orthogonal(self):
        params = init_params(ModelConfig(seed=3), dtype=np.float64)
        for name, t in params.lstm.named_tensors().items():
            if not name.startswith("W_"):
                continue
            k = t.data.reshape(t.shape[0], -1)
            np.testing.assert_allclose(k @ k.T, np.eye(t.shape[0]), atol=1e-5)

    def test_same_seed_bit_identical(self):
        a = init_params(ModelConfig(seed=11))
        b = init_params(ModelConfig(seed=11))
        for (na, ta), (nb, tb) in zip(a.named_tensors().items(),
                                      b.named_tensors().items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = init_params(ModelConfig(seed=1))
        b = init_params(ModelConfig(seed=2))
        assert not np.array_equal(a.encoders[0][0].kernel.data,
                                  b.encoders[0][0].kernel.data)

    def test_forget_bias_one_others_zero(self):
        p = init_params(ModelConfig(seed=0))
        np.testing.assert_array_equal(p.lstm.b_f.data, 1.0)
        np.testing.assert_array_equal(p.lstm.b_i.data, 0.0)
        np.testing.assert_array_equal(p.lstm.b_c.data, 0.0)
        np.testing.assert_array_equal(p.lstm.b_o.data, 0.0)

    def test_fan_in_variance(self):
        # deepest encoder kernel has 32*3*3 fan-in and 64*32*9 samples
        p = init_params(ModelConfig(seed=5))
        k = p.encoders[0][3].kernel.data
        fan_in = k.shape[1] * 9
        assert k.size >= 10000
        assert abs(k.var() - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)

    def test_orthogonal_kernel_rejects_fat_rows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            orthogonal_kernel(rng, (8, 1, 1, 1), np.float64)


class TestForward:
    def test_output_shapes_and_normalization(self):
        config = ModelConfig(seed=0)
        params = init_params(config)
        rng = np.random.default_rng(1)
        seq = rng.standard_normal((3, 4, 64, 64)).astype(np.float32)
        probs = forward(params, seq, mode="train")
        assert len(probs) == 3
        for p in probs:
            assert p.shape == (5, 64, 64)
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-6)

    def test_eval_deterministic_and_batch_independent(self):
        config = ModelConfig(seed=2, **TINY)
        params = init_params(config)
        rng = np.random.default_rng(3)
        seq = rng.standard_normal((2, 4, 16, 16))
        a = forward(params, seq, mode="eval")
        b = forward(params, seq, mode="eval")
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_wrong_modality_count_raises(self):
        params = init_params(ModelConfig(seed=0, **TINY))
        with pytest.raises(Exception, match="modalit"):
            forward(params, np.zeros((2, 3, 16, 16)), mode="eval")

    def test_extent_not_divisible_raises(self):
        params = init_params(ModelConfig(seed=0, **TINY))
        with pytest.raises(Exception, match="divisible"):
            forward(params, np.zeros((2, 4, 20, 20)), mode="eval")

    def test_modality_permutation_symmetry(self):
        # permuting input modalities together with encoder assignment and
        # CMC weight columns leaves the output unchanged
        config = ModelConfig(seed=4, **TINY)
        params = init_params(config)
        rng = np.random.default_rng(5)
        for s, cmc in enumerate(params.cmc):
            cmc.weights.data = rng.standard_normal(cmc.weights.shape).astype(
                np.float32)
        seq = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        base = forward(params, seq, mode="eval")

        perm = [2, 0, 3, 1]
        permuted = init_params(config)
        for name, t in permuted.named_tensors().items():
            t.data = params.named_tensors()[name].data.copy()
        permuted.encoders = [params.encoders[m] for m in perm]
        for s, cmc in enumerate(permuted.cmc):
            cmc.weights.data = params.cmc[s].weights.data[:, np.argsort(perm)][
                :, :]
        # column j of the permuted weights must address modality perm[j]
        for s, cmc in enumerate(permuted.cmc):
            w = np.empty_like(params.cmc[s].weights.data)
            for j, m in enumerate(perm):
                w[:, j] = params.cmc[s].weights.data[:, m]
            cmc.weights.data = w
        out = forward(permuted, seq[:, perm], mode="eval")
        for pa, pb in zip(base, out):
            np.testing.assert_allclose(pa, pb, rtol=1e-5, atol=1e-6)

    def test_intermediates_exposed(self):
        params = init_params(ModelConfig(seed=6, **TINY))
        rng = np.random.default_rng(7)
        inter = {}
        forward(params, rng.standard_normal((2, 4, 16, 16)), mode="eval",
                intermediates=inter)
        assert len(inter["cmc"]) == 4
        assert inter["cmc"][0].shape == (2, 2, 8, 8)
        assert inter["cmc"][3].shape == (2, 5, 1, 1)


def _graph(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestGraph:
    def test_nodes_c_contiguous_and_counted(self):
        params = init_params(ModelConfig(seed=0, **TINY))
        seq = np.random.default_rng(4).standard_normal((2, 4, 16, 16))
        nodes = _graph(forward_logits(params, seq.astype(np.float32)))
        # 138 op outputs and 110 parameters, whatever the kernel layouts
        assert len(nodes) == 248
        assert all(n.data.flags.c_contiguous for n in nodes)

    def test_accumulate_keeps_stored_gradient(self):
        # diamond: both inputs of add are x, so x is reached twice; its
        # first gradient is add's upstream array itself, which the second
        # accumulation must not write into
        x = Tensor(np.arange(6.0).reshape(1, 1, 2, 3), requires_grad=True)
        s = ops.add(x, x)
        coeffs = np.linspace(1.0, 2.0, 6).reshape(s.shape)
        ops.project(s, coeffs).backward()
        np.testing.assert_array_equal(s.grad, coeffs)
        np.testing.assert_array_equal(x.grad, 2 * coeffs)


def _batch(config, size, seed):
    rng = np.random.default_rng(seed)
    t, m = config.sequence_length, config.modality_count
    h, w = config.input_height, config.input_width
    return [(rng.standard_normal((t, m, h, w)).astype(np.float32),
             rng.integers(0, config.class_count, (t, h, w)))
            for _ in range(size)]


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestGraphFree:
    def test_no_grad_forward_records_no_graph(self, monkeypatch):
        made = []

        def recording(*args, **kwargs):
            out = tensor.make_node(*args, **kwargs)
            made.append(out)
            return out
        monkeypatch.setattr(ops, "make_node", recording)
        monkeypatch.setattr(crossmodal, "make_node", recording)
        params = init_params(ModelConfig(seed=0, **TINY))
        seq = np.random.default_rng(4).standard_normal((2, 4, 16, 16))
        with no_grad():
            logits = forward_logits(params, seq.astype(np.float32), "eval")
        assert len(made) == 138  # every op output of the graph-built pass
        assert _graph(logits) == [logits]
        assert all(n._backward is None and n._parents == () and
                   not n.requires_grad for n in made)

    def test_forward_matches_graph_built_logits(self):
        params = init_params(ModelConfig(seed=1, **TINY))
        seq = np.random.default_rng(2).standard_normal(
            (2, 4, 16, 16)).astype(np.float32)
        logits = forward_logits(params, seq, "eval")
        assert logits._backward is not None
        ref = ops.softmax(logits.data, axis=1)
        probs = forward(params, seq, "eval")
        assert probs[0].dtype == np.float32
        np.testing.assert_array_equal(np.stack(probs), ref)

    def test_failed_forward_restores_recording(self):
        config = ModelConfig(seed=3, **TINY)
        params = init_params(config)
        with pytest.raises(ShapeError, match="modalit"):
            forward(params, np.zeros((2, 3, 16, 16)), mode="eval")
        assert tensor._recording
        named = params.named_tensors()
        train_step(params, named, _batch(config, 2, 5), np.ones(5),
                   OptimizerState(named), 1e-3, TrainConfig())
        assert all(p.grad is not None for p in named.values())

    def test_backward_releases_every_interior_node(self):
        params = init_params(ModelConfig(seed=5, **TINY))
        (x_seq, y_seq), = _batch(params.config, 1, 6)
        loss, _ = ops.softmax_ce_loss(forward_logits(params, x_seq), y_seq,
                                      np.ones(5, dtype=np.float32))
        nodes = _graph(loss)
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) == 139  # 138 op outputs and the loss
        loss.backward()
        assert all(n._backward is None and n._parents == () for n in interior)
        assert all(p.grad is not None for p in params.named_tensors().values())


class TestMemory:
    """tracemalloc sees numpy's buffers, so peaks track array memory."""

    def test_forward_peak_a_third_of_graph_built(self):
        params = init_params(ModelConfig(seed=0))
        seq = np.random.default_rng(1).standard_normal(
            (3, 4, 64, 64)).astype(np.float32)
        graph = _peak_mb(lambda: forward_logits(params, seq, "eval"))
        free = _peak_mb(lambda: forward(params, seq, "eval"))
        assert free < graph / 3, (free, graph)

    def test_train_step_peak_flat_in_batch(self):
        config = ModelConfig(seed=0)
        params = init_params(config)
        named = params.named_tensors()
        state = OptimizerState(named)

        def step(size):
            batch = _batch(config, size, size)
            return _peak_mb(lambda: train_step(params, named, batch,
                                               np.ones(5), state, 1e-4,
                                               TrainConfig()))
        one, three = step(1), step(3)
        assert three < 1.25 * one, (three, one)


class TestEndToEndGradient:
    def test_probe_matches_finite_differences(self):
        report = check_end_to_end(0, 1e-3)
        assert report.passed, {k: v for k, v in report.max_rel_error.items()
                               if v > 1e-3}


class TestPredictVolume:
    def test_every_slice_predicted_once(self):
        params = init_params(ModelConfig(seed=8, **TINY))
        rng = np.random.default_rng(9)
        vol = rng.standard_normal((4, 6, 16, 16))
        out = predict_volume(params, vol, seq_len=2)
        assert out.shape == (6, 16, 16)
        assert out.dtype == np.uint8

    def test_partial_window_padding(self):
        params = init_params(ModelConfig(seed=10, **TINY))
        rng = np.random.default_rng(11)
        vol = rng.standard_normal((4, 5, 16, 16))  # 5 not divisible by 2
        out = predict_volume(params, vol, seq_len=2)
        assert out.shape == (5, 16, 16)

    def test_zero_logit_model_ties_to_lowest_class(self):
        config = ModelConfig(seed=12, **TINY)
        params = init_params(config)
        params.cls_kernel.data[:] = 0.0
        params.cls_bias.data[:] = 0.0
        rng = np.random.default_rng(13)
        out = predict_volume(params, rng.standard_normal((4, 4, 16, 16)), 2)
        assert np.all(out == 0)

    def test_deterministic(self):
        params = init_params(ModelConfig(seed=14, **TINY))
        rng = np.random.default_rng(15)
        vol = rng.standard_normal((4, 4, 16, 16))
        np.testing.assert_array_equal(predict_volume(params, vol, 2),
                                      predict_volume(params, vol, 2))

"""Model assembly: init, shapes, determinism, symmetry, graph-free
inference, memory, prediction."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mmseqseg import cli, convlstm, crossmodal, network, ops, tensor
from mmseqseg.dataio import save_checkpoint, write_volume
from mmseqseg.gradsuite import check_end_to_end
from mmseqseg.network import (ModelConfig, init_params, forward, forward_logits,
                              orthogonal_kernel, predict_volume)
from mmseqseg.tensor import NumericalError, ShapeError, Tensor, no_grad
from mmseqseg.training import OptimizerState, TrainConfig, train_step

TINY = dict(encoder_channels=(2, 3, 4, 5), sequence_length=2)


class TestInit:
    def test_convlstm_kernels_orthogonal(self):
        params = init_params(ModelConfig(seed=3), dtype=np.float64)
        for name, w in params.lstm.gate_records("").items():
            if not name.startswith("W_"):
                continue
            k = w.reshape(w.shape[0], -1)
            np.testing.assert_allclose(k @ k.T, np.eye(w.shape[0]), atol=1e-5)

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
        assert not np.array_equal(a.encoders[0].kernel.data,
                                  b.encoders[0].kernel.data)

    def test_forget_bias_one_others_zero(self):
        gates = init_params(ModelConfig(seed=0)).lstm.gate_records("")
        np.testing.assert_array_equal(gates["b_f"], 1.0)
        np.testing.assert_array_equal(gates["b_i"], 0.0)
        np.testing.assert_array_equal(gates["b_c"], 0.0)
        np.testing.assert_array_equal(gates["b_o"], 0.0)

    def test_fan_in_variance(self):
        # deepest encoder kernel has 32*3*3 fan-in and 64*32*9 samples
        p = init_params(ModelConfig(seed=5))
        k = p.records()["enc0.s3.kernel"]
        fan_in = k.shape[1] * 9
        assert k.size >= 10000
        assert abs(k.var() - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)

    def test_conv_bn_blocks_carry_no_bias(self):
        # 4 grouped encoder and 4 decoder conv-BN blocks of 3 tensors, 4
        # CMC of 2, 3 convLSTM stacks, 4 up-convs of 2 and the
        # classifier's 2
        p = init_params(ModelConfig(seed=0))
        assert len(p.named_tensors()) == 45
        blocks = p.encoders + [d.conv for d in p.decoder]
        assert not any(hasattr(b, "bias") for b in blocks)
        # the checkpoint keeps 16 encoder blocks, one per modality and
        # scale, and 12 convLSTM gate tensors: 90 trainable records and
        # the running mean and variance of 20 batch norms
        records = p.records()
        assert len(records) == 130
        means = [n for n in records if n.endswith(".bn.running_mean")]
        assert len(means) == 20
        assert not any(n.removesuffix("bn.running_mean") + "bias" in records
                       for n in means)

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
        # one (T, K, H, W) array for the whole window
        assert isinstance(probs, np.ndarray)
        assert probs.shape == (3, 5, 64, 64)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

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
        # encoder block j of the permuted model is block perm[j] of params
        source = params.records()
        for name, view in permuted.records().items():
            if name.startswith("enc"):
                m, rest = name.removeprefix("enc").split(".", 1)
                name = f"enc{perm[int(m)]}.{rest}"
            view[...] = source[name]
        # column j of the permuted weights must address modality perm[j]
        for s, cmc in enumerate(permuted.cmc):
            w = np.empty_like(params.cmc[s].weights.data)
            for j, m in enumerate(perm):
                w[:, j] = params.cmc[s].weights.data[:, m]
            cmc.weights.data = w
        out = forward(permuted, seq[:, perm], mode="eval")
        for pa, pb in zip(base, out):
            np.testing.assert_allclose(pa, pb, rtol=1e-5, atol=1e-6)

    def test_encoder_one_call_per_layer_and_scale(self, monkeypatch):
        # the four modality chains run as one grouped chain: one
        # conv_bn_relu_pool per scale, not one per modality
        calls = {}
        for name in ("conv_bn_relu", "conv_bn_relu_pool"):
            def counted(*args, _fn=getattr(network, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(network, name, counted)
        params = init_params(ModelConfig(seed=0, **TINY))
        seq = np.random.default_rng(8).standard_normal((2, 4, 16, 16))
        maps = network._encode(params, seq, "train")
        assert len(maps) == 4
        assert calls == {"conv_bn_relu_pool": 4}

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
        nodes = _graph(forward_logits(params, seq.astype(np.float32), "train"))
        # 35 op outputs and 45 parameters, whatever the kernel layouts: per
        # scale the grouped encoder makes conv_bn_relu_pool, the modality
        # stack and CMC (12); at T=2 the convLSTM makes 2 convolutions,
        # 2 take, 1 add and 4 cell nodes, joined by one concat0 (10); the
        # decoder makes 3 per stage (12) and the classifier 1
        assert len(nodes) == 80
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


def _batch(config, size, seed, h, w):
    rng = np.random.default_rng(seed)
    t, m = config.sequence_length, config.modality_count
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
        monkeypatch.setattr(convlstm, "make_node", recording)
        params = init_params(ModelConfig(seed=0, **TINY))
        seq = np.random.default_rng(4).standard_normal((2, 4, 16, 16))
        with no_grad():
            logits = forward_logits(params, seq.astype(np.float32), "eval")
        assert len(made) == 35  # every op output of the graph-built pass
        assert _graph(logits) == [logits]
        assert all(n._backward is None and n._parents == () and
                   not n.requires_grad for n in made)

    def test_forward_matches_graph_built_logits(self):
        params = init_params(ModelConfig(seed=1, **TINY))
        seq = np.random.default_rng(2).standard_normal(
            (2, 4, 16, 16)).astype(np.float32)
        logits = forward_logits(params, seq, "eval")
        assert logits._backward is not None
        ref = ops.softmax(logits.data)
        probs = forward(params, seq, "eval")
        assert probs.dtype == np.float32
        np.testing.assert_array_equal(probs, ref)

    def test_failed_forward_restores_recording(self):
        config = ModelConfig(seed=3, **TINY)
        params = init_params(config)
        with pytest.raises(ShapeError, match="modalit"):
            forward(params, np.zeros((2, 3, 16, 16)), mode="eval")
        assert tensor._recording.get()
        named = params.named_tensors()
        train_step(params, named, _batch(config, 2, 5, 16, 16), np.ones(5),
                   OptimizerState(named), 1e-3, TrainConfig())
        assert all(p.grad is not None for p in named.values())

    def test_backward_releases_every_interior_node(self):
        params = init_params(ModelConfig(seed=5, **TINY))
        (x_seq, y_seq), = _batch(params.config, 1, 6, 16, 16)
        loss = ops.softmax_ce_loss(forward_logits(params, x_seq, "train"),
                                   y_seq, np.ones(5, dtype=np.float32))
        nodes = _graph(loss)
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) == 36  # 35 op outputs and the loss
        loss.backward()
        assert all(n._backward is None and n._parents == () for n in interior)
        assert all(p.grad is not None for p in params.named_tensors().values())


def separate_conv_bn_relu(x, kernel, bn, mode, groups):
    return ops.relu(ops.batchnorm(ops.conv2d(x, kernel, groups=groups), bn,
                                  mode))


def separate_conv_bn_relu_pool(x, kernel, bn, mode, groups):
    return ops.maxpool2x2(separate_conv_bn_relu(x, kernel, bn, mode, groups))


SEPARATE = {"conv_bn_relu": separate_conv_bn_relu,
            "conv_bn_relu_pool": separate_conv_bn_relu_pool}


class TestSeparateOpsOracle:
    """The network with each conv_bn_relu and conv_bn_relu_pool replaced
    by separate conv2d, batchnorm, relu (and maxpool2x2) calls, on
    default-config 128x128 windows: the fused layers must give the same
    bits."""

    def test_forward_bit_equal(self, monkeypatch):
        params = init_params(ModelConfig(seed=2))
        seq = np.random.default_rng(3).standard_normal(
            (3, 4, 128, 128)).astype(np.float32)
        fused = forward(params, seq)
        with monkeypatch.context() as m:
            for name, fn in SEPARATE.items():
                m.setattr(network, name, fn)
            separate = forward(params, seq)
        assert fused.tobytes() == separate.tobytes()

    def test_train_step_bit_equal(self, monkeypatch):
        config = ModelConfig(seed=2)
        batch = _batch(config, 1, 4, 128, 128)
        runs = []
        for layers in (SEPARATE, {}):
            params = init_params(config)
            named = params.named_tensors()
            with monkeypatch.context() as m:
                for name, fn in layers.items():
                    m.setattr(network, name, fn)
                loss = train_step(params, named, batch, np.ones(5),
                                  OptimizerState(named), 1e-2, TrainConfig())
            # the records hold the stepped weights and running statistics
            runs.append((loss, {n: t.grad for n, t in named.items()},
                         params.records()))
        (loss_a, grads_a, rec_a), (loss_b, grads_b, rec_b) = runs
        assert loss_a == loss_b
        for name, g in grads_a.items():
            assert g.tobytes() == grads_b[name].tobytes(), name
        for name, v in rec_a.items():
            assert v.tobytes() == rec_b[name].tobytes(), name


class TestMemory:
    """tracemalloc sees numpy's buffers, so peaks track array memory."""

    def test_forward_peaks(self):
        # one default-config (3, 4, 64, 64) sequence. When each encoder
        # stage held its full-size ReLU map, the graph-built peak was
        # 9.05 MB and the graph-free one 2.72 MB
        params = init_params(ModelConfig(seed=0))
        seq = np.random.default_rng(1).standard_normal(
            (3, 4, 64, 64)).astype(np.float32)
        graph = _peak_mb(lambda: forward_logits(params, seq, "eval"))
        free = _peak_mb(lambda: forward(params, seq, "eval"))
        assert graph <= 6.5, graph
        assert free <= 2.9, free

    def test_sequence_forward_backward_peak(self):
        # one training sequence's forward, loss and backward, as
        # train_step runs it: 11.43 MB when each encoder stage held its
        # ReLU map and the batch-norm backward took whole-array buffers
        params = init_params(ModelConfig(seed=0))
        (x_seq, y_seq), = _batch(params.config, 1, 1, 64, 64)

        def sequence():
            loss = ops.softmax_ce_loss(forward_logits(params, x_seq, "train"),
                                       y_seq, np.ones(5, dtype=np.float32))
            loss.backward()
        assert _peak_mb(sequence) <= 8.5

    def test_train_step_peak_flat_in_batch(self):
        config = ModelConfig(seed=0)
        params = init_params(config)
        named = params.named_tensors()
        state = OptimizerState(named)

        def step(size):
            batch = _batch(config, size, size, 64, 64)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_class_argmax_equals_argmax_on_ties(self, dtype):
        # pixel (0, i) ties classes a and b of the i-th pair at the
        # maximum, pixel (1, 0) ties all five, and the rest tie often
        k = 5
        rng = np.random.default_rng(12)
        probs = rng.choice([0.0, 0.25, 0.5], size=(3, k, 4, 16)).astype(dtype)
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        for i, (a, b) in enumerate(pairs):
            pixel = probs[:, :, 0, i]
            pixel[...] = 0.1
            pixel[:, [a, b]] = 0.9
        probs[:, :, 1, 0] = 0.2
        out = np.empty((3, 4, 16), dtype=np.uint8)
        network._class_argmax(probs, out)
        np.testing.assert_array_equal(out, probs.argmax(axis=1))
        assert [out[0, 0, i] for i in range(len(pairs))] == [a for a, _ in pairs]
        assert (out[:, 1, 0] == 0).all()

    @staticmethod
    def padded_predict(params, volume, seq_len):
        """Reference labels: a final partial window is padded to seq_len
        by repeating the last slice, and the padding is trimmed."""
        m, d, h, w = volume.shape
        out = np.empty((d, h, w), dtype=np.uint8)
        for start in range(0, d, seq_len):
            idx = np.minimum(np.arange(start, start + seq_len), d - 1)
            probs = forward(params, volume[:, idx].transpose(1, 0, 2, 3))
            for j in range(min(seq_len, d - start)):
                out[start + j] = probs[j].argmax(axis=0)
        return out

    @pytest.mark.parametrize("seq_len", [2, 3, 4, 7])
    def test_partial_window_equals_padded(self, seq_len):
        params = init_params(ModelConfig(seed=16 + seq_len, **TINY))
        rng = np.random.default_rng(seq_len)
        # depths below the window, and every tail length after a full one
        for d in range(1, 2 * seq_len + 1):
            vol = rng.standard_normal((4, d, 16, 16)).astype(np.float32)
            np.testing.assert_array_equal(
                predict_volume(params, vol, seq_len),
                self.padded_predict(params, vol, seq_len))

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


def window_labels(params, volume, seq_len):
    """Reference labels: forward() on each whole window, then argmax."""
    d = volume.shape[1]
    out = np.empty(volume.shape[1:], dtype=np.uint8)
    for start in range(0, d, seq_len):
        window = volume[:, start:start + seq_len].transpose(1, 0, 2, 3)
        out[start:start + seq_len] = forward(params, window).argmax(axis=1)
    return out


def cores(monkeypatch, n):
    """Make os.sched_getaffinity report n cores, so predict_volume runs
    n - 1 worker threads, and at least one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def slice_numbered(shape):
    """A float32 (M, D, H, W) volume whose slice z holds the value z, so
    that a patched _encode can tell which slice it was given."""
    vol = np.empty(shape, np.float32)
    vol[...] = np.arange(shape[1], dtype=np.float32)[:, None, None]
    return vol


def needs_blas_threads():
    if network._blas_threads() is None:
        pytest.skip("numpy's BLAS offers no thread control: one worker runs")


class MeetingEncode:
    """network._encode that makes the first frame task of each of two
    threads wait for the other's, so both threads surely run a task, and
    records the thread, whether ops record a graph, and the outputs of
    every call. With poison, frames on a worker thread turn NaN."""

    def __init__(self, poison):
        self.encode, self.poison = network._encode, poison
        self.main = threading.get_ident()
        self.barrier = threading.Barrier(2, timeout=30)
        self.calls = []

    def __call__(self, params, x_seq, mode):
        me = threading.get_ident()
        if me not in [thread for thread, _, _ in self.calls]:
            self.barrier.wait()
        if self.poison and me != self.main:
            x_seq = np.full_like(x_seq, np.nan)
        maps = self.encode(params, x_seq, mode)
        self.calls.append((me, tensor._recording.get(), maps))
        return maps


class TestFrameThreads:
    """predict_volume runs the serial window loop on this thread and on a
    worker thread per further core: each thread takes the next window
    and runs its encoder, convLSTM and decoder."""

    @pytest.mark.parametrize("n_cores", [1, 2, 4])
    def test_labels_equal_window_forward(self, n_cores, monkeypatch):
        cores(monkeypatch, n_cores)
        seq_len = 3
        params = init_params(ModelConfig(seed=21, **TINY))
        rng = np.random.default_rng(22)
        # depths 1 ... 2T+1: one partial window, full ones, and every tail
        for d in range(1, 2 * seq_len + 2):
            vol = rng.standard_normal((4, d, 16, 16)).astype(np.float32)
            np.testing.assert_array_equal(predict_volume(params, vol, seq_len),
                                          window_labels(params, vol, seq_len))

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_labels_equal_window_forward_default_model(self, n_cores,
                                                       monkeypatch):
        # the default widths at 64 x 64, where convolutions run in bands
        cores(monkeypatch, n_cores)
        params = init_params(ModelConfig(seed=23))
        vol = np.random.default_rng(24).standard_normal(
            (4, 5, 64, 64)).astype(np.float32)
        np.testing.assert_array_equal(predict_volume(params, vol, 3),
                                      window_labels(params, vol, 3))

    def test_worker_runs_frames_without_graph(self, monkeypatch):
        needs_blas_threads()
        cores(monkeypatch, 2)
        params = init_params(ModelConfig(seed=25, **TINY))
        vol = np.random.default_rng(26).standard_normal(
            (4, 5, 16, 16)).astype(np.float32)
        want = window_labels(params, vol, 2)
        encode = MeetingEncode(poison=False)
        monkeypatch.setattr(network, "_encode", encode)
        np.testing.assert_array_equal(predict_volume(params, vol, 2), want)
        assert len({thread for thread, _, _ in encode.calls}) == 2
        assert not any(recording for _, recording, _ in encode.calls)
        for _, _, maps in encode.calls:
            assert all(t._backward is None and t._parents == ()
                       and not t.requires_grad for t in maps)

    def test_decoder_tasks_build_no_graph(self, monkeypatch):
        cores(monkeypatch, 2)
        decode, seen = network._decode, []

        def recorded(*args):
            logits = decode(*args)
            seen.append((tensor._recording.get(), logits._backward))
            return logits
        monkeypatch.setattr(network, "_decode", recorded)
        params = init_params(ModelConfig(seed=27, **TINY))
        predict_volume(params, np.ones((4, 3, 16, 16), np.float32), 2)
        assert seen == [(False, None)] * 3

    def test_nonfinite_frame_on_worker_raises(self, monkeypatch):
        needs_blas_threads()
        cores(monkeypatch, 2)
        monkeypatch.setattr(network, "_encode", MeetingEncode(poison=True))
        params = init_params(ModelConfig(seed=28, **TINY))
        with pytest.raises(NumericalError):
            predict_volume(params, np.ones((4, 4, 16, 16), np.float32), 2)

    def test_nonfinite_frame_on_worker_is_cli_exit_3(self, monkeypatch,
                                                     tmp_path, capsys):
        needs_blas_threads()
        cores(monkeypatch, 2)
        monkeypatch.setattr(network, "_encode", MeetingEncode(poison=True))
        ckpt, vol, out = (tmp_path / name for name in ("m.mmck", "v.mmv",
                                                       "o.mmv"))
        save_checkpoint(ckpt, init_params(ModelConfig(seed=28, **TINY)))
        write_volume(vol, np.random.default_rng(30).standard_normal(
            (4, 4, 16, 16)), "modal")
        assert cli.main(["predict", "--model", str(ckpt), "--volume", str(vol),
                         "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_blas_threads_restored(self, monkeypatch):
        needs_blas_threads()
        cores(monkeypatch, 2)
        get_threads, set_threads = network._blas_threads()
        decode, during = network._decode, []

        def recorded(*args):
            during.append(get_threads())
            return decode(*args)
        monkeypatch.setattr(network, "_decode", recorded)
        params = init_params(ModelConfig(seed=29, **TINY))
        vol = np.ones((4, 4, 16, 16), np.float32)
        outer = get_threads()
        set_threads(2)
        try:
            predict_volume(params, vol, 2)
            assert get_threads() == 2 and during == [1] * 4
            monkeypatch.setattr(network, "_encode", MeetingEncode(poison=True))
            with pytest.raises(NumericalError):
                predict_volume(params, vol, 2)
            assert get_threads() == 2
        finally:
            set_threads(outer)

    def test_window_runs_whole_on_one_thread(self, monkeypatch):
        # every slice of a window is encoded and decoded on the thread
        # that runs the window's convLSTM, in that order; the first
        # encoder of each of two threads waits for the other's
        needs_blas_threads()
        cores(monkeypatch, 2)
        params = init_params(ModelConfig(seed=31, **TINY))
        vol = slice_numbered((4, 7, 16, 16))
        want = window_labels(params, vol, 2)
        barrier, encoded, events = threading.Barrier(2, timeout=30), [], []
        encode, lstm, decode = (network._encode, network.convlstm_sequence,
                                network._decode)

        def encoding(params, x_seq, mode):
            me, z = threading.get_ident(), int(x_seq[0, 0, 0, 0])
            if me not in [thread for thread, _, _ in events]:
                barrier.wait()
            maps = encode(params, x_seq, mode)
            encoded.append((z, maps))
            events.append((me, "encode", z))
            return maps

        def sequence(*args):
            events.append((threading.get_ident(), "convlstm", None))
            return lstm(*args)

        def decoding(params, cmc_maps, d, mode):
            z = next(z for z, maps in encoded if maps is cmc_maps)
            events.append((threading.get_ident(), "decode", z))
            return decode(params, cmc_maps, d, mode)
        monkeypatch.setattr(network, "_encode", encoding)
        monkeypatch.setattr(network, "convlstm_sequence", sequence)
        monkeypatch.setattr(network, "_decode", decoding)
        np.testing.assert_array_equal(predict_volume(params, vol, 2), want)
        threads, starts = {thread for thread, _, _ in events}, []
        for thread in threads:
            mine = [(kind, z) for t, kind, z in events if t == thread]
            while mine:
                start = mine[0][1]
                frames = range(start, min(start + 2, 7))
                window = ([("encode", z) for z in frames] + [("convlstm", None)]
                          + [("decode", z) for z in frames])
                assert mine[:len(window)] == window
                mine = mine[len(window):]
                starts.append(start)
        assert len(threads) == 2 and sorted(starts) == [0, 2, 4, 6]

    @pytest.mark.parametrize("n_cores", [2, 4])
    def test_windows_run_at_once_on_every_core(self, n_cores, monkeypatch):
        # the first convLSTM of each of n_cores threads waits for the
        # others': it meets only if n_cores windows are in flight at once
        needs_blas_threads()
        cores(monkeypatch, n_cores)
        params = init_params(ModelConfig(seed=32, **TINY))
        vol = np.random.default_rng(35).standard_normal(
            (4, 2 * n_cores, 16, 16)).astype(np.float32)
        want = window_labels(params, vol, 2)
        barrier, threads = threading.Barrier(n_cores, timeout=30), []
        lstm = network.convlstm_sequence

        def sequence(*args):
            if threading.get_ident() not in threads:
                threads.append(threading.get_ident())
                barrier.wait()
            return lstm(*args)
        monkeypatch.setattr(network, "convlstm_sequence", sequence)
        np.testing.assert_array_equal(predict_volume(params, vol, 2), want)
        assert len(threads) == n_cores and threading.get_ident() in threads

    def test_each_frame_runs_once_under_stress(self, monkeypatch):
        # three workers and this thread on a short switch interval, five
        # times over: a frame lost or run twice shows in the calls or in
        # the labels
        needs_blas_threads()
        cores(monkeypatch, 4)
        params = init_params(ModelConfig(seed=33, **TINY))
        vol = slice_numbered((4, 9, 16, 16))
        want = window_labels(params, vol, 2)
        encode, decode = network._encode, network._decode
        encoded, decoded = [], []

        def encoding(params, x_seq, mode):
            maps = encode(params, x_seq, mode)
            encoded.append((int(x_seq[0, 0, 0, 0]), maps))
            return maps

        def decoding(params, cmc_maps, d, mode):
            decoded.append(next(z for z, maps in encoded if maps is cmc_maps))
            return decode(params, cmc_maps, d, mode)
        monkeypatch.setattr(network, "_encode", encoding)
        monkeypatch.setattr(network, "_decode", decoding)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [predict_volume(params, vol, 2) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(z for z, _ in encoded) == sorted(list(range(9)) * 5)
        assert sorted(decoded) == sorted(list(range(9)) * 5)
        for labels in got:
            np.testing.assert_array_equal(labels, want)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_failed_window_stops_every_thread(self, failing, monkeypatch):
        # the two threads each start a window; one raises in it, and the
        # other finishes its own window only once the failing thread's
        # loop has returned, then takes no other window
        needs_blas_threads()
        cores(monkeypatch, 2)
        main, barrier = threading.get_ident(), threading.Barrier(2, timeout=30)
        returned = {True: threading.Event(), False: threading.Event()}
        encode, frame_pool, decode = (network._encode, network._frame_pool,
                                      network._decode)
        started, decoded = [], []

        def encoding(params, x_seq, mode):
            me, z = threading.get_ident(), int(x_seq[0, 0, 0, 0])
            if z % 2 == 0:
                started.append(z)
                barrier.wait()
                if (me == main) == (failing == "caller"):
                    raise NumericalError(f"window {z} failed")
                assert returned[failing == "caller"].wait(timeout=30)
            return encode(params, x_seq, mode)

        def decoding(*args):
            decoded.append(threading.get_ident())
            return decode(*args)

        def pool(task):
            def run():
                task()
                returned[threading.get_ident() == main].set()
            return frame_pool(run)
        monkeypatch.setattr(network, "_encode", encoding)
        monkeypatch.setattr(network, "_decode", decoding)
        monkeypatch.setattr(network, "_frame_pool", pool)
        params = init_params(ModelConfig(seed=34, **TINY))
        with pytest.raises(NumericalError, match="window [02] failed"):
            predict_volume(params, slice_numbered((4, 8, 16, 16)), 2)
        assert sorted(started) == [0, 2] and len(decoded) == 2
        assert (main in decoded) == (failing == "worker")

"""ConvLSTM recurrence identities and the scalar oracle."""

import numpy as np
import pytest

from mmseqseg import convlstm, ops
from mmseqseg.convlstm import (ConvLstmParams, ConvLstmState, convlstm_sequence,
                               convlstm_step)
from mmseqseg.gradsuite import check_convlstm_sequence, check_convlstm_step
from mmseqseg.tensor import ShapeError, Tensor, make_node


def make_params(rng, cx=2, ch=2, k=3, scale=0.3):
    p = ConvLstmParams(cx, ch, k, dtype=np.float64)
    for t in p.named_tensors("").values():
        t.data = scale * rng.standard_normal(t.shape)
    return p


def zero_state(n=1, ch=2, hs=4, ws=4):
    return ConvLstmState.zeros(n, ch, hs, ws, dtype=np.float64)


class TestStep:
    def test_zero_everything_gives_zero(self):
        p = ConvLstmParams(2, 2, 3, dtype=np.float64)  # all-zero init
        x = Tensor(np.zeros((1, 2, 4, 4)))
        h, state = convlstm_step(x, zero_state(), p)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(state.c.data, 0.0)

    def test_saturated_forget_gate_holds_memory(self):
        p = ConvLstmParams(1, 1, 3, dtype=np.float64)
        p.gate_records("")["b_f"][...] = 30.0  # forget gate ~ 1
        c_prev = np.random.default_rng(0).standard_normal((1, 1, 4, 4))
        state = ConvLstmState(Tensor(np.zeros((1, 1, 4, 4))), Tensor(c_prev))
        _, nxt = convlstm_step(Tensor(np.zeros((1, 1, 4, 4))), state, p)
        np.testing.assert_allclose(nxt.c.data, c_prev, atol=1e-4)

    def test_scalar_recurrence_oracle(self):
        # 1x1 kernel, 1 channel, 1x1 spatial: the cell must match a
        # hand-evaluated scalar LSTM over 5 steps
        rng = np.random.default_rng(1)
        p = ConvLstmParams(1, 1, 1, dtype=np.float64)
        w = {n: rng.standard_normal() for n in p.gate_records("")}
        for n, view in p.gate_records("").items():
            view[...] = w[n]
        xs = rng.standard_normal(5)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = c = 0.0
        state = zero_state(1, 1, 1, 1)
        for t in range(5):
            i = sig(xs[t] * w["W_xi"] + h * w["W_hi"] + w["b_i"])
            f = sig(xs[t] * w["W_xf"] + h * w["W_hf"] + w["b_f"])
            g = np.tanh(xs[t] * w["W_xc"] + h * w["W_hc"] + w["b_c"])
            o = sig(xs[t] * w["W_xo"] + h * w["W_ho"] + w["b_o"])
            c = c * f + i * g
            h = o * np.tanh(c)
            x_t = Tensor(np.full((1, 1, 1, 1), xs[t]))
            h_t, state = convlstm_step(x_t, state, p)
            np.testing.assert_allclose(h_t.data[0, 0, 0, 0], h, rtol=1e-6)
            np.testing.assert_allclose(state.c.data[0, 0, 0, 0], c, rtol=1e-6)

    def test_gates_bounded(self):
        rng = np.random.default_rng(2)
        p = make_params(rng)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)) * 5)
        state = ConvLstmState(Tensor(rng.standard_normal((1, 2, 4, 4))),
                              Tensor(rng.standard_normal((1, 2, 4, 4))))
        _, nxt = convlstm_step(x, state, p)
        # |c_t| <= |c_{t-1}| + 1 since f,i in (0,1) and |tanh| < 1
        assert np.all(np.abs(nxt.c.data) <= np.abs(state.c.data) + 1.0)

    def test_spatial_mismatch_raises(self):
        p = ConvLstmParams(1, 1, 3)
        with pytest.raises(ShapeError):
            convlstm_step(Tensor(np.zeros((1, 1, 4, 4))),
                          ConvLstmState.zeros(1, 1, 6, 6), p)

    def test_batch_mismatch_raises(self):
        # the stacked cell slices the input projection by the state's
        # batch, so a larger input batch must not be cut silently
        p = ConvLstmParams(1, 1, 3)
        with pytest.raises(ShapeError):
            convlstm_step(Tensor(np.zeros((2, 1, 4, 4))),
                          ConvLstmState.zeros(1, 1, 4, 4), p)

    def test_gradcheck(self):
        report = check_convlstm_step(0, 1e-4)
        assert report.passed, report.max_rel_error


class TestSequence:
    def test_single_step_matches_step(self):
        rng = np.random.default_rng(3)
        p = make_params(rng)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        hs = convlstm_sequence(x, p)
        h_direct, _ = convlstm_step(x, zero_state(), p)
        np.testing.assert_array_equal(hs.data, h_direct.data)

    def test_zero_inputs_zero_outputs(self):
        p = ConvLstmParams(2, 2, 3, dtype=np.float64)
        hs = convlstm_sequence(Tensor(np.zeros((4, 2, 4, 4))), p)
        assert hs.shape == (4, 2, 4, 4)
        np.testing.assert_array_equal(hs.data, 0.0)

    def test_empty_sequence_raises(self):
        with pytest.raises(ShapeError):
            convlstm_sequence(Tensor(np.zeros((0, 1, 4, 4))),
                              ConvLstmParams(1, 1, 3))

    @pytest.mark.parametrize("shape", [(1, 4, 4), (2, 1, 1, 4, 4)])
    def test_non_4d_input_raises(self, shape):
        with pytest.raises(ShapeError, match="T, C, h, w"):
            convlstm_sequence(Tensor(np.zeros(shape)), ConvLstmParams(1, 1, 3))

    def test_parameter_count_constant_in_length(self):
        p = ConvLstmParams(3, 5, 3)
        count = sum(t.size for t in p.named_tensors("").values())
        for t_len in (1, 3, 5):
            rng = np.random.default_rng(4)
            convlstm_sequence(Tensor(rng.standard_normal((t_len, 3, 4, 4))), p)
            assert sum(t.size for t in p.named_tensors("").values()) == count

    def test_bptt_gradcheck(self):
        report = check_convlstm_sequence(0, 1e-4)
        assert report.passed, report.max_rel_error


def gate_rows(stack, g):
    """Gate g's rows of a gate-stacked tensor, as a node that routes its
    gradient back into the stack."""
    ch = stack.shape[0] // 4
    lo = ConvLstmParams.GATES.index(g) * ch

    def backward(grad):
        full = np.zeros(stack.shape)
        full[lo:lo + ch] = grad
        stack._accumulate(full)

    return make_node(stack.data[lo:lo + ch], (stack,), backward, "gate rows")


def reference_step(x_t, state, p):
    """The per-gate cell, kept as an oracle: eight convolutions on gate
    slices and a separate node for every activation, sum and product."""
    def gate(g, act):
        return act(ops.add(
            ops.conv2d(x_t, gate_rows(p.wx, g), gate_rows(p.b, g)),
            ops.conv2d(state.h, gate_rows(p.wh, g), None)))

    i_t, f_t = gate("i", ops.sigmoid), gate("f", ops.sigmoid)
    g_t, o_t = gate("c", ops.tanh), gate("o", ops.sigmoid)
    c_t = ops.add(ops.elementwise_mul(state.c, f_t), ops.elementwise_mul(i_t, g_t))
    h_t = ops.elementwise_mul(o_t, ops.tanh(c_t))
    return h_t, ConvLstmState(h_t, c_t)


def time_row(x, t):
    """Row t of a (T, C, h, w) tensor as a (1, C, h, w) node that routes
    its gradient back into x."""
    def backward(grad):
        full = np.zeros(x.shape)
        full[t:t + 1] = grad
        x._accumulate(full)

    return make_node(x.data[t:t + 1], (x,), backward, "time row")


def reference_sequence(x, p):
    """The per-gate oracle stepped over the rows of x, from a zero
    state; the hidden maps joined into one (T, Ch, h, w) tensor."""
    _, _, hs, ws = x.shape
    state = ConvLstmState.zeros(1, p.hidden_channels, hs, ws, dtype=np.float64)
    out = []
    for t in range(x.shape[0]):
        h_t, state = reference_step(time_row(x, t), state, p)
        out.append(h_t)
    return ops.concat0(out)


def leaves(*shapes, rng):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def values_and_grads(outputs, tensors, rng_seed):
    """Forward values, then the gradients of a fixed random projection
    of every output into every tensor (all of them zeroed first)."""
    rng = np.random.default_rng(rng_seed)
    for t in tensors:
        t.zero_grad()
    total = None
    for out in outputs:
        term = ops.project(out, rng.standard_normal(out.shape))
        total = term if total is None else ops.add(total, term)
    total.backward()
    return [o.data for o in outputs], [t.grad for t in tensors]


class TestStackedCell:
    """The gate-stacked cell against the per-gate oracle, float64, with
    Cx=3 != Ch=4 and a non-square map: one step at a batch of 2, and a
    sequence of T steps as one (T, Cx, h, w) tensor."""

    N, CX, CH, H, W = 2, 3, 4, 5, 6

    def params(self, k, seed):
        return make_params(np.random.default_rng(seed), self.CX, self.CH, k,
                           scale=0.5)

    @pytest.mark.parametrize("k", [1, 3])
    def test_step_matches_per_gate_oracle(self, k):
        p = self.params(k, 10)
        rng = np.random.default_rng(11)
        x, h0, c0 = leaves((self.N, self.CX, self.H, self.W),
                           *[(self.N, self.CH, self.H, self.W)] * 2, rng=rng)
        tensors = list(p.named_tensors("").values()) + [x, h0, c0]
        results = []
        for step in (convlstm_step, reference_step):
            h, nxt = step(x, ConvLstmState(h0, c0), p)
            results.append(values_and_grads([h, nxt.c], tensors, 12))
        (vals, grads), (ref_vals, ref_grads) = results
        for a, b in zip(vals + grads, ref_vals + ref_grads):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_sequence_matches_per_gate_oracle(self, k):
        p = self.params(k, 20)
        for t_len in (1, 3):
            x, = leaves((t_len, self.CX, self.H, self.W),
                        rng=np.random.default_rng(21))
            tensors = list(p.named_tensors("").values()) + [x]  # wx, wh, b, x
            vals, grads = values_and_grads([convlstm_sequence(x, p)],
                                           tensors, 22)
            ref_vals, ref_grads = values_and_grads(
                [reference_sequence(x, p)], tensors, 22)
            if t_len == 1:
                # h_0 is zero, so one step makes no recurrent conv; the
                # oracle convolves the zero map, giving wh a zero gradient
                assert grads[1] is None
                grads[1] = np.zeros(p.wh.shape)
            assert vals[0].shape == (t_len, self.CH, self.H, self.W)
            assert all(g is not None for g in grads)
            for a, b in zip(vals + grads, ref_vals + ref_grads):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t_len", [1, 3, 5])
    def test_conv_calls_per_sequence(self, monkeypatch, t_len):
        # one input conv over all steps, one recurrent conv per step
        # after the first (h_0 is zero)
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return ops.conv2d(*args)
        monkeypatch.setattr(convlstm, "conv2d", counted)
        p = self.params(3, 50)
        convlstm_sequence(Tensor(np.ones((t_len, self.CX, 4, 4))), p)
        assert len(calls) == t_len
        assert calls[0] == (t_len, self.CX, 4, 4)


class TestOneExpitCell:
    """The cell takes one expit over its whole (N, 4*Ch) pre-activation
    and slices the i, f and o gates out of it. Its outputs and gradients
    equal, bit for bit, those of a cell that makes three expit calls, one
    per gate slice; Ch = 1 and 3 start the o slice off any SIMD
    alignment."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ch", [1, 3, 64])
    @pytest.mark.parametrize("unroll", ["sequence", "step"])
    def test_bit_equal_to_three_expit_calls(self, dtype, ch, unroll,
                                            monkeypatch):
        rng = np.random.default_rng(ch)
        p = ConvLstmParams(2, ch, 3, dtype=dtype)
        for t in p.named_tensors("").values():
            t.data = rng.standard_normal(t.shape).astype(dtype)

        def leaf(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype),
                          requires_grad=True)

        if unroll == "sequence":
            inputs = [leaf(3, 2, 4, 5)]
            run = lambda: convlstm_sequence(inputs[0], p)
        else:
            inputs = [leaf(2, 2, 4, 5), leaf(2, ch, 4, 5), leaf(2, ch, 4, 5)]
            run = lambda: convlstm_step(
                inputs[0], ConvLstmState(inputs[1], inputs[2]), p)[0]
        tensors = list(p.named_tensors("").values()) + inputs

        def three_calls(z):
            # the c rows stay NaN: the cell must not read them
            assert z.shape[1] == 4 * ch
            out = np.full_like(z, np.nan)
            for k in (0, 1, 3):
                rows = slice(k * ch, (k + 1) * ch)
                out[:, rows] = ops.expit(z[:, rows])
            return out

        runs = []
        for expit in (ops.expit, three_calls):
            monkeypatch.setattr(convlstm, "expit", expit)
            out = run()
            for t in tensors:
                t.zero_grad()
            ops.project(out, np.random.default_rng(1).standard_normal(
                out.shape).astype(dtype)).backward()
            runs.append([out.data] + [t.grad for t in tensors])
        for a, b in zip(*runs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

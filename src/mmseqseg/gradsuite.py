"""The full gradient-check battery: every differentiable layer plus a
3-step recurrence unroll and an end-to-end probe through the whole
network. Runs in float64.
"""

import numpy as np

from . import ops
from .convlstm import ConvLstmParams, ConvLstmState, convlstm_sequence, convlstm_step
from .crossmodal import CmcParams, cmc_forward, mrf_fuse
from .gradcheck import grad_check
from .network import ModelConfig, forward_logits, init_params
from .ops import BatchNormParams
from .tensor import Tensor


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_conv2d(seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"x": _t(rng, 2, 3, 6, 6), "k": _t(rng, 4, 3, 3, 3), "b": _t(rng, 4)}
    coeffs = rng.standard_normal((2, 4, 6, 6))
    return grad_check(
        lambda: ops.project(ops.conv2d(ts["x"], ts["k"], ts["b"]), coeffs),
        ts, tolerance=tol)


def check_conv_transpose2d(seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"x": _t(rng, 1, 2, 4, 4), "k": _t(rng, 2, 3, 2, 2), "b": _t(rng, 3)}
    coeffs = rng.standard_normal((1, 3, 8, 8))
    return grad_check(
        lambda: ops.project(ops.conv_transpose2d(ts["x"], ts["k"], ts["b"]), coeffs),
        ts, tolerance=tol)


def check_batchnorm(seed, tol):
    rng = np.random.default_rng(seed)
    bn = BatchNormParams(3, dtype=np.float64)
    bn.scale.data = 1.0 + 0.1 * rng.standard_normal(3)
    bn.shift.data = 0.1 * rng.standard_normal(3)
    ts = {"x": _t(rng, 2, 3, 4, 4), "scale": bn.scale, "shift": bn.shift}
    coeffs = rng.standard_normal((2, 3, 4, 4))
    return grad_check(
        lambda: ops.project(ops.batchnorm(ts["x"], bn, "train"), coeffs),
        ts, tolerance=tol)


def _check_activation(fn, seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"x": _t(rng, 2, 3, 4, 4)}
    coeffs = rng.standard_normal((2, 3, 4, 4))
    return grad_check(lambda: ops.project(fn(ts["x"]), coeffs), ts, tolerance=tol)


def check_relu(seed, tol):
    return _check_activation(ops.relu, seed, tol)


def check_sigmoid(seed, tol):
    return _check_activation(ops.sigmoid, seed, tol)


def check_tanh(seed, tol):
    return _check_activation(ops.tanh, seed, tol)


def check_maxpool(seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"x": _t(rng, 2, 2, 6, 6)}
    coeffs = rng.standard_normal((2, 2, 3, 3))
    return grad_check(lambda: ops.project(ops.maxpool2x2(ts["x"]), coeffs),
                      ts, tolerance=tol)


def check_softmax_ce(seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"logits": _t(rng, 2, 5, 4, 4)}
    labels = rng.integers(0, 5, size=(2, 4, 4))
    wts = rng.uniform(0.5, 2.0, size=5)
    return grad_check(
        lambda: ops.softmax_ce_loss(ts["logits"], labels, wts),
        ts, tolerance=tol)


def check_cmc(seed, tol):
    rng = np.random.default_rng(seed)
    cmc = CmcParams(3, 4, dtype=np.float64)
    cmc.weights.data = rng.standard_normal((3, 4))
    cmc.bias.data = 0.1 * rng.standard_normal(3)
    ts = {"stack": _t(rng, 2, 4, 3, 5, 5), "w": cmc.weights, "b": cmc.bias}
    coeffs = rng.standard_normal((2, 3, 5, 5))
    return grad_check(
        lambda: ops.project(cmc_forward(ts["stack"], cmc), coeffs),
        ts, tolerance=tol)


def check_mrf(seed, tol):
    rng = np.random.default_rng(seed)
    ts = {"a": _t(rng, 2, 3, 4, 4), "b": _t(rng, 2, 3, 4, 4)}
    coeffs = rng.standard_normal((2, 3, 4, 4))
    return grad_check(lambda: ops.project(mrf_fuse(ts["a"], ts["b"]), coeffs),
                      ts, tolerance=tol)


def _tiny_lstm(rng):
    params = ConvLstmParams(2, 2, 3, dtype=np.float64)
    for t in params.named_tensors("").values():
        t.data = 0.3 * rng.standard_normal(t.shape)
    return params


def check_convlstm_step(seed, tol):
    rng = np.random.default_rng(seed)
    params = _tiny_lstm(rng)
    ts = dict(params.named_tensors(""))
    ts["x"] = _t(rng, 1, 2, 4, 4)
    ts["h0"] = _t(rng, 1, 2, 4, 4)
    ts["c0"] = _t(rng, 1, 2, 4, 4)
    coeffs = rng.standard_normal((1, 2, 4, 4))

    def fn():
        h, _ = convlstm_step(ts["x"], ConvLstmState(ts["h0"], ts["c0"]), params)
        return ops.project(h, coeffs)

    return grad_check(fn, ts, tolerance=tol)


def check_convlstm_sequence(seed, tol):
    """A 3-step unroll: one (3, 2, 4, 4) input, one projection of the
    (3, 2, 4, 4) hidden maps."""
    rng = np.random.default_rng(seed)
    params = _tiny_lstm(rng)
    ts = dict(params.named_tensors(""))
    ts["x"] = _t(rng, 3, 2, 4, 4)
    coeffs = rng.standard_normal((3, 2, 4, 4))
    return grad_check(
        lambda: ops.project(convlstm_sequence(ts["x"], params), coeffs),
        ts, tolerance=tol)


def check_end_to_end(seed, tol):
    """Loss gradient of the full network on a 16x16 input, probing 5
    random entries in every parameter group. The step is 1e-6:
    a wider one straddles ReLU and max-pool kinks at many seeds."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(encoder_channels=(2, 3, 4, 5), sequence_length=2,
                         seed=seed)
    params = init_params(config, dtype=np.float64)
    x_seq = rng.standard_normal((2, 4, 16, 16))
    labels = rng.integers(0, 5, size=(2, 16, 16))
    wts = rng.uniform(0.5, 2.0, size=5)
    ts = params.named_tensors()
    return grad_check(
        lambda: ops.softmax_ce_loss(
            forward_logits(params, x_seq, "train"), labels, wts),
        ts, tolerance=tol, step_scale=1e-6, max_entries=5,
        rng=np.random.default_rng(seed + 1))


CHECKS = [
    ("conv2d", check_conv2d, 1e-4),
    ("conv_transpose2d", check_conv_transpose2d, 1e-4),
    ("maxpool2x2", check_maxpool, 1e-4),
    ("batchnorm", check_batchnorm, 1e-4),
    ("relu", check_relu, 1e-4),
    ("sigmoid", check_sigmoid, 1e-4),
    ("tanh", check_tanh, 1e-4),
    ("softmax_ce_loss", check_softmax_ce, 1e-4),
    ("cmc_forward", check_cmc, 1e-4),
    ("mrf_fuse", check_mrf, 1e-4),
    ("convlstm_step", check_convlstm_step, 1e-4),
    ("convlstm_sequence", check_convlstm_sequence, 1e-4),
    ("end_to_end", check_end_to_end, 1e-3),
]


def run_suite(seeds, tol=None):
    """Returns list of (name, seed, report) over the whole battery."""
    results = []
    for name, fn, default_tol in CHECKS:
        use_tol = default_tol if tol is None else tol
        for seed in seeds:
            results.append((name, seed, fn(seed, use_tol)))
    return results

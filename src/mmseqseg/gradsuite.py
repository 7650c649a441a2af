"""The full gradient-check battery: every differentiable layer plus a
3-step recurrence unroll and an end-to-end probe through the whole
network. Runs in float64. Most entries are rows of one op check,
`_op_check`. It looks its op up by name each time it calls it, never
when the table is built, so a tracer that rebinds module attributes
sees every call.
"""

import numpy as np

from . import crossmodal, ops
from .convlstm import ConvLstmParams, ConvLstmState, convlstm_sequence, convlstm_step
from .crossmodal import CmcParams, cmc_forward
from .gradcheck import grad_check
from .network import ModelConfig, forward_logits, init_params
from .ops import BatchNormParams
from .tensor import Tensor


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _op_check(module, op, shapes, out_shape):
    """check(seed, tol) of getattr(module, op): it draws one input per
    entry of shapes (name -> shape), in order, as the op's arguments,
    then the coefficients of the out_shape projection."""
    def check(seed, tol):
        rng = np.random.default_rng(seed)
        ts = {name: _t(rng, *shape) for name, shape in shapes.items()}
        coeffs = rng.standard_normal(out_shape)
        return grad_check(
            lambda: ops.project(getattr(module, op)(*ts.values()), coeffs),
            ts, tolerance=tol)

    return check


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


ACTIVATION = {"x": (2, 3, 4, 4)}  # the input of each activation row

CHECKS = [
    ("conv2d", _op_check(ops, "conv2d", {
        "x": (2, 3, 6, 6), "k": (4, 3, 3, 3), "b": (4,)}, (2, 4, 6, 6)), 1e-4),
    ("conv_transpose2d", _op_check(ops, "conv_transpose2d", {
        "x": (1, 2, 4, 4), "k": (2, 3, 2, 2), "b": (3,)}, (1, 3, 8, 8)), 1e-4),
    ("maxpool2x2", _op_check(ops, "maxpool2x2", {"x": (2, 2, 6, 6)},
                             (2, 2, 3, 3)), 1e-4),
    ("batchnorm", check_batchnorm, 1e-4),
    ("relu", _op_check(ops, "relu", ACTIVATION, (2, 3, 4, 4)), 1e-4),
    ("sigmoid", _op_check(ops, "sigmoid", ACTIVATION, (2, 3, 4, 4)), 1e-4),
    ("tanh", _op_check(ops, "tanh", ACTIVATION, (2, 3, 4, 4)), 1e-4),
    ("softmax_ce_loss", check_softmax_ce, 1e-4),
    ("cmc_forward", check_cmc, 1e-4),
    ("mrf_fuse", _op_check(crossmodal, "mrf_fuse", {
        "a": (2, 3, 4, 4), "b": (2, 3, 4, 4)}, (2, 3, 4, 4)), 1e-4),
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

"""Span tracing around the public functions of each mmseqseg module.

The tracer lives entirely in the benchmark: `install()` rebinds each
traced function, in every mmseqseg module that holds a reference to it,
to a wrapper that records a span (name, start, end, parent, unit).
Modules bind ops by name (`from .ops import conv2d`), so rebinding only
the defining module would miss most calls. `uninstall()` restores the
originals. An op's backward is timed by wrapping the `_backward`
closure of the Tensor the op returns.

Spans are kept in flat arrays while the run lasts and written out once,
at the end. Each layer's self time is its spans' duration minus the
time covered by their child spans.
"""

import functools
import os
import time
from array import array
from collections import Counter

import numpy as np

OPS = ("conv2d", "conv_transpose2d", "batchnorm", "maxpool2x2", "relu",
       "sigmoid", "tanh", "add", "elementwise_mul", "take", "concat0",
       "softmax_ce_loss")
CONV_OPS = ("conv2d", "conv_transpose2d")
CROSSMODAL = ("stack_modalities", "cmc_forward", "mrf_fuse")

# (module, function, span name, time the returned tensor's backward)
SPANS = (
    [("ops", op, f"ops.{op}", True) for op in OPS]
    + [("crossmodal", fn, f"crossmodal.{fn}", True) for fn in CROSSMODAL]
    + [("tensor", "check_finite", "tensor.check_finite", False),
       ("convlstm", "convlstm_sequence", "convlstm.convlstm_sequence", False),
       ("network", "forward_logits", "network.forward_logits", False),
       ("network", "predict_volume", "network.predict_volume", False),
       ("training", "train_step", "training.train_step", False),
       ("training", "sample_phase1", "training.sample", False),
       ("training", "sample_natural", "training.sample", False),
       ("training", "clip_gradients", "training.clip_gradients", False),
       ("training", "adam_update", "training.adam_update", False),
       ("gradcheck", "grad_check", "gradcheck.grad_check", False)]
    + [("dataio", fn, f"dataio.{fn}", False)
       for fn in ("read_volume", "normalize_volume", "load_checkpoint",
                  "save_checkpoint", "gen_synthetic_case")]
    + [("metrics", fn, f"metrics.{fn}", False)
       for fn in ("evaluate", "confusion", "region_counts")]
)

# Layers that run in set-up rather than in a timed unit; their metrics
# are per set-up, every other layer metric is per timed unit.
SETUP_LAYERS = ("dataio.gen_synthetic_case", "dataio.save_checkpoint")

UNIT_SPAN = "bench.unit"


def per_layer_names():
    """(metric name, unit, better) for every per-layer metric, in order."""
    out = []
    for op in OPS:
        out += [(f"ops.{op}.calls", "count", "lower"),
                (f"ops.{op}.fwd_ms", "ms", "lower"),
                (f"ops.{op}.bwd_ms", "ms", "lower")]
    for op in CONV_OPS:
        out += [(f"ops.{op}.gflop", "GFLOP", "lower"),
                (f"ops.{op}.gb_computed", "GB", "lower"),
                (f"ops.{op}.gflop_per_s", "GFLOP/s", "higher")]
    out += [("tensor.nodes", "count", "lower"),
            ("tensor.backward.self_ms", "ms", "lower"),
            ("tensor.check_finite.calls", "count", "lower"),
            ("tensor.check_finite.ms", "ms", "lower")]
    for fn in CROSSMODAL:
        out += [(f"crossmodal.{fn}.calls", "count", "lower"),
                (f"crossmodal.{fn}.fwd_ms", "ms", "lower"),
                (f"crossmodal.{fn}.bwd_ms", "ms", "lower")]
    out += [("convlstm.convlstm_sequence.calls", "count", "lower"),
            ("convlstm.convlstm_sequence.ms", "ms", "lower"),
            ("network.forward_logits.calls", "count", "lower"),
            ("network.forward_logits.ms", "ms", "lower"),
            ("network.predict_volume.ms", "ms", "lower"),
            ("network.windows", "count", "lower")]
    out += [(f"training.{fn}.ms", "ms", "lower")
            for fn in ("train_step", "sample", "clip_gradients", "adam_update")]
    out += [("training.clip_fired_ratio", "ratio", "lower")]
    out += [(f"dataio.{fn}.ms", "ms", "lower")
            for fn in ("read_volume", "normalize_volume", "load_checkpoint",
                       "save_checkpoint", "gen_synthetic_case")]
    out += [("dataio.read_volume.mb", "MB", "lower")]
    out += [(f"metrics.{fn}.ms", "ms", "lower")
            for fn in ("evaluate", "confusion", "region_counts")]
    out += [("gradcheck.grad_check.ms", "ms", "lower"),
            ("gradcheck.fn_evals", "count", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.coverage_ratio", "ratio", "higher")]
    return out


def conv_cost(op, x, kernel, out_shape):
    """Computed forward (flop, bytes) of a conv from operand shapes.

    Bytes are the operands read plus the result written once each; the
    im2col copies an implementation makes are not counted.
    """
    if op == "conv2d":
        cout, cin, kh, kw = kernel.shape
        n, _, h, w = out_shape  # one kh x kw patch per output pixel
    else:
        cin, cout, kh, kw = kernel.shape
        n, _, h, w = x.shape  # one kh x kw patch per input pixel
    flop = 2 * n * h * w * cout * cin * kh * kw
    item = x.data.itemsize
    nbytes = (x.size + kernel.size + int(np.prod(out_shape))) * item
    return flop, nbytes


class Tracer:
    def __init__(self, modules):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self._stack = []
        self.unit_index = -1  # -1 while setting up, else the timed unit
        self.counts = Counter()  # counters of timed units only
        self._plan = self._rebindings(modules)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_index)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key, value=1):
        if self.unit_index >= 0:
            self.counts[key] += value

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def unit_span(self, fn):
        return self.span(UNIT_SPAN, fn)

    def counter(self, key, fn):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    # -- installation -------------------------------------------------

    def _wrap(self, module, fn_name, name, backward):
        fn = getattr(module, fn_name)
        traced = self.span(name, fn)
        op = fn_name if fn_name in CONV_OPS else None
        bwd_name = f"{name}.bwd"

        def wrapper(*args, **kwargs):
            if fn_name == "grad_check":
                args = (self.counter("gradcheck.fn_evals", args[0]),) + args[1:]
            out = traced(*args, **kwargs)
            if fn_name == "clip_gradients":
                self.count("training.clip_gradients.calls")
                max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
                if 0 < max_norm < out:
                    self.count("training.clip_gradients.fired")
            elif fn_name == "read_volume":
                self.count("dataio.read_volume.bytes", out[0].nbytes)
            if backward:
                tensor = out[0] if isinstance(out, tuple) else out
                if op is not None:
                    self._count_conv(op, args, tensor)
                if tensor._backward is not None:
                    tensor._backward = self.span(bwd_name, tensor._backward)
            return out

        return functools.wraps(fn)(wrapper), fn

    def _count_conv(self, op, args, out):
        x, kernel = args[0], args[1]
        flop, nbytes = conv_cost(op, x, kernel, out.shape)
        self.count(f"ops.{op}.flop", flop)
        self.count(f"ops.{op}.bytes", nbytes)
        if out._backward is None:
            return
        inner = out._backward

        def backward(g):
            # weight gradient: one pass over the operands; input gradient:
            # another; each reads the upstream gradient and writes its result
            passes = int(kernel.requires_grad) + int(x.requires_grad)
            self.count(f"ops.{op}.flop", passes * flop)
            self.count(f"ops.{op}.bytes", passes * nbytes)
            inner(g)
        out._backward = backward

    def _rebindings(self, modules):
        """(owner, attribute, original, wrapper) for every traced name in
        every module of the package."""
        replace = {}
        for mod_name, fn_name, name, backward in SPANS:
            wrapper, fn = self._wrap(modules[f"mmseqseg.{mod_name}"], fn_name,
                                     name, backward)
            replace[id(fn)] = (fn, wrapper)
        tensor_mod = modules["mmseqseg.tensor"]
        for key, fn in (("tensor.nodes", tensor_mod.make_node),
                        ("network.windows", modules["mmseqseg.network"].forward)):
            replace[id(fn)] = (fn, functools.wraps(fn)(self.counter(key, fn)))
        plan = []
        for mod_name, mod in sorted(modules.items()):
            if mod_name != "mmseqseg" and not mod_name.startswith("mmseqseg."):
                continue
            for attr, value in vars(mod).items():
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((mod, attr, value, hit[1]))
        cls = tensor_mod.Tensor
        plan.append((cls, "backward", cls.backward, functools.wraps(cls.backward)(
            self.span("tensor.backward", cls.backward))))
        return plan

    def install(self):
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    # -- derivation ---------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
        }

    def self_times(self):
        """Per span name: (calls, self ns) over timed units and over set-up."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        k = len(self.names)
        out = {}
        for phase, mask in (("unit", a["unit"] >= 0), ("setup", a["unit"] < 0)):
            calls = np.bincount(a["name"][mask], minlength=k)
            ns = np.bincount(a["name"][mask], weights=own[mask], minlength=k)
            out[phase] = {n: (int(calls[i]), float(ns[i]))
                          for i, n in enumerate(self.names)}
        unit_mask = a["name"] == self._ids.get(UNIT_SPAN, -1)
        out["unit_ns"] = dur[unit_mask]
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, units, setups):
        """Every per-layer metric but trace.overhead_ratio: times and
        counts per timed unit (SETUP_LAYERS per set-up)."""
        times = self.self_times()
        counts = self.counts

        def calls(name):
            return times["unit"].get(name, (0, 0.0))[0] / units

        def ms(name):
            if name in SETUP_LAYERS:
                return times["setup"].get(name, (0, 0.0))[1] / 1e6 / setups
            return times["unit"].get(name, (0, 0.0))[1] / 1e6 / units

        m = {}
        for op in [f"ops.{op}" for op in OPS] + [f"crossmodal.{fn}" for fn in CROSSMODAL]:
            m[f"{op}.calls"] = calls(op)
            m[f"{op}.fwd_ms"] = ms(op)
            m[f"{op}.bwd_ms"] = ms(f"{op}.bwd")
        for op in CONV_OPS:
            gflop = counts[f"ops.{op}.flop"] / units / 1e9
            busy_s = (m[f"ops.{op}.fwd_ms"] + m[f"ops.{op}.bwd_ms"]) / 1e3
            m[f"ops.{op}.gflop"] = gflop
            m[f"ops.{op}.gb_computed"] = counts[f"ops.{op}.bytes"] / units / 1e9
            m[f"ops.{op}.gflop_per_s"] = gflop / busy_s if busy_s else 0.0
        m["tensor.nodes"] = counts["tensor.nodes"] / units
        m["tensor.backward.self_ms"] = ms("tensor.backward")
        for name in ("tensor.check_finite", "convlstm.convlstm_sequence",
                     "network.forward_logits"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.ms"] = ms(name)
        m["network.windows"] = counts["network.windows"] / units
        clips = counts["training.clip_gradients.calls"]
        m["training.clip_fired_ratio"] = \
            counts["training.clip_gradients.fired"] / clips if clips else 0.0
        m["dataio.read_volume.mb"] = counts["dataio.read_volume.bytes"] / units / 1e6
        m["gradcheck.fn_evals"] = counts["gradcheck.fn_evals"] / units
        for name in ("network.predict_volume", "training.train_step",
                     "training.sample", "training.clip_gradients",
                     "training.adam_update", "dataio.read_volume",
                     "dataio.normalize_volume", "dataio.load_checkpoint",
                     "dataio.save_checkpoint", "dataio.gen_synthetic_case",
                     "metrics.evaluate", "metrics.confusion",
                     "metrics.region_counts", "gradcheck.grad_check"):
            m[f"{name}.ms"] = ms(name)
        covered = sum(ns for name, (_, ns) in times["unit"].items()
                      if name != UNIT_SPAN)
        m["trace.coverage_ratio"] = covered / float(times["unit_ns"].sum())
        return m

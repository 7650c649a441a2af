"""Central finite-difference checking of analytic gradients.

Runs in whatever precision the supplied tensors carry; callers should
hand in float64 tensors so the difference quotient has headroom.

An entry whose central difference disagrees with the analytic gradient
is probed again when its left and right one-sided slopes differ by more
than the tolerance. A second pair of probes at a tenth of the step
tells a kink (a ReLU or max-pool switch) from curvature: on a smooth
function the gap between the slopes shrinks tenfold with the step. A
kink within the smaller step keeps the gap, and the entry passes when
the analytic gradient matches one of the two one-sided slopes; in every
other case the central difference at the smaller step is the reference.
"""

import numpy as np

from .tensor import no_grad


class GradCheckReport:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.max_rel_error = {}  # tensor name -> worst relative error
        self.kinks = 0  # failing entries with a kink within the step
        self.failed_reason = None

    @property
    def passed(self):
        if self.failed_reason is not None:
            return False
        return all(e <= self.tolerance for e in self.max_rel_error.values())

    def worst(self):
        return max(self.max_rel_error.values(), default=0.0)

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"GradCheckReport({status}, worst={self.worst():.3e}, "
                f"kinks={self.kinks})")


def _rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / denom


def _small_step(fn, flat, i, h, f_center, analytic, gap):
    """(relative error, is a kink) of entry i judged at step h, a tenth
    of a step whose one-sided slopes differ by gap, as the module
    docstring describes. A gap that collapses to under a twentieth marks
    a kink between the two steps, which h is clear of. Called under
    no_grad()."""
    orig = flat[i]
    flat[i] = orig + h
    f_plus = float(fn().data)
    flat[i] = orig - h
    f_minus = float(fn().data)
    flat[i] = orig
    left, right = (f_center - f_minus) / h, (f_plus - f_center) / h
    small_gap = abs(right - left)
    if small_gap > gap / 2.0:
        return min(_rel_err(analytic, left), _rel_err(analytic, right)), True
    return (_rel_err(analytic, (f_plus - f_minus) / (2.0 * h)),
            small_gap < gap / 20.0)


def grad_check(fn, tensors, tolerance=1e-4, step_scale=1e-4, max_entries=None,
               rng=None):
    """Compare analytic gradients of scalar fn() against central differences.

    fn rebuilds its graph from `tensors` (a dict name -> Tensor) on every
    call and returns a scalar Tensor. Only the analytic pass keeps its
    graph; the finite-difference calls run under no_grad(). If
    max_entries is given, only a random subset of entries per tensor is
    checked (seeded by rng).
    """
    f_center = None  # fn() at the unperturbed point, once a kink probe needs it
    report = GradCheckReport(tolerance)
    for t in tensors.values():
        t.zero_grad()
        t.requires_grad = True

    out = fn()
    out.backward()
    analytic = {}
    for name, t in tensors.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            report.failed_reason = f"non-finite analytic gradient for {name}"
            return report
        analytic[name] = g.copy()

    with no_grad():  # every finite-difference call
        for name, t in tensors.items():
            flat = t.data.reshape(-1)
            n = flat.size
            if max_entries is not None and n > max_entries:
                if rng is None:
                    rng = np.random.default_rng(0)
                idxs = rng.choice(n, size=max_entries, replace=False)
            else:
                idxs = range(n)
            worst = 0.0
            ga = analytic[name].reshape(-1)
            for i in idxs:
                orig = flat[i]
                eps = step_scale * max(1.0, abs(orig))
                flat[i] = orig + eps
                f_plus = float(fn().data)
                flat[i] = orig - eps
                f_minus = float(fn().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                if not np.isfinite(numeric):
                    report.failed_reason = (
                        f"non-finite numeric gradient for {name}")
                    return report
                err = _rel_err(float(ga[i]), numeric)
                if err > tolerance:
                    if f_center is None:
                        f_center = float(fn().data)
                    left = (f_center - f_minus) / eps
                    right = (f_plus - f_center) / eps
                    if _rel_err(left, right) > tolerance:  # kink or curvature
                        err, kink = _small_step(fn, flat, i, eps / 10.0,
                                                f_center, float(ga[i]),
                                                abs(right - left))
                        report.kinks += kink
                worst = max(worst, err)
            report.max_rel_error[name] = worst
    return report

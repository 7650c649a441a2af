"""Central finite-difference checking of analytic gradients.

Runs in whatever precision the supplied tensors carry; callers should
hand in float64 tensors so the difference quotient has headroom.

An entry whose central difference disagrees with the analytic gradient
is probed once more: if its left and right one-sided slopes differ by
more than the tolerance, a kink (a ReLU or max-pool switch) lies within
the step, and the entry passes when the analytic gradient matches one
of the two slopes.
"""

import numpy as np

from .tensor import no_grad


class GradCheckReport:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.max_rel_error = {}  # tensor name -> worst relative error
        self.kinks = 0  # entries judged by a one-sided slope
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
            with no_grad():
                flat[i] = orig + eps
                f_plus = float(fn().data)
                flat[i] = orig - eps
                f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if not np.isfinite(numeric):
                report.failed_reason = f"non-finite numeric gradient for {name}"
                return report
            err = _rel_err(float(ga[i]), numeric)
            if err > tolerance:
                if f_center is None:
                    with no_grad():
                        f_center = float(fn().data)
                left = (f_center - f_minus) / eps
                right = (f_plus - f_center) / eps
                if _rel_err(left, right) > tolerance:
                    report.kinks += 1
                    err = min(_rel_err(float(ga[i]), left),
                              _rel_err(float(ga[i]), right))
            worst = max(worst, err)
        report.max_rel_error[name] = worst
    return report

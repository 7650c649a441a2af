"""The battery's op rows call their op through its module attribute each
time they run, so a wrapper bound there after import, the way the
benchmark's tracer binds its own, sees every call."""

import pytest

from mmseqseg import crossmodal, ops
from mmseqseg.gradsuite import CHECKS

ROW_MODULES = {"conv2d": ops, "conv_transpose2d": ops, "maxpool2x2": ops,
               "relu": ops, "sigmoid": ops, "tanh": ops,
               "mrf_fuse": crossmodal}


@pytest.mark.parametrize("name", sorted(ROW_MODULES))
def test_row_calls_the_current_binding(name, monkeypatch):
    module = ROW_MODULES[name]
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    [(check, tol)] = [(fn, tol) for row, fn, tol in CHECKS if row == name]
    assert check(0, tol).passed
    assert calls

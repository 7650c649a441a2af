"""The gradient-check battery at seeds whose finite differences cross a
ReLU or max-pool kink."""

import pytest

from mmseqseg.gradsuite import run_suite


@pytest.mark.parametrize("seed", [4, 5, 21, 27])
def test_battery_passes(seed):
    results = run_suite(seeds=(seed,))
    failed = [f"{name}: {report!r}" for name, _, report in results
              if not report.passed]
    assert not failed

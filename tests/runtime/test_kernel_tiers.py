"""Kernel tier names: ``kernel_tier`` selects no separate code.

Both accepted names, ``"numpy"`` and ``"scipy"``, run the one kernel
set, so a run under either must give the same closeness bits, trace,
modeled clock and fault accounting, on either backend.  Any other name
is a configuration error.
"""

from __future__ import annotations

import pytest

from repro import AnytimeConfig
from repro.errors import ConfigurationError

from ..test_harness import FIXED, STATIC, run


def _pin(s, backend: str, tier: str):
    return run(s, backend, "delta", None, kernel_tier=tier).pin


class TestTierFingerprints:
    """Either tier name is bitwise-identical to the other: the harness's
    ``pin`` of the BA(70, 2, 7) run, static and ``faulty-batch``."""

    def test_scipy_matches_numpy_serial_static(self):
        assert _pin(STATIC, "serial", "scipy") == _pin(STATIC, "serial", "numpy")

    def test_scipy_matches_numpy_serial_dynamic_faulty(self):
        faulty = FIXED["faulty-batch"]
        assert _pin(faulty, "serial", "scipy") == _pin(faulty, "serial", "numpy")

    def test_scipy_process_matches_numpy_serial(self):
        faulty = FIXED["faulty-batch"]
        assert _pin(faulty, "process", "scipy") == _pin(faulty, "serial", "numpy")


class TestTierRegistry:
    def test_config_validates_tier(self):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(kernel_tier="fortran")

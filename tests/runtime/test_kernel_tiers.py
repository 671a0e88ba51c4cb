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
from repro.runtime.chaos import FaultPlan

from .test_backends import _changes, _run


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        crashes=((2, 1),),
        loss_prob=0.15,
        dup_prob=0.05,
        send_failure_prob=0.05,
    )


def _dynamic_faulty(backend: str, tier: str):
    return _run(
        backend, changes=_changes(), strategy="cutedge",
        fault_plan=_fault_plan(), kernel_tier=tier,
    )


class TestTierFingerprints:
    """Either tier name is bitwise-identical to the other."""

    def test_scipy_matches_numpy_serial_static(self):
        assert _run("serial", kernel_tier="scipy") == _run(
            "serial", kernel_tier="numpy"
        )

    def test_scipy_matches_numpy_serial_dynamic_faulty(self):
        assert _dynamic_faulty("serial", "scipy") == _dynamic_faulty(
            "serial", "numpy"
        )

    def test_scipy_process_matches_numpy_serial(self):
        assert _dynamic_faulty("process", "scipy") == _dynamic_faulty(
            "serial", "numpy"
        )


class TestTierRegistry:
    def test_config_validates_tier(self):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(kernel_tier="fortran")

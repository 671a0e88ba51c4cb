"""ResilienceConfig is the only spelling of the fault-tolerance knobs."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

import repro
from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    FaultPlan,
    ResilienceConfig,
)
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert


def _graph():
    return barabasi_albert(30, 2, seed=1)


class TestResilienceConfig:
    def test_defaults(self):
        res = ResilienceConfig()
        assert res.recovery == "warm"
        assert res.checkpoint_interval == 8
        assert res.fault_plan is None

    def test_validates_recovery_name_and_interval(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(recovery="cold")
        with pytest.raises(ConfigurationError):
            ResilienceConfig(checkpoint_interval=0)

    def test_config_always_populates_the_group(self):
        assert AnytimeConfig(nprocs=4).resilience == ResilienceConfig()
        assert (
            AnytimeConfig(nprocs=4, resilience=None).resilience
            == ResilienceConfig()
        )

    def test_group_flows_through(self):
        res = ResilienceConfig(recovery="escalate", checkpoint_interval=3)
        cfg = AnytimeConfig(nprocs=4, resilience=res)
        assert cfg.resilience is res
        assert dataclasses.replace(cfg).resilience is res


class TestLegacyConfigKwargs:
    """The flat ``recovery`` / ``checkpoint_interval`` fields are gone."""

    def test_legacy_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="recovery"):
            AnytimeConfig(nprocs=4, recovery="checkpoint")
        with pytest.raises(TypeError, match="checkpoint_interval"):
            AnytimeConfig(nprocs=4, checkpoint_interval=5)
        cfg = AnytimeConfig(nprocs=4)
        assert not hasattr(cfg, "recovery")
        assert not hasattr(cfg, "checkpoint_interval")

    def test_conflicting_legacy_and_group_raise(self):
        with pytest.raises(TypeError, match="recovery"):
            AnytimeConfig(
                nprocs=4,
                recovery="warm",
                resilience=ResilienceConfig(recovery="escalate"),
            )


class TestLegacyRunKwargs:
    """``run()`` / ``closeness()`` take the group, never the flat kwargs."""

    def _engine(self):
        eng = AnytimeAnywhereCloseness(
            _graph(), AnytimeConfig(nprocs=3, collect_snapshots=False)
        )
        eng.setup()
        return eng

    def test_run_flat_kwargs_raise_type_error(self):
        eng = self._engine()
        plan = FaultPlan(seed=0, loss_prob=0.05)
        for kwargs in (
            {"fault_plan": plan},
            {"recovery": "warm"},
            {"checkpoint_interval": 4},
        ):
            with pytest.raises(TypeError):
                eng.run(**kwargs)
            with pytest.raises(TypeError):
                repro.closeness(_graph(), nprocs=3, **kwargs)

    def test_run_resilience_group_does_not_warn(self):
        eng = self._engine()
        plan = FaultPlan(seed=0, loss_prob=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = eng.run(resilience=ResilienceConfig(fault_plan=plan))
        assert result.converged

    def test_recovery_without_fault_plan_still_raises(self):
        """A run-level override that sets a recovery policy but no plan
        would silently do nothing — rejected.  The all-defaults group is
        the one plan-less override that means something: it switches a
        configured plan off for one run."""
        eng = self._engine()
        with pytest.raises(ConfigurationError, match="fault_plan"):
            eng.run(resilience=ResilienceConfig(recovery="checkpoint"))
        with pytest.raises(ConfigurationError, match="fault_plan"):
            eng.run(resilience=ResilienceConfig(checkpoint_interval=4))
        assert eng.run(resilience=ResilienceConfig()).converged

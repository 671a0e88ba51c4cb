"""Self-healing runtime: health model, straggler mitigation, escalating
recovery, graceful degradation."""

import dataclasses

import pytest

import repro
from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    HealthPolicy,
    ResilienceConfig,
)
from repro.bench import community_workload
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.runtime import HealthMonitor, HealthState
from repro.runtime.chaos import FaultPlan


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
class TestHealthPolicy:
    def test_defaults_valid(self):
        p = HealthPolicy()
        assert p.deadline_factor > 1.0
        assert p.speculate

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_factor": 1.0},
            {"suspect_after": 0},
            {"degraded_after": 1, "suspect_after": 2},
            {"backoff_base": -1e-3},
            {"backoff_factor": 0.5},
            {"backoff_max": 0.0, "backoff_base": 1.0},
            {"backoff_jitter": 1.5},
            {"speculation_overhead": -0.1},
            {"crash_budget": 0},
            {"max_dead_fraction": 0.0},
            {"max_dead_fraction": 1.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthPolicy(**kwargs)

    def test_config_rejects_non_policy(self):
        with pytest.raises(ConfigurationError, match="HealthPolicy"):
            AnytimeConfig(nprocs=2, health="aggressive")

    def test_config_accepts_escalate_recovery(self):
        cfg = AnytimeConfig(
            nprocs=2, resilience=ResilienceConfig(recovery="escalate")
        )
        assert cfg.resilience.recovery == "escalate"


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def make(self, **kw):
        return HealthMonitor(HealthPolicy(**kw), 4, seed=7)

    def test_starts_healthy(self):
        m = self.make()
        assert all(s is HealthState.HEALTHY for s in m.states)
        assert m.alive_fraction() == 1.0

    def test_deadline_is_median_scaled(self):
        m = self.make(deadline_factor=2.0)
        assert m.deadline([1.0, 1.0, 1.0, 9.0]) == pytest.approx(2.0)
        assert m.deadline([]) == 0.0

    def test_consecutive_misses_escalate_state(self):
        m = self.make(suspect_after=2, degraded_after=4)
        slow = [1.0, 1.0, 1.0, 9.0]
        m.observe_superstep(slow, [0, 0, 0, 0])
        assert m.states[3] is HealthState.HEALTHY  # one miss: not yet
        flagged = m.observe_superstep(slow, [0, 0, 0, 0])
        assert m.states[3] is HealthState.SUSPECT
        assert flagged == [3]
        m.observe_superstep(slow, [0, 0, 0, 0])
        m.observe_superstep(slow, [0, 0, 0, 0])
        assert m.states[3] is HealthState.DEGRADED
        assert m.missed_deadlines == 4

    def test_recovery_to_healthy_on_met_deadline(self):
        m = self.make(suspect_after=1)
        m.observe_superstep([1.0, 1.0, 1.0, 9.0], [0, 0, 0, 0])
        assert m.states[3] is HealthState.SUSPECT
        m.observe_superstep([1.0, 1.0, 1.0, 1.0], [0, 0, 0, 0])
        assert m.states[3] is HealthState.HEALTHY

    def test_unacked_rows_make_suspect(self):
        m = self.make()
        m.observe_superstep([1.0, 1.0, 1.0, 1.0], [0, 5, 0, 0])
        assert m.states[1] is HealthState.SUSPECT

    def test_dead_rank_stays_dead(self):
        m = self.make()
        m.mark_dead(2)
        m.observe_superstep([1.0, 1.0, 0.0, 1.0], [0, 0, 0, 0])
        assert m.states[2] is HealthState.DEAD
        assert m.alive_fraction() == 0.75
        assert m.state_value(2) == 3

    def test_backoff_grows_and_caps(self):
        m = self.make(
            backoff_base=1e-3, backoff_factor=2.0, backoff_max=4e-3,
            backoff_jitter=0.0,
        )
        assert m.backoff_delay(2) == pytest.approx(1e-3)
        assert m.backoff_delay(3) == pytest.approx(2e-3)
        assert m.backoff_delay(5) == pytest.approx(4e-3)  # capped
        assert m.backoffs == 3
        assert m.backoff_seconds == pytest.approx(7e-3)

    def test_backoff_jitter_is_seeded(self):
        a = HealthMonitor(HealthPolicy(), 2, seed=9)
        b = HealthMonitor(HealthPolicy(), 2, seed=9)
        assert [a.backoff_delay(i) for i in range(2, 8)] == [
            b.backoff_delay(i) for i in range(2, 8)
        ]

    def test_note_crash_counts_per_rank(self):
        m = self.make()
        assert m.note_crash(1) == 1
        assert m.note_crash(1) == 2
        assert m.note_crash(2) == 1


# ----------------------------------------------------------------------
# straggler mitigation end to end
# ----------------------------------------------------------------------
class TestStragglerMitigation:
    def run_all(self, nprocs=4, factor=8.0):
        g = barabasi_albert(150, 3, seed=2)
        plan = FaultPlan(stragglers=((1, factor),))
        free = repro.closeness(g, nprocs=nprocs)
        unmit = repro.closeness(
            g, nprocs=nprocs, resilience=ResilienceConfig(fault_plan=plan)
        )
        cfg = AnytimeConfig(nprocs=nprocs, health=HealthPolicy())
        mit = repro.closeness(
            g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
        )
        return free, unmit, mit

    def test_bitwise_identical_closeness(self):
        free, unmit, mit = self.run_all()
        assert mit.closeness == free.closeness
        assert unmit.closeness == free.closeness

    def test_mitigation_reduces_modeled_time(self):
        free, unmit, mit = self.run_all()
        assert mit.speculations > 0
        assert mit.missed_deadlines > 0
        assert free.modeled_seconds < mit.modeled_seconds
        assert mit.modeled_seconds < unmit.modeled_seconds

    def test_mitigated_run_repeats_byte_identically(self):
        g = barabasi_albert(120, 3, seed=3)
        plan = FaultPlan(stragglers=((0, 10.0),), loss_prob=0.1, seed=4)
        cfg = AnytimeConfig(nprocs=4, health=HealthPolicy())
        res = ResilienceConfig(fault_plan=plan)
        a = repro.closeness(g, config=cfg, resilience=res)
        b = repro.closeness(g, config=cfg, resilience=res)
        assert a.closeness == b.closeness
        assert a.fault_events == b.fault_events
        assert a.modeled_seconds == b.modeled_seconds

    def test_health_off_traces_unchanged(self):
        """Attaching the monitor must not consume the injector's RNG:
        the fault trace with health on equals the trace with health off
        (modulo the extra backoff events)."""
        g = barabasi_albert(100, 3, seed=5)
        plan = FaultPlan(loss_prob=0.2, seed=6)
        off = repro.closeness(
            g, nprocs=4, resilience=ResilienceConfig(fault_plan=plan)
        )
        cfg = AnytimeConfig(nprocs=4, health=HealthPolicy())
        on = repro.closeness(
            g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
        )
        strip = [e for e in on.fault_events if "kind=backoff" not in e]
        assert strip == off.fault_events
        assert on.closeness == off.closeness

    def test_speculation_disabled_still_tracks_health(self):
        g = barabasi_albert(100, 3, seed=7)
        plan = FaultPlan(stragglers=((2, 8.0),))
        cfg = AnytimeConfig(
            nprocs=4, health=HealthPolicy(speculate=False)
        )
        r = repro.closeness(
            g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
        )
        assert r.speculations == 0
        assert r.missed_deadlines > 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backup_gets_its_own_changed_entry_mask(self, backend):
        """The superstep kernel extends ``dv_changed`` in place (cut-edge
        relaxation) and ``superstep_apply`` then clears it.  The backup
        runs after that, so on the live mask it would miss the marks the
        straggler started from and leave its own behind; on a private
        copy every superstep still ends with a clean mask and an
        identical ``dv``."""
        wl = community_workload(100, 12, seed=9, inject_step=2)
        free = AnytimeAnywhereCloseness(
            wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
        )
        free.setup()
        want = free.run(changes=wl.stream, strategy="cutedge").closeness
        engine = AnytimeAnywhereCloseness(
            wl.base,
            AnytimeConfig(
                nprocs=4,
                backend=backend,
                health=HealthPolicy(speculate=True),
                collect_snapshots=False,
            ),
        )
        engine.setup()
        cluster = engine.cluster
        superstep = cluster.relax_and_propagate

        def audited_superstep():
            changed = superstep()
            assert not any(w.dv_changed.any() for w in cluster.workers)
            return changed

        cluster.relax_and_propagate = audited_superstep
        try:
            r = engine.run(
                changes=wl.stream,
                strategy="cutedge",
                resilience=ResilienceConfig(
                    fault_plan=FaultPlan(stragglers=((1, 8.0),))
                ),
            )
            assert r.converged and r.speculations > 0
            assert r.closeness == want
        finally:
            engine.close()

    def test_backoff_charged_to_modeled_clock(self):
        g = barabasi_albert(100, 3, seed=8)
        plan = FaultPlan(loss_prob=0.3, seed=9)
        base = repro.closeness(
            g, nprocs=4, resilience=ResilienceConfig(fault_plan=plan)
        )
        cfg = AnytimeConfig(nprocs=4, health=HealthPolicy())
        r = repro.closeness(
            g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
        )
        assert r.backoff_modeled_seconds > 0.0
        assert r.modeled_seconds == pytest.approx(
            base.modeled_seconds + r.backoff_modeled_seconds
        )


# ----------------------------------------------------------------------
# escalating recovery + graceful degradation
# ----------------------------------------------------------------------
class TestEscalation:
    def test_ladder_warm_checkpoint_redistribute(self):
        g = barabasi_albert(150, 3, seed=1)
        plan = FaultPlan(crashes=((1, 0), (3, 0), (5, 0)))
        r = repro.closeness(
            g, nprocs=4,
            resilience=ResilienceConfig(fault_plan=plan, recovery="escalate"),
        )
        assert r.converged and not r.degraded
        details = [
            e.split("detail=")[1]
            for e in r.fault_events
            if "kind=recovery" in e
        ]
        assert details == ["warm", "checkpoint", "redistribute"]
        assert r.recoveries_by_rung == {
            "warm": 1, "checkpoint": 1, "redistribute": 1
        }
        assert set(r.mttr_by_rung) == {"warm", "checkpoint", "redistribute"}
        assert all(v > 0 for v in r.mttr_by_rung.values())

    def test_escalate_matches_exact_closeness(self):
        from repro.centrality import exact_closeness

        g = barabasi_albert(120, 3, seed=2)
        plan = FaultPlan(crashes=((1, 1), (3, 1), (5, 1)))
        r = repro.closeness(
            g, nprocs=4,
            resilience=ResilienceConfig(fault_plan=plan, recovery="escalate"),
        )
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert r.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_crash_budget_degrades_gracefully(self):
        g = barabasi_albert(120, 3, seed=3)
        plan = FaultPlan(crashes=((1, 0), (2, 0), (3, 0)))
        cfg = AnytimeConfig(
            nprocs=4,
            resilience=ResilienceConfig(recovery="escalate"),
            health=HealthPolicy(crash_budget=2),
        )
        r = repro.closeness(
            g, config=cfg,
            resilience=dataclasses.replace(
                cfg.resilience, fault_plan=plan
            ),
        )
        assert r.degraded
        assert r.degraded_reason == "crash-budget"
        assert not r.converged
        assert r.quality["alive_fraction"] == pytest.approx(0.75)
        assert 0.0 < r.quality["finite_fraction"] < 1.0
        assert any("kind=degraded" in e for e in r.fault_events)

    def test_dead_fraction_degrades_gracefully(self):
        g = barabasi_albert(150, 3, seed=4)
        crashes = tuple(
            (1 + rank * 3 + i, rank) for rank in (0, 1, 2) for i in range(3)
        )
        r = repro.closeness(
            g, nprocs=4,
            resilience=ResilienceConfig(
                fault_plan=FaultPlan(crashes=crashes), recovery="escalate"
            ),
        )
        assert r.degraded
        assert r.degraded_reason == "dead-fraction"

    def test_retry_budget_degrades_with_health(self):
        g = barabasi_albert(100, 3, seed=5)
        plan = FaultPlan(loss_prob=0.9, max_retries=1, seed=6)
        cfg = AnytimeConfig(nprocs=4, health=HealthPolicy())
        r = repro.closeness(
            g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
        )
        assert r.degraded and r.degraded_reason == "retry-budget"
        assert r.quality

    def test_retry_budget_raises_without_health(self):
        from repro.errors import WorkerError

        g = barabasi_albert(100, 3, seed=5)
        plan = FaultPlan(loss_prob=0.9, max_retries=1, seed=6)
        with pytest.raises(WorkerError):
            repro.closeness(
                g, nprocs=4, resilience=ResilienceConfig(fault_plan=plan)
            )

    def test_graceful_degradation_opt_out_raises(self):
        from repro.errors import WorkerError

        g = barabasi_albert(100, 3, seed=5)
        plan = FaultPlan(loss_prob=0.9, max_retries=1, seed=6)
        cfg = AnytimeConfig(
            nprocs=4, health=HealthPolicy(graceful_degradation=False)
        )
        with pytest.raises(WorkerError):
            repro.closeness(
                g, config=cfg, resilience=ResilienceConfig(fault_plan=plan)
            )

    def test_degraded_summary_fields(self):
        g = barabasi_albert(100, 3, seed=3)
        plan = FaultPlan(crashes=((1, 0), (2, 0), (3, 0)))
        cfg = AnytimeConfig(
            nprocs=4,
            resilience=ResilienceConfig(recovery="escalate"),
            health=HealthPolicy(crash_budget=2),
        )
        r = repro.closeness(
            g, config=cfg,
            resilience=dataclasses.replace(
                cfg.resilience, fault_plan=plan
            ),
        )
        s = r.summary()
        assert s["degraded"] is True
        assert s["degraded_reason"] == "crash-budget"
        assert "speculations" in s and "backoff_modeled_seconds" in s

    def test_non_escalate_policies_unchanged(self):
        """The legacy fixed policies must behave exactly as before the
        ladder existed (their tests pin detail strings elsewhere; here:
        no monitor is implicitly created)."""
        g = barabasi_albert(100, 3, seed=1)
        plan = FaultPlan.single_crash(1, 0)
        r = repro.closeness(
            g, nprocs=4,
            resilience=ResilienceConfig(fault_plan=plan, recovery="warm"),
        )
        assert not r.degraded
        assert r.missed_deadlines == 0
        assert r.recoveries_by_rung == {"warm": 1}


# ----------------------------------------------------------------------
# health metric series
# ----------------------------------------------------------------------
class TestHealthMetrics:
    def test_series_exported(self):
        from repro.obs import registry as series

        g = barabasi_albert(100, 3, seed=2)
        plan = FaultPlan(stragglers=((1, 8.0),), loss_prob=0.1, seed=3)
        engine = AnytimeAnywhereCloseness(
            g,
            AnytimeConfig(
                nprocs=4, health=HealthPolicy(), observers=("metrics",),
                collect_snapshots=False,
            ),
        )
        engine.setup()
        r = engine.run(resilience=ResilienceConfig(fault_plan=plan))
        snap = engine.obs.registry.snapshot()
        for name in (
            series.HEALTH_STATE,
            series.MISSED_DEADLINES,
            series.SPECULATIONS,
            series.BACKOFF_SECONDS,
        ):
            assert any(key.startswith(name) for key in snap), name
        spec = next(
            v for k, v in snap.items() if k.startswith(series.SPECULATIONS)
        )
        assert spec == float(r.speculations)
        engine.close()

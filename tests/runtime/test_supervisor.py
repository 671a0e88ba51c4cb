"""The run context and its recovery policies: warm, checkpoint,
redistribute, escalate."""

import gc
import json
import weakref

import pytest
import validate_trace  # tools/ is on sys.path via tests/conftest.py

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    ChangeBatch,
    ChangeStream,
    FaultPlan,
    HealthPolicy,
    ResilienceConfig,
)
from repro.centrality import exact_closeness
from repro.errors import ConfigurationError, ConvergenceError, WorkerError
from repro.graph import barabasi_albert
from repro.graph.changes import EdgeDeletion, VertexAddition
from repro.model.cost import DEFAULT_COST
from repro.obs import registry as series
from repro.runtime import check_cluster_invariants, snapshot_load
from repro.runtime.health import HealthState
from repro.runtime.supervisor import Supervisor


def fresh_engine(n=80, nprocs=4, seed=1, **cfg_kwargs):
    g = barabasi_albert(n, 2, seed=seed)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False, **cfg_kwargs)
    )
    engine.setup()
    return g, engine


def assert_exact(result, graph):
    assert result.converged
    exact = exact_closeness(graph)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


class TestValidation:
    """The supervisor trusts ``ResilienceConfig`` to have validated."""

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(fault_plan=FaultPlan(), recovery="cold")

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(fault_plan=FaultPlan(), checkpoint_interval=0)


class TestRunContext:
    """Whatever a run does, leaving it restores the fault-free cluster."""

    SPEEDS = [1.0, 2.0, 1.0, 0.5]

    def _engine(self, tmp_path, **cfg):
        g = barabasi_albert(80, 2, seed=1)
        engine = AnytimeAnywhereCloseness(
            g,
            AnytimeConfig(
                nprocs=4,
                collect_snapshots=False,
                worker_speeds=list(self.SPEEDS),
                observers=(f"jsonl:{tmp_path / 'run.jsonl'}",),
                **cfg,
            ),
        )
        engine.setup()
        return engine

    def _assert_restored(self, engine, tmp_path):
        cluster = engine.cluster
        assert cluster.chaos.reliable
        assert cluster.chaos is cluster.fault_free.injector
        assert cluster.health is None
        assert cluster.reference_speeds is None
        assert [w.speed for w in cluster.workers] == self.SPEEDS
        engine.close()
        path = tmp_path / "run.jsonl"
        assert validate_trace.validate_trace_file(path) == []
        runs = [
            e
            for e in map(json.loads, path.read_text().splitlines())
            if e["name"] == "run"
        ]
        assert [e["kind"] for e in runs] == ["begin", "end"]
        assert runs[-1]["attrs"] == {"aborted": True}

    def test_convergence_error_under_stragglers(self, tmp_path):
        engine = self._engine(tmp_path, max_rc_steps=1)
        plan = FaultPlan(stragglers=((1, 8.0), (3, 2.0)), loss_prob=0.2)
        with pytest.raises(ConvergenceError):
            engine.run(resilience=ResilienceConfig(fault_plan=plan))
        self._assert_restored(engine, tmp_path)

    def test_worker_error_without_graceful_degradation(self, tmp_path):
        engine = self._engine(
            tmp_path, health=HealthPolicy(graceful_degradation=False)
        )
        plan = FaultPlan(
            seed=6, loss_prob=0.9, max_retries=1, stragglers=((2, 4.0),)
        )
        with pytest.raises(WorkerError):
            engine.run(resilience=ResilienceConfig(fault_plan=plan))
        self._assert_restored(engine, tmp_path)

    def test_fault_free_runs_share_one_null_context(self):
        _g, engine = fresh_engine()
        cluster = engine.cluster
        null = cluster.fault_free
        assert cluster.chaos is null.injector and null.monitor is None
        engine.run()
        engine.run()
        assert cluster.fault_free is null and cluster.chaos is null.injector
        assert null.injector.events == [] and null.recoveries == 0

    def test_dropped_cluster_freed_without_the_cyclic_collector(self):
        """The null context must not hold its cluster in a reference
        cycle: a dropped engine's arrays would outlive it (peak RSS)."""
        _g, engine = fresh_engine()
        engine.run()
        cluster = weakref.ref(engine.cluster)
        gc.disable()
        try:
            del engine
            assert cluster() is None
        finally:
            gc.enable()


class TestLadder:
    def test_crash_counts_per_rank(self):
        _g, engine = fresh_engine()
        plan = FaultPlan(crashes=((1, 1), (2, 1), (3, 2)))
        with Supervisor(
            engine.cluster, ResilienceConfig(fault_plan=plan)
        ) as run:
            for step in range(4):
                run.before_step(step)
        assert run.crash_counts == {1: 2, 2: 1}
        assert run.recoveries_by_rung == {"warm": 3}

    def test_only_escalate_builds_a_monitor_unasked(self):
        _g, engine = fresh_engine()
        plan = FaultPlan()
        for policy, has_monitor in (
            ("warm", False),
            ("checkpoint", False),
            ("redistribute", False),
            ("escalate", True),
        ):
            resilience = ResilienceConfig(fault_plan=plan, recovery=policy)
            run = Supervisor(engine.cluster, resilience)
            assert (run.monitor is not None) is has_monitor, policy
            assert (run.budgets is not None) is has_monitor, policy


class TestCheckpointPolicy:
    def test_checkpoint_restore_used_when_fresh(self):
        g, engine = fresh_engine()
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(2, 1),
                recovery="checkpoint",
                checkpoint_interval=1,
            )
        )
        assert any(
            "kind=recovery" in e and "detail=checkpoint" in e
            for e in res.fault_events
        )
        assert_exact(res, g)

    def test_checkpoint_cheaper_than_warm_recompute(self):
        # Single-threaded IA is the regime the checkpoint targets: restoring
        # shipped DV/APSP state beats re-running the local Dijkstra sweep.
        cost = DEFAULT_COST.with_threads(1)
        results = {}
        for policy in ("warm", "checkpoint"):
            g, engine = fresh_engine(n=300, seed=5, cost=cost)
            res = engine.run(
                resilience=ResilienceConfig(
                    fault_plan=FaultPlan.single_crash(1, 2),
                    recovery=policy,
                    checkpoint_interval=1,
                )
            )
            assert_exact(res, g)
            results[policy] = res.recovery_modeled_seconds
        assert results["checkpoint"] < results["warm"]

    def test_falls_back_to_warm_after_deletion_batch(self):
        g, engine = fresh_engine()
        u, v, _w = g.edge_list()[0]
        final = g.copy()
        final.remove_edge(u, v)
        stream = ChangeStream(
            {1: ChangeBatch(edge_deletions=[EdgeDeletion(u, v)])}
        )
        res = engine.run(
            changes=stream,
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(3, 1),
                recovery="checkpoint",
                # only the step-0 checkpoint exists
                checkpoint_interval=1000,
            ),
        )
        assert any("detail=warm-fallback" in e for e in res.fault_events)
        assert_exact(res, final)

    def test_checkpoint_cost_is_charged(self):
        _g, engine = fresh_engine()
        engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(2, 1),
                recovery="checkpoint",
                checkpoint_interval=1,
            )
        )
        phases = engine.cluster.tracer.phases("checkpoint")
        assert phases and all(p.modeled_comm > 0 for p in phases)


class TestRedistributePolicy:
    def test_retired_rank_reads_dead_under_a_health_policy(self):
        """The fixed policy retires the rank exactly as escalate's third
        rung does: the monitor marks it dead, the gauge reads 3."""
        _g, engine = fresh_engine(
            health=HealthPolicy(), observers=("metrics",)
        )
        engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(1, 2),
                recovery="redistribute",
            )
        )
        gauge = engine.obs.registry.value(series.HEALTH_STATE, rank="2")
        assert gauge == float(HealthState.DEAD)
        for rank in (0, 1, 3):
            assert engine.obs.registry.value(
                series.HEALTH_STATE, rank=str(rank)
            ) < float(HealthState.DEAD)

    def test_survivors_absorb_dead_rank(self):
        g, engine = fresh_engine()
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(1, 2),
                recovery="redistribute",
            )
        )
        cluster = engine.cluster
        assert cluster.workers[2].n_local == 0
        load = snapshot_load(cluster)
        assert load.active_workers == cluster.nprocs - 1
        check_cluster_invariants(cluster)
        assert_exact(res, g)

    def test_two_crashes_leave_p_minus_two(self):
        g, engine = fresh_engine()
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan(crashes=((1, 2), (3, 0))),
                recovery="redistribute",
            )
        )
        cluster = engine.cluster
        assert snapshot_load(cluster).active_workers == cluster.nprocs - 2
        assert cluster.workers[0].n_local == 0
        assert cluster.workers[2].n_local == 0
        check_cluster_invariants(cluster)
        assert_exact(res, g)

    def test_redistribute_with_vertex_additions(self):
        g, engine = fresh_engine()
        new_v = max(g.vertex_list()) + 1
        anchor = g.vertex_list()[0]
        final = g.copy()
        final.add_vertex(new_v)
        final.add_edge(new_v, anchor, 1.0)
        stream = ChangeStream(
            {
                2: ChangeBatch(
                    vertex_additions=[
                        VertexAddition(new_v, ((anchor, 1.0),))
                    ]
                )
            }
        )
        res = engine.run(
            changes=stream,
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(4, 1),
                recovery="redistribute",
            ),
        )
        check_cluster_invariants(engine.cluster)
        assert engine.cluster.workers[1].n_local == 0
        assert_exact(res, final)


class TestAccounting:
    def test_recovery_seconds_accumulate(self):
        _g, engine = fresh_engine()
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan(crashes=((1, 0), (3, 2)))
            )
        )
        assert res.recoveries == 2
        assert res.recovery_modeled_seconds > 0
        events = [e for e in res.fault_events if "kind=recovery" in e]
        assert len(events) == 2
        assert all("detail=warm" in e for e in events)

    def test_crash_at_step_zero(self):
        g, engine = fresh_engine()
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(0, 3)
            )
        )
        assert res.recoveries == 1
        assert_exact(res, g)

    def test_crash_after_natural_convergence_step(self):
        # A crash scheduled far past normal convergence still fires: the RC
        # loop stays alive until the plan's last crash step has passed.
        g, engine = fresh_engine(n=40)
        res = engine.run(
            resilience=ResilienceConfig(
                fault_plan=FaultPlan.single_crash(25, 1)
            )
        )
        assert res.recoveries == 1
        assert_exact(res, g)

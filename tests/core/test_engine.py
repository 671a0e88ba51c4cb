"""Engine facade: lifecycle, strategy resolution, baseline restart."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.bench import community_workload
from repro.centrality import exact_closeness
from repro.errors import ConfigurationError
from repro.graph import ChangeBatch, barabasi_albert
from repro.graph.changes import VertexAddition
from repro.core.strategies import (
    CompositeStrategy,
    PolicyDrivenStrategy,
    RepartitionStrategy,
    ThresholdPolicy,
)

from ..conftest import result_pin


class TestLifecycle:
    def test_run_before_setup_raises(self):
        engine = AnytimeAnywhereCloseness(barabasi_albert(20, 2, seed=0))
        with pytest.raises(ConfigurationError):
            engine.run()

    def test_engine_copies_input_graph(self):
        g = barabasi_albert(20, 2, seed=0)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.graph.add_vertex(999)
        assert not g.has_vertex(999)

    def test_resume_across_runs(self):
        wl = community_workload(60, 10, seed=1, inject_step=0)
        engine = AnytimeAnywhereCloseness(wl.base, AnytimeConfig(nprocs=3))
        engine.setup()
        first = engine.run()  # static convergence
        second = engine.run(changes=_shift(wl.stream, first.rc_steps),
                            strategy="roundrobin")
        exact = exact_closeness(wl.final)
        for v, c in exact.items():
            assert second.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_modeled_seconds_accumulate(self):
        g = barabasi_albert(40, 2, seed=2)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=3))
        engine.setup()
        after_setup = engine.modeled_seconds
        result = engine.run()
        assert result.modeled_seconds >= after_setup
        assert result.modeled_minutes == pytest.approx(
            result.modeled_seconds / 60.0
        )

    def test_setup_resets_state(self):
        g = barabasi_albert(30, 2, seed=3)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.setup()
        engine.run()
        engine.setup()
        assert engine.modeled_seconds < 1e6
        result = engine.run()
        assert result.rc_steps >= 1


class TestStrategyResolution:
    @pytest.fixture
    def engine(self):
        e = AnytimeAnywhereCloseness(
            barabasi_albert(20, 2, seed=0), AnytimeConfig(nprocs=2)
        )
        return e

    @pytest.mark.parametrize(
        "name", ["roundrobin", "cutedge", "leastloaded", "neighbormajority"]
    )
    def test_placement_names(self, engine, name):
        s = engine.resolve_strategy(name)
        assert isinstance(s, CompositeStrategy)

    def test_repartition_name(self, engine):
        assert isinstance(
            engine.resolve_strategy("repartition"), RepartitionStrategy
        )

    def test_adaptive_name(self, engine):
        s = engine.resolve_strategy("adaptive")
        assert isinstance(s, PolicyDrivenStrategy)
        assert isinstance(s.policy, ThresholdPolicy)

    def test_instance_passthrough(self, engine):
        s = RepartitionStrategy()
        assert engine.resolve_strategy(s) is s

    def test_none_passthrough(self, engine):
        assert engine.resolve_strategy(None) is None

    def test_unknown_name(self, engine):
        with pytest.raises(ConfigurationError):
            engine.resolve_strategy("magic")


class TestBaselineRestart:
    def test_static_equivalent_when_no_changes(self):
        g = barabasi_albert(40, 2, seed=4)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=3))
        result = engine.run_baseline_restart(None)
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)
        assert result.restarts == 0

    def test_restart_per_batch(self):
        wl_a = community_workload(60, 8, seed=5, inject_step=1)
        batch_a = wl_a.single_batch()
        stream = ChangeStream({1: batch_a})
        engine = AnytimeAnywhereCloseness(wl_a.base, AnytimeConfig(nprocs=3))
        result = engine.run_baseline_restart(stream)
        assert result.restarts == 1
        exact = exact_closeness(wl_a.final)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_restart_costs_grow_with_batches(self):
        base = barabasi_albert(80, 2, seed=6)

        def run(n_batches):
            stream = ChangeStream()
            nxt = 1000
            for s in range(n_batches):
                stream.schedule(
                    s,
                    ChangeBatch(
                        vertex_additions=[
                            VertexAddition(nxt + s, edges=((s, 1.0),))
                        ]
                    ),
                )
            engine = AnytimeAnywhereCloseness(
                base, AnytimeConfig(nprocs=3, collect_snapshots=False)
            )
            return engine.run_baseline_restart(stream).modeled_seconds

        assert run(4) > 1.5 * run(1)


    #: ``result_pin`` per inject step on ``community_workload(120, 12,
    #: seed=4)``, recorded at b230718, where the steps before the first
    #: batch ran in a loop of the engine's own; ``run_recombination``
    #: paced by ``step_budget`` must charge the same clock and wire
    #: (0: no step; 1-4: cut short; 8, 30: converged before the batch)
    BASELINE_PINS = {
        0: "5|0x1.7e3ee61d38088p-7|67727|66233|0594998c164e0273",
        1: "5|0x1.de4f9cf9ad94cp-7|91567|66233|0594998c164e0273",
        2: "5|0x1.1f6583ea0b812p-6|115407|66233|0594998c164e0273",
        4: "5|0x1.508b6bb02de4cp-6|125727|66233|0594998c164e0273",
        8: "5|0x1.537f335ffcc16p-6|125730|66233|0594998c164e0273",
        30: "5|0x1.537f335ffcc16p-6|125730|66233|0594998c164e0273",
    }

    @pytest.mark.parametrize("inject_step", BASELINE_PINS)
    def test_steps_before_the_first_batch_cost_what_they_did(self, inject_step):
        wl = community_workload(120, 12, seed=4, inject_step=inject_step)
        engine = AnytimeAnywhereCloseness(
            wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
        )
        with engine:
            result = engine.run_baseline_restart(wl.stream)
        assert result.restarts == 1
        assert result_pin(result) == self.BASELINE_PINS[inject_step]


class TestQueries:
    def test_distances_match_exact(self):
        import numpy as np

        from repro.centrality import apsp_dijkstra

        g = barabasi_albert(40, 2, seed=7)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=3))
        engine.setup()
        engine.run()
        dist, ids = engine.distances()
        ref, ref_ids = apsp_dijkstra(g, ids)
        np.testing.assert_allclose(dist, ref)

    def test_current_closeness_midway(self):
        g = barabasi_albert(40, 2, seed=8)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=3))
        engine.setup()
        partial = engine.current_closeness()
        assert set(partial) == set(g.vertices())
        assert all(c >= 0 for c in partial.values())


def _shift(stream, offset):
    out = ChangeStream()
    for step, batch in stream:
        out.schedule(step + offset, batch)
    return out

"""Fault tolerance: crash + warm recovery (paper §VI future work)."""

import numpy as np
import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.centrality import exact_closeness
from repro.errors import RuntimeSimulationError
from repro.graph import barabasi_albert
from repro.runtime.faults import crash_and_recover, crash_worker, recover_worker



def converged_engine(n=80, nprocs=4, seed=1):
    g = barabasi_albert(n, 2, seed=seed)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    engine.run()
    return g, engine


class TestCrash:
    def test_crash_wipes_derived_state(self):
        _g, engine = converged_engine()
        cluster = engine.cluster
        crash_worker(cluster, 1)
        w = cluster.workers[1]
        assert np.isinf(w.dv).all()
        assert w.local_apsp.size == 0
        assert len(w.entries.slot_of) == 0 and w.entries.top == 0
        assert not any(ch.subscribed for ch in w.channels)

    def test_crash_invalid_rank(self):
        _g, engine = converged_engine()
        with pytest.raises(RuntimeSimulationError):
            crash_worker(engine.cluster, 99)

    def test_peers_drop_queues_to_dead_rank(self):
        _g, engine = converged_engine()
        cluster = engine.cluster
        # force something into peers' queues for rank 1
        for w in cluster.workers:
            if w.rank != 1 and w.owned:
                w.channels[1].pending.add(w.owned[0])
        crash_worker(cluster, 1)
        for w in cluster.workers:
            if w.rank != 1:
                assert not w.channels[1].pending


class TestRecovery:
    @pytest.mark.parametrize("victim", [0, 2, 3])
    def test_exact_after_recovery(self, victim):
        g, engine = converged_engine()
        crash_and_recover(engine.cluster, victim)
        result = engine.run()
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_exact_after_crash_during_dynamic_run(self):
        from repro.bench import community_workload

        wl = community_workload(100, 20, seed=2, inject_step=1)
        engine = AnytimeAnywhereCloseness(
            wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
        )
        engine.setup()
        engine.run(changes=wl.stream, strategy="roundrobin")
        engine.crash_worker(2)
        result = engine.run()
        exact = exact_closeness(wl.final)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_multiple_sequential_failures(self):
        g, engine = converged_engine(nprocs=4)
        for victim in (0, 1, 2, 3):
            crash_and_recover(engine.cluster, victim)
            engine.run()
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert engine.current_closeness()[v] == pytest.approx(c, abs=1e-9)

    def test_recovery_charges_time(self):
        _g, engine = converged_engine()
        before = engine.modeled_seconds
        crash_and_recover(engine.cluster, 1)
        assert engine.modeled_seconds > before

    def test_recovery_rewires_subscriptions_both_ways(self):
        _g, engine = converged_engine()
        cluster = engine.cluster
        crash_and_recover(cluster, 1)
        w = cluster.workers[1]
        # recovered worker is re-subscribed at its boundary owners
        for x in w.cut:
            assert x in cluster.workers[cluster.owner_of(x)].channels[1].subscribed
        # and peers are re-subscribed at the recovered worker
        for peer in cluster.workers:
            if peer.rank == 1:
                continue
            for x in peer.cut:
                if cluster.owner_of(x) == 1:
                    assert x in w.channels[peer.rank].subscribed

    def test_recover_requires_decomposed_cluster(self):
        from repro.runtime import Cluster

        g = barabasi_albert(20, 2, seed=0)
        cluster = Cluster(g, 2)
        with pytest.raises(RuntimeSimulationError):
            recover_worker(cluster, 0)


class TestRepeatedRecovery:
    def test_same_rank_crashes_twice(self):
        """crash -> recover -> crash -> recover on one rank must not leave
        stale subscriptions behind (the second recovery re-wires from a
        clean slate) and must land back on the exact answer."""
        g, engine = converged_engine()
        cluster = engine.cluster
        for _ in range(2):
            crash_and_recover(cluster, 1)
            engine.run()
        from repro.runtime import check_cluster_invariants

        check_cluster_invariants(cluster)
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert engine.current_closeness()[v] == pytest.approx(c, abs=1e-9)

    def test_no_duplicate_subscription_wiring(self):
        """Peers' subscription sets for the recovered rank are rebuilt, not
        accumulated: repeated recoveries keep exactly one subscription per
        (vertex, rank) pair."""
        _g, engine = converged_engine()
        cluster = engine.cluster
        snapshot = {
            w.rank: [set(ch.subscribed) for ch in w.channels]
            for w in cluster.workers
        }
        crash_and_recover(cluster, 1)
        engine.run()
        crash_and_recover(cluster, 1)
        engine.run()
        for w in cluster.workers:
            assert [ch.subscribed for ch in w.channels] == snapshot[w.rank]

    def test_back_to_back_crashes_without_intervening_run(self):
        g, engine = converged_engine()
        cluster = engine.cluster
        crash_and_recover(cluster, 0)
        crash_and_recover(cluster, 2)  # no engine.run() in between
        result = engine.run()
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

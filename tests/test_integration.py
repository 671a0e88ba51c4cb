"""End-to-end integration: long mixed histories with invariant audits.

These tests drive the full feature matrix through one engine instance —
growth batches with different placements, deletions, repartitioning,
rebalancing, worker crashes, budgeted interruptions — checking cluster
invariants and exactness along the way.  This is the closest thing to a
production soak test the suite has.
"""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.bench import community_workload
from repro.centrality import exact_closeness, exact_harmonic
from repro.core.strategies import (
    NeighborMajorityPS,
    RebalancedStrategy,
    RepartitionStrategy,
    VertexAdditionStrategy,
)
from repro.graph import ChangeBatch, barabasi_albert, diff_graphs
from repro.graph.changes import (
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
)
from repro.runtime import check_cluster_invariants


def assert_exact(engine, graph):
    exact = exact_closeness(graph)
    got = engine.current_closeness()
    assert set(got) == set(exact)
    for v, c in exact.items():
        assert got[v] == pytest.approx(c, abs=1e-9), f"vertex {v}"


def test_long_mixed_lifecycle():
    base = barabasi_albert(150, 3, seed=10)
    truth = base.copy()
    engine = AnytimeAnywhereCloseness(
        base, AnytimeConfig(nprocs=6, seed=10, collect_snapshots=False)
    )
    engine.setup()
    engine.run()
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, truth)

    # episode 1: small community joins via cutedge placement
    wl1 = community_workload(150, 18, seed=11, inject_step=engine._next_step + 1)
    for _s, b in wl1.stream:
        b.apply_to(truth)
    engine.run(changes=wl1.stream, strategy="cutedge")
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, truth)

    # episode 2: a hub is deleted and a bridge edge removed
    hub = max(truth.vertices(), key=truth.degree)
    edge = next(
        (u, v) for u, v, _w in truth.edges() if hub not in (u, v)
    )
    batch = ChangeBatch(
        vertex_deletions=[VertexDeletion(hub)],
        edge_deletions=[EdgeDeletion(*edge)],
    )
    truth.remove_edge(*edge)
    truth.remove_vertex(hub)
    stream = ChangeStream({engine._next_step + 1: batch})
    engine.run(changes=stream, strategy="roundrobin")
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, truth)

    # episode 3: large batch triggers repartition, then a worker dies;
    # the batch is generated against the *current* truth graph ids
    nxt = truth.next_vertex_id()
    additions = [
        VertexAddition(nxt + i, edges=((sorted(truth.vertices())[i], 1.0),))
        for i in range(25)
    ]
    batch3 = ChangeBatch(vertex_additions=additions)
    batch3.apply_to(truth)
    stream3 = ChangeStream({engine._next_step + 1: batch3})
    engine.run(changes=stream3, strategy=RepartitionStrategy())
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, truth)

    engine.crash_worker(3)
    engine.run()
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, truth)

    # other measures stay exact too
    harmonic = engine.current_measure("harmonic")
    exact_h = exact_harmonic(truth)
    for v, c in exact_h.items():
        assert harmonic[v] == pytest.approx(c, abs=1e-9)


def test_snapshot_replay_via_diff():
    """Evolve a graph externally, replay the diff through the engine."""
    old = barabasi_albert(100, 2, seed=20)
    new = old.copy()
    nxt = new.next_vertex_id()
    for i in range(10):
        new.add_vertex(nxt + i)
        new.add_edge(nxt + i, i * 3, 1.0)
    new.remove_vertex(50)
    e = next((u, v) for u, v, _w in new.edges() if u < 40 and v < 40)
    new.remove_edge(*e)

    batch = diff_graphs(old, new)
    engine = AnytimeAnywhereCloseness(
        old, AnytimeConfig(nprocs=4, collect_snapshots=False)
    )
    engine.setup()
    engine.run(changes=ChangeStream({1: batch}), strategy="roundrobin")
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, new)


def test_rebalanced_skewed_growth_with_fault():
    wl = community_workload(120, 30, seed=21, inject_step=1, n_communities=1)
    strategy = RebalancedStrategy(
        VertexAdditionStrategy(NeighborMajorityPS()), threshold=0.15
    )
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, seed=21, collect_snapshots=False)
    )
    engine.setup()
    engine.run(changes=wl.stream, strategy=strategy)
    check_cluster_invariants(engine.cluster)
    engine.crash_worker(0)
    result = engine.run()
    check_cluster_invariants(engine.cluster)
    assert result.load.vertex_imbalance <= 0.5
    assert_exact(engine, wl.final)


def test_budget_interleaved_with_changes():
    wl = community_workload(100, 16, seed=22, inject_step=3)
    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
    )
    engine.setup()
    # tiny budgets: crawl through the timeline one sliver at a time
    for _ in range(200):
        result = engine.run(
            changes=wl.stream, strategy="roundrobin",
            budget_modeled_seconds=1e-4,
        )
        if result.converged:
            break
    assert result.converged
    check_cluster_invariants(engine.cluster)
    assert_exact(engine, wl.final)


def test_local_closure_after_every_superstep():
    """Check 9 (what the incremental push rests on) around *every*
    superstep of one add / delete / reweight / crash-and-recover stream:
    after the fold, and again before the next exchange, i.e. on whatever
    the dynamic strategies and the recovery left behind."""
    wl = community_workload(90, 12, seed=31, inject_step=1)
    truth = wl.final.copy()
    kept = sorted(wl.base.vertices())
    hub = max(kept, key=truth.degree)
    cut, up, down = [
        (u, v) for u, v, _w in truth.edges() if hub not in (u, v)
    ][:3]
    far = next(
        (u, v) for u in kept for v in reversed(kept)
        if hub not in (u, v) and u != v and not truth.has_edge(u, v)
    )
    batches = dict(wl.stream)
    batches[3] = ChangeBatch(
        vertex_deletions=[VertexDeletion(hub)],
        edge_deletions=[EdgeDeletion(*cut)],
    )
    batches[5] = ChangeBatch(
        edge_reweights=[EdgeReweight(*up, 3.0), EdgeReweight(*down, 0.5)],
        edge_additions=[EdgeAddition(*far, 1.0)],
    )
    for step in (3, 5):
        batches[step].apply_to(truth)

    engine = AnytimeAnywhereCloseness(
        wl.base, AnytimeConfig(nprocs=4, seed=31, collect_snapshots=False)
    )
    engine.setup()
    cluster = engine.cluster
    audits = []
    exchange, superstep = cluster.exchange_boundary, cluster.relax_and_propagate

    def audited_exchange():
        # between the strategy (end of the previous step) and the fold
        check_cluster_invariants(cluster)
        return exchange()

    def audited_superstep():
        changed = superstep()
        audits.append(check_cluster_invariants(cluster))
        return changed

    cluster.exchange_boundary = audited_exchange
    cluster.relax_and_propagate = audited_superstep
    stream = ChangeStream(batches)
    # stop mid-convergence, lose a rank, then absorb the rest of the stream
    engine.run(changes=stream, strategy="auto", step_budget=2)
    engine.crash_worker(2)
    result = engine.run(changes=stream, strategy="auto")
    assert result.converged
    assert len(audits) == engine.next_step > 6
    assert all("local-closure" in checks for checks in audits)
    assert_exact(engine, truth)

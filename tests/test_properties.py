"""Property-based tests (hypothesis) for the core invariants.

These cover the guarantees the design leans on:

* the distributed pipeline equals exact closeness for arbitrary graphs,
  batches, injection steps, processor counts, and strategies,
* anytime monotonicity (DV entries are decreasing upper bounds),
* partitioner contracts (cover exactly, never lose vertices),
* graph mutation round-trips.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    ChangeStream,
    ResilienceConfig,
)
from repro.centrality import apsp_dijkstra, exact_closeness
from repro.graph import ChangeBatch, Graph, louvain_communities
from repro.graph.changes import EdgeDeletion, VertexAddition, VertexDeletion
from repro.partition import BFSGrowingPartitioner, MultilevelPartitioner

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def connected_graphs(draw, min_n=2, max_n=18):
    """A connected weighted graph: random tree + random extra edges."""
    n = draw(st.integers(min_n, max_n))
    g = Graph()
    g.add_vertex(0)
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        w = draw(st.integers(1, 9))
        g.add_vertex(v)
        g.add_edge(v, parent, float(w))
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(draw(st.integers(1, 9))))
    return g


@st.composite
def graph_and_batch(draw):
    """A graph plus a valid vertex-addition batch against it."""
    g = draw(connected_graphs())
    n = g.num_vertices
    k = draw(st.integers(1, 5))
    new_ids = list(range(n, n + k))
    additions = []
    for i, v in enumerate(new_ids):
        # anchor to an existing vertex and possibly earlier new vertices
        targets = {draw(st.integers(0, n - 1))}
        if i and draw(st.booleans()):
            targets.add(new_ids[draw(st.integers(0, i - 1))])
        edges = tuple(
            (t, float(draw(st.integers(1, 9)))) for t in sorted(targets)
        )
        additions.append(VertexAddition(v, edges=edges))
    return g, ChangeBatch(vertex_additions=additions)


@settings(**SETTINGS)
@given(
    data=graph_and_batch(),
    nprocs=st.integers(1, 5),
    step=st.integers(0, 4),
    strategy=st.sampled_from(
        ["roundrobin", "cutedge", "leastloaded", "repartition"]
    ),
)
def test_vertex_addition_always_exact(data, nprocs, step, strategy):
    g, batch = data
    final = g.copy()
    batch.apply_to(final)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    result = engine.run(
        changes=ChangeStream({step: batch}), strategy=strategy
    )
    exact = exact_closeness(final)
    assert set(result.closeness) == set(exact)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(g=connected_graphs(), nprocs=st.integers(1, 5))
def test_static_always_exact(g, nprocs):
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    result = engine.run()
    exact = exact_closeness(g)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=4), data=st.data())
def test_deletions_always_exact(g, data):
    edges = g.edge_list()
    victim_edge = data.draw(st.sampled_from(edges))
    victim_vertex = data.draw(st.integers(0, g.num_vertices - 1))
    batch = ChangeBatch(edge_deletions=[EdgeDeletion(victim_edge[0], victim_edge[1])])
    final = g.copy()
    final.remove_edge(victim_edge[0], victim_edge[1])
    stream = ChangeStream({1: batch})
    if victim_vertex not in (victim_edge[0], victim_edge[1]):
        stream.schedule(
            3, ChangeBatch(vertex_deletions=[VertexDeletion(victim_vertex)])
        )
        final.remove_vertex(victim_vertex)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=3, collect_snapshots=False)
    )
    engine.setup()
    result = engine.run(changes=stream, strategy="roundrobin")
    exact = exact_closeness(final)
    assert set(result.closeness) == set(exact)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=4), nprocs=st.integers(2, 4))
def test_dv_entries_are_decreasing_upper_bounds(g, nprocs):
    """Anytime invariant: at every RC step, every DV entry over-approximates
    the true distance and never increases."""
    dist, ids = apsp_dijkstra(g)
    col = {v: i for i, v in enumerate(ids)}
    engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=nprocs))
    engine.setup()
    cluster = engine.cluster
    prev = {}

    def check(_step):
        for w in cluster.workers:
            for v in w.owned:
                row = w.dv[w.row_of[v]]
                for t in ids:
                    val = row[cluster.index.column(t)]
                    assert val >= dist[col[v], col[t]] - 1e-9
                    key = (v, t)
                    if key in prev:
                        assert val <= prev[key] + 1e-12
                    prev[key] = val

    from repro.core.recombination import run_recombination

    run_recombination(
        cluster, supervisor=cluster.fault_free, max_steps=50, on_step=check
    )


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=5), nparts=st.integers(1, 5))
def test_partitioners_cover_exactly(g, nparts):
    for part in (MultilevelPartitioner(seed=1), BFSGrowingPartitioner(seed=1)):
        p = part.partition(g, nparts)
        p.validate_against(g)
        assert sum(p.block_sizes()) == g.num_vertices


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=5))
def test_louvain_is_a_partition(g):
    comms = louvain_communities(g, seed=0)
    flat = sorted(v for c in comms for v in c)
    assert flat == g.vertex_list()


@settings(**SETTINGS)
@given(
    g=connected_graphs(min_n=4),
    nprocs=st.integers(2, 4),
    victim=st.integers(0, 3),
)
def test_crash_recovery_always_exact(g, nprocs, victim):
    """Fault tolerance: crash any worker at any point, recovery + RC must
    land back on the exact answer."""
    from repro.runtime.faults import crash_and_recover

    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    engine.run()
    crash_and_recover(engine.cluster, victim % nprocs)
    result = engine.run()
    exact = exact_closeness(g)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(max_examples=15, deadline=None,
          suppress_health_check=SETTINGS["suppress_health_check"])
@given(
    data=graph_and_batch(),
    crash_step=st.integers(0, 5),
    batch_step=st.integers(0, 3),
    victim=st.integers(0, 2),
    policy=st.sampled_from(("warm", "checkpoint", "redistribute")),
)
def test_recovery_policies_exact_and_monotone_on_survivors(
    data, crash_step, batch_step, victim, policy
):
    """Fault-tolerance closure property: for a random graph, a random
    vertex-addition batch, and a crash at a random RC step (before or
    after the batch lands), every recovery policy still converges to the
    exact answer — and the anytime guarantee survives on the workers that
    did not crash: their DV entries never increase."""
    from repro import ResilienceConfig
    from repro.core.recombination import run_recombination
    from repro.runtime.chaos import FaultPlan
    from repro.runtime.supervisor import Supervisor

    g, batch = data
    nprocs = 3
    final = g.copy()
    batch.apply_to(final)
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=nprocs, collect_snapshots=False)
    )
    engine.setup()
    cluster = engine.cluster
    resilience = ResilienceConfig(
        fault_plan=FaultPlan.single_crash(crash_step, victim, loss_prob=0.1),
        recovery=policy,
        checkpoint_interval=2,
    )
    prev: dict = {}

    def check(_step):
        # survivors only: the crashed rank's rows are legitimately reset
        # (and under redistribute its vertices restart from scratch on a
        # new rank, which opens a fresh (rank, v, t) key)
        for w in cluster.workers:
            if w.rank == victim:
                continue
            for v in w.owned:
                row = w.dv[w.row_of[v]]
                for t in cluster.index.ids:
                    val = row[cluster.index.column(t)]
                    key = (w.rank, v, t)
                    if key in prev:
                        assert val <= prev[key] + 1e-12
                    prev[key] = val

    with Supervisor(cluster, resilience) as supervisor:
        run_recombination(
            cluster,
            supervisor=supervisor,
            strategy=engine.resolve_strategy("roundrobin"),
            changes=ChangeStream({batch_step: batch}),
            on_step=check,
            max_steps=200,
        )
    assert supervisor.injector.stats.crashes == 1
    exact = exact_closeness(final)
    got = engine.current_closeness()
    assert set(got) == set(exact)
    for v, c in exact.items():
        assert got[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(data=graph_and_batch(), threshold=st.floats(0.0, 0.5))
def test_rebalanced_strategy_always_exact(data, threshold):
    from repro.core.strategies import (
        RebalancedStrategy,
        RoundRobinPS,
        VertexAdditionStrategy,
    )
    from repro.runtime import check_cluster_invariants

    g, batch = data
    final = g.copy()
    batch.apply_to(final)
    strategy = RebalancedStrategy(
        VertexAdditionStrategy(RoundRobinPS()), threshold=threshold
    )
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=3, collect_snapshots=False)
    )
    engine.setup()
    result = engine.run(changes=ChangeStream({1: batch}), strategy=strategy)
    check_cluster_invariants(engine.cluster)
    exact = exact_closeness(final)
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=4), budget=st.floats(0.0, 1e-3))
def test_budget_interruption_preserves_bounds_and_resumes(g, budget):
    dist, ids = apsp_dijkstra(g)
    col = {v: i for i, v in enumerate(ids)}
    engine = AnytimeAnywhereCloseness(
        g, AnytimeConfig(nprocs=3, collect_snapshots=False)
    )
    engine.setup()
    engine.run(budget_modeled_seconds=budget)
    for w in engine.cluster.workers:
        for v in w.owned:
            row = w.dv[w.row_of[v]]
            for t in ids:
                assert row[engine.cluster.index.column(t)] >= (
                    dist[col[v], col[t]] - 1e-9
                )
    final = engine.run()
    assert final.converged
    exact = exact_closeness(g)
    for v, c in exact.items():
        assert final.closeness[v] == pytest.approx(c, abs=1e-9)


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=3), data=st.data())
def test_graph_edge_roundtrip(g, data):
    u, v, w = data.draw(st.sampled_from(g.edge_list()))
    m, tw = g.num_edges, g.total_weight
    g.remove_edge(u, v)
    g.add_edge(u, v, w)
    assert g.num_edges == m
    assert g.total_weight == pytest.approx(tw)
    assert g.weight(u, v) == w


@settings(**SETTINGS)
@given(g=connected_graphs(min_n=3), data=st.data())
def test_vertex_removal_removes_all_traces(g, data):
    victim = data.draw(st.integers(0, g.num_vertices - 1))
    g.remove_vertex(victim)
    assert victim not in g
    for v in g.vertices():
        assert victim not in set(g.neighbors(v))


# ----------------------------------------------------------------------
# self-healing: combined fault plans x escalation ladder
# ----------------------------------------------------------------------
def _chaos_run(g, plan, policy):
    """One escalate-ladder run under ``plan``; returns the RunResult and
    the canonical fault-event trace."""
    import repro

    cfg = AnytimeConfig(
        nprocs=3,
        collect_snapshots=False,
        resilience=ResilienceConfig(
            recovery="escalate", checkpoint_interval=2
        ),
        health=policy,
    )
    result = repro.closeness(
        g, config=cfg,
        resilience=dataclasses.replace(cfg.resilience, fault_plan=plan),
    )
    return result, tuple(result.fault_events)


def _path4() -> Graph:
    """The 4-vertex path 0-1-2-3 (the pinned regression's graph)."""
    g = Graph()
    for v in range(4):
        g.add_vertex(v)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v, 1.0)
    return g


@settings(max_examples=15, deadline=None,
          suppress_health_check=SETTINGS["suppress_health_check"])
@given(
    g=connected_graphs(min_n=4, max_n=12),
    seed=st.integers(0, 2**20),
    crashes=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2)),
        max_size=3, unique=True,
    ),
    loss=st.sampled_from((0.0, 0.1, 0.3)),
    dup=st.sampled_from((0.0, 0.1)),
    straggler=st.sampled_from((None, (1, 4.0), (2, 16.0))),
    crash_budget=st.integers(1, 3),
)
# regression (ROADMAP item 6): rank 0's second crash exhausts the budget
# and abandons it mid-step; rank 1's same-step warm recovery then audits
# the cluster — the abandoned block must still be structurally sound
# (own-diagonal zeros, subscription records) for the run to degrade
# gracefully instead of raising
@example(g=_path4(), seed=0, crashes=[(0, 0), (1, 0), (1, 1)],
         loss=0.0, dup=0.0, straggler=None, crash_budget=1)
def test_combined_faults_complete_or_degrade_gracefully(
    g, seed, crashes, loss, dup, straggler, crash_budget
):
    """Self-healing closure property: any combination of crash x loss x
    duplication x straggler faults, pushed through the escalation ladder,
    either converges to the exact answer or degrades gracefully — never
    raises — and identical (plan, seed, config) runs are byte-identical
    in both fault trace and closeness."""
    from repro import HealthPolicy
    from repro.runtime.chaos import FaultPlan

    plan = FaultPlan(
        seed=seed,
        crashes=tuple(crashes),
        loss_prob=loss,
        dup_prob=dup,
        stragglers=(straggler,) if straggler else (),
        max_retries=6,
    )
    policy = HealthPolicy(crash_budget=crash_budget)
    result, trace = _chaos_run(g, plan, policy)
    if result.degraded:
        assert result.degraded_reason in (
            "crash-budget", "dead-fraction", "retry-budget"
        )
        assert not result.converged
        assert result.quality  # quantified quality statement present
        assert 0.0 <= result.quality["finite_fraction"] <= 1.0
        assert any("kind=degraded" in line for line in trace)
    else:
        assert result.converged
        exact = exact_closeness(g)
        for v, c in exact.items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)
    # determinism: same plan + seed + config => byte-identical outcome
    result2, trace2 = _chaos_run(g, plan, policy)
    assert trace2 == trace
    assert result2.closeness == result.closeness
    assert result2.degraded == result.degraded
    assert result2.modeled_seconds == result.modeled_seconds


def test_combined_faults_process_backend_matches_serial():
    """One deterministic mixed-fault escalate run must be bitwise
    identical across the serial and process backends."""
    import repro
    from repro import HealthPolicy
    from repro.graph import barabasi_albert
    from repro.runtime.chaos import FaultPlan

    g = barabasi_albert(60, 2, seed=5)
    plan = FaultPlan(
        seed=11,
        crashes=((1, 0), (3, 1)),
        loss_prob=0.15,
        dup_prob=0.1,
        stragglers=((2, 6.0),),
        max_retries=10,
    )
    results = {}
    for backend in ("serial", "process"):
        cfg = AnytimeConfig(
            nprocs=3,
            collect_snapshots=False,
            resilience=ResilienceConfig(
                recovery="escalate", checkpoint_interval=2
            ),
            health=HealthPolicy(),
            backend=backend,
        )
        results[backend] = repro.closeness(
            g, config=cfg,
            resilience=dataclasses.replace(
                cfg.resilience, fault_plan=plan
            ),
        )
    s, p = results["serial"], results["process"]
    assert p.closeness == s.closeness
    assert p.fault_events == s.fault_events
    assert p.modeled_seconds == s.modeled_seconds
    assert p.degraded == s.degraded
    assert p.speculations == s.speculations

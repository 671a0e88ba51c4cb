"""Repartition-S correctness and anytime-reuse behavior."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.bench import community_workload
from repro.core.strategies import RepartitionStrategy
from repro.graph import ChangeBatch
from repro.graph.changes import EdgeDeletion
from repro.partition import balance

from ..conftest import run_and_verify


@pytest.mark.parametrize("inject_step", [0, 3])
def test_exact_after_repartition(inject_step):
    wl = community_workload(100, 40, seed=2, inject_step=inject_step)
    run_and_verify(
        wl.base,
        changes=wl.stream,
        strategy="repartition",
        final=wl.final,
        nprocs=4,
    )


def test_partition_rebalanced_after_large_batch():
    wl = community_workload(100, 60, seed=3, inject_step=1)
    engine = AnytimeAnywhereCloseness(wl.base, AnytimeConfig(nprocs=4))
    engine.setup()
    engine.run(changes=wl.stream, strategy="repartition")
    part = engine.cluster.partition
    assert part.num_vertices == 160
    assert balance(part) <= 1.3


def test_repartition_reuses_partial_results():
    """Rows migrated by Repartition-S must seed the new owners' DVs."""
    wl = community_workload(80, 30, seed=4, inject_step=2)
    engine = AnytimeAnywhereCloseness(wl.base, AnytimeConfig(nprocs=4))
    engine.setup()
    strategy = RepartitionStrategy()
    # run the static phase first so partial results exist
    from repro.core.recombination import run_recombination

    run_recombination(
        engine.cluster, supervisor=engine.cluster.fault_free, max_steps=100
    )
    batch = wl.single_batch()
    strategy.apply(engine.cluster, batch, 2)
    # immediately after repartitioning (before further RC), old vertices
    # must still know their old exact distances (anytime reuse)
    import numpy as np

    from repro.centrality import apsp_dijkstra

    dist, ids = apsp_dijkstra(wl.base)
    col = {v: i for i, v in enumerate(ids)}
    checked = 0
    for w in engine.cluster.workers:
        for v in w.owned:
            if v not in col:
                continue  # new vertex
            row = w.dv[w.row_of[v]]
            for t in ids[:20]:
                assert row[engine.cluster.index.column(t)] <= dist[col[v], col[t]] + 1e-9
                checked += 1
    assert checked > 0


def test_repartition_rejects_deletions():
    wl = community_workload(60, 10, seed=5)
    engine = AnytimeAnywhereCloseness(wl.base, AnytimeConfig(nprocs=2))
    engine.setup()
    stream = ChangeStream(
        {0: ChangeBatch(edge_deletions=[EdgeDeletion(*_edge(wl.base))])}
    )
    with pytest.raises(ValueError):
        engine.run(changes=stream, strategy=RepartitionStrategy())


def _edge(g):
    u, v, _w = next(iter(g.edges()))
    return u, v


def test_repartition_needs_extra_steps():
    """The paper: Repartition-S 'can lead to additional RC steps' because
    new vertices start with empty DVs."""
    wl = community_workload(100, 40, seed=6, inject_step=1)

    def steps(strategy):
        engine = AnytimeAnywhereCloseness(
            wl.base, AnytimeConfig(nprocs=4, collect_snapshots=False)
        )
        engine.setup()
        return engine.run(changes=wl.stream, strategy=strategy).rc_steps

    assert steps("repartition") >= steps("roundrobin")

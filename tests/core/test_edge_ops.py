"""Edge addition / deletion / reweight correctness (anywhere strategies)."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.graph import ChangeBatch, barabasi_albert, random_weights
from repro.graph.changes import EdgeAddition, EdgeDeletion, EdgeReweight
from repro.core.strategies import EdgeAdditionStrategy, EdgeDeletionStrategy

from ..conftest import (
    assert_stream_is_backend_and_tier_invariant,
    cycle_graph,
    path_graph,
    run_and_verify,
)


def apply_all(graph, batches):
    final = graph.copy()
    for _s, b in sorted(batches.items()):
        b.apply_to(final)
    return final


class TestEdgeAddition:
    @pytest.mark.parametrize("inject_step", [0, 1, 3])
    def test_shortcut_edge(self, inject_step):
        g = path_graph(12)
        batch = ChangeBatch(edge_additions=[EdgeAddition(0, 11, 1.0)])
        stream = ChangeStream({inject_step: batch})
        run_and_verify(
            g, changes=stream, final=apply_all(g, {0: batch}), nprocs=3
        )

    def test_many_edges_scale_free(self):
        g = barabasi_albert(70, 2, seed=1)
        additions = [
            EdgeAddition(i, 69 - i, 1.0)
            for i in range(5)
            if not g.has_edge(i, 69 - i)
        ]
        batch = ChangeBatch(edge_additions=additions)
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_weighted_edge_addition(self):
        g = random_weights(barabasi_albert(50, 2, seed=2), 1.0, 5.0, seed=2)
        batch = ChangeBatch(edge_additions=[EdgeAddition(3, 47, 0.5)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_duplicate_heavier_edge_is_noop(self):
        g = path_graph(6)
        batch = ChangeBatch(edge_additions=[EdgeAddition(0, 1, 50.0)])
        final = g.copy()  # heavier duplicate collapses to existing weight
        run_and_verify(
            g, changes=ChangeStream({1: batch}), final=final, nprocs=2
        )

    def test_strategy_rejects_vertex_changes(self):
        from repro.graph.changes import VertexAddition

        g = path_graph(4)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.setup()
        stream = ChangeStream(
            {0: ChangeBatch(vertex_additions=[VertexAddition(9)])}
        )
        with pytest.raises(ValueError):
            engine.run(changes=stream, strategy=EdgeAdditionStrategy())


class TestEdgeDeletion:
    @pytest.mark.parametrize("inject_step", [0, 2])
    def test_delete_bridge(self, inject_step):
        g = cycle_graph(12)
        batch = ChangeBatch(edge_deletions=[EdgeDeletion(0, 11)])
        run_and_verify(
            g,
            changes=ChangeStream({inject_step: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_disconnecting_deletion(self):
        g = path_graph(8)
        batch = ChangeBatch(edge_deletions=[EdgeDeletion(3, 4)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=2,
        )

    def test_multiple_deletions(self):
        g = barabasi_albert(60, 3, seed=4)
        edges = [e for e in g.edge_list()][::11][:4]
        batch = ChangeBatch(
            edge_deletions=[EdgeDeletion(u, v) for u, v, _w in edges]
        )
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=4,
        )

    def test_delete_then_add_back(self):
        g = cycle_graph(10)
        stream = ChangeStream(
            {
                1: ChangeBatch(edge_deletions=[EdgeDeletion(0, 9)]),
                3: ChangeBatch(edge_additions=[EdgeAddition(0, 9, 1.0)]),
            }
        )
        run_and_verify(g, changes=stream, final=g.copy(), nprocs=3)


class TestReweight:
    def test_reweight_decrease(self):
        g = random_weights(cycle_graph(10), 2.0, 4.0, seed=1)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 0.1)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_reweight_increase(self):
        g = random_weights(cycle_graph(10), 1.0, 2.0, seed=2)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 50.0)])
        run_and_verify(
            g,
            changes=ChangeStream({1: batch}),
            final=apply_all(g, {0: batch}),
            nprocs=3,
        )

    def test_reweight_same_weight_noop(self):
        g = path_graph(6)
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 1.0)])
        run_and_verify(
            g, changes=ChangeStream({1: batch}), final=g.copy(), nprocs=2
        )

    def test_deletion_strategy_rejects_vertex_changes(self):
        from repro.graph.changes import VertexDeletion

        g = path_graph(4)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
        engine.setup()
        stream = ChangeStream(
            {0: ChangeBatch(vertex_deletions=[VertexDeletion(0)])}
        )
        with pytest.raises(ValueError):
            engine.run(changes=stream, strategy=EdgeDeletionStrategy())


def test_mixed_add_delete_reweight_stream_is_backend_and_tier_invariant():
    """Additions, deletions and both reweight directions interleaved, two
    deletions ahead of one fold, a repair pending while edges are added:
    the pull+push repair must give the same bits wherever it runs —
    serial, pool children (the mask rides in the task), the scipy tier,
    and the speculative backup of a straggling rank."""
    from repro.graph.changes import VertexAddition

    base = barabasi_albert(64, 3, seed=12)
    edges = [(u, v) for u, v, _w in base.edge_list()]
    absent = [
        (u, v) for u in range(0, 64, 7) for v in range(3, 64, 11)
        if u != v and not base.has_edge(u, v)
    ]
    batches = {
        1: ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[5]), EdgeDeletion(*edges[40])],
            edge_additions=[EdgeAddition(*absent[0], 1.0)],
        ),
        2: ChangeBatch(
            edge_reweights=[EdgeReweight(*edges[9], 4.0), EdgeReweight(*edges[70], 0.5)]
        ),
        4: ChangeBatch(
            vertex_additions=[VertexAddition(64, edges=((2, 1.0), (33, 2.0)))],
        ),
        5: ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[100])],
            edge_reweights=[EdgeReweight(*absent[0], 6.0)],
            edge_additions=[EdgeAddition(*absent[3], 2.0)],
        ),
    }
    assert_stream_is_backend_and_tier_invariant(base, batches)

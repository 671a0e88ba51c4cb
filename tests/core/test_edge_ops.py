"""Edge addition / deletion / reweight correctness (anywhere strategies)."""

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.centrality import exact_closeness, sssp_dijkstra
from repro.graph import ChangeBatch, barabasi_albert, random_weights
from repro.graph.changes import EdgeAddition, EdgeDeletion, EdgeReweight
from repro.core.strategies import EdgeAdditionStrategy, EdgeDeletionStrategy
from repro.runtime import Cluster, check_cluster_invariants

from ..conftest import (
    assert_stream_is_backend_and_tier_invariant,
    cycle_graph,
    path_graph,
    run_and_verify,
    stream_outcome,
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


def same_rank_pairs(base, *, present, nprocs=4, seed=5, only_rank=None):
    """Vertex pairs ``u < v`` owned by one rank (``only_rank``, if given)
    under the partition the stream helpers run with, that are
    (``present``) or are not edges."""
    config = AnytimeConfig(nprocs=nprocs, seed=seed, collect_snapshots=False)
    with AnytimeAnywhereCloseness(base, config) as engine:
        engine.setup()
        rank = {v: engine.cluster.owner_of(v) for v in base.vertices()}
    return [
        (u, v)
        for u in sorted(rank)
        for v in sorted(rank)
        if u < v and rank[u] == rank[v] and base.has_edge(u, v) == present
        and only_rank in (None, rank[u])
    ]


def test_mixed_add_delete_reweight_stream_is_backend_and_tier_invariant(
    monkeypatch, fresh_pool
):
    """Additions, deletions and both reweight directions interleaved, two
    deletions ahead of one fold, a repair pending while edges are added,
    and intra-rank edges (shortcuts, a reweight-down, a reweight-up's
    delete-then-add) whose fallen ``local_apsp`` pairs are folded: pull,
    push and pairs must give the same bits wherever they run — serial,
    pool children (the masks ride in the task), the scipy tier, and the
    speculative backup of a straggling rank.

    Steps 6-9 walk rank 1 through both IA paths: its uniform weights take
    the level sweep at setup; a reweight-up leaves it mixed, so the next
    local-APSP rebuild (after a deletion) takes Dijkstra; a reweight back
    to the common weight returns the rebuild after that to the sweep.

    The closure fold's cost rule is switched off, so every push on a rank
    whose weights and entries are integral runs as the seeded sweep over
    the rank's local CSR — everywhere, pool children included (they fork
    after the patch) — and must track each rebuild and drop of that CSR."""
    from repro.graph.changes import VertexAddition
    from repro.runtime import Worker

    base = barabasi_albert(64, 3, seed=12)
    edges = [(u, v) for u, v, _w in base.edge_list()]
    absent = [
        (u, v) for u in range(0, 64, 7) for v in range(3, 64, 11)
        if u != v and not base.has_edge(u, v)
    ]
    local_absent = same_rank_pairs(base, present=False)
    local_edges = same_rank_pairs(base, present=True)
    rank1 = same_rank_pairs(base, present=True, only_rank=1)
    batches = {
        1: ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[5]), EdgeDeletion(*edges[40])],
            edge_additions=[
                EdgeAddition(*absent[0], 1.0),
                EdgeAddition(*local_absent[3], 1.0),
                EdgeAddition(*local_absent[-5], 2.0),
            ],
        ),
        2: ChangeBatch(
            edge_reweights=[
                EdgeReweight(*edges[9], 4.0),
                EdgeReweight(*edges[70], 0.5),
                EdgeReweight(*local_edges[2], 0.5),
                EdgeReweight(*local_edges[-2], 3.0),
            ]
        ),
        3: ChangeBatch(
            edge_additions=[EdgeAddition(*p, 1.0) for p in local_absent[40:240:50]]
        ),
        4: ChangeBatch(
            vertex_additions=[VertexAddition(64, edges=((2, 1.0), (33, 2.0)))],
        ),
        5: ChangeBatch(
            edge_deletions=[EdgeDeletion(*edges[100])],
            edge_reweights=[EdgeReweight(*absent[0], 6.0)],
            edge_additions=[EdgeAddition(*absent[3], 2.0)],
        ),
        6: ChangeBatch(edge_reweights=[EdgeReweight(*rank1[0], 3.0)]),
        7: ChangeBatch(edge_deletions=[EdgeDeletion(*rank1[1])]),
        8: ChangeBatch(edge_reweights=[EdgeReweight(*rank1[0], 1.0)]),
        9: ChangeBatch(edge_deletions=[EdgeDeletion(*rank1[2])]),
    }
    pair_folds = []
    fold_pairs = oracle.minplus_fold_pairs

    def spy(apsp, dv, fell, src):
        pair_folds.append(int(fell.sum()))
        return fold_pairs(apsp, dv, fell, src)

    # per in-process local-APSP call: (rank, weights uniform, sweep ran)
    ia_calls = []
    rank_of_matrix = {}
    ia_prepare, apsp_rows, level_sweep = (
        Worker.ia_prepare, oracle.local_apsp_rows, oracle._level_sweep
    )

    def prepare_spy(worker):
        task = ia_prepare(worker)
        if task is not None:
            rank_of_matrix[id(task.matrix)] = worker.rank
        return task

    def rows_spy(matrix, lo, hi, out):
        data = matrix.data
        # (a pool child holds an unpickled copy: no rank, and its list is its own)
        ia_calls.append([rank_of_matrix.get(id(matrix)), (data == data[0]).all(), False])
        apsp_rows(matrix, lo, hi, out)

    def sweep_spy(*args):
        ia_calls[-1][2] = True
        return level_sweep(*args)

    closures = []
    closure = oracle.minplus_closure

    def closure_spy(graph, apsp, dv, changed):
        closures.append(int(changed.sum()))
        return closure(graph, apsp, dv, changed)

    relax_and_propagate = Cluster.relax_and_propagate

    def audited(cluster):
        # check 10 after every superstep: each CSR a fold may search is the
        # one its rank's local_apsp was computed from
        improved = relax_and_propagate(cluster)
        check_cluster_invariants(cluster)
        return improved

    monkeypatch.setattr(Cluster, "relax_and_propagate", audited)
    monkeypatch.setattr(oracle, "_CLOSURE_MIN_ENTRIES", 0)
    monkeypatch.setattr(oracle, "minplus_closure", closure_spy)
    monkeypatch.setattr(oracle, "minplus_fold_pairs", spy)
    monkeypatch.setattr(Worker, "ia_prepare", prepare_spy)
    monkeypatch.setattr(oracle, "local_apsp_rows", rows_spy)
    monkeypatch.setattr(oracle, "_level_sweep", sweep_spy)
    assert_stream_is_backend_and_tier_invariant(base, batches)
    assert len(pair_folds) >= 8 and min(pair_folds) > 0  # the in-process runs
    assert closures
    assert all(uniform == swept for _rank, uniform, swept in ia_calls)
    # one serial run, every IA call in process: setup sweeps every rank
    ia_calls.clear()
    stream_outcome(base, batches, apply_all(base, batches), backend="serial")
    assert [c[1:] for c in ia_calls[:4]] == [[True, True]] * 4
    assert all(uniform == swept for _rank, uniform, swept in ia_calls)
    on_rank1 = [uniform for rank, uniform, _swept in ia_calls if rank == 1]
    mixed = on_rank1.index(False)  # after step 6: Dijkstra
    assert True in on_rank1[mixed:]  # after step 8: the sweep again


def test_float_weight_local_edge_stream_is_exact_and_anytime():
    """General float weights, intra-rank additions and reweight-downs: path
    sums round, so the pair fold is documented to 1e-9 (not bitwise against
    the rectangle) — and every interrupted DV stays an upper bound."""
    base = random_weights(barabasi_albert(64, 3, seed=12), 0.5, 9.0, seed=19)
    local_absent = same_rank_pairs(base, present=False)
    local_edges = same_rank_pairs(base, present=True)
    batches = {
        1: ChangeBatch(
            edge_additions=[EdgeAddition(*local_absent[3], 0.37)],
            edge_reweights=[EdgeReweight(*local_edges[2], 0.21)],
        ),
        2: ChangeBatch(
            edge_additions=[
                EdgeAddition(*p, 0.1 * (i + 3))
                for i, p in enumerate(local_absent[40:240:50])
            ]
        ),
        4: ChangeBatch(edge_reweights=[EdgeReweight(*local_edges[-2], 0.45)]),
    }
    final = apply_all(base, batches)
    truth = {v: sssp_dijkstra(final, v) for v in final.vertices()}
    config = AnytimeConfig(nprocs=4, seed=5, collect_snapshots=False)
    with AnytimeAnywhereCloseness(base, config) as engine:
        engine.setup()
        stream = ChangeStream(batches)
        for _ in range(100):
            result = engine.run(changes=stream, strategy="auto", step_budget=1)
            cluster = engine.cluster
            for w in cluster.workers:
                for v in w.owned:
                    want = np.array([truth[v][t] for t in cluster.index.ids])
                    assert (w.dv[w.row_of[v]] >= want * (1 - 1e-12)).all()
            if result.converged:
                break
        assert result.converged
    exact = exact_closeness(final)
    assert result.closeness.keys() == exact.keys()
    for v, c in exact.items():
        assert result.closeness[v] == pytest.approx(c, rel=1e-9)

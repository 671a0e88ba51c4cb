"""Unit tests for the Worker's numeric kernels."""

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro.core.checkpoint import snapshot_cluster_state
from repro.core.strategies import CutEdgePS, VertexAdditionStrategy
from repro.core.strategies.edge_deletion import apply_edge_deletion
from repro.centrality import sssp_dijkstra
from repro.errors import WorkerError
from repro.graph import Graph, extract_local_subgraph
from repro.graph.changes import ChangeBatch, VertexAddition
from repro.model import DEFAULT_COST
from repro.partition import Partition
from repro.runtime import Cluster, GlobalIndex, Worker, check_cluster_invariants
from repro.runtime.faults import crash_worker, recover_worker_from_snapshot
from repro.runtime.kernels import KERNELS
from repro.runtime.shm import SharedMemoryAllocator

from ..conftest import path_graph, superstep
from ..edge_reference import one_edge_batch


def make_worker(graph, owned, owner_map, rank=0, nprocs=2, index=None):
    index = index or GlobalIndex(graph.vertex_list())
    w = Worker(rank, nprocs, index, DEFAULT_COST)
    sub = extract_local_subgraph(graph, owned, owner_map, rank)
    w.load_subgraph(sub)
    return w


def path4_worker():
    """Path 0-1-2-3; rank 0 owns {0,1}, rank 1 owns {2,3}."""
    g = path_graph(4)
    owner = {0: 0, 1: 0, 2: 1, 3: 1}
    return g, make_worker(g, [0, 1], owner)


class TestLoadAndIA:
    def test_dv_initialized(self):
        _g, w = path4_worker()
        assert w.n_local == 2
        assert w.dv.shape == (2, 4)
        assert w.dv[w.row_of[0], 0] == 0.0
        assert np.isinf(w.dv[w.row_of[0], 3])

    def test_ia_computes_local_apsp(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        assert w.local_apsp[w.row_of[0], w.row_of[1]] == 1.0
        assert w.dv[w.row_of[0], 1] == 1.0
        assert np.isinf(w.dv[w.row_of[0], 2])  # remote: unknown after IA

    def test_ia_charges_compute(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        assert w.take_compute_seconds() > 0.0
        assert w.take_compute_seconds() == 0.0  # drained

    def test_seed_rows_reused(self):
        g = path_graph(4)
        owner = {0: 0, 1: 0, 2: 1, 3: 1}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        sub = extract_local_subgraph(g, [0, 1], owner, 0)
        seed = {0: np.array([0.0, 1.0, 2.0, 3.0])}
        w.load_subgraph(sub, seed_rows=seed)
        assert w.dv[w.row_of[0], 3] == 3.0

    def test_seed_row_for_foreign_vertex_rejected(self):
        g = path_graph(4)
        owner = {0: 0, 1: 0, 2: 1, 3: 1}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        sub = extract_local_subgraph(g, [0, 1], owner, 0)
        with pytest.raises(WorkerError):
            w.load_subgraph(sub, seed_rows={2: np.zeros(4)})


class TestMessaging:
    def test_subscribe_queues_current_row(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.build_payload(1)  # drain whatever IA queued
        w.subscribe(1, 1)
        payload = w.build_payload(1)
        assert set(payload) == {1}
        np.testing.assert_array_equal(payload[1], w.dv[w.row_of[1]])

    def test_subscribe_foreign_vertex_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.subscribe(2, 1)

    def test_changed_rows_requeued(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.subscribe(1, 1)
        w.build_payload(1)
        # a fresh external row improving vertex 1 re-queues it
        row2 = np.array([np.inf, np.inf, 0.0, 1.0])
        w.receive_rows({2: row2})
        assert superstep(w).relax_improved
        assert 1 in w.build_payload(1)

    def test_receive_wrong_width_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.receive_rows({2: np.zeros(3)})

    def test_unsubscribe_rank(self):
        _g, w = path4_worker()
        w.subscribe(1, 1)
        w.channels[1].unsubscribe()
        assert not w.channels[1].subscribed
        assert not w.build_payload(1)

    def test_subscriptions_are_per_peer_channel(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        w = Worker(0, 6, GlobalIndex(g.vertex_list()), DEFAULT_COST)
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        for dst in (5, 1, 3):
            w.subscribe(2, dst)
        assert [r for r, ch in enumerate(w.channels) if 2 in ch.subscribed] == [
            1, 3, 5
        ]
        w.channels[5].unsubscribe()
        assert [r for r, ch in enumerate(w.channels) if ch.subscribed] == [1, 3]
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        assert not any(ch.subscribed for ch in w.channels)


class TestRelaxAndPropagate:
    def test_cut_relax_improves_boundary(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        row2 = np.array([np.inf, np.inf, 0.0, 1.0])
        w.receive_rows({2: row2})
        assert superstep(w).relax_improved
        assert w.dv[w.row_of[1], 2] == 1.0  # 1 -(1)- 2
        assert w.dv[w.row_of[1], 3] == 2.0

    def test_propagation_reaches_interior(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        superstep(w)  # consume IA's changed rows
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        assert superstep(w).prop_improved
        assert w.dv[w.row_of[0], 2] == 2.0  # 0-1 + cut edge 1-2
        assert w.dv[w.row_of[0], 3] == 3.0

    def test_stale_external_rows_not_rerelaxed(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        assert superstep(w).relax_improved
        assert not superstep(w).relax_improved  # nothing fresh

    def test_propagate_idempotent(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        superstep(w)
        assert not superstep(w).improved

    def test_monotone_nonincreasing(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        before = w.dv.copy()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        superstep(w)
        assert np.all(w.dv <= before)


class TestDynamicColumnsAndVertices:
    def test_grow_columns(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.index.add(4)
        w.grow_columns(5)
        assert w.dv.shape == (2, 5)
        assert np.isinf(w.dv[:, 4]).all()

    def test_grow_columns_pads_external_rows(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.index.add(4)
        w.grow_columns(5)
        assert np.array_equal(w.ext_row(2), [np.inf, np.inf, 0.0, 1.0, np.inf])

    def test_external_rows_reuse_freed_slots(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.add_cut_edge(0, 3, 2.0)
        w.receive_rows({
            2: np.array([np.inf, np.inf, 0.0, 1.0]),
            3: np.array([np.inf, np.inf, 1.0, 0.0]),
        })
        store = w.entries
        assert store.rows.shape == (2, 4) and len(store.slot_of) == 2
        slot = store.slot_of[2]
        w.remove_cut_edge(1, 2)  # 2's last cut edge: its slot is freed
        assert w.ext_row(2) is None and len(store.slot_of) == 1
        w.add_cut_edge(1, 2, 1.0)
        w.receive_rows({2: np.array([np.inf, 5.0, 0.0, 1.0])})
        assert store.slot_of[2] == slot and store.rows.shape == (2, 4)
        w.receive_rows({77: np.zeros(4)})  # a full store doubles
        assert store.rows.shape == (4, 4) and store.top == 3
        assert np.array_equal(w.ext_row(2), [np.inf, 5.0, 0.0, 1.0])
        assert np.array_equal(w.ext_row(3), [np.inf, np.inf, 1.0, 0.0])
        w.clear_external_rows()
        assert len(store.slot_of) == 0 and store.top == 0

    def test_shrink_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.grow_columns(2)

    def test_add_local_vertex(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.index.add(4)
        w.grow_columns(5)
        r = w.add_local_vertex(4)
        assert w.dv[r, 4] == 0.0
        assert w.local_apsp.shape == (3, 3)
        assert w.local_apsp[r, r] == 0.0
        assert np.isinf(w.local_apsp[r, 0])

    def test_add_local_vertex_twice_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.add_local_vertex(0)

    def test_add_unindexed_vertex_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.add_local_vertex(77)

    def test_add_local_edge_repairs_apsp(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        assert w.local_apsp[w.row_of[0], w.row_of[3]] == 3.0
        w.add_local_edge(0, 3, 1.0)
        assert w.local_apsp[w.row_of[0], w.row_of[3]] == 1.0
        assert w.local_apsp[w.row_of[1], w.row_of[3]] == 2.0
        assert w.dv[w.row_of[0], 3] == 1.0

    def test_add_cut_edge_registers(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.add_cut_edge(0, 3, 2.0)
        assert (0, 2.0) in w.cut_by_ext[3]
        assert w.cut_adj[0][3] == 2.0

    def test_add_cut_edge_replaces_duplicate(self):
        _g, w = path4_worker()
        w.add_cut_edge(0, 3, 2.0)
        w.add_cut_edge(0, 3, 1.0)
        assert w.cut_by_ext[3] == [(0, 1.0)]

    def test_remove_cut_edge_cleans_up(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.remove_cut_edge(1, 2)
        assert 2 not in w.cut_by_ext
        assert w.ext_row(2) is None


class TestEdgeRowRelaxation:
    def test_relax_with_edge_rows(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        row0 = w.dv_row(0)
        row3 = w.dv_row(3)
        assert w.relax_with_edge_rows(*one_edge_batch(0, row0, 3, row3, 1.0), 1)
        assert w.dv[w.row_of[0], 3] == 1.0
        assert w.dv[w.row_of[1], 3] == 2.0

    def test_relax_no_improvement(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        row0, row1 = w.dv_row(0), w.dv_row(1)
        assert not w.relax_with_edge_rows(*one_edge_batch(0, row0, 1, row1, 5.0), 1)


class TestDeletionKernels:
    def test_invalidate_for_deleted_edge(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        row1, row2 = w.dv_row(1), w.dv_row(2)
        count = w.invalidate_for_deleted_edge(1, row1, 2, row2, 1.0)
        # pairs crossing the 1-2 edge: (0,2),(0,3),(1,2),(1,3),(2,3) and
        # symmetric counterparts that live in these rows
        assert count == 8
        assert np.isinf(w.dv[w.row_of[0], 2])
        assert w.dv[w.row_of[0], 1] == 1.0  # untouched: avoids the edge
        assert w.dv[w.row_of[0], 0] == 0.0  # diagonal preserved

    def test_invalidate_through_vertex(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        row1 = w.dv_row(1)
        count = w.invalidate_through_vertex(1, row1)
        assert count == 2  # (0,2) and (2,0)
        assert np.isinf(w.dv[w.row_of[0], 2])
        assert w.dv[w.row_of[0], 1] == 1.0  # direct edge untouched

    def test_restore_local_baseline(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        w.dv[:] = np.inf
        w.restore_local_baseline()
        assert w.dv[w.row_of[0], 2] == 2.0

    def test_remove_column(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.remove_column(3)
        assert w.dv.shape == (2, 3)
        assert np.array_equal(w.ext_row(2), [np.inf, np.inf, 0.0])

    def test_remove_local_vertex(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        w.remove_local_vertex(1)
        assert w.owned == [0, 2, 3]
        assert w.row_of == {0: 0, 2: 1, 3: 2}
        assert w.dv.shape == (3, 4)
        assert w.local_apsp.shape == (3, 3)

    def test_drop_external_vertex(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.drop_external_vertex(2)
        assert w.ext_row(2) is None
        assert 2 not in w.cut_by_ext
        assert not any(2 in d for d in w.cut_adj.values())


class TestQueries:
    def test_dv_row_is_copy(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        row = w.dv_row(0)
        row[0] = 99.0
        assert w.dv[w.row_of[0], 0] == 0.0

    def test_extract_rows(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        rows = w.extract_rows([0, 1])
        assert set(rows) == {0, 1}

    def test_local_boundary_vertices(self):
        _g, w = path4_worker()
        assert w.local_boundary_vertices() == [1]

    def test_repr(self):
        _g, w = path4_worker()
        assert "rank=0" in repr(w)


def split_cluster():
    """Path 0-1-2-3-4; rank 0 owns two local components {0,1} and {3,4}."""
    g = path_graph(5)
    cluster = Cluster(g, 2)
    cluster.install_partition(
        Partition(2, {0: 0, 1: 0, 2: 1, 3: 0, 4: 0})
    )
    cluster.run_initial_approximation()
    cluster.exchange_boundary()
    cluster.relax_and_propagate()
    return cluster


def count_folds(monkeypatch, **names):
    """Count the calls of oracle fold functions, ``label="function name"``."""
    calls = dict.fromkeys(names, 0)
    for label, name in names.items():

        def counted(*args, _fold=getattr(oracle, name), _label=label):
            calls[_label] += 1
            return _fold(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


class TestChangedEntryMask:
    """``dv_changed``: same shape as ``dv`` always, set by every writer that
    lowers an entry outside a fold, cleared by the superstep."""

    def test_ia_marks_nothing_and_superstep_clears(self):
        _g, w = path4_worker()
        assert w.dv_changed.shape == w.dv.shape and not w.dv_changed.any()
        w.run_initial_approximation()
        assert not w.dv_changed.any()  # Dijkstra's block is already closed
        w.dv_changed[0, 1] = True
        assert superstep(w).prop_charged  # the flags still declare the fold
        assert not w.dv_changed.any()

    def test_mask_follows_dv_through_shape_changes(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.dv_changed[1, 2] = True
        w.index.add(4)
        w.grow_columns(5)
        assert w.dv_changed.shape == w.dv.shape == (2, 5)
        assert w.dv_changed[1, 2] and w.dv_changed.sum() == 1
        r = w.add_local_vertex(4)
        assert w.dv_changed.shape == w.dv.shape == (3, 5)
        assert w.dv_changed[r].tolist() == [False] * 4 + [True]  # d(v,v) = 0
        w.remove_column(2)
        assert w.dv_changed.shape == w.dv.shape == (3, 4)
        assert w.dv_changed.sum() == 1 and w.dv_changed[r, 3]
        w.remove_local_vertex(0)
        assert w.dv_changed.shape == w.dv.shape == (2, 4)
        assert w.dv_changed[w.row_of[4], 3]

    def test_mask_stays_in_the_allocator(self):
        allocator = SharedMemoryAllocator()
        try:
            g = path_graph(4)
            w = Worker(
                0, 2, GlobalIndex(g.vertex_list()), DEFAULT_COST,
                allocator=allocator,
            )
            owner = {0: 0, 1: 0, 2: 1, 3: 1}
            w.load_subgraph(extract_local_subgraph(g, [0, 1], owner, 0))
            assert allocator.owns(w.dv_changed)
            w.run_initial_approximation()
            w.index.add(4)
            w.grow_columns(5)
            w.add_local_vertex(4)
            assert allocator.owns(w.dv_changed)
            assert w.dv_changed.shape == w.dv.shape
            w.remove_column(1)
            assert allocator.owns(w.dv_changed)
        finally:
            allocator.release_all()

    def test_edge_rows_mark_what_they_lower(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        superstep(w)
        before = w.dv.copy()
        row_0 = before[w.row_of[0]].copy()
        row_3 = np.array([np.inf, np.inf, 1.0, 0.0])
        assert w.relax_with_edge_rows(*one_edge_batch(0, row_0, 3, row_3, 1.0), 1)
        assert w.dv_changed.any()
        assert np.array_equal(w.dv_changed, w.dv < before)

    def test_local_edge_that_lowers_a_pair_makes_the_next_fold_full(self):
        """A bare local edge joining two local components (no edge-row
        relaxation ran first — the Fig. 3 line-26 guard skipped it):
        ``local_apsp`` drops, the entries actually lowered are marked, and
        the next fold re-derives the block — without a dense boundary
        refresh, since every entry only fell."""
        cluster = split_cluster()
        w = cluster.workers[0]
        assert not w.dv_changed.any() and not w._full_repropagate
        check_cluster_invariants(cluster)
        before = w.dv.copy()
        baselines = [sorted(ch.sent_rows) for ch in w.channels]
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        assert w._full_repropagate
        assert np.array_equal(w.dv_changed, w.dv < before)
        assert [sorted(ch.sent_rows) for ch in w.channels] == baselines
        check_cluster_invariants(cluster)
        cluster.exchange_boundary()
        cluster.relax_and_propagate()
        assert not w.dv_changed.any() and not w._full_repropagate
        assert w.dv[w.row_of[0], 4] == 3.0
        check_cluster_invariants(cluster)

    def test_closure_check_sees_an_unmarked_source(self):
        cluster = split_cluster()
        w = cluster.workers[0]
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        w.dv_changed[...] = False
        check_cluster_invariants(cluster)  # a pending full fold ignores the mask
        w._full_repropagate = False  # as if the edge had not asked for it
        with pytest.raises(AssertionError, match="not marked in dv_changed"):
            check_cluster_invariants(cluster)
        w.request_full_repropagate()
        check_cluster_invariants(cluster)


def settled_cluster(graph, assignment, nprocs=2):
    """A converged cluster of ``graph`` under the given ownership."""
    cluster = Cluster(graph, nprocs)
    cluster.install_partition(Partition(nprocs, assignment))
    cluster.run_initial_approximation()
    while cluster.any_pending():
        cluster.exchange_boundary()
        cluster.relax_and_propagate()
    return cluster


class TestFullFold:
    """After a deletion, a reweight, a local edge that lowered a pair, a
    recovery or a rebuild, the next fold re-derives the block: one sweep
    from every finite entry where that is exact, the rectangle fold where
    not (float weights, here forced)."""

    def test_invalidation_raises_exactly_what_it_counts(self):
        g = path_graph(4)
        w = make_worker(g, [0, 1, 2, 3], {v: 0 for v in range(4)}, nprocs=1)
        w.run_initial_approximation()
        before = w.dv.copy()
        assert w.invalidate_for_deleted_edge(1, w.dv_row(1), 2, w.dv_row(2), 1.0) == 8
        assert int((w.dv > before).sum()) == 8
        before = w.dv.copy()
        assert w.invalidate_through_vertex(0, w.dv_row(0)) == 0
        assert w.invalidate_through_vertex(3, w.dv_row(3)) == 0
        assert np.array_equal(w.dv, before)

    def test_recovery_and_deletion_in_one_tick(self, monkeypatch):
        """Crash-recover then delete in one tick: a rank restored from a
        checkpoint holds rows that are upper bounds but not closed, and
        the other rank holds the deletion's rises; both folds re-derive
        their blocks."""
        for exact in (True, False):
            with monkeypatch.context() as m:
                if not exact:
                    m.setattr(oracle, "closure_exact", lambda *a: False)
                g = path_graph(6)
                g.add_edge(0, 5, 1.0)
                cluster = settled_cluster(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
                saved = snapshot_cluster_state(cluster, 0)
                crash_worker(cluster, 1)
                recover_worker_from_snapshot(cluster, 1, saved)
                apply_edge_deletion(cluster, 1, 2)
                tasks = [w.superstep_prepare() for w in cluster.workers]
                assert all(task.full_repropagate for task in tasks)
                calls = count_folds(
                    m,
                    rectangle="minplus_fold",
                    push="minplus_fold_changed",
                    sweep="minplus_closure",
                )
                for w, task in zip(cluster.workers, tasks):
                    result = KERNELS.run_superstep(task, *w.entries.kernel_arrays())
                    assert result.prop_charged
                    w.superstep_apply(task, result)
                assert calls == {
                    "rectangle": 2 * (not exact), "push": 0, "sweep": 2 * exact
                }
                while cluster.any_pending():
                    cluster.exchange_boundary()
                    cluster.relax_and_propagate()
                check_cluster_invariants(cluster)
                assert cluster.workers[0].dv[0].tolist() == [
                    0.0, 1.0, 4.0, 3.0, 2.0, 1.0
                ]

    def test_deletion_that_witnesses_nothing_still_charges_the_fold(
        self, monkeypatch
    ):
        """The flags decide when: an edge on no shortest path raises nothing
        anywhere, yet every rank's fold runs in full and is charged,
        exactly as the wholesale re-propagation was."""
        for exact in (True, False):
            with monkeypatch.context() as m:
                if not exact:
                    m.setattr(oracle, "closure_exact", lambda *a: False)
                g = Graph.from_edges(
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 5.0)]
                )
                cluster = settled_cluster(g, {0: 0, 1: 0, 2: 1, 3: 1})
                before = [w.dv.copy() for w in cluster.workers]
                apply_edge_deletion(cluster, 0, 2)
                assert all(
                    np.array_equal(w.dv, dv) for w, dv in zip(cluster.workers, before)
                )
                calls = count_folds(
                    m, rectangle="minplus_fold", sweep="minplus_closure"
                )
                for w, dv in zip(cluster.workers, before):
                    w.take_compute_seconds()  # drain the strategy's charges
                    result = superstep(w)
                    assert result.prop_charged and not result.prop_improved
                    assert w.take_compute_seconds() > 0.0
                    assert np.array_equal(w.dv, dv)
                assert calls == {"rectangle": 2 * (not exact), "sweep": 2 * exact}

    def test_local_edge_runs_one_full_fold(self, monkeypatch):
        for exact in (True, False):
            with monkeypatch.context() as m:
                if not exact:
                    m.setattr(oracle, "closure_exact", lambda *a: False)
                cluster = split_cluster()
                w = cluster.workers[0]
                cluster.graph.add_edge(1, 3, 1.0)
                w.add_local_edge(1, 3, 1.0)
                calls = count_folds(
                    m,
                    rectangle="minplus_fold",
                    push="minplus_fold_changed",
                    sweep="minplus_closure",
                )
                assert superstep(w).prop_charged
                assert calls == {
                    "rectangle": int(not exact), "push": 0, "sweep": int(exact)
                }
                assert w.dv[w.row_of[0], 4] == 3.0
                check_cluster_invariants(cluster)

    @pytest.mark.parametrize("order", ["add-then-delete", "delete-then-add"])
    def test_local_edge_and_deletion_on_one_rank_in_one_tick(self, order):
        """Path 0..7 with a heavy chord (2, 5) on no shortest path; rank 0
        owns 0..5.  The bare local edge (0, 4) lowers pairs such as (1, 4),
        and d(1, 6) improves only through that pair; deleting the chord
        recomputes ``local_apsp``, and the one full fold after both must
        see that pair."""
        g = path_graph(8)
        g.add_edge(2, 5, 10.0)
        cluster = settled_cluster(g, {v: int(v > 5) for v in range(8)})
        w = cluster.workers[0]

        def add():
            cluster.graph.add_edge(0, 4, 1.0)
            w.add_local_edge(0, 4, 1.0)

        ops = [add, lambda: apply_edge_deletion(cluster, 2, 5)]
        for op in ops if order == "add-then-delete" else reversed(ops):
            op()
            check_cluster_invariants(cluster)
        assert w.local_apsp[1, 4] == 2.0 and w._full_repropagate
        while cluster.any_pending():
            cluster.exchange_boundary()
            cluster.relax_and_propagate()
            check_cluster_invariants(cluster)
        for rank in cluster.workers:
            for v in rank.owned:
                want = sssp_dijkstra(cluster.graph, v)
                assert rank.dv[rank.row_of[v]].tolist() == [
                    want[t] for t in cluster.index.ids
                ]


class TestLocalCSR:
    """``local_csr``: the CSR ``local_apsp`` is the closure of.  IA stashes
    the one it ran on; every other writer of ``local_apsp`` drops it and the
    next ``superstep_prepare`` exports ``local_graph``'s afresh, so the task
    always carries a current one — check 10 holds it to
    ``csgraph.dijkstra(local_csr) == local_apsp``."""

    @staticmethod
    def assert_current(cluster, w):
        graph = w.superstep_prepare().graph
        want = w.local_graph.to_csr(w.owned).csr
        assert graph.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(graph, name).tobytes() == getattr(want, name).tobytes()
        assert "local-csr-closure" in check_cluster_invariants(cluster)

    def test_every_writer_leaves_a_current_csr(self):
        cluster = split_cluster()
        w = cluster.workers[0]
        assert w.entries.local_csr is not None  # IA's stash
        self.assert_current(cluster, w)
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)  # repairs local_apsp in place
        self.assert_current(cluster, w)
        w.entries.adopt_apsp(w.local_apsp.copy())  # a restore, a migration
        self.assert_current(cluster, w)
        # a new vertex (its row, then its first edge) placed on rank 0
        batch = ChangeBatch(vertex_additions=[VertexAddition(5, ((4, 2.0),))])
        VertexAdditionStrategy(CutEdgePS()).apply(cluster, batch, 1)
        assert w.row_of[5] == 4
        self.assert_current(cluster, w)
        saved = snapshot_cluster_state(cluster, 1)
        crash_worker(cluster, 0)
        assert w.superstep_prepare().graph is None  # no local_apsp: no CSR
        recover_worker_from_snapshot(cluster, 0, saved)
        assert w.entries.local_csr is None  # local_apsp restored, not recomputed
        self.assert_current(cluster, w)

    def test_check_sees_a_csr_local_apsp_was_not_computed_from(self):
        cluster = split_cluster()
        w = cluster.workers[0]
        stale = w.entries.local_csr
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        w.entries.local_csr = stale
        with pytest.raises(AssertionError, match="not the closure of local_csr"):
            check_cluster_invariants(cluster)

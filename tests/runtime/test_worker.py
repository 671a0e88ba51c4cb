"""Unit tests for the Worker's numeric kernels."""

import numpy as np
import pytest

import repro.runtime.kernels.oracle as oracle
from repro.core.checkpoint import snapshot_cluster_state
from repro.core.strategies.edge_deletion import apply_edge_deletion
from repro.centrality import sssp_dijkstra
from repro.errors import WorkerError
from repro.graph import Graph, extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.partition import Partition
from repro.runtime import Cluster, GlobalIndex, Worker, check_cluster_invariants
from repro.runtime.faults import crash_worker, recover_worker_from_snapshot
from repro.runtime.shm import SharedMemoryAllocator

from ..conftest import path_graph, superstep


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
        w.unsubscribe_rank(1)
        assert not w.build_payload(1)


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
        assert w.ext_dvs[2].size == 5

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
        assert 2 not in w.ext_dvs


class TestEdgeRowRelaxation:
    def test_relax_with_edge_rows(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        row0 = w.dv_row(0)
        row3 = w.dv_row(3)
        assert w.relax_with_edge_rows(0, row0, 3, row3, 1.0)
        assert w.dv[w.row_of[0], 3] == 1.0
        assert w.dv[w.row_of[1], 3] == 2.0

    def test_relax_no_improvement(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        row0, row1 = w.dv_row(0), w.dv_row(1)
        assert not w.relax_with_edge_rows(0, row0, 1, row1, 5.0)


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
        assert w.ext_dvs[2].size == 3

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
        assert 2 not in w.ext_dvs
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
        assert w.relax_with_edge_rows(0, row_0, 3, row_3, 1.0)
        assert w.dv_changed.any()
        assert np.array_equal(w.dv_changed, w.dv < before)

    def test_local_edge_leaves_every_unmarked_entry_closed(self):
        """A bare local edge joining two local components (no edge-row
        relaxation ran first — the Fig. 3 line-26 guard skipped it):
        ``local_apsp`` drops, the pairs that fell are marked, only the
        entries actually lowered are sources again — and check 9 (local
        closure) must hold right away, before any fold."""
        cluster = split_cluster()
        w = cluster.workers[0]
        assert not w.dv_changed.any() and not w.apsp_fell.any()
        check_cluster_invariants(cluster)
        before, apsp_before = w.dv.copy(), w.local_apsp.copy()
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        assert w.apsp_fell.any()
        assert np.array_equal(w.apsp_fell, w.local_apsp < apsp_before)
        assert np.array_equal(w.dv_changed, w.dv < before)
        assert "local-closure" in check_cluster_invariants(cluster)
        cluster.exchange_boundary()
        cluster.relax_and_propagate()
        assert not w.dv_changed.any() and not w.apsp_fell.any()
        assert w.dv[w.row_of[0], 4] == 3.0
        check_cluster_invariants(cluster)

    def test_closure_check_sees_an_unmarked_source(self):
        cluster = split_cluster()
        w = cluster.workers[0]
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        w.dv_changed[...] = False
        with pytest.raises(AssertionError, match="not marked in dv_changed"):
            check_cluster_invariants(cluster)
        w.request_full_repropagate()  # a pending full fold ignores the mask
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


class TestRisenEntryMask:
    """``dv_rose``: same shape as ``dv`` always, written only by the witness
    tests, read by the fold only while the rises are all that rose, cleared
    by the superstep that repairs them."""

    def test_invalidation_marks_exactly_what_it_raises(self):
        g = path_graph(4)
        w = make_worker(g, [0, 1, 2, 3], {v: 0 for v in range(4)}, nprocs=1)
        w.run_initial_approximation()
        before = w.dv.copy()
        assert w.invalidate_for_deleted_edge(1, w.dv_row(1), 2, w.dv_row(2), 1.0) == 8
        assert np.array_equal(w.dv_rose, w.dv > before)
        marked = w.dv_rose.copy()
        before = w.dv.copy()
        assert w.invalidate_through_vertex(0, w.dv_row(0)) == 0
        assert w.invalidate_through_vertex(3, w.dv_row(3)) == 0
        assert np.array_equal(w.dv_rose, marked)  # OR-ed into, never cleared
        assert np.array_equal(w.dv, before)

    def test_mask_follows_dv_through_shape_changes_and_resets(self):
        g, w = path4_worker()
        w.run_initial_approximation()
        assert w.dv_rose.shape == w.dv.shape and not w.dv_rose.any()
        w.dv_rose[1, 2] = True
        w.index.add(4)
        w.grow_columns(5)
        assert w.dv_rose.shape == w.dv.shape == (2, 5)
        assert w.dv_rose[1, 2] and w.dv_rose.sum() == 1
        r = w.add_local_vertex(4)
        assert w.dv_rose.shape == w.dv.shape == (3, 5)
        assert not w.dv_rose[r].any() and w.dv_rose.sum() == 1
        w.remove_column(1)
        assert w.dv_rose.shape == w.dv.shape == (3, 4)
        assert w.dv_rose[1, 1] and w.dv_rose.sum() == 1
        w.remove_local_vertex(0)
        assert w.dv_rose.shape == w.dv.shape == (2, 4)
        assert w.dv_rose[w.row_of[1], 1] and w.dv_rose.sum() == 1
        # the superstep that repairs the rises clears them
        task = w.superstep_prepare()
        assert task.full_repropagate and task.rose is w.dv_rose
        w.superstep_apply(task, w.tier.run_superstep(task, w.dv, w.local_apsp, w.dv_changed))
        assert not w.dv_rose.any()
        # a reload and a crash wipe start from a clear mask
        w.dv_rose[0, 0] = True
        w.wipe_entries(7)
        assert w.dv_rose.shape == w.dv.shape == (2, 7) and not w.dv_rose.any()
        assert np.isinf(w.dv).all() and not w.dv_changed.any()
        w.dv_rose[0, 0] = True
        w.index = GlobalIndex(g.vertex_list())
        w.load_subgraph(extract_local_subgraph(g, [0, 1], {0: 0, 1: 0, 2: 1, 3: 1}, 0))
        assert w.dv_rose.shape == w.dv.shape == (2, 4) and not w.dv_rose.any()

    def test_crash_clears_the_mask(self):
        cluster = settled_cluster(path_graph(4), {0: 0, 1: 0, 2: 1, 3: 1})
        w = cluster.workers[0]
        w.dv_rose[0, 3] = True
        crash_worker(cluster, 0)
        assert w.dv_rose.shape == w.dv.shape and not w.dv_rose.any()

    def test_unknown_dominates_known(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        superstep(w)
        for requests, known in (
            ([True], True),
            ([True, True], True),
            ([False], False),
            ([False, True], False),  # a later deletion must not narrow it
            ([True, False], False),
        ):
            for rises_known in requests:
                w.request_full_repropagate(rises_known=rises_known)
            task = w.superstep_prepare()
            assert task.full_repropagate
            assert (task.rose is not None) == known
            w.superstep_apply(
                task, w.tier.run_superstep(task, w.dv, w.local_apsp, w.dv_changed)
            )
            assert w.superstep_prepare().rose is None  # nothing pending

    def test_recovered_rank_keeps_the_rectangle_through_a_later_deletion(
        self, monkeypatch
    ):
        """Crash-recover then delete in one tick: a rank restored from a
        checkpoint holds rows that are upper bounds but not closed, so the
        deletion's known rises must not narrow its pending re-propagation;
        the other rank repairs."""
        g = path_graph(6)
        g.add_edge(0, 5, 1.0)
        cluster = settled_cluster(g, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        saved = snapshot_cluster_state(cluster, 0)
        crash_worker(cluster, 1)
        recover_worker_from_snapshot(cluster, 1, saved)
        apply_edge_deletion(cluster, 1, 2)
        assert cluster.workers[0].dv_rose.any()
        tasks = [w.superstep_prepare() for w in cluster.workers]
        assert tasks[0].rose is cluster.workers[0].dv_rose
        assert tasks[1].full_repropagate and tasks[1].rose is None
        calls = count_folds(monkeypatch, rectangle="minplus_fold", pull="minplus_pull")
        for w, task in zip(cluster.workers, tasks):
            result = w.tier.run_superstep(task, w.dv, w.local_apsp, w.dv_changed)
            assert result.prop_charged
            w.superstep_apply(task, result)
        assert calls == {"rectangle": 1, "pull": 1}
        while cluster.any_pending():
            cluster.exchange_boundary()
            cluster.relax_and_propagate()
        check_cluster_invariants(cluster)
        assert cluster.workers[0].dv[0].tolist() == [0.0, 1.0, 4.0, 3.0, 2.0, 1.0]

    def test_deletion_that_witnesses_nothing_still_charges_the_fold(
        self, monkeypatch
    ):
        """The flags decide when: an edge on no shortest path raises nothing
        anywhere, yet every rank's fold runs (over empty masks) and is
        charged, exactly as the wholesale re-propagation was."""
        g = Graph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 5.0)])
        cluster = settled_cluster(g, {0: 0, 1: 0, 2: 1, 3: 1})
        before = [w.dv.copy() for w in cluster.workers]
        apply_edge_deletion(cluster, 0, 2)
        assert not any(w.dv_rose.any() for w in cluster.workers)
        calls = count_folds(monkeypatch, rectangle="minplus_fold", pull="minplus_pull")
        for w, dv in zip(cluster.workers, before):
            w.take_compute_seconds()  # drain the strategy's charges
            result = superstep(w)
            assert result.prop_charged and not result.prop_improved
            assert w.take_compute_seconds() > 0.0
            assert np.array_equal(w.dv, dv)
        assert calls == {"rectangle": 0, "pull": 2}


class TestFallenPairMask:
    """``apsp_fell``: ``local_apsp``'s shape always, written only by
    ``add_local_edge``, read by the next fold, cleared where ``dv_changed``
    is — and kept by a same-shape recomputation of ``local_apsp``."""

    def _joined(self):
        """:func:`split_cluster` after the bare local edge (1, 3): the eight
        pairs between {0,1} and {3,4} fell; returns the cluster, rank 0."""
        cluster = split_cluster()
        w = cluster.workers[0]
        cluster.graph.add_edge(1, 3, 1.0)
        w.add_local_edge(1, 3, 1.0)
        assert w.apsp_fell.sum() == 8 and not w.apsp_fell[:2, :2].any()
        return cluster, w

    def test_no_local_edge_allocates_no_mask(self):
        """Static runs and cut-edge-only additions: the mask is an all-False
        view of the right shape that owns no memory, and nothing travels."""
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.index.add(4)
        w.grow_columns(5)
        w.add_local_vertex(4)
        w.remove_local_vertex(0)
        assert w.apsp_fell.shape == w.local_apsp.shape == (2, 2)
        assert not w.apsp_fell.any() and w.apsp_fell.strides == (0, 0)
        assert w.superstep_prepare().fell is None

    def test_mask_follows_local_apsp_through_shape_changes(self):
        _cluster, w = self._joined()
        marks = w.apsp_fell.copy()
        w.index.add(5)
        w.grow_columns(6)
        assert np.array_equal(w.apsp_fell, marks)
        r = w.add_local_vertex(5)
        assert w.apsp_fell.shape == w.local_apsp.shape == (5, 5)
        assert np.array_equal(w.apsp_fell[:r, :r], marks)
        assert not w.apsp_fell[r].any() and not w.apsp_fell[:, r].any()
        w.add_local_edge(5, 0, 1.0)  # its first edge: one pair per row, per column
        assert w.apsp_fell[r, :r].all() and w.apsp_fell[:r, r].all()
        marks = w.apsp_fell.copy()
        # a same-shape recomputation keeps the marks: the pairs are still
        # below the values they were last folded at
        w.recompute_local_apsp(rises_known=True)
        assert np.array_equal(w.apsp_fell, marks)
        w.remove_local_vertex(1)
        assert w.apsp_fell.shape == w.local_apsp.shape == (4, 4)
        assert np.array_equal(
            w.apsp_fell, np.delete(np.delete(marks, 1, axis=0), 1, axis=1)
        )

    def test_reload_and_crash_start_from_a_clear_mask(self):
        cluster, w = self._joined()
        crash_worker(cluster, 0)
        assert w.apsp_fell.shape == w.local_apsp.shape == (0, 0)
        cluster, w = self._joined()
        g = cluster.graph
        owner = {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 3, 4], owner, 0))
        assert w.apsp_fell.shape == w.local_apsp.shape == (0, 0)
        w.run_initial_approximation()
        assert w.apsp_fell.shape == w.local_apsp.shape == (4, 4)
        assert not w.apsp_fell.any()

    def test_fold_consumes_the_mask_and_leaves_the_tasks_copy(self):
        """The task's array is shared with a speculative backup, which reads
        it after the apply: the worker drops it instead of clearing it."""
        _cluster, w = self._joined()
        task = w.superstep_prepare()
        assert task.fell is w.apsp_fell and task.rose is None
        marks = task.fell.copy()
        result = w.tier.run_superstep(task, w.dv, w.local_apsp, w.dv_changed)
        w.superstep_apply(task, result)
        assert result.prop_charged and 0 in result.prop_improved
        assert w.dv[w.row_of[0], 4] == 3.0
        assert w.apsp_fell is not task.fell and not w.apsp_fell.any()
        assert np.array_equal(task.fell, marks)
        assert w.superstep_prepare().fell is None  # no pair set: nothing travels

    def test_nothing_known_pending_drops_the_marks_and_runs_one_rectangle(
        self, monkeypatch
    ):
        cluster, w = self._joined()
        w.request_full_repropagate()  # e.g. a restore in the same tick
        check_cluster_invariants(cluster)
        calls = count_folds(
            monkeypatch,
            rectangle="minplus_fold",
            push="minplus_fold_changed",
            pull="minplus_pull",
            pairs="minplus_fold_pairs",
        )
        assert superstep(w).prop_charged
        assert calls == {"rectangle": 1, "push": 0, "pull": 0, "pairs": 0}
        assert not w.apsp_fell.any()
        assert w.dv[w.row_of[0], 4] == 3.0
        check_cluster_invariants(cluster)

    @pytest.mark.parametrize("order", ["add-then-delete", "delete-then-add"])
    def test_local_edge_and_deletion_on_one_rank_in_one_tick(self, order):
        """Path 0..7 with a heavy chord (2, 5) on no shortest path; rank 0
        owns 0..5.  The bare local edge (0, 4) lowers pairs such as (1, 4),
        and d(1, 6) improves only through that pair; deleting the chord
        recomputes ``local_apsp`` (same shape) and must keep the marks."""
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
        assert w.apsp_fell[1, 4] and w.local_apsp[1, 4] == 2.0
        assert w._full_repropagate and not w._rises_unknown  # a repair, too
        while cluster.any_pending():
            cluster.exchange_boundary()
            cluster.relax_and_propagate()
            check_cluster_invariants(cluster)
        assert not w.apsp_fell.any()
        for rank in cluster.workers:
            for v in rank.owned:
                want = sssp_dijkstra(cluster.graph, v)
                assert rank.dv[rank.row_of[v]].tolist() == [
                    want[t] for t in cluster.index.ids
                ]

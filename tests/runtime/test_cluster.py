"""Tests for the simulated cluster's primitives."""

import numpy as np
import pytest

from repro.errors import CommunicationError, ConfigurationError
from repro.graph import barabasi_albert
from repro.partition import MultilevelPartitioner, RoundRobinPartitioner
from repro.runtime import Cluster, snapshot_load

from ..conftest import path_graph


def make_cluster(n=40, nprocs=4, seed=0):
    g = barabasi_albert(n, 2, seed=seed)
    c = Cluster(g, nprocs)
    c.decompose(MultilevelPartitioner(seed=seed))
    return c


class TestDecompose:
    def test_owner_map_complete(self):
        c = make_cluster()
        for v in c.graph.vertices():
            assert 0 <= c.owner_of(v) < 4
            assert v in c.workers[c.owner_of(v)].row_of

    def test_owner_before_decompose_raises(self):
        c = Cluster(path_graph(3), 2)
        with pytest.raises(CommunicationError):
            c.owner_of(0)

    def test_unknown_vertex(self):
        c = make_cluster()
        with pytest.raises(CommunicationError):
            c.owner_of(9999)

    def test_invalid_nprocs(self):
        with pytest.raises(ConfigurationError):
            Cluster(path_graph(3), 0)

    def test_subscriptions_wired(self):
        c = make_cluster()
        for w in c.workers:
            for x in w.cut:
                owner = c.workers[c.owner_of(x)]
                assert x in owner.channels[w.rank].subscribed

    def test_decompose_records_phase(self):
        c = make_cluster()
        names = [r.name for r in c.tracer.records]
        assert "domain_decomposition" in names
        assert c.tracer.modeled_seconds > 0.0


class TestExchange:
    def test_exchange_delivers_boundary_rows(self):
        c = make_cluster()
        c.run_initial_approximation()
        delivered = c.exchange_boundary()
        assert delivered > 0
        got = sum(len(w.entries.slot_of) for w in c.workers)
        assert got > 0

    def test_exchange_charges_comm(self):
        c = make_cluster()
        c.run_initial_approximation()
        c.tracer.begin("rc_step", 0)
        c.exchange_boundary()
        rec = c.tracer.end()
        assert rec.modeled_comm > 0.0
        assert rec.messages > 0

    def test_second_exchange_empty_when_idle(self):
        c = make_cluster()
        c.run_initial_approximation()
        c.exchange_boundary()
        c.relax_and_propagate()
        c.exchange_boundary()
        c.relax_and_propagate()
        # after convergence no rows remain queued
        while c.exchange_boundary():
            c.relax_and_propagate()
        assert c.exchange_boundary() == 0


class TestBroadcastAndColumns:
    def test_broadcast_row_matches_owner(self):
        c = make_cluster()
        c.run_initial_approximation()
        row = c.broadcast_row(0)
        w = c.worker_owning(0)
        np.testing.assert_array_equal(row, w.dv[w.row_of[0]])

    def test_add_vertex_columns_grows_everyone(self):
        c = make_cluster()
        n0 = c.n_columns
        c.add_vertex_columns([1000, 1001])
        assert c.n_columns == n0 + 2
        for w in c.workers:
            assert w.dv.shape[1] == n0 + 2


class TestGather:
    def test_gather_distance_matrix_diagonal(self):
        c = make_cluster()
        c.run_initial_approximation()
        dist, ids = c.gather_distance_matrix()
        assert dist.shape == (len(ids), len(ids))
        assert np.all(np.diag(dist) == 0.0)

    def test_distance_rows_cover_all(self):
        c = make_cluster()
        rows = c.distance_rows()
        assert set(rows) == set(c.graph.vertices())


class TestLoad:
    def test_snapshot_load(self):
        c = make_cluster()
        snap = snapshot_load(c)
        assert sum(snap.vertices) == c.graph.num_vertices
        assert snap.vertex_imbalance >= 0.0
        assert snap.total_cut_edges > 0

    def test_roundrobin_vertex_balance(self):
        g = barabasi_albert(40, 2, seed=1)
        c = Cluster(g, 4)
        c.decompose(RoundRobinPartitioner())
        snap = snapshot_load(c)
        assert max(snap.vertices) - min(snap.vertices) <= 1


class TestSyncCompute:
    def test_sync_takes_max(self):
        c = make_cluster()
        c.workers[0]._charge(1.0)
        c.workers[1]._charge(3.0)
        c.tracer.begin("x")
        t = c.sync_compute()
        c.tracer.end()
        assert t == 3.0
        # drained
        assert all(w.take_compute_seconds() == 0.0 for w in c.workers)

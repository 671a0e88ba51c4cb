"""The cluster's cross-rank structure primitives: ``link_edge``,
``unlink_edge``, ``drop_vertex`` and ``wire_subscriptions``."""

from repro import AnytimeConfig
from repro.graph import Graph
from repro.partition import Partition
from repro.runtime import Cluster, check_cluster_invariants

from ..conftest import path_graph


def settled(graph, assignment, nprocs):
    """``graph`` decomposed by ``assignment``, after IA and one RC step:
    every rank holds the rows of its external boundary.  The backend is
    the configured default, so ``REPRO_BACKEND=process`` runs the kernels
    in the pool."""
    cluster = Cluster(graph, nprocs, backend=AnytimeConfig().backend)
    cluster.install_partition(Partition(nprocs, assignment))
    cluster.run_initial_approximation()
    cluster.exchange_boundary()
    cluster.relax_and_propagate()
    return cluster


def two_ranks():
    """Path 0-1-2-3-4-5; rank 0 owns {0, 1, 2}, rank 1 owns {3, 4, 5}."""
    return settled(path_graph(6), {v: v // 3 for v in range(6)}, 2)


class TestTwoRanks:
    def test_relinking_lighter_replaces_the_weight_on_both_sides(self):
        with two_ranks() as cluster:
            w0, w1 = cluster.workers
            for weight in (3.0, 1.0):
                cluster.graph.add_edge(0, 5, weight)
                cluster.link_edge(0, 5, weight)
            assert w0.cut == {3: {2: 1.0}, 5: {0: 1.0}}
            assert w1.cut == {2: {3: 1.0}, 0: {5: 1.0}}
            assert 0 in w0.channels[1].subscribed
            assert 5 in w1.channels[0].subscribed
            check_cluster_invariants(cluster)

    def test_unlinking_the_last_cut_edge_frees_the_store_slot(self):
        with two_ranks() as cluster:
            w0, w1 = cluster.workers
            assert 3 in w0.entries.slot_of and 2 in w1.entries.slot_of
            cluster.graph.remove_edge(2, 3)
            assert cluster.unlink_edge(2, 3) == set()  # no local APSP is stale
            assert w0.cut == {} and w1.cut == {}
            assert 3 not in w0.entries.slot_of and 2 not in w1.entries.slot_of

    def test_the_owners_keep_their_subscriptions_after_an_unlink(self):
        with two_ranks() as cluster:
            w0, w1 = cluster.workers
            cluster.graph.remove_edge(2, 3)
            cluster.unlink_edge(2, 3)
            # each endpoint's row still flows to the other rank
            assert 2 in w0.channels[1].subscribed
            assert 3 in w1.channels[0].subscribed

    def test_unlinking_a_local_edge_names_its_rank(self):
        with two_ranks() as cluster:
            cluster.graph.remove_edge(0, 1)
            assert cluster.unlink_edge(0, 1) == {0}
            assert not cluster.workers[0].local_graph.has_edge(0, 1)


def test_dropping_a_vertex_cut_to_two_neighbour_ranks():
    """Vertex 0 on rank 0 has a local edge and a cut edge to each of ranks
    1 and 2."""
    g = Graph.from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (3, 5), (4, 5)]
    )
    with settled(g, {0: 0, 1: 0, 2: 1, 4: 1, 3: 2, 5: 2}, 3) as cluster:
        cluster.graph.remove_vertex(0)
        assert cluster.drop_vertex(0) == {0, 1, 2}
        assert all(0 not in w.cut for w in cluster.workers)
        assert 0 not in cluster.index.col and 0 not in cluster.partition.assignment
        assert [w.n_cols for w in cluster.workers] == [5, 5, 5]
        check_cluster_invariants(cluster)

"""Incremental CSR cache: bitwise-faithful, correctly invalidated.

``Graph.to_csr`` caches its last export and serves later calls
incrementally: a clean re-export returns the cached view object, a
prefix-extending order after vertex additions splices only the new and
dirty rows, and deletions (or any non-prefix order) fall back to a full
rebuild.  Every cached path must produce a matrix bitwise-identical to
a from-scratch build, and views handed out earlier must stay frozen
snapshots.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import VertexNotFound
from repro.graph import Graph, barabasi_albert


def fresh_bits(g: Graph, order):
    """Fingerprint of a from-scratch CSR build (via an uncached copy)."""
    view = g.copy().to_csr(list(order))
    return view_bits(view)


def view_bits(view):
    m = view.matrix
    return (
        m.shape,
        m.indptr.dtype,
        m.indices.dtype,
        m.data.dtype,
        m.indptr.tobytes(),
        m.indices.tobytes(),
        m.data.tobytes(),
        list(view.order),
    )


def sample_graph(n=30, seed=0):
    return barabasi_albert(n, 2, seed=seed)


class TestCacheHit:
    def test_unchanged_graph_returns_same_object(self):
        g = sample_graph()
        order = g.vertex_list()
        assert g.to_csr(order) is g.to_csr(order)

    def test_default_order_also_cached(self):
        g = sample_graph()
        assert g.to_csr() is g.to_csr()

    def test_mutation_before_first_export_costs_nothing(self):
        g = sample_graph()
        # no cache yet: mutations must not accumulate tracking state
        g.add_vertex(100)
        g.add_edge(100, 0, 2.0)
        assert g._csr_dirty == set()
        assert g._csr_added == set()


class TestIncrementalExtension:
    def test_vertex_additions_extend_incrementally(self):
        g = sample_graph()
        v0 = g.to_csr()
        g.add_vertex(100)
        g.add_vertex(101)
        g.add_edge(100, 3, 1.5)
        g.add_edge(100, 101, 2.5)
        g.add_edge(0, 7, 4.0)  # edge among pre-existing vertices too
        order = g.vertex_list()
        v1 = g.to_csr(order)
        assert v1 is not v0
        assert view_bits(v1) == fresh_bits(g, order)

    def test_extension_then_cache_hit(self):
        g = sample_graph()
        g.to_csr()
        g.add_vertex(100)
        g.add_edge(100, 0, 1.0)
        order = g.vertex_list()
        v1 = g.to_csr(order)
        assert g.to_csr(order) is v1

    def test_repeated_extensions(self):
        g = sample_graph()
        g.to_csr()
        for step in range(3):
            v = 100 + step
            g.add_vertex(v)
            g.add_edge(v, step, 1.0 + step)
            order = g.vertex_list()
            assert view_bits(g.to_csr(order)) == fresh_bits(g, order)

    def test_weight_overwrite_marks_dirty(self):
        g = sample_graph()
        g.to_csr()
        u, v, _ = next(g.edges())
        g.add_edge(u, v, 9.25)  # overwrite weight
        order = g.vertex_list()
        assert view_bits(g.to_csr(order)) == fresh_bits(g, order)


class TestInvalidation:
    def test_edge_deletion_drops_cache(self):
        g = sample_graph()
        order = g.vertex_list()
        v0 = g.to_csr(order)
        u, v, _ = next(g.edges())
        g.remove_edge(u, v)
        v1 = g.to_csr(order)
        assert v1 is not v0
        assert view_bits(v1) == fresh_bits(g, order)

    def test_vertex_deletion_drops_cache(self):
        g = sample_graph()
        g.to_csr()
        g.remove_vertex(5)
        order = g.vertex_list()
        assert view_bits(g.to_csr(order)) == fresh_bits(g, order)

    def test_repartition_order_change_rebuilds(self):
        # a repartition presents the same vertices in a different order:
        # the cached prefix no longer applies and the rebuild must be exact
        g = sample_graph()
        g.to_csr(g.vertex_list())
        moved = list(reversed(g.vertex_list()))
        assert view_bits(g.to_csr(moved)) == fresh_bits(g, moved)

    def test_subset_order_rebuilds(self):
        g = sample_graph()
        g.to_csr()
        sub = g.vertex_list()[:10]
        assert view_bits(g.to_csr(sub)) == fresh_bits(g, sub)

    def test_old_vertex_in_new_position_rebuilds(self):
        # an existing vertex appended out of prefix order must not be
        # mistaken for an incremental extension
        g = sample_graph()
        order = g.vertex_list()
        g.to_csr(order[:-1])
        rotated = order[1:] + order[:1]
        assert view_bits(g.to_csr(rotated)) == fresh_bits(g, rotated)

    def test_copy_starts_cold(self):
        g = sample_graph()
        v0 = g.to_csr()
        h = g.copy()
        assert h._csr_cache is None
        assert view_bits(h.to_csr()) == view_bits(v0)


class TestSnapshotSafety:
    def test_stale_view_not_poisoned_by_extension(self):
        g = sample_graph()
        v0 = g.to_csr()
        snap = view_bits(v0)
        g.add_vertex(100)
        g.add_edge(100, 0, 1.0)
        g.add_edge(2, 9, 3.0)
        g.to_csr(g.vertex_list())  # incremental rebuild
        assert view_bits(v0) == snap

    def test_stale_view_not_poisoned_by_deletion(self):
        g = sample_graph()
        v0 = g.to_csr()
        snap = view_bits(v0)
        u, v, _ = next(g.edges())
        g.remove_edge(u, v)
        g.to_csr()
        assert view_bits(v0) == snap


class TestErrorBehavior:
    def test_duplicate_order_rejected_with_warm_cache(self):
        g = sample_graph()
        g.to_csr()
        with pytest.raises(ValueError):
            g.to_csr([0, 0, 1])

    def test_missing_vertex_rejected_with_warm_cache(self):
        g = sample_graph()
        order = g.vertex_list()
        g.to_csr(order)
        with pytest.raises(VertexNotFound):
            g.to_csr(order + [99999])
        # the failed call must not have corrupted the cache
        assert view_bits(g.to_csr(order)) == fresh_bits(g, order)


@st.composite
def mutation_scripts(draw):
    """A short script of cache-relevant operations on a small graph."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["export", "add_vertex", "add_edge", "remove_edge", "remove_vertex"]
                ),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return ops


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(seed=st.integers(0, 50), script=mutation_scripts())
def test_cache_always_matches_fresh_build(seed, script):
    """Any interleaving of mutations and exports stays bitwise-exact."""
    g = sample_graph(n=12, seed=seed % 5)
    next_id = g.num_vertices
    g.to_csr()  # warm the cache so tracking is active
    for op, a, b, w in script:
        vs = g.vertex_list()
        if op == "export":
            order = g.vertex_list()
            assert view_bits(g.to_csr(order)) == fresh_bits(g, order)
        elif op == "add_vertex":
            g.add_vertex(next_id)
            # keep it reachable so later edge ops have targets
            g.add_edge(next_id, vs[a % len(vs)], float(w))
            next_id += 1
        elif op == "add_edge":
            u, v = vs[a % len(vs)], vs[b % len(vs)]
            if u != v:
                g.add_edge(u, v, float(w))
        elif op == "remove_edge":
            edges = g.edge_list()
            if edges:
                u, v, _ = edges[a % len(edges)]
                g.remove_edge(u, v)
        elif op == "remove_vertex":
            if len(vs) > 2:
                g.remove_vertex(vs[a % len(vs)])
    order = g.vertex_list()
    assert view_bits(g.to_csr(order)) == fresh_bits(g, order)

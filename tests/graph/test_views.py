"""Tests for sub-graph views and local-subgraph extraction (DD support)."""

import pytest

from repro.graph import Graph, extract_local_subgraph, induced_subgraph

from ..conftest import complete_graph, path_graph


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = path_graph(5)
        sub = induced_subgraph(g, [1, 2, 3])
        assert sub.vertex_list() == [1, 2, 3]
        assert sub.has_edge(1, 2) and sub.has_edge(2, 3)
        assert sub.num_edges == 2

    def test_weights_preserved(self):
        g = Graph.from_edges([(0, 1, 3.5), (1, 2, 1.5)])
        sub = induced_subgraph(g, [0, 1])
        assert sub.weight(0, 1) == 3.5

    def test_empty_selection(self):
        assert induced_subgraph(path_graph(3), []).num_vertices == 0


class TestExtractLocalSubgraph:
    def owner_map(self):
        # 0,1 -> rank 0; 2,3 -> rank 1
        return {0: 0, 1: 0, 2: 1, 3: 1}

    def test_internal_structure(self):
        g = path_graph(4)
        sub = extract_local_subgraph(g, [0, 1], self.owner_map(), 0)
        assert sub.owned == [0, 1]
        assert sub.local_graph.has_edge(0, 1)
        assert sub.local_graph.num_edges == 1

    def test_cut_edges_and_boundaries(self):
        g = path_graph(4)
        sub = extract_local_subgraph(g, [0, 1], self.owner_map(), 0)
        assert sub.cut_edges == [(1, 2, 1.0)]
        # every cut edge once from the local side, in owned-vertex order
        sub = extract_local_subgraph(complete_graph(4), [0, 1], self.owner_map(), 0)
        assert sorted(sub.cut_edges) == [
            (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)
        ]
        assert [u for u, _x, _w in sub.cut_edges] == [0, 0, 1, 1]

    def test_inconsistent_assignment_detected(self):
        g = path_graph(3)
        # vertex 1 claims rank 0 in the map but is not in the owned list
        with pytest.raises(ValueError):
            extract_local_subgraph(g, [0], {0: 0, 1: 0, 2: 1}, 0)

    def test_isolated_block(self):
        g = path_graph(4)
        g.add_vertex(9)
        owner = {**self.owner_map(), 9: 0}
        sub = extract_local_subgraph(g, [0, 1, 9], owner, 0)
        assert 9 in sub.owned
        assert sub.local_graph.degree(9) == 0

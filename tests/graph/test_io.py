"""Round-trip tests for graph IO."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    barabasi_albert,
    read_edge_list,
    read_pajek,
    write_edge_list,
    write_pajek,
)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = barabasi_albert(40, 2, seed=0)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        assert read_edge_list(p) == g

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph.from_edges([(0, 1)], vertices=[5])
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert h.has_vertex(5)
        assert h.degree(5) == 0

    def test_weights_exact(self, tmp_path):
        g = Graph.from_edges([(0, 1, 0.1234567890123)])
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        assert read_edge_list(p).weight(0, 1) == 0.1234567890123

    def test_comments_and_unweighted_lines(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n0 1\n1 2 3.5\n")
        g = read_edge_list(p)
        assert g.weight(0, 1) == 1.0
        assert g.weight(1, 2) == 3.5

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            read_edge_list(p)


class TestPajek:
    def test_roundtrip(self, tmp_path):
        g = barabasi_albert(30, 2, seed=1)
        p = tmp_path / "g.net"
        write_pajek(g, p)
        assert read_pajek(p) == g

    def test_noncontiguous_ids(self, tmp_path):
        g = Graph.from_edges([(5, 100, 2.0)])
        p = tmp_path / "g.net"
        write_pajek(g, p)
        h = read_pajek(p)
        assert h.weight(5, 100) == 2.0

    def test_external_pajek_without_labels(self, tmp_path):
        p = tmp_path / "g.net"
        p.write_text("*Vertices 3\n1\n2\n3\n*Edges\n1 2\n2 3 2.0\n")
        g = read_pajek(p)
        assert g.vertex_list() == [0, 1, 2]
        assert g.weight(1, 2) == 2.0

    def test_malformed_edge(self, tmp_path):
        p = tmp_path / "g.net"
        p.write_text("*Edges\n1\n")
        with pytest.raises(GraphError):
            read_pajek(p)

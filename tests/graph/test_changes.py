"""Tests for change events, batches, and streams."""

import pytest

from repro.errors import ChangeStreamError
from repro.graph import (
    ChangeBatch,
    ChangeStream,
    Graph,
    batch_from_subgraph,
)
from repro.graph.changes import (
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
)

from ..conftest import path_graph


def simple_batch():
    return ChangeBatch(
        vertex_additions=[
            VertexAddition(10, edges=((0, 1.0), (11, 2.0))),
            VertexAddition(11, edges=((1, 1.0),)),
        ]
    )


class TestChangeBatch:
    def test_bool_and_count(self):
        assert not ChangeBatch()
        b = simple_batch()
        assert b
        assert b.num_events == 2

    def test_new_vertex_ids(self):
        assert simple_batch().new_vertex_ids() == [10, 11]

    def test_new_vertex_graph_only_intra_edges(self):
        g = simple_batch().new_vertex_graph()
        assert g.vertex_list() == [10, 11]
        assert g.has_edge(10, 11)
        assert g.num_edges == 1  # the edges to 0 and 1 are attachments

    def test_apply_to(self):
        g = path_graph(3)
        simple_batch().apply_to(g)
        assert g.has_vertex(10) and g.has_vertex(11)
        assert g.weight(10, 11) == 2.0
        assert g.has_edge(10, 0)
        assert g.has_edge(11, 1)

    def test_apply_mixed(self):
        g = path_graph(4)
        batch = ChangeBatch(
            edge_additions=[EdgeAddition(0, 3, 5.0)],
            edge_deletions=[EdgeDeletion(1, 2)],
            edge_reweights=[EdgeReweight(0, 1, 9.0)],
            vertex_deletions=[VertexDeletion(3)],
        )
        batch.apply_to(g)
        assert not g.has_edge(1, 2)
        assert g.weight(0, 1) == 9.0
        assert not g.has_vertex(3)


#: batches :meth:`ChangeBatch.validate` must reject against ``path_graph(3)``
INVALID = {
    "nan-reweight": ChangeBatch(edge_reweights=[EdgeReweight(0, 1, float("nan"))]),
    "inf-reweight": ChangeBatch(edge_reweights=[EdgeReweight(0, 1, float("inf"))]),
    "zero-reweight": ChangeBatch(edge_reweights=[EdgeReweight(0, 1, 0.0)]),
    "inf-addition": ChangeBatch(edge_additions=[EdgeAddition(0, 1, float("inf"))]),
    "nan-addition": ChangeBatch(edge_additions=[EdgeAddition(0, 2, float("nan"))]),
    "negative-addition": ChangeBatch(edge_additions=[EdgeAddition(0, 2, -1.0)]),
    "inf-new-vertex-edge": ChangeBatch(
        vertex_additions=[VertexAddition(10, ((0, float("inf")),))]
    ),
    "self-loop-after-a-valid-addition": ChangeBatch(
        edge_additions=[EdgeAddition(0, 2, 1.0), EdgeAddition(1, 1, 1.0)]
    ),
    "missing-vertex-after-an-addition": ChangeBatch(
        edge_additions=[EdgeAddition(0, 2, 1.0)], vertex_deletions=[VertexDeletion(999)]
    ),
    "vertex-deleted-twice": ChangeBatch(
        vertex_deletions=[VertexDeletion(1), VertexDeletion(1)]
    ),
    "edge-deleted-twice": ChangeBatch(
        edge_deletions=[EdgeDeletion(0, 1), EdgeDeletion(1, 0)]
    ),
    "reweight-of-a-deleted-edge": ChangeBatch(
        edge_deletions=[EdgeDeletion(0, 1)], edge_reweights=[EdgeReweight(0, 1, 2.0)]
    ),
}


class TestValidation:
    def test_valid_batch_passes(self):
        simple_batch().validate(path_graph(3))

    def test_collision_with_existing_vertex(self):
        batch = ChangeBatch(vertex_additions=[VertexAddition(1)])
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_duplicate_new_vertex(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10), VertexAddition(10)]
        )
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_edge_to_unknown_target(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10, edges=((99, 1.0),))]
        )
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_self_loop_on_new_vertex(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10, edges=((10, 1.0),))]
        )
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_nonpositive_weight(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10, edges=((0, -1.0),))]
        )
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_delete_missing_edge(self):
        batch = ChangeBatch(edge_deletions=[EdgeDeletion(0, 2)])
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_delete_missing_vertex(self):
        batch = ChangeBatch(vertex_deletions=[VertexDeletion(42)])
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    def test_edge_addition_to_batch_vertex_ok(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10)],
            edge_additions=[EdgeAddition(0, 10)],
        )
        batch.validate(path_graph(3))

    def test_reweight_missing_edge(self):
        batch = ChangeBatch(edge_reweights=[EdgeReweight(0, 2, 1.0)])
        with pytest.raises(ChangeStreamError):
            batch.validate(path_graph(3))

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_whole_batch_is_rejected(self, name):
        with pytest.raises(ChangeStreamError):
            INVALID[name].validate(path_graph(3))

    def test_batch_may_delete_and_reweight_what_it_adds(self):
        batch = ChangeBatch(
            vertex_additions=[VertexAddition(10, ((0, 1.0),))],
            edge_additions=[EdgeAddition(0, 2, 1.0), EdgeAddition(10, 2, 1.0)],
            edge_deletions=[EdgeDeletion(2, 0)],
            edge_reweights=[EdgeReweight(10, 0, 3.0)],
            vertex_deletions=[VertexDeletion(10)],
        )
        batch.validate(path_graph(3))


class TestChangeStream:
    def test_schedule_and_lookup(self):
        s = ChangeStream()
        s.schedule(3, simple_batch())
        assert s.at_step(3) is not None
        assert s.at_step(2) is None
        assert s.steps() == [3]
        assert s.last_step == 3

    def test_double_schedule_rejected(self):
        s = ChangeStream()
        s.schedule(1, simple_batch())
        with pytest.raises(ChangeStreamError):
            s.schedule(1, simple_batch())

    def test_negative_step_rejected(self):
        with pytest.raises(ChangeStreamError):
            ChangeStream().schedule(-1, simple_batch())

    def test_iteration_sorted(self):
        s = ChangeStream({5: simple_batch(), 1: ChangeBatch()})
        assert [step for step, _b in s] == [1, 5]

    def test_empty_stream(self):
        s = ChangeStream()
        assert not s
        assert s.last_step == -1
        assert s.total_events() == 0

    def test_total_events(self):
        s = ChangeStream({0: simple_batch(), 4: simple_batch()})
        assert s.total_events() == 4


class TestBatchFromSubgraph:
    def test_intra_edges_recorded_once(self):
        newg = Graph.from_edges([(10, 11), (11, 12)])
        batch = batch_from_subgraph(newg)
        total_edges = sum(len(va.edges) for va in batch.vertex_additions)
        assert total_edges == 2

    def test_attachments(self):
        newg = Graph.from_edges([(10, 11)])
        batch = batch_from_subgraph(newg, [(10, 0, 2.0)])
        va10 = next(v for v in batch.vertex_additions if v.vertex == 10)
        assert (0, 2.0) in va10.edges

    def test_unknown_attachment_source(self):
        newg = Graph.from_edges([(10, 11)])
        with pytest.raises(ChangeStreamError):
            batch_from_subgraph(newg, [(99, 0, 1.0)])

    def test_roundtrip_application(self):
        base = path_graph(3)
        newg = Graph.from_edges([(10, 11, 2.0)])
        batch = batch_from_subgraph(newg, [(10, 1, 1.0)])
        batch.validate(base)
        batch.apply_to(base)
        assert base.weight(10, 11) == 2.0
        assert base.has_edge(10, 1)

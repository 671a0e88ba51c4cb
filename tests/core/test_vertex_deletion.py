"""Vertex deletion (the paper's future work, implemented) correctness."""

import pytest

from repro import ChangeStream
from repro.graph import ChangeBatch, barabasi_albert
from repro.graph.changes import VertexAddition, VertexDeletion

from ..conftest import cycle_graph, path_graph, run_and_verify, star_graph
from ..test_harness import FIXED, assert_backend_invariant


def deletion_stream(step, *vertices):
    return ChangeStream(
        {step: ChangeBatch(vertex_deletions=[VertexDeletion(v) for v in vertices])}
    )


def apply_deletions(graph, *vertices):
    final = graph.copy()
    for v in vertices:
        final.remove_vertex(v)
    return final


@pytest.mark.parametrize("victim", [0, 5, 11])
def test_delete_on_cycle(victim):
    g = cycle_graph(12)
    run_and_verify(
        g,
        changes=deletion_stream(1, victim),
        final=apply_deletions(g, victim),
        nprocs=3,
    )


def test_delete_articulation_vertex():
    g = path_graph(9)
    run_and_verify(
        g,
        changes=deletion_stream(1, 4),
        final=apply_deletions(g, 4),
        nprocs=3,
    )


def test_delete_hub_of_star():
    g = star_graph(8)
    run_and_verify(
        g,
        changes=deletion_stream(1, 0),
        final=apply_deletions(g, 0),
        nprocs=3,
    )


def test_delete_high_degree_scale_free():
    g = barabasi_albert(70, 3, seed=2)
    hub = max(g.vertices(), key=g.degree)
    run_and_verify(
        g,
        changes=deletion_stream(2, hub),
        final=apply_deletions(g, hub),
        nprocs=4,
    )


def test_delete_multiple_vertices():
    g = barabasi_albert(60, 2, seed=3)
    run_and_verify(
        g,
        changes=deletion_stream(1, 10, 20, 30),
        final=apply_deletions(g, 10, 20, 30),
        nprocs=4,
    )


def test_delete_isolated_vertex():
    g = path_graph(6)
    g.add_vertex(99)
    run_and_verify(
        g,
        changes=deletion_stream(1, 99),
        final=apply_deletions(g, 99),
        nprocs=2,
    )


def test_add_then_delete_same_vertex():
    g = barabasi_albert(40, 2, seed=4)
    stream = ChangeStream(
        {
            1: ChangeBatch(
                vertex_additions=[VertexAddition(100, edges=((0, 1.0), (5, 1.0)))]
            ),
            3: ChangeBatch(vertex_deletions=[VertexDeletion(100)]),
        }
    )
    run_and_verify(g, changes=stream, final=g.copy(), nprocs=4)


def test_delete_then_grow_elsewhere():
    g = barabasi_albert(40, 2, seed=5)
    final = apply_deletions(g, 7)
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(200, edges=((3, 1.0),))]
    )
    batch.apply_to(final)
    stream = ChangeStream(
        {
            1: ChangeBatch(vertex_deletions=[VertexDeletion(7)]),
            3: batch,
        }
    )
    run_and_verify(g, changes=stream, final=final, nprocs=4)


def test_mixed_stream_with_vertex_deletions_is_backend_and_tier_invariant():
    """Vertex deletions (row and column leave ``dv`` and both masks
    together) between edge deletions, reweights and additions — the
    harness's ``vertex-deletions`` stream: same bits on serial and process,
    same closeness under a speculated straggler on either."""
    assert_backend_invariant(FIXED["vertex-deletions"])

"""Anywhere edge addition (Santos et al. 2016 [9]) — shared machinery.

Adding a batch of edges ``(a, b, w)``:

1. the owners of ``a`` and ``b`` broadcast their current DV rows
   (binomial tree, Fig. 3 line 22), read once per endpoint at the start
   of the batch; the Fig. 3 line-26 guard (``d(a, b) > w`` on those rows)
   decides whether any edge can shorten a path now,
2. if one can, the coordinator closes the batch as a sub-graph over the
   endpoints ``H`` of *every* applied edge: the ``|H| x |H|`` distances
   ``C = min(w, row_a(b), row_b(a))`` (zero diagonal), closed by
   Floyd-Warshall.  An edge that fails the guard stays in ``H``: the
   rows are upper bounds, and a path through it and through an edge
   that passes can be shorter than anything they hold — the per-edge
   sequence finds such a path, so the closure must too,
3. every processor relaxes all of its rows through the closure:
   ``d(x,t) <- min(d(x,t), min_h (d(x,.) (+) closure)(h) + row_h(t))``
   (Fig. 3 lines 26-34 for every edge at once).  The closure holds every
   path through the batch's edges, so the bound is no looser than
   relaxing the edges one at a time (``tests/edge_reference.py``), and
   the modeled cost charges the edges that passed the guard,
4. each edge joins the owning sub-graph(s): an intra-partition edge repairs
   the owner's local APSP incrementally; a cut edge registers on both
   sides and opens DV-row subscriptions (Fig. 3 lines 35-42).

The vertex-addition strategy passes every edge of its batch in one call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

import numpy as np

from ...graph.changes import ChangeBatch
from ...types import FloatArray, VertexId
from .base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["apply_edge_addition", "EdgeAdditionStrategy"]

Edge = Tuple[VertexId, VertexId, float]


def apply_edge_addition(cluster: "Cluster", edges: Iterable[Edge]) -> None:
    """Incorporate a batch of new edges into the running computation."""
    applied: List[Edge] = []
    for a, b, w in edges:
        # parallel edges collapse to the lighter one; a heavier duplicate
        # changes nothing (weight *increases* must go through the deletion
        # path, which re-validates affected distances)
        if cluster.graph.has_edge(a, b) and w >= cluster.graph.weight(a, b):
            continue
        cluster.graph.add_edge(a, b, w)
        applied.append((a, b, w))
    rows: Dict[VertexId, FloatArray] = {}
    relaxed: List[Edge] = []
    for a, b, w in applied:
        row_a = rows.setdefault(a, cluster.broadcast_row(a))
        rows.setdefault(b, cluster.broadcast_row(b))
        # Fig. 3 line 26 guard, on the rows at the start of the batch: if
        # d(a, b) is already no worse than the new edge, no path through
        # it can improve anything *now*; the edge still joins the
        # structure below, so any future improvements route through it
        # during normal RC propagation
        if row_a[cluster.index.column(b)] > w:
            relaxed.append((a, b, w))
    if relaxed:
        # the closure runs over every applied edge: one that fails the
        # guard can still carry a path through one that passes it
        ends = list(dict.fromkeys(v for a, b, _w in applied for v in (a, b)))
        cols = np.array(cluster.index.columns(ends), dtype=np.intp)
        block = np.stack([rows.pop(v) for v in ends])  # one copy lives on
        closure = _closure(block[:, cols], ends, applied)
        for worker in cluster.workers:
            worker.relax_with_edge_rows(cols, closure, block, len(relaxed))
    # structural bookkeeping (Fig. 3 lines 35-42)
    for a, b, w in applied:
        rank_a = cluster.owner_of(a)
        rank_b = cluster.owner_of(b)
        if rank_a == rank_b:
            cluster.workers[rank_a].add_local_edge(a, b, w)
        else:
            wa, wb = cluster.workers[rank_a], cluster.workers[rank_b]
            wa.add_cut_edge(a, b, w)
            wb.add_cut_edge(b, a, w)
            # each side now needs the other's row stream
            wa.subscribe(a, rank_b)
            wb.subscribe(b, rank_a)


def _closure(
    between: FloatArray, ends: List[VertexId], edges: List[Edge]
) -> FloatArray:
    """Closed distances among ``ends`` through ``edges`` and the DV
    distances ``between[i, j] = row_i(j)`` (Floyd-Warshall)."""
    pos = {v: i for i, v in enumerate(ends)}
    dist = np.minimum(between, between.T)
    for a, b, w in edges:
        i, j = pos[a], pos[b]
        dist[i, j] = dist[j, i] = min(dist[i, j], w)
    np.fill_diagonal(dist, 0.0)
    for k in range(len(ends)):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


class EdgeAdditionStrategy(DynamicStrategy):
    """Dynamic strategy handling batches of edge additions [9]."""

    name = "edge-addition"

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        if batch.vertex_additions or batch.vertex_deletions:
            raise ValueError(
                "EdgeAdditionStrategy only handles edge additions; use the"
                " vertex-addition strategies for vertex changes"
            )
        if batch.edge_deletions or batch.edge_reweights:
            raise ValueError(
                "EdgeAdditionStrategy cannot handle deletions/reweights"
            )
        apply_edge_addition(
            cluster, [(ea.u, ea.v, ea.weight) for ea in batch.edge_additions]
        )
        cluster.sync_compute()

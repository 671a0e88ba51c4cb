"""Anywhere vertex deletion — the paper's stated future work, implemented.

Deleting vertex ``x``:

1. the owner broadcasts ``x``'s current DV row; every worker resets DV
   entries *witnessed through* ``x``
   (``d(a,x) + d(x,b) == d(a,b)``),
2. all structure referencing ``x`` is removed: its global-index column is
   compacted out of every DV, its row/local edges leave the owner, cut
   edges to it leave the neighbors, and the global graph drops it,
3. local APSPs are repaired and boundary rows re-queued, after which the
   next (full) fold and the RC iterations re-derive the risen entries (see
   :mod:`.edge_deletion`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from ...graph.changes import ChangeBatch
from ...types import Rank, VertexId
from .base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["apply_vertex_deletion", "VertexDeletionStrategy"]


def apply_vertex_deletion(cluster: "Cluster", x: VertexId) -> None:
    """Remove vertex ``x`` (and its edges) from the running computation."""
    owner_rank = cluster.owner_of(x)
    owner = cluster.workers[owner_rank]
    row_x = cluster.broadcast_row(x)

    # phase 1: invalidate entries routed through x
    for worker in cluster.workers:
        worker.invalidate_through_vertex(x, row_x)
        worker.clear_external_rows()

    # phase 2: structural removal
    removed_edges = cluster.graph.remove_vertex(x)
    neighbor_ranks: Set[Rank] = set()
    for _x, t, _w in removed_edges:
        neighbor_ranks.add(cluster.owner_of(t))
    owner.remove_local_vertex(x)
    for r in sorted(neighbor_ranks):
        if r != owner_rank:
            cluster.workers[r].drop_external_vertex(x)
    col = cluster.index.remove(x)
    for worker in cluster.workers:
        worker.remove_column(col)
    if cluster.partition is not None:
        del cluster.partition.assignment[x]

    # phase 3: repair and refresh
    for worker in cluster.workers:
        if worker.rank == owner_rank or worker.rank in neighbor_ranks:
            worker.recompute_local_apsp()
        else:
            worker.restore_local_baseline()
        worker.queue_all_boundary_rows()


class VertexDeletionStrategy(DynamicStrategy):
    """Dynamic strategy for batches of vertex deletions."""

    name = "vertex-deletion"

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        if (
            batch.vertex_additions
            or batch.edge_additions
            or batch.edge_deletions
            or batch.edge_reweights
        ):
            raise ValueError("VertexDeletionStrategy handles deletions only")
        for vd in batch.vertex_deletions:
            apply_vertex_deletion(cluster, vd.vertex)
        cluster.sync_compute()

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

from typing import TYPE_CHECKING

from ...graph.changes import ChangeBatch
from ...types import VertexId
from .base import DynamicStrategy
from .edge_deletion import repair_after_deletion

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["apply_vertex_deletion", "VertexDeletionStrategy"]


def apply_vertex_deletion(cluster: "Cluster", x: VertexId) -> None:
    """Remove vertex ``x`` (and its edges) from the running computation."""
    row_x = cluster.broadcast_row(x)

    # phase 1: invalidate entries routed through x
    for worker in cluster.workers:
        worker.invalidate_through_vertex(x, row_x)
        worker.clear_external_rows()

    # phase 2: structural removal
    cluster.graph.remove_vertex(x)
    recompute = cluster.drop_vertex(x)

    # phase 3: repair and refresh
    repair_after_deletion(cluster, recompute)


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

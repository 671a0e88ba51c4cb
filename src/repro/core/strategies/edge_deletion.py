"""Anywhere edge deletion (Santos et al. 2016 [10]-style).

Deleting edge ``(u, v, w)`` can only *increase* distances, which breaks the
monotone-decrease discipline the DVR refinement relies on.  The strategy
therefore runs a two-phase protocol:

1. **Invalidate** — owners broadcast the pre-deletion rows of ``u`` and
   ``v``; every worker resets to +inf each DV entry whose value is
   *witnessed* by a path through the deleted edge
   (``d(x,u) + w + d(v,t) == d(x,t)`` in either orientation).  Entries not
   witnessed keep their values: some shortest path avoids the edge.
   Stored external rows are dropped wholesale — they may embed the edge.
2. **Repair** — the owning worker(s) repair local structure (local APSP
   recomputation for an intra-partition deletion; cut-edge deregistration
   otherwise) and every owner re-queues its boundary rows.  The next fold
   is a full one: it re-derives the block from every local source.  The
   normal RC iterations then bring in what only other ranks know.

Edge *reweights* route through here too: a weight decrease is just an edge
addition (relax-only), a weight increase is delete-then-add.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container

from ...graph.changes import ChangeBatch
from ...types import Rank, VertexId
from .base import DynamicStrategy
from .edge_addition import apply_edge_addition

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["apply_edge_deletion", "EdgeDeletionStrategy"]


def apply_edge_deletion(cluster: "Cluster", u: VertexId, v: VertexId) -> None:
    """Remove edge ``(u, v)`` and invalidate dependent distances."""
    w = cluster.graph.weight(u, v)
    row_u = cluster.broadcast_row(u)
    row_v = cluster.broadcast_row(v)

    cluster.graph.remove_edge(u, v)

    # phase 1: invalidate witnessed entries everywhere
    for worker in cluster.workers:
        worker.invalidate_for_deleted_edge(u, row_u, v, row_v, w)
        worker.clear_external_rows()

    # phase 2: structural repair
    repair_after_deletion(cluster, cluster.unlink_edge(u, v))


def repair_after_deletion(cluster: "Cluster", recompute: Container[Rank]) -> None:
    """The repair tail of every deletion: the ranks in ``recompute``
    (their local structure changed) rerun their local APSP, every other
    rank re-applies its own, since invalidation may have wiped locally
    exact entries; each schedules a full fold and re-queues its boundary
    rows for a dense refresh."""
    for worker in cluster.workers:
        if worker.rank in recompute:
            worker.recompute_local_apsp()
        else:
            worker.restore_local_baseline()
        worker.queue_all_boundary_rows()


class EdgeDeletionStrategy(DynamicStrategy):
    """Dynamic strategy for batches of edge deletions and reweights."""

    name = "edge-deletion"

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        if batch.vertex_additions or batch.vertex_deletions:
            raise ValueError(
                "EdgeDeletionStrategy handles edge deletions/reweights only"
            )
        # additions first, as the composite applies a batch and as
        # ``ChangeBatch.validate`` checks it: a batch may delete what it adds
        apply_edge_addition(
            cluster, [(ea.u, ea.v, ea.weight) for ea in batch.edge_additions]
        )
        for ed in batch.edge_deletions:
            apply_edge_deletion(cluster, ed.u, ed.v)
        for er in batch.edge_reweights:
            old = cluster.graph.weight(er.u, er.v)
            if er.weight > old:
                apply_edge_deletion(cluster, er.u, er.v)
            if er.weight != old:
                apply_edge_addition(cluster, [(er.u, er.v, er.weight)])
        cluster.sync_compute()

"""Anywhere vertex addition (paper Fig. 2 and Fig. 3).

The strategy template of Fig. 2:

1. read the dynamic-changes input (the :class:`ChangeBatch`),
2. perform the processor *placement* strategy,
3. perform the vertex *addition* strategy:

   a. every worker's DV grows a column per new vertex; the owning worker
      adds a row (Fig. 3 lines 10-18),
   b. the batch's new edges run the anywhere edge-addition relaxation
      with tree-broadcast endpoint rows, as one batch (Fig. 3 lines 19-44).

The partition's assignment map is extended with the new vertices; existing
vertices are never migrated (the paper defers migration to Repartition-S).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...errors import ChangeStreamError
from ...graph.changes import ChangeBatch
from .base import DynamicStrategy, ProcessorAssignmentStrategy
from .edge_addition import apply_edge_addition

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["VertexAdditionStrategy"]


class VertexAdditionStrategy(DynamicStrategy):
    """Anywhere vertex addition driven by a placement strategy."""

    def __init__(self, placement: ProcessorAssignmentStrategy) -> None:
        self.placement = placement
        self.name = f"vertex-addition[{placement.name}]"

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        if batch.edge_deletions or batch.edge_reweights or batch.vertex_deletions:
            raise ChangeStreamError(
                "VertexAdditionStrategy handles additions only; route"
                " deletions through the deletion strategies"
            )
        # ---- placement (Fig. 2 line 2) --------------------------------
        placement = self.placement.assign(batch, cluster)
        new_ids = batch.new_vertex_ids()
        missing = [v for v in new_ids if v not in placement]
        if missing:
            raise ChangeStreamError(
                f"placement strategy left vertices unassigned: {missing[:5]}"
            )

        # ---- add vertices (Fig. 3 lines 10-18) ------------------------
        for va in batch.vertex_additions:
            cluster.graph.add_vertex(va.vertex)
        cluster.add_vertex_columns(new_ids)
        if cluster.partition is not None and new_ids:
            cluster.partition = cluster.partition.merge_assignments(
                {v: placement[v] for v in new_ids}
            )
        for v in new_ids:
            cluster.workers[placement[v]].add_local_vertex(v)
        cluster.sync_compute()

        # ---- add edges (Fig. 3 lines 19-44) ---------------------------
        apply_edge_addition(cluster, [
            *((va.vertex, t, w) for va in batch.vertex_additions for t, w in va.edges),
            *((ea.u, ea.v, ea.weight) for ea in batch.edge_additions),
        ])
        cluster.sync_compute()

"""Repartition-S (§IV.C.1.b): absorb large batches by repartitioning.

For large batches the per-edge anywhere relaxations become more expensive
than starting the placement over.  Repartition-S:

1. applies the batch to the global graph,
2. repartitions the *entire* grown graph with the DD partitioner,
3. migrates every existing vertex's DV row to its (possibly new) owner —
   this is the anytime reuse that separates Repartition-S from a restart:
   all partial shortest-path results survive,
4. rebuilds local sub-graphs / local APSPs and lets the RC loop converge
   (new vertices' rows start at +inf, which is why the paper notes
   Repartition-S "can lead to additional RC steps").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ...graph.changes import ChangeBatch
from ...partition.base import Partitioner
from ...partition.multilevel import MultilevelPartitioner
from ...types import Rank
from .base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["RepartitionStrategy"]


class RepartitionStrategy(DynamicStrategy):
    """Full-graph repartitioning with partial-result migration."""

    name = "repartition"

    def __init__(self, partitioner: Optional[Partitioner] = None) -> None:
        self.partitioner = partitioner or MultilevelPartitioner(seed=2)

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        batch.validate(cluster.graph)
        if batch.edge_deletions or batch.edge_reweights or batch.vertex_deletions:
            # removals invalidate DV upper bounds; they are handled by the
            # deletion strategies before repartitioning would make sense
            raise ValueError("RepartitionStrategy handles additions only")
        old_assignment = (
            dict(cluster.partition.assignment) if cluster.partition else {}
        )

        # 1. grow the global graph and every DV by the new columns
        new_ids = batch.new_vertex_ids()
        batch.apply_to(cluster.graph)
        cluster.add_vertex_columns(new_ids)
        cluster.sync_compute()

        # 2. repartition the whole graph (parallel, like the DD phase)
        part = self.partitioner.partition(cluster.graph, cluster.nprocs)
        part.validate_against(cluster.graph)
        n, m = cluster.graph.num_vertices, cluster.graph.num_edges
        cluster.tracer.add_compute(
            cluster.cost.partition_time(n, 2 * m, cluster.nprocs)
            / cluster.nprocs
        )

        # 3. migrate partial results: every existing vertex's DV row moves
        #    from its old owner to its new owner (anytime reuse)
        n_cols = cluster.n_columns
        migration: Dict[Tuple[Rank, Rank], int] = {}
        moved = 0
        for v, new_owner in part.assignment.items():
            old_owner = old_assignment.get(v)
            if old_owner is None or old_owner == new_owner:
                continue
            key = (old_owner, new_owner)
            migration[key] = migration.get(key, 0) + (n_cols + 1)
            moved += 1
        cluster.charge_comm_words(
            [(s, d, words) for (s, d), words in migration.items()]
        )

        # 4. rebuild workers around the new partition, seeding old rows;
        #    the batch changed local edges, so no local APSP survives
        cluster.migrate(part, keep_local_apsp=False)
        cluster.tracer.note("migrated_rows", float(moved))

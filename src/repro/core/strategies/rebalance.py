"""Incremental load rebalancing (paper §VI future work).

"We also plan to ... develop graph rebalancing strategies to deal with
load imbalances caused by these changes."  Unlike Repartition-S (which
re-partitions everything), the rebalancer performs *targeted migrations*:
when the per-worker vertex counts drift past a threshold, boundary
vertices move from the most-loaded to the least-loaded workers, chosen by
a cut-aware gain (prefer vertices with more edges toward the destination
than inside the source — the label-propagation intuition of Vaquero &
Martella / Mizan, grafted onto the anytime framework so migrated vertices
carry their partial DV rows with them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ...graph.changes import ChangeBatch
from ...partition.base import Partition
from ...partition.metrics import imbalance
from ...types import Rank, VertexId
from .base import DynamicStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["plan_rebalance", "apply_migration", "RebalancedStrategy"]


def plan_rebalance(
    cluster: "Cluster",
    *,
    imbalance_threshold: float = 0.2,
    max_moves: Optional[int] = None,
) -> Dict[VertexId, Rank]:
    """Plan vertex migrations that push vertex-count imbalance under the
    threshold.  Returns ``{vertex: new_rank}`` (possibly empty).

    Greedy: repeatedly move the best-gain vertex from the currently
    most-loaded worker to the least-loaded one.  Gain of moving ``v`` to
    rank ``d`` = (edges from ``v`` into ``d``) − (edges from ``v`` staying
    in its source), so migrations tend to *reduce* the cut while fixing
    balance.
    """
    speeds = [w.speed for w in cluster.workers]
    counts = [w.n_local for w in cluster.workers]
    total = sum(counts)
    if total == 0:
        return {}
    # speed-normalized load: a 2x worker carries 2x the vertices at parity
    loads = [c / sp for c, sp in zip(counts, speeds)]
    owner = dict(cluster.partition.assignment) if cluster.partition else {}
    moves: Dict[VertexId, Rank] = {}
    cap = max_moves if max_moves is not None else total // 4 + 1
    ops = 0
    while len(moves) < cap:
        if imbalance(loads) <= imbalance_threshold:
            break
        src = int(np.argmax(loads))
        dst = int(np.argmin(loads))
        if loads[src] * speeds[src] - loads[dst] * speeds[dst] <= 1:
            break
        best_v, best_gain = None, -np.inf
        for v, r in owner.items():
            if r != src:
                continue
            to_dst = 0
            stay = 0
            for u, _w in cluster.graph.neighbor_items(v):
                ru = owner[u]
                if ru == dst:
                    to_dst += 1
                elif ru == src:
                    stay += 1
                ops += 1
            gain = to_dst - stay
            if gain > best_gain:
                best_gain, best_v = gain, v
        if best_v is None:
            break
        owner[best_v] = dst
        moves[best_v] = dst
        loads[src] -= 1.0 / speeds[src]
        loads[dst] += 1.0 / speeds[dst]
    cluster.charge_serial_compute(cluster.cost.scan_time(ops))
    return moves


def apply_migration(cluster: "Cluster", moves: Dict[VertexId, Rank]) -> None:
    """Execute planned migrations, carrying DV rows to the new owners.

    Only the workers whose owned sets change pay a local-APSP rebuild;
    untouched workers keep their (still exact) local APSP.
    """
    if not moves:
        return
    assert cluster.partition is not None
    new_assignment = dict(cluster.partition.assignment)
    migration_words: Dict[Tuple[Rank, Rank], int] = {}
    n_cols = cluster.n_columns
    for v, dst in moves.items():
        src = new_assignment[v]
        new_assignment[v] = dst
        key = (src, dst)
        migration_words[key] = migration_words.get(key, 0) + (n_cols + 1)
    cluster.charge_comm_words(
        [(s, d, words) for (s, d), words in migration_words.items()]
    )
    cluster.migrate(Partition(cluster.nprocs, new_assignment))


class RebalancedStrategy(DynamicStrategy):
    """Wrap any dynamic strategy with post-batch load rebalancing.

    After the inner strategy incorporates a batch, vertex-count imbalance
    is checked; if it exceeds ``threshold``, targeted migrations restore
    balance.  ``last_moves`` exposes the most recent migration count for
    observability and tests.
    """

    def __init__(
        self,
        inner: DynamicStrategy,
        *,
        threshold: float = 0.2,
        max_moves: Optional[int] = None,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.inner = inner
        self.threshold = threshold
        self.max_moves = max_moves
        self.last_moves = 0
        self.total_moves = 0
        self.name = f"rebalanced[{inner.name}]"

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        self.inner.apply(cluster, batch, step)
        moves = plan_rebalance(
            cluster,
            imbalance_threshold=self.threshold,
            max_moves=self.max_moves,
        )
        apply_migration(cluster, moves)
        self.last_moves = len(moves)
        self.total_moves += len(moves)

"""Load-imbalance metrics over a running cluster.

The paper's motivation is that vertex additions "skew the initial graph
partitions, leading to load imbalance issues": these helpers quantify the
skew both in vertices (computation load) and cut edges (communication
load), per §IV.C.1.a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..partition.metrics import imbalance
from .cluster import Cluster

__all__ = ["LoadSnapshot", "snapshot_load"]


@dataclass(frozen=True)
class LoadSnapshot:
    """Per-worker load at one instant."""

    vertices: List[int]
    cut_edges: List[int]

    @property
    def vertex_imbalance(self) -> float:
        """max/mean - 1 over per-worker vertex counts (computation load)."""
        return imbalance([float(x) for x in self.vertices])

    @property
    def cut_imbalance(self) -> float:
        """max/mean - 1 over per-worker cut degrees (communication load)."""
        return imbalance([float(x) for x in self.cut_edges])

    @property
    def total_cut_edges(self) -> int:
        """Global cut-edge count (each edge counted once)."""
        return sum(self.cut_edges) // 2

    @property
    def active_workers(self) -> int:
        """Workers owning at least one vertex (drops below P after a
        ``redistribute`` recovery retires a rank)."""
        return sum(1 for n in self.vertices if n > 0)


def snapshot_load(cluster: Cluster) -> LoadSnapshot:
    """Capture the current per-worker load of ``cluster``."""
    return LoadSnapshot(
        vertices=[w.n_local for w in cluster.workers],
        cut_edges=[
            sum(len(d) for d in w.cut.values()) for w in cluster.workers
        ],
    )

"""Exact single-machine reference algorithms.

These are the ground truth the distributed anytime-anywhere results are
validated against, and the engine of the Baseline-Restart comparison's
correctness checks: Dijkstra-based APSP (SciPy, imported when first
called) and a pure-NumPy Floyd–Warshall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..types import VertexId
from .closeness import closeness_from_matrix

__all__ = [
    "apsp_dijkstra",
    "apsp_floyd_warshall",
    "exact_closeness",
    "sssp_dijkstra",
]


def apsp_dijkstra(
    graph: Graph, order: Optional[Sequence[VertexId]] = None
) -> Tuple[np.ndarray, List[VertexId]]:
    """All-pairs shortest paths via per-source Dijkstra (SciPy).

    Returns ``(dist, ids)`` with ``dist[i, j] = d(ids[i], ids[j])``.
    """
    from scipy.sparse import csgraph

    view = graph.to_csr(order)
    if len(view) == 0:
        return np.zeros((0, 0)), []
    dist = csgraph.dijkstra(view.matrix, directed=False)
    return dist, list(view.order)


def apsp_floyd_warshall(
    graph: Graph, order: Optional[Sequence[VertexId]] = None
) -> Tuple[np.ndarray, List[VertexId]]:
    """All-pairs shortest paths via vectorized Floyd–Warshall.

    O(n^3) — used as an independent cross-check of :func:`apsp_dijkstra`
    in tests, and for small graphs.
    """
    view = graph.to_csr(order)
    n = len(view)
    if n == 0:
        return np.zeros((0, 0)), []
    dist = np.full((n, n), np.inf, dtype=np.float64)
    csr = view.csr
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    dist[rows, csr.indices] = csr.data
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k][:, None] + dist[k][None, :], out=dist)
    return dist, list(view.order)


def sssp_dijkstra(graph: Graph, source: VertexId) -> Dict[VertexId, float]:
    """Single-source shortest paths from ``source`` (reference)."""
    from scipy.sparse import csgraph

    view = graph.to_csr()
    idx = view.index[source]
    dist = csgraph.dijkstra(view.matrix, directed=False, indices=idx)
    return {v: float(dist[i]) for i, v in enumerate(view.order)}


def exact_closeness(
    graph: Graph, *, wf_improved: bool = False
) -> Dict[VertexId, float]:
    """Ground-truth closeness centrality of every vertex."""
    dist, ids = apsp_dijkstra(graph)
    return closeness_from_matrix(dist, ids, wf_improved=wf_improved)

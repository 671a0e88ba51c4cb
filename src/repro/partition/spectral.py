"""Recursive spectral bisection partitioner.

An alternative cut-minimizing partitioner used in ablation benches: split on
the sign/median of the Fiedler vector (second-smallest Laplacian
eigenvector), recursing until ``nparts`` blocks exist.  Supports non-power-
of-two ``nparts`` by splitting proportionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graph.graph import Graph
from ..types import Rank, VertexId
from .base import Partition, Partitioner

__all__ = ["SpectralPartitioner"]


def _fiedler_order(graph: Graph, vertices: List[VertexId], seed: int) -> List[VertexId]:
    """Vertices sorted by their Fiedler-vector value (restricted subgraph)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    view = graph.to_csr(vertices)
    a = view.matrix
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=1)).ravel()
    lap = sp.diags(deg) - a
    rng = np.random.default_rng(seed)
    v0 = rng.random(n)
    try:
        k = min(2, n - 1)
        vals, vecs = spla.eigsh(lap.tocsc(), k=k, sigma=-1e-3, which="LM", v0=v0)
        order_idx = np.argsort(vals)
        fiedler = vecs[:, order_idx[-1]] if k == 2 else vecs[:, 0]
    except Exception:
        # eigensolver failure (tiny/disconnected pieces): fall back to id order
        return sorted(vertices)
    return [v for _, v in sorted(zip(fiedler, vertices), key=lambda t: (t[0], t[1]))]


class SpectralPartitioner(Partitioner):
    """Recursive spectral bisection with proportional splits."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed if seed is not None else 0

    def partition(self, graph: Graph, nparts: int) -> Partition:
        if nparts < 1:
            raise ValueError(f"nparts must be >= 1, got {nparts}")
        assignment: Dict[VertexId, Rank] = {}
        next_rank = [0]

        def recurse(vertices: List[VertexId], parts: int, depth: int) -> None:
            if parts == 1 or len(vertices) <= 1:
                r = next_rank[0]
                next_rank[0] += 1
                for v in vertices:
                    assignment[v] = r
                # an empty block still consumes a rank so counts line up
                return
            left_parts = parts // 2
            right_parts = parts - left_parts
            if len(vertices) <= 3:
                ordered = sorted(vertices)
            else:
                ordered = _fiedler_order(graph, vertices, self.seed + depth)
            split = round(len(ordered) * left_parts / parts)
            split = min(max(split, 0), len(ordered))
            recurse(ordered[:split], left_parts, depth * 2 + 1)
            recurse(ordered[split:], right_parts, depth * 2 + 2)

        recurse(graph.vertex_list(), nparts, 0)
        # ranks consumed may be < nparts on tiny graphs; Partition tolerates
        # empty blocks as long as assignments are < nparts
        used = next_rank[0]
        if used > nparts:
            # collapse surplus ranks (can only happen with empty slices)
            remap = {r: min(r, nparts - 1) for r in range(used)}
            assignment.update({v: remap[r] for v, r in assignment.items()})
        return Partition(nparts, assignment)

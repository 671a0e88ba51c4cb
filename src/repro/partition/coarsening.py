"""Graph coarsening by heavy-edge matching (the METIS coarsening phase).

The multilevel partitioner repeatedly contracts a matching of the current
graph until it is small enough to partition directly.  Heavy-edge matching
preferentially contracts high-weight edges, which empirically preserves the
cut structure (Karypis & Kumar 1998).

Levels are plain adjacency dictionaries with vertex weights — coarse
vertices stand for sets of fine vertices, so their weight is the number of
original vertices they contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..graph.graph import Graph

__all__ = ["Level", "level_from_graph", "heavy_edge_matching", "contract"]

_Adj = Dict[int, Dict[int, float]]


@dataclass
class Level:
    """One level of the multilevel hierarchy."""

    adj: _Adj
    vwgt: Dict[int, float]
    #: map from the next-finer level's vertex ids to this level's ids
    fine_to_coarse: Dict[int, int]

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    def total_vertex_weight(self) -> float:
        return float(sum(self.vwgt.values()))


def level_from_graph(graph: Graph) -> Level:
    """The finest level: unit vertex weights, identity mapping."""
    adj: _Adj = {v: dict(graph.adjacency_of(v)) for v in graph.vertices()}
    vwgt = {v: 1.0 for v in adj}
    return Level(adj=adj, vwgt=vwgt, fine_to_coarse={v: v for v in adj})


def heavy_edge_matching(
    level: Level,
    rng: np.random.Generator,
    max_vertex_weight: float,
) -> Dict[int, int]:
    """Compute a matching, preferring heavy edges and light partners.

    Returns ``mate`` where ``mate[v]`` is ``v``'s partner (or ``v`` itself
    if unmatched).  A match is refused when the combined vertex weight would
    exceed ``max_vertex_weight`` — this keeps coarse vertices small enough
    for the balance constraint to remain satisfiable.
    """
    order = sorted(level.adj)
    rng.shuffle(order)
    mate: Dict[int, int] = {}
    for v in order:
        if v in mate:
            continue
        best_u, best_w = None, -1.0
        wv = level.vwgt[v]
        for u, w in level.adj[v].items():
            if u in mate or u == v:
                continue
            if wv + level.vwgt[u] > max_vertex_weight:
                continue
            # heavier edge wins; tie-break toward the lighter partner so
            # coarse vertex weights stay even
            if w > best_w or (
                w == best_w and best_u is not None
                and level.vwgt[u] < level.vwgt[best_u]
            ):
                best_u, best_w = u, w
        if best_u is None:
            mate[v] = v
        else:
            mate[v] = best_u
            mate[best_u] = v
    return mate


def contract(level: Level, mate: Dict[int, int]) -> Level:
    """Contract a matching into the next-coarser level."""
    coarse_id: Dict[int, int] = {}
    nxt = 0
    for v in sorted(level.adj):
        if v in coarse_id:
            continue
        u = mate.get(v, v)
        coarse_id[v] = nxt
        coarse_id[u] = nxt
        nxt += 1
    cadj: _Adj = {c: {} for c in range(nxt)}
    cvwgt: Dict[int, float] = {c: 0.0 for c in range(nxt)}
    for v, nbrs in level.adj.items():
        cv = coarse_id[v]
        for u, w in nbrs.items():
            if u < v:
                continue
            cu = coarse_id[u]
            if cu == cv:
                continue  # matched edge collapses; weight leaves the cut pool
            cadj[cv][cu] = cadj[cv].get(cu, 0.0) + w
            cadj[cu][cv] = cadj[cu].get(cv, 0.0) + w
    for v in level.adj:
        cvwgt[coarse_id[v]] += level.vwgt[v]
    return Level(adj=cadj, vwgt=cvwgt, fine_to_coarse=coarse_id)

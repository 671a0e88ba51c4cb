"""Sub-graph extraction utilities.

The DD phase hands each simulated processor a *local sub-graph*: the induced
graph on its assigned vertices **plus** the cut-edges to external boundary
vertices (paper §IV.A: "B_i is the set of external boundary vertices for
processor p_i; external boundary vertices act as bridges that connect the
neighboring sub-graphs to the vertices in the local sub-graph").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..types import VertexId
from .graph import Graph

__all__ = ["induced_subgraph", "LocalSubgraph", "extract_local_subgraph"]


def induced_subgraph(graph: Graph, vertices: Iterable[VertexId]) -> Graph:
    """The sub-graph induced on ``vertices`` (edges with both endpoints in)."""
    keep: Set[VertexId] = set(vertices)
    sub = Graph()
    for v in keep:
        sub.add_vertex(v, exist_ok=True)
    for v in keep:
        for u, w in graph.neighbor_items(v):
            if u in keep and v <= u:
                sub.add_edge(v, u, w)
    return sub


@dataclass
class LocalSubgraph:
    """The per-processor view produced by domain decomposition.

    Attributes
    ----------
    owned:
        Vertices assigned to this processor (``V_i`` in the paper).
    local_graph:
        Induced graph on ``owned`` (internal edges only).
    cut_edges:
        Edges ``(u, x, w)`` with ``u`` owned here and ``x`` owned elsewhere;
        the remote endpoints ``x`` are the paper's external boundary
        ``B_i``.
    """

    owned: List[VertexId]
    local_graph: Graph
    cut_edges: List[Tuple[VertexId, VertexId, float]] = field(default_factory=list)


def extract_local_subgraph(
    graph: Graph, owned: Iterable[VertexId], owner_of: Dict[VertexId, int], rank: int
) -> LocalSubgraph:
    """Build the :class:`LocalSubgraph` for ``rank``.

    Parameters
    ----------
    graph:
        The full graph.
    owned:
        Vertices assigned to ``rank``.
    owner_of:
        Global assignment ``vertex -> rank`` (used to classify cut edges).
    rank:
        This processor's rank.
    """
    owned_list = sorted(set(owned))
    owned_set = set(owned_list)
    local = Graph()
    for v in owned_list:
        local.add_vertex(v)
    cut: List[Tuple[VertexId, VertexId, float]] = []
    for v in owned_list:
        for u, w in graph.neighbor_items(v):
            if u in owned_set:
                if v <= u:
                    local.add_edge(v, u, w)
            else:
                if owner_of.get(u, rank) == rank:
                    # Inconsistent assignment: neighbor claims to be ours but
                    # was not listed in ``owned``.
                    raise ValueError(
                        f"vertex {u} assigned to rank {rank} but absent from its"
                        " owned set"
                    )
                cut.append((v, u, w))
    return LocalSubgraph(owned=owned_list, local_graph=local, cut_edges=cut)

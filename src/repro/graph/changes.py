"""Dynamic-change events and change streams.

The anywhere property of the algorithm is about absorbing a *stream* of
graph changes while the analysis runs.  This module defines the event
vocabulary (vertex/edge additions and deletions, and edge re-weighting —
every dynamic change the paper series [6]-[10] covers) and a
:class:`ChangeStream` that schedules batches of events at recombination
steps, mirroring the paper's experiments ("vertices added at RC0 / RC4 /
RC8", "incremental additions across 10 RC steps").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..errors import ChangeStreamError
from ..types import VertexId, WeightedEdge
from .graph import Graph

__all__ = [
    "VertexAddition",
    "EdgeAddition",
    "EdgeDeletion",
    "EdgeReweight",
    "VertexDeletion",
    "ChangeBatch",
    "ChangeStream",
    "batch_from_subgraph",
    "diff_graphs",
]


@dataclass(frozen=True)
class VertexAddition:
    """A new vertex ``vertex`` with its incident edges.

    ``edges`` lists ``(target, weight)`` pairs; targets may be existing
    vertices or other new vertices in the same batch (intra-batch edges are
    what CutEdge-PS exploits).
    """

    vertex: VertexId
    edges: Tuple[Tuple[VertexId, float], ...] = ()

    @property
    def degree(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class EdgeAddition:
    u: VertexId
    v: VertexId
    weight: float = 1.0


@dataclass(frozen=True)
class EdgeDeletion:
    u: VertexId
    v: VertexId


@dataclass(frozen=True)
class EdgeReweight:
    u: VertexId
    v: VertexId
    weight: float


@dataclass(frozen=True)
class VertexDeletion:
    vertex: VertexId


#: Any single dynamic-change event.
ChangeEvent = (
    VertexAddition | EdgeAddition | EdgeDeletion | EdgeReweight | VertexDeletion
)


@dataclass
class ChangeBatch:
    """A set of changes applied together at one recombination step."""

    vertex_additions: List[VertexAddition] = field(default_factory=list)
    edge_additions: List[EdgeAddition] = field(default_factory=list)
    edge_deletions: List[EdgeDeletion] = field(default_factory=list)
    edge_reweights: List[EdgeReweight] = field(default_factory=list)
    vertex_deletions: List[VertexDeletion] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(
            self.vertex_additions
            or self.edge_additions
            or self.edge_deletions
            or self.edge_reweights
            or self.vertex_deletions
        )

    @property
    def num_events(self) -> int:
        return (
            len(self.vertex_additions)
            + len(self.edge_additions)
            + len(self.edge_deletions)
            + len(self.edge_reweights)
            + len(self.vertex_deletions)
        )

    def new_vertex_ids(self) -> List[VertexId]:
        return [va.vertex for va in self.vertex_additions]

    def new_vertex_graph(self) -> Graph:
        """The graph induced on the *new* vertices and the edges among them.

        This is exactly the graph CutEdge-PS partitions (paper §IV.C.1.a:
        "considers the newly added vertices and the edges between these
        vertices as an independent graph").
        """
        new_ids = set(self.new_vertex_ids())
        g = Graph()
        for v in new_ids:
            g.add_vertex(v)
        for va in self.vertex_additions:
            for t, w in va.edges:
                if t in new_ids and not g.has_edge(va.vertex, t):
                    g.add_edge(va.vertex, t, w)
        return g

    def validate(self, graph: Graph) -> None:
        """Check the whole batch against ``graph`` before any of it is applied.

        Events are checked in the order the strategies apply them —
        additions, then edge deletions, then reweights, then vertex
        deletions — so a deletion or reweight may name an edge the batch
        itself adds:

        * new vertex ids must not collide with existing vertices or repeat,
        * edge endpoints must be existing vertices or new vertices of this
          batch, and distinct,
        * weights must be positive and finite,
        * deletions/reweights must reference edges present at that point
          (not deleted earlier in the batch), vertex deletions existing or
          new vertices, each once.
        """
        new_ids: set[VertexId] = set()
        for va in self.vertex_additions:
            if graph.has_vertex(va.vertex):
                raise ChangeStreamError(
                    f"vertex addition {va.vertex} collides with existing vertex"
                )
            if va.vertex in new_ids:
                raise ChangeStreamError(f"vertex {va.vertex} added twice in batch")
            new_ids.add(va.vertex)
        added: set[frozenset[VertexId]] = set()
        for va in self.vertex_additions:
            for t, w in va.edges:
                if t == va.vertex:
                    raise ChangeStreamError(f"self-loop on new vertex {t}")
                _check_weight(w)
                if not graph.has_vertex(t) and t not in new_ids:
                    raise ChangeStreamError(
                        f"new vertex {va.vertex} has edge to unknown vertex {t}"
                    )
                added.add(frozenset((va.vertex, t)))
        for ea in self.edge_additions:
            for end in (ea.u, ea.v):
                if not graph.has_vertex(end) and end not in new_ids:
                    raise ChangeStreamError(f"edge addition references unknown {end}")
            if ea.u == ea.v:
                raise ChangeStreamError(f"self-loop edge addition on {ea.u}")
            _check_weight(ea.weight)
            added.add(frozenset((ea.u, ea.v)))
        deleted: set[frozenset[VertexId]] = set()

        def present(u: VertexId, v: VertexId) -> bool:
            key = frozenset((u, v))
            return key not in deleted and (key in added or graph.has_edge(u, v))

        for ed in self.edge_deletions:
            if not present(ed.u, ed.v):
                raise ChangeStreamError(f"cannot delete missing edge ({ed.u},{ed.v})")
            deleted.add(frozenset((ed.u, ed.v)))
        for er in self.edge_reweights:
            if not present(er.u, er.v):
                raise ChangeStreamError(
                    f"cannot reweight missing edge ({er.u},{er.v})"
                )
            _check_weight(er.weight)
        gone: set[VertexId] = set()
        for vd in self.vertex_deletions:
            if vd.vertex in gone or not (
                graph.has_vertex(vd.vertex) or vd.vertex in new_ids
            ):
                raise ChangeStreamError(f"cannot delete missing vertex {vd.vertex}")
            gone.add(vd.vertex)

    def apply_to(self, graph: Graph) -> None:
        """Apply every event to ``graph`` in place (additions first)."""
        for va in self.vertex_additions:
            graph.add_vertex(va.vertex)
        for va in self.vertex_additions:
            for t, w in va.edges:
                if not graph.has_edge(va.vertex, t):
                    graph.add_edge(va.vertex, t, w)
        for ea in self.edge_additions:
            graph.add_edge(ea.u, ea.v, ea.weight)
        for er in self.edge_reweights:
            graph.add_edge(er.u, er.v, er.weight)
        for ed in self.edge_deletions:
            graph.remove_edge(ed.u, ed.v)
        for vd in self.vertex_deletions:
            graph.remove_vertex(vd.vertex)


def _check_weight(w: float) -> None:
    if not (w > 0 and math.isfinite(w)):
        raise ChangeStreamError(f"edge weight must be positive finite, got {w}")


class ChangeStream:
    """Schedules :class:`ChangeBatch` objects at recombination steps.

    ``stream[step]`` (via :meth:`at_step`) is the batch to incorporate at the
    *end* of recombination step ``step`` (0-based), matching the paper's
    Fig. 1 line 17 ("perform recombination strategy(ies)").
    """

    def __init__(self, batches: Optional[Mapping[int, ChangeBatch]] = None) -> None:
        self._batches: Dict[int, ChangeBatch] = {}
        if batches:
            for step, batch in batches.items():
                self.schedule(step, batch)

    def schedule(self, step: int, batch: ChangeBatch) -> None:
        if step < 0:
            raise ChangeStreamError(f"step must be non-negative, got {step}")
        if step in self._batches:
            raise ChangeStreamError(f"a batch is already scheduled at step {step}")
        self._batches[step] = batch

    def at_step(self, step: int) -> Optional[ChangeBatch]:
        return self._batches.get(step)

    def steps(self) -> List[int]:
        return sorted(self._batches)

    @property
    def last_step(self) -> int:
        """The latest scheduled step, or ``-1`` when empty."""
        return max(self._batches) if self._batches else -1

    def total_events(self) -> int:
        return sum(b.num_events for b in self._batches.values())

    def __bool__(self) -> bool:
        return bool(self._batches)

    def __iter__(self) -> Iterator[Tuple[int, ChangeBatch]]:
        return iter(sorted(self._batches.items()))


def diff_graphs(old: Graph, new: Graph) -> ChangeBatch:
    """The change batch that turns ``old`` into ``new``.

    Useful for replaying externally-evolved snapshots through the anywhere
    machinery: ``diff_graphs(g1, g2).apply_to(g1)`` makes ``g1 == g2``.
    Edges incident to deleted vertices are dropped implicitly by the
    vertex deletion and are not listed as separate edge deletions.
    """
    old_vs = set(old.vertices())
    new_vs = set(new.vertices())
    added_vs = new_vs - old_vs
    deleted_vs = old_vs - new_vs

    additions: List[VertexAddition] = []
    for v in sorted(added_vs):
        edges = tuple(
            (t, w)
            for t, w in sorted(new.adjacency_of(v).items())
            if t > v or t not in added_vs  # record intra-new edges once
        )
        additions.append(VertexAddition(vertex=v, edges=edges))

    edge_adds: List[EdgeAddition] = []
    edge_dels: List[EdgeDeletion] = []
    reweights: List[EdgeReweight] = []
    for u, v, w in new.edges():
        if u in added_vs or v in added_vs:
            continue  # carried by the vertex additions
        if not old.has_edge(u, v):
            edge_adds.append(EdgeAddition(u, v, w))
        elif old.weight(u, v) != w:
            reweights.append(EdgeReweight(u, v, w))
    for u, v, _w in old.edges():
        if u in deleted_vs or v in deleted_vs:
            continue  # dropped with the vertex
        if not new.has_edge(u, v):
            edge_dels.append(EdgeDeletion(u, v))

    return ChangeBatch(
        vertex_additions=additions,
        edge_additions=sorted(edge_adds, key=lambda e: (e.u, e.v)),
        edge_deletions=sorted(edge_dels, key=lambda e: (e.u, e.v)),
        edge_reweights=sorted(reweights, key=lambda e: (e.u, e.v)),
        vertex_deletions=[VertexDeletion(v) for v in sorted(deleted_vs)],
    )


def batch_from_subgraph(
    new_graph: Graph,
    attachment_edges: Iterable[WeightedEdge] = (),
) -> ChangeBatch:
    """Build a vertex-addition batch from a graph of new vertices.

    ``new_graph`` holds the new vertices and intra-batch edges;
    ``attachment_edges`` are ``(new_vertex, existing_vertex, w)`` edges
    anchoring the batch to the current graph.  This mirrors the paper's
    workload construction: communities carved out of a larger graph arrive
    with both their internal structure and their links back to the base.
    """
    per_vertex: Dict[VertexId, List[Tuple[VertexId, float]]] = {
        v: [] for v in new_graph.vertices()
    }
    for u, v, w in new_graph.edges():
        # record each intra-batch edge once, on the smaller endpoint
        per_vertex[u].append((v, w))
    for nv, ev, w in attachment_edges:
        if nv not in per_vertex:
            raise ChangeStreamError(
                f"attachment edge references unknown new vertex {nv}"
            )
        per_vertex[nv].append((ev, w))
    additions = [
        VertexAddition(vertex=v, edges=tuple(edges))
        for v, edges in sorted(per_vertex.items())
    ]
    return ChangeBatch(vertex_additions=additions)

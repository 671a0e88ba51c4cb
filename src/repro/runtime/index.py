"""Global vertex index: vertex id <-> DV column.

Every worker's DV matrix shares the same column layout, defined by the
order vertices entered the computation.  Dynamic vertex additions append
columns; vertex deletions free columns (the column is compacted away).

In a real MPI deployment each rank keeps a replica of this index and the
O(k) maintenance broadcast is part of the vertex-addition cost, which the
cost model charges; in the simulation the object is shared.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..errors import VertexNotFound
from ..types import VertexId

__all__ = ["GlobalIndex"]


class GlobalIndex:
    """Bidirectional map between vertex ids and dense column indices."""

    def __init__(self, vertices: Iterable[VertexId] = ()) -> None:
        self.ids: List[VertexId] = []
        self.col: Dict[VertexId, int] = {}
        for v in vertices:
            self.add(v)

    def add(self, v: VertexId) -> int:
        """Register ``v``; returns its column.  Idempotent."""
        existing = self.col.get(v)
        if existing is not None:
            return existing
        c = len(self.ids)
        self.ids.append(v)
        self.col[v] = c
        return c

    def add_many(self, vertices: Iterable[VertexId]) -> List[int]:
        return [self.add(v) for v in vertices]

    def column(self, v: VertexId) -> int:
        try:
            return self.col[v]
        except KeyError:
            raise VertexNotFound(v) from None

    def columns(self, vertices: Iterable[VertexId]) -> List[int]:
        col = self.col
        try:
            return [col[v] for v in vertices]
        except KeyError as missing:
            raise VertexNotFound(missing.args[0]) from None

    def vertex_at(self, column: int) -> VertexId:
        return self.ids[column]

    def remove(self, v: VertexId) -> int:
        """Remove ``v``; returns the column that disappeared.

        All columns after it shift left by one — callers must compact their
        DV matrices with the returned column index.
        """
        c = self.column(v)
        self.ids.pop(c)
        del self.col[v]
        for i in range(c, len(self.ids)):
            self.col[self.ids[i]] = i
        return c

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, v: VertexId) -> bool:
        return v in self.col

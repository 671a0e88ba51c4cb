"""Dynamic weighted undirected graph.

This is the in-memory graph substrate the rest of the library builds on.
It is designed for the access patterns of the anytime-anywhere pipeline:

* cheap incremental mutation (vertex/edge additions and deletions are the
  whole point of the paper),
* fast neighborhood iteration for partitioners and relaxations,
* cheap export to CSR arrays (scipy's canonical form) for bulk
  shortest-path computations, without importing scipy.

Vertices are integer ids.  The structure is undirected: ``add_edge(u, v, w)``
makes ``v`` a neighbor of ``u`` and vice versa, and the edge is reported once
by :meth:`Graph.edges` with ``u <= v``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from ..errors import (
    DuplicateVertex,
    EdgeNotFound,
    InvalidWeight,
    VertexNotFound,
)
from ..types import VertexId, WeightedEdge

__all__ = ["CSR", "CSRView", "Graph"]

_INT32_MAX = int(np.iinfo(np.int32).max)


class CSR:
    """A square sparse matrix as the three CSR arrays, in scipy's canonical
    form: each row's columns sorted, no duplicates, ``indptr`` and
    ``indices`` int32 unless ``max(nnz, n)`` needs int64, ``data`` float64.

    This is what the kernels read and what a task carries to a pool
    child; :meth:`to_scipy` wraps it for scipy.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(
        self, indptr: NDArray[Any], indices: NDArray[Any], data: NDArray[np.float64]
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        n = len(indptr) - 1
        self.shape = (n, n)

    @property
    def nnz(self) -> int:
        """Stored entries (each undirected edge twice)."""
        return int(self.data.size)

    def to_scipy(self) -> Any:
        """A ``scipy.sparse.csr_matrix`` over the same arrays (no copy)."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


class CSRView:
    """A CSR snapshot of a :class:`Graph` restricted to an ordered vertex set.

    Attributes
    ----------
    csr:
        The :class:`CSR` arrays of edge weights, shape ``(k, k)``.
    order:
        The vertex ids in row/column order.
    index:
        Mapping from vertex id to row index (inverse of ``order``).
    """

    __slots__ = ("csr", "order", "index", "_matrix")

    def __init__(self, csr: CSR, order: List[VertexId]) -> None:
        self.csr = csr
        self.order = order
        self.index = {v: i for i, v in enumerate(order)}
        self._matrix: Any = None

    @property
    def matrix(self) -> Any:
        """``csr`` as a ``scipy.sparse.csr_matrix``, built on first access
        over the same arrays (imports scipy; the run path never asks)."""
        if self._matrix is None:
            self._matrix = self.csr.to_scipy()
        return self._matrix

    def __len__(self) -> int:
        return len(self.order)


class Graph:
    """A mutable weighted undirected graph keyed by integer vertex ids."""

    __slots__ = ("_adj", "_num_edges", "_total_weight", "_csr_cache", "_csr_dirty", "_csr_added")

    def __init__(self) -> None:
        self._adj: Dict[VertexId, Dict[VertexId, float]] = {}
        self._num_edges = 0
        self._total_weight = 0.0
        # Incremental CSR cache.  ``_csr_cache`` holds the most recent
        # :meth:`to_csr` result; dirty-tracking is active only while it is
        # set, so graphs that never export pay nothing on mutation.
        self._csr_cache: Optional[CSRView] = None
        self._csr_dirty: Set[VertexId] = set()
        self._csr_added: Set[VertexId] = set()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int] | Tuple[int, int, float]],
        vertices: Optional[Iterable[VertexId]] = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)``.

        ``vertices`` may list additional isolated vertices to include.
        """
        g = cls()
        if vertices is not None:
            for v in vertices:
                g.add_vertex(int(v), exist_ok=True)
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            g.add_vertex(int(u), exist_ok=True)
            g.add_vertex(int(v), exist_ok=True)
            g.add_edge(int(u), int(v), float(w))
        return g

    def copy(self) -> "Graph":
        """Return a deep copy (adjacency dictionaries are duplicated)."""
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._total_weight = self._total_weight
        return g

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, v: VertexId, *, exist_ok: bool = False) -> None:
        """Add an isolated vertex.

        Raises :class:`DuplicateVertex` if present, unless ``exist_ok``.
        """
        if v in self._adj:
            if exist_ok:
                return
            raise DuplicateVertex(f"vertex {v} already exists")
        self._adj[v] = {}
        if self._csr_cache is not None:
            self._csr_added.add(v)

    def add_vertices(self, vertices: Iterable[VertexId]) -> None:
        """Add multiple isolated vertices (existing ids are tolerated)."""
        for v in vertices:
            self.add_vertex(v, exist_ok=True)

    def remove_vertex(self, v: VertexId) -> List[WeightedEdge]:
        """Remove ``v`` and all incident edges; return the removed edges."""
        try:
            nbrs = self._adj.pop(v)
        except KeyError:
            raise VertexNotFound(v) from None
        removed: List[WeightedEdge] = []
        for u, w in nbrs.items():
            if u == v:
                continue  # self-loops are disallowed at insertion time
            del self._adj[u][v]
            removed.append((v, u, w))
            self._num_edges -= 1
            self._total_weight -= w
        self._drop_csr_cache()
        return removed

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._adj

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex ids (insertion order)."""
        return iter(self._adj)

    def vertex_list(self) -> List[VertexId]:
        """Sorted list of vertex ids."""
        return sorted(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def max_vertex_id(self) -> int:
        """Largest vertex id, or ``-1`` for an empty graph."""
        return max(self._adj) if self._adj else -1

    def next_vertex_id(self) -> int:
        """The smallest id guaranteed to be unused (``max + 1``)."""
        return self.max_vertex_id() + 1

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: VertexId, v: VertexId, weight: float = 1.0) -> None:
        """Add or overwrite the undirected edge ``(u, v)``.

        Both endpoints must already exist (use :meth:`add_vertex` /
        :meth:`from_edges` to create them).  Self-loops are rejected because
        they never affect shortest paths.  Weights must be positive finite.
        """
        if u == v:
            raise InvalidWeight(f"self-loop on vertex {u} is not allowed")
        if not (weight > 0.0 and np.isfinite(weight)):
            raise InvalidWeight(f"edge weight must be positive finite, got {weight}")
        if u not in self._adj:
            raise VertexNotFound(u)
        if v not in self._adj:
            raise VertexNotFound(v)
        existing = self._adj[u].get(v)
        if existing is None:
            self._num_edges += 1
            self._total_weight += weight
        else:
            self._total_weight += weight - existing
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        if self._csr_cache is not None:
            self._csr_dirty.add(u)
            self._csr_dirty.add(v)

    def add_edges(
        self, edges: Iterable[Tuple[int, int] | Tuple[int, int, float]]
    ) -> None:
        """Add many edges; missing endpoints are created automatically."""
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            self.add_vertex(int(u), exist_ok=True)
            self.add_vertex(int(v), exist_ok=True)
            self.add_edge(int(u), int(v), float(w))

    def remove_edge(self, u: VertexId, v: VertexId) -> float:
        """Remove the edge ``(u, v)``; return its weight."""
        if u not in self._adj:
            raise VertexNotFound(u)
        if v not in self._adj:
            raise VertexNotFound(v)
        try:
            w = self._adj[u].pop(v)
        except KeyError:
            raise EdgeNotFound(u, v) from None
        del self._adj[v][u]
        self._num_edges -= 1
        self._total_weight -= w
        self._drop_csr_cache()
        return w

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def weight(self, u: VertexId, v: VertexId) -> float:
        """Weight of edge ``(u, v)``; raises :class:`EdgeNotFound`."""
        try:
            return self._adj[u][v]
        except KeyError:
            if u not in self._adj:
                raise VertexNotFound(u) from None
            raise EdgeNotFound(u, v) from None

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over each undirected edge once, as ``(u, v, w)``, u <= v."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u <= v:
                    yield (u, v, w)

    def edge_list(self) -> List[WeightedEdge]:
        """Sorted list of edges as ``(u, v, w)`` with ``u <= v``."""
        return sorted(self.edges())

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge counted once)."""
        return self._total_weight

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def neighbors(self, v: VertexId) -> Iterator[VertexId]:
        try:
            return iter(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def neighbor_items(self, v: VertexId) -> Iterator[Tuple[VertexId, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v``."""
        try:
            return iter(self._adj[v].items())
        except KeyError:
            raise VertexNotFound(v) from None

    def adjacency_of(self, v: VertexId) -> Dict[VertexId, float]:
        """A *copy* of the neighbor->weight map of ``v``."""
        try:
            return dict(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def degree(self, v: VertexId) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def weighted_degree(self, v: VertexId) -> float:
        try:
            return float(sum(self._adj[v].values()))
        except KeyError:
            raise VertexNotFound(v) from None

    def degrees(self) -> Dict[VertexId, int]:
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------
    # bulk export
    # ------------------------------------------------------------------
    def to_csr(self, order: Optional[Sequence[VertexId]] = None) -> CSRView:
        """Export (a sub-view of) the graph as CSR arrays (:class:`CSR`).

        The most recent export is cached and maintained incrementally:

        * re-exporting an unchanged graph with the same ``order`` returns
          the cached :class:`CSRView` object outright;
        * after vertex additions (and edge additions among them), an
          ``order`` that extends the cached order only builds the new and
          dirty rows, splicing the untouched row slices from the cache;
        * edge/vertex deletions and any non-prefix ``order`` fall back to
          a full rebuild (which re-primes the cache).

        Returned views are immutable snapshots: incremental rebuilds
        allocate fresh arrays, so views handed out earlier never observe
        later mutations.  Both paths produce bitwise-identical arrays, the
        bytes ``scipy.sparse.csr_matrix`` builds from the same entries.

        Parameters
        ----------
        order:
            The vertices to include, in row/column order.  Defaults to
            :meth:`vertex_list`.  Edges with an endpoint outside ``order``
            are dropped (this is exactly what a local sub-graph export
            needs).
        """
        if order is None:
            ordered = self.vertex_list()
        else:
            ordered = list(order)
        index = {v: i for i, v in enumerate(ordered)}
        if len(index) != len(ordered):
            raise ValueError("duplicate vertices in requested order")
        for v in ordered:
            if v not in self._adj:
                raise VertexNotFound(v)
        cached = self._csr_cache
        if cached is not None:
            view = self._csr_from_cache(cached, ordered, index)
            if view is not None:
                return view
        view = self._csr_build(ordered, index)
        self._csr_cache = view
        self._csr_dirty.clear()
        self._csr_added.clear()
        return view

    def _drop_csr_cache(self) -> None:
        """Forget the cached CSR export (deletions invalidate wholesale)."""
        if self._csr_cache is not None:
            self._csr_cache = None
            self._csr_dirty.clear()
            self._csr_added.clear()

    def _csr_row(
        self, v: VertexId, index: Dict[VertexId, int]
    ) -> List[Tuple[int, float]]:
        """Column-sorted ``(col, weight)`` pairs of row ``v`` under ``index``."""
        return sorted(
            (index[u], w) for u, w in self._adj[v].items() if u in index
        )

    def _csr_build(self, ordered: List[VertexId], index: Dict[VertexId, int]) -> CSRView:
        """Full from-scratch CSR construction (the oracle for the cache)."""
        n = len(ordered)
        get = index.get
        cols: List[int] = []
        vals: List[float] = []
        lengths = np.empty(n, dtype=np.intp)
        for i, v in enumerate(ordered):
            nbrs = self._adj[v]
            cols.extend(map(get, nbrs, repeat(-1)))  # -1: outside ``order``
            vals.extend(nbrs.values())
            lengths[i] = len(nbrs)
        col = np.array(cols, dtype=np.int64)
        val = np.array(vals, dtype=np.float64)
        row = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keep = col >= 0
        if not keep.all():
            row, col, val = row[keep], col[keep], val[keep]
        # rows arrive in order; sort each row's columns (no duplicates)
        perm = np.argsort(row * n + col)
        idx_dtype = np.int32 if max(col.size, n) <= _INT32_MAX else np.int64
        indptr = np.zeros(n + 1, dtype=idx_dtype)
        np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
        return CSRView(CSR(indptr, col[perm].astype(idx_dtype), val[perm]), ordered)

    def _csr_from_cache(
        self,
        cached: CSRView,
        ordered: List[VertexId],
        index: Dict[VertexId, int],
    ) -> Optional[CSRView]:
        """Serve ``to_csr(ordered)`` from ``cached``, or ``None`` to rebuild.

        Valid only when ``ordered`` extends ``cached.order`` and every
        appended vertex was added after the snapshot: then a clean cached
        row can only have changed via an edge touching it, which marked
        the row dirty (deletions dropped the cache entirely).
        """
        k = len(cached.order)
        n = len(ordered)
        if k == 0 or n < k or ordered[:k] != cached.order:
            return None
        appended = ordered[k:]
        if any(v not in self._csr_added for v in appended):
            return None
        rebuild = self._csr_dirty.intersection(index)
        if n == k and not rebuild:
            return cached
        rebuild.update(appended)
        old = cached.csr
        idx_dtype = old.indices.dtype
        parts_idx: List[np.ndarray] = []
        parts_dat: List[np.ndarray] = []
        for v in ordered:
            if v in rebuild:
                pairs = self._csr_row(v, index)
                parts_idx.append(
                    np.fromiter((j for j, _ in pairs), dtype=idx_dtype, count=len(pairs))
                )
                parts_dat.append(
                    np.fromiter((w for _, w in pairs), dtype=np.float64, count=len(pairs))
                )
            else:
                i = cached.index[v]
                lo, hi = old.indptr[i], old.indptr[i + 1]
                parts_idx.append(old.indices[lo:hi])
                parts_dat.append(old.data[lo:hi])
        lengths = np.fromiter((len(p) for p in parts_idx), dtype=np.int64, count=n)
        nnz = int(lengths.sum())
        if nnz > np.iinfo(idx_dtype).max:
            return None  # index dtype would differ from a fresh build
        indptr = np.zeros(n + 1, dtype=old.indptr.dtype)
        indptr[1:] = np.cumsum(lengths)
        indices = (
            np.concatenate(parts_idx) if nnz else np.empty(0, dtype=idx_dtype)
        )
        data = (
            np.concatenate(parts_dat) if nnz else np.empty(0, dtype=np.float64)
        )
        view = CSRView(CSR(indptr, indices, data), ordered)
        self._csr_cache = view
        self._csr_dirty.difference_update(rebuild)
        self._csr_added.difference_update(index)
        return view

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __hash__(self) -> int:  # mutable container: identity hash
        return id(self)

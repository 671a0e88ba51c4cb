"""Shared type aliases and small value objects used across the library."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

#: A vertex identifier.  Vertices are dense non-negative integers; new
#: vertices appended by dynamic changes take the next free ids.
VertexId = int

#: Processor (worker) rank in the simulated cluster, ``0 <= rank < P``.
Rank = int

#: A weighted undirected edge ``(u, v, w)``.
WeightedEdge = Tuple[VertexId, VertexId, float]

#: An unweighted edge ``(u, v)``.
Edge = Tuple[VertexId, VertexId]

#: Adjacency mapping ``u -> {v: w}``.
Adjacency = Mapping[VertexId, Mapping[VertexId, float]]

#: A block assignment: ``assignment[v]`` is the rank owning vertex ``v``.
Assignment = Dict[VertexId, Rank]

#: Dense distance row / matrix dtype used throughout the library.
DIST_DTYPE = np.float64

#: A distance row or matrix (``float64``); bare ``np.ndarray`` is not
#: precise enough under ``mypy --strict`` (disallow_any_generics).
FloatArray = NDArray[np.float64]

#: Integer index arrays (row indices, permutations).
IntArray = NDArray[np.int64]

#: Boolean masks over rows / vertices.
BoolArray = NDArray[np.bool_]

#: Sentinel for "no path known yet".
INF = float("inf")


def as_vertex_list(vertices: Iterable[VertexId]) -> List[VertexId]:
    """Normalize an iterable of vertex ids to a sorted, duplicate-free list."""
    return sorted(set(int(v) for v in vertices))


def normalize_edge(u: VertexId, v: VertexId) -> Edge:
    """Return the canonical (min, max) ordering of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def check_ranks(ranks: Sequence[Rank], nprocs: int) -> None:
    """Validate that all ranks are within ``[0, nprocs)``.

    Raises
    ------
    ValueError
        If any rank is out of range.
    """
    for r in ranks:
        if not 0 <= r < nprocs:
            raise ValueError(f"rank {r} out of range for {nprocs} processors")

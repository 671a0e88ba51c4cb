"""Closeness centrality from distance data.

The paper's definition (§IV): ``C(v) = 1 / sum_u d(v, u)`` — the inverse of
the sum of shortest-path distances from ``v`` to all other vertices.  For
graphs that are not (yet) fully explored or are disconnected, the sum is
taken over *reachable* vertices only, with an optional Wasserman–Faust
correction that scales by the fraction of the graph reached (making values
comparable across components).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..types import VertexId

__all__ = [
    "closeness_from_matrix",
    "closeness_from_row",
    "closeness_from_rows",
    "rank_vertices",
]


def closeness_from_row(
    row: np.ndarray, *, self_col: Optional[int] = None, wf_improved: bool = False
) -> float:
    """Closeness of one vertex from its distance row.

    Parameters
    ----------
    row: distances to every vertex; ``inf`` marks unreachable.
    self_col: index of the vertex itself (excluded from the sum); if None,
        zeros are assumed to be only the self-distance.
    wf_improved: apply the Wasserman–Faust scaling ``(r-1)/(n-1)`` where
        ``r`` is the number of reached vertices.
    """
    n = row.size
    if n <= 1:
        return 0.0
    finite = np.isfinite(row)
    if self_col is not None:
        finite = finite.copy()
        finite[self_col] = False
    total = float(row[finite].sum())
    reached = int(finite.sum())
    if self_col is None:
        # the self entry is 0 and contributes nothing; discount it from r
        reached -= int(np.count_nonzero(row == 0.0) >= 1)
    if total <= 0.0 or reached <= 0:
        return 0.0
    c = reached / total if wf_improved else 1.0 / total
    if wf_improved:
        c *= reached / (n - 1)
    return c


def closeness_from_rows(
    rows: np.ndarray, self_cols: Sequence[int], *, wf_improved: bool = False
) -> np.ndarray:
    """:func:`closeness_from_row` of every row of a block, bit for bit.

    ``self_cols[i]`` is the self column of ``rows[i]``.  Rows are grouped
    by summand count and each group summed as one compacted
    ``(rows, count)`` block whose rows are exactly ``row[finite]``: NumPy's
    pairwise order, which ``np.where(finite, rows, 0).sum(axis=1)`` loses.
    """
    m, n = rows.shape
    out = np.zeros(m, dtype=np.float64)
    if n <= 1 or m == 0:
        return out
    finite = np.isfinite(rows)
    finite[np.arange(m), self_cols] = False
    reached = finite.sum(axis=1, dtype=np.int32)  # 2x faster than intp
    total = np.zeros(m, dtype=np.float64)
    for count in np.unique(reached[reached > 0]):
        grp = reached == count
        # a settled block is one group: compact it without selecting rows
        block = rows[finite] if grp.all() else rows[grp][finite[grp]]
        total[grp] = block.reshape(-1, count).sum(axis=1)
    ok = total > 0.0
    if wf_improved:
        out[ok] = reached[ok] / total[ok] * (reached[ok] / (n - 1))
    else:
        out[ok] = 1.0 / total[ok]
    return out


def closeness_from_matrix(
    dist: np.ndarray,
    ids: Sequence[VertexId],
    *,
    wf_improved: bool = False,
) -> Dict[VertexId, float]:
    """Closeness for every vertex of a full distance matrix.

    ``dist[i, j]`` is the distance from ``ids[i]`` to ``ids[j]``.
    """
    n = len(ids)
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix {dist.shape} does not match {n} ids")
    out: Dict[VertexId, float] = {}
    for i, v in enumerate(ids):
        out[v] = closeness_from_row(dist[i], self_col=i, wf_improved=wf_improved)
    return out


def rank_vertices(closeness: Dict[VertexId, float]) -> List[VertexId]:
    """Vertices sorted by decreasing closeness (ties by id)."""
    return [v for v, _c in sorted(closeness.items(), key=lambda t: (-t[1], t[0]))]

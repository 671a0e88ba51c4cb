"""The per-edge edge-addition sequence: the reference for the batch
relaxation.

``apply_edge_addition`` once applied a batch one edge at a time: per
edge, the owners broadcast the two endpoint rows; if the Fig. 3 line-26
guard passed, every rank relaxed its whole block through the edge in two
orientations (:func:`relax_edge_kernel`); an intra-rank edge then relaxed
its two DV rows through itself (``Worker._relax_dv_with_local_edge``).
:func:`per_edge_reference` runs those statements, verbatim, on copies of
the ranks' DV blocks.  The batch call's closure runs over every applied
edge, guard or no guard, so it covers every path the sequence can build
and its result is at most this one, entry by entry: exactly on integer
weights, to rounding on float weights (the two sum a path in different
orders).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.graph import Graph
from repro.runtime import Cluster

Edge = Tuple[int, int, float]

#: the per-edge kernel's regime rule: an orientation whose finite
#: rectangle covers more than a quarter of the block is relaxed densely
_EDGE_DENSE_DIV = 4


def relax_edge_kernel(
    dv: np.ndarray,
    changed: np.ndarray,
    dirty_cols: np.ndarray,
    col_a: int,
    row_a: np.ndarray,
    col_b: int,
    row_b: np.ndarray,
    w: float,
) -> np.ndarray:
    """``d(x,t) <- min(d(x,t), d(x,a) + w + d(b,t), d(x,b) + w + d(a,t))``
    as two sequential orientations: through ``a`` with ``row_b``, then
    through ``b`` (column ``b`` re-read after the first orientation
    relaxed it) with ``row_a``; returns the sorted local rows improved."""
    improved = np.zeros(dv.shape[0], dtype=np.bool_)
    for col_src, row in ((col_a, row_b), (col_b, row_a)):
        src_col = dv[:, col_src]
        rows_f = np.flatnonzero(np.isfinite(src_col))
        cols_f = np.flatnonzero(np.isfinite(row))
        if _EDGE_DENSE_DIV * rows_f.size * cols_f.size > dv.size:
            through = src_col[:, None] + (w + row)[None, :]
            mask = through < dv
            rows = mask.any(axis=1)
            if rows.any():
                np.copyto(dv, through, where=mask)
                changed |= mask
                dirty_cols |= mask.any(axis=0)
                improved |= rows
            continue
        sub = dv[np.ix_(rows_f, cols_f)]
        through = src_col[rows_f][:, None] + (w + row[cols_f])[None, :]
        mask = through < sub
        if mask.any():
            sub[mask] = through[mask]
            dv[np.ix_(rows_f, cols_f)] = sub
            r_idx, c_idx = np.nonzero(mask)
            changed[rows_f[r_idx], cols_f[c_idx]] = True
            dirty_cols[cols_f[mask.any(axis=0)]] = True
            improved[rows_f[mask.any(axis=1)]] = True
    return np.flatnonzero(improved)


def per_edge_reference(
    graph: Graph,
    blocks: Sequence[np.ndarray],
    where: Dict[int, Tuple[int, int]],
    column: Callable[[int], int],
    edges: Sequence[Edge],
) -> None:
    """Apply ``edges`` one at a time to ``graph`` and the DV ``blocks`` (one
    per rank, both mutated); ``where[v]`` is ``(rank, row)`` of ``v``."""
    for a, b, w in edges:
        if graph.has_edge(a, b):
            if w >= graph.weight(a, b):
                continue
        graph.add_edge(a, b, w)
        (rank_a, ra), (rank_b, rb) = where[a], where[b]
        row_a = blocks[rank_a][ra].copy()
        row_b = blocks[rank_b][rb].copy()
        if row_a[column(b)] > w:
            for dv in blocks:
                if dv.shape[0]:
                    relax_edge_kernel(
                        dv, np.zeros(dv.shape, dtype=bool),
                        np.zeros(dv.shape[1], dtype=bool),
                        column(a), row_a, column(b), row_b, w,
                    )
        if rank_a == rank_b:
            dv = blocks[rank_a]
            for src, dst in ((ra, rb), (rb, ra)):
                cand = dv[src] + w
                mask = cand < dv[dst]
                if mask.any():
                    dv[dst][mask] = cand[mask]


def reference_blocks(cluster: Cluster, edges: Sequence[Edge]) -> List[np.ndarray]:
    """Copies of the cluster's DV blocks after :func:`per_edge_reference`."""
    blocks = [w.dv.copy() for w in cluster.workers]
    where = {v: (w.rank, r) for w in cluster.workers for v, r in w.row_of.items()}
    per_edge_reference(
        cluster.graph.copy(), blocks, where, cluster.index.column, edges
    )
    return blocks


def at_most(got: np.ndarray, reference: np.ndarray, exact: bool) -> bool:
    """``got <= reference`` entry by entry; to rounding unless ``exact``."""
    return bool((got <= (reference if exact else reference * (1 + 1e-12))).all())


def one_edge_batch(
    col_a: int, row_a: np.ndarray, col_b: int, row_b: np.ndarray, w: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(cols, closure, rows)`` a batch of the one edge ``(a, b, w)``
    hands every rank."""
    d = min(w, row_a[col_b], row_b[col_a])
    return (
        np.array([col_a, col_b], dtype=np.intp),
        np.array([[0.0, d], [d, 0.0]]),
        np.stack([row_a, row_b]),
    )

"""The pure NumPy/SciPy kernel statements — the bitwise oracle.

These are the original single-implementation kernels, kept as plain
module functions: every other tier is measured against them, and the
``numpy`` tier runs them verbatim.  The serial backend, the process
backend and every tier/backend combination must produce results
bitwise-identical to these statements executed in serial order.
"""

from __future__ import annotations

from typing import Any, List, Set, Union

import numpy as np
import scipy.sparse.csgraph as csgraph

from ...types import BoolArray, FloatArray
from .base import IATask, IndexArray, RelaxItems

__all__ = [
    "ia_kernel",
    "ia_chunk_kernel",
    "local_apsp_rows",
    "relax_cut_kernel",
    "minplus_fold",
    "minplus_fold_changed",
    "minplus_fold_pairs",
    "minplus_pull",
    "relax_edge_kernel",
]

#: Cap on the float64 element count of the batched min-plus broadcast
#: temporary (``n_rows x block x n_cols``); 2**21 elements = 16 MB.
_MINPLUS_BLOCK_ELEMS = 1 << 21

#: Max sources folded per ``np.minimum`` call in the batched kernel.
_MINPLUS_MAX_BLOCK = 64

#: Cap on the float64 element count of the entry folds' gather temporaries
#: (``n_rows x chunk entries``; the pull fold splits it between its two);
#: 2**21 elements = 16 MB, the size of the rectangle fold's broadcast
#: temporary.
_ENTRY_CHUNK_ELEMS = 1 << 21

#: Edge-row relaxation: an orientation whose finite rectangle covers more
#: than ``1 / _EDGE_DENSE_DIV`` of the ``n_local x n_cols`` block is
#: relaxed over the whole block in place; a thinner one is gathered, so
#: the first edge of a new vertex (one finite row or column) stays
#: O(n + c).  Measured rectangles are bimodal (< 10 % or > 50 % of the
#: block), so any divisor between 2 and 10 selects identically.
_EDGE_DENSE_DIV = 4


#: Fixed cost of one level of the IA sweep (its numpy calls, 6 us on the
#: EXPERIMENTS.md host) in the units of :func:`_sweep_budget`.
_SWEEP_FIXED = 24_000


def _sweep_budget(n: int, s: int, nnz: int) -> int:
    """Levels a sweep of ``s`` sources may run before Dijkstra is cheaper.

    Units are level entries (one vertex x one source, 0.25 ns on the
    EXPERIMENTS.md host).  A level costs ``n * s + (n + nnz) * (8 + 5 *
    words) + _SWEEP_FIXED`` with ``words = ceil(s / 64)`` (gather and OR
    per arc and source word).  ``csgraph.dijkstra`` costs at least ``6 *
    _SWEEP_FIXED + s * (450 + 28 * n + 6 * nnz)``: 55 % of its cheapest
    measured shapes, rings and ring lattices (80 us per call, 0.19 us per
    source, 19-25 ns per source and vertex).  The sweep's setup and a
    bail-out take one ``_SWEEP_FIXED`` of that, so a sweep stopped at the
    budget has spent about half of Dijkstra's time.
    """
    words = -(-s // 64)
    return min(
        254,  # the level counts are uint8 and run one past the last level
        (5 * _SWEEP_FIXED + s * (450 + 28 * n + 6 * nnz))
        // (n * s + (n + nnz) * (8 + 5 * words) + _SWEEP_FIXED),
    )


def ia_kernel(task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
    """Local APSP (the paper's multithreaded Dijkstra) + DV column fold.

    Writes into the caller-allocated ``apsp`` (shape ``(n, n)``) and
    folds it into the owned columns of ``dv`` in place: the one chunk
    that covers every source.
    """
    ia_chunk_kernel(task, 0, task.n, dv, apsp)


def ia_chunk_kernel(
    task: IATask, lo: int, hi: int, dv: FloatArray, apsp: FloatArray
) -> None:
    """IA restricted to sources ``[lo, hi)``; bitwise-equal to the full run.

    Each source's row is computed independently (:func:`local_apsp_rows`),
    and the fold touches only DV rows ``[lo, hi)`` (source ``s`` folds
    ``apsp[s, j]`` into ``dv[s, cols[j]]``) — chunks write disjoint row
    ranges of both matrices and compose, in any order or concurrently,
    to exactly the full :func:`ia_kernel` outcome.
    """
    local_apsp_rows(task.matrix, lo, hi, apsp[lo:hi])
    cols = task.cols
    # fancy indexing yields a copy, so an out= write would be lost;
    # assign the minimum back explicitly
    dv[lo:hi, cols] = np.minimum(dv[lo:hi, cols], apsp[lo:hi, :])


def local_apsp_rows(matrix: Any, lo: int, hi: int, out: FloatArray) -> None:
    """Shortest-path rows of sources ``[lo, hi)`` into ``out`` (``(hi - lo, n)``).

    Bitwise ``csgraph.dijkstra(matrix, directed=False, indices=range(lo,
    hi))`` for the symmetric CSR of an undirected sub-graph (what
    ``Graph.to_csr`` exports).  When every stored weight is one value
    ``w > 0``, shortest paths are BFS levels, and the rows come from a
    level-synchronous sweep over all sources at once (:func:`_level_sweep`):
    an entry reached at level ``k`` is ``((0.0 + w) + w) ... + w`` with
    ``k`` additions, the left-to-right sum Dijkstra forms along any
    ``k``-hop path — rounding is monotone, so no longer path sums lower.
    Mixed weights, and blocks whose sweep outruns Dijkstra's cost (long
    paths, rings), take ``csgraph.dijkstra``.  Sources are swept in blocks
    whose temporaries stay under ``_ENTRY_CHUNK_ELEMS`` elements.
    """
    n = matrix.shape[0]
    data, indices, starts = matrix.data, matrix.indices, matrix.indptr[:-1]
    w = float(data[0]) if data.size else 1.0
    if w > 0 and (data == w).all():
        empty = matrix.indptr[1:] == starts
        if empty.any():
            # an isolated vertex gathers its own frontier row: never new
            indices = np.insert(indices, starts[empty], np.flatnonzero(empty))
            starts = starts + np.cumsum(empty) - empty
        # level counts (n bytes per source) and the gathered frontier words
        # (nnz / 8 bytes per source) stay under the element cap
        block = max(64, _ENTRY_CHUNK_ELEMS // (n + data.size // 8) // 64 * 64)
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            if not _level_sweep(indices, starts, w, b0, b1, out[b0 - lo:b1 - lo]):
                lo, out = b0, out[b0 - lo:]
                break
        else:
            return
    out[:, :] = csgraph.dijkstra(matrix, directed=False, indices=np.arange(lo, hi))


def _level_sweep(
    indices: IndexArray, starts: IndexArray, w: float, lo: int, hi: int, out: FloatArray
) -> bool:
    """Multi-source BFS from sources ``[lo, hi)``; ``False`` = over budget.

    Sources are bits: ``frontier`` / ``unvisited`` hold one bit per
    source in ``(n, ceil(s / 64))`` words, and one level is a gather of
    frontier rows by neighbour, an OR per row (``np.bitwise_or.reduceat``
    over ``starts``, every row non-empty), then ``& unvisited``.
    ``level`` counts, per vertex and source, the expansions it was still
    unvisited before: its BFS level, or the number of expansions when
    never reached (mapped to ``inf``).
    """
    n, s = out.shape[1], hi - lo
    budget = _sweep_budget(n, s, indices.size)
    if budget < 1:
        return False
    frontier = np.zeros((n, -(-s // 64)), dtype=np.uint64)
    src = np.arange(s)
    frontier.view(np.uint8)[lo + src, src >> 3] = np.left_shift(1, src & 7)
    unvisited = ~frontier
    level = np.zeros((n, s), dtype=np.uint8)
    sums = [0.0]
    while True:
        level += np.unpackbits(
            unvisited.view(np.uint8), axis=1, count=s, bitorder="little"
        )
        reached = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        reached &= unvisited
        if not reached.any():
            break
        if len(sums) > budget:
            return False
        unvisited ^= reached
        frontier = reached
        sums.append(sums[-1] + w)
    sums.append(np.inf)
    table = np.array(sums)
    # np.take converts its index to intp: 64 sources at a time keeps that
    # copy an eighth of the block's own rows
    for j in range(0, s, 64):
        np.take(table, level[:, j:j + 64].T, out=out[j:j + 64], mode="clip")
    return True


def relax_cut_kernel(
    dv: FloatArray,
    changed: BoolArray,
    dirty_cols: BoolArray,
    items: RelaxItems,
) -> List[int]:
    """Cut-edge relaxation: ``d(u,t) <- min(d(u,t), w(u,x) + d(x,t))``.

    Mutates ``dv``, ``changed`` (the entries lowered) and ``dirty_cols``
    in place; returns the sorted local rows that improved.  Item order is fixed by the caller (sorted
    external vertex, then cut-edge registration order), so repeated runs
    relax in the same sequence.
    """
    improved: Set[int] = set()
    for row_x, pairs in items:
        for r, w in pairs:
            cand = row_x + w
            mask = cand < dv[r]
            if mask.any():
                dv[r][mask] = cand[mask]
                changed[r] |= mask
                dirty_cols |= mask
                improved.add(r)
    return sorted(improved)


def minplus_fold(
    apsp: FloatArray,
    dv: FloatArray,
    rows: Union[List[int], IndexArray],
    cols: IndexArray,
) -> List[int]:
    """Blocked min-plus fold of a rectangle; returns the sorted rows improved.

    ``d(x,t) <- min_k apsp(x,k) + d(k,t)`` over the sources ``k`` in
    ``rows`` and the targets ``t`` in ``cols``, written back into ``dv``
    in place.  Sources are folded a block at a time through one
    ``(n x block x c)`` broadcast temporary; the block is as many sources
    as keep that temporary under ``_MINPLUS_BLOCK_ELEMS`` (at most
    ``_MINPLUS_MAX_BLOCK``): 4 on a 500 x 1000 rectangle, 1 once ``n * c``
    passes 2 M elements.  Bitwise-identical to a per-source fold: float64
    min is exact and order-independent, and distances never produce NaNs.

    This is the fold of a nothing-known full re-propagation (every row,
    every column) and the reference the entry folds
    (:func:`minplus_fold_changed`, :func:`minplus_pull`,
    :func:`minplus_fold_pairs`) are tested against.

    The write-back scatters only the entries that improved instead of
    assigning the whole ``dv[:, cols]`` submatrix — bitwise-equivalent
    (unimproved entries are rewritten with their own value either way)
    but proportional to the improvement count, which is small in late
    supersteps.
    """
    n = apsp.shape[0]
    a = apsp[:, rows]          # (n, k)
    b = dv[np.ix_(rows, cols)]  # (k, c)
    c = len(cols)
    cand = np.full((n, c), np.inf, dtype=np.float64)
    block = max(
        1, min(_MINPLUS_MAX_BLOCK, _MINPLUS_BLOCK_ELEMS // max(1, n * c))
    )
    k = len(rows)
    for j0 in range(0, k, block):
        ab = a[:, j0:j0 + block]                    # (n, bk)
        keep = np.isfinite(ab).any(axis=0)
        if not keep.any():
            continue
        if not keep.all():
            ab = ab[:, keep]
        bb = b[j0:j0 + block][keep]                 # (bk, c)
        np.minimum(
            cand,
            np.min(ab[:, :, None] + bb[None, :, :], axis=1),
            out=cand,
        )
    improved = cand < dv[:, cols]
    if not improved.any():
        return []
    # np.nonzero walks row-major, matching cand[improved]'s element order
    r_idx, c_idx = np.nonzero(improved)
    dv[r_idx, cols[c_idx]] = cand[improved]
    return [int(r) for r in np.flatnonzero(improved.any(axis=1))]


def minplus_fold_changed(
    apsp: FloatArray, dv: FloatArray, changed: BoolArray
) -> List[int]:
    """Min-plus fold of the ``changed`` entries; returns the sorted rows improved.

    ``d(x,t) <- min(d(x,t), apsp(x,k) + d(k,t))`` for every local row
    ``x`` and every entry ``(k, t)`` set in ``changed`` — the entries of
    ``dv`` lowered since the last fold.  An entry outside the mask was a
    source of an earlier fold (or of IA) at its current value, and
    ``apsp`` is transitively closed, so ``d(x,t) <= apsp(x,k) + d(k,t)``
    already holds for it and folding it again cannot lower anything: on
    weights whose path sums are exact in float64 the outcome is
    bitwise-identical to :func:`minplus_fold` over any rectangle that
    contains the mask.

    Entries are taken in column order; each chunk gathers the ``apsp``
    columns of its sources (at most ``_ENTRY_CHUNK_ELEMS`` elements),
    adds the entry values, takes the minimum per target column with
    ``np.minimum.reduceat`` and scatters what improved.  ``changed`` is
    only read.
    """
    n = apsp.shape[0]
    # column-major walk over the rows that hold any entry (few, late in a
    # run): entries arrive grouped by target column
    rows = np.flatnonzero(changed.any(axis=1))
    t_idx, k_idx = np.nonzero(changed[rows].T)
    if t_idx.size == 0:
        return []
    k_idx = rows[k_idx]
    vals = dv[k_idx, t_idx]
    improved_rows = np.zeros(n, dtype=np.bool_)
    chunk = min(t_idx.size, max(1, _ENTRY_CHUNK_ELEMS // n))
    # one gather buffer for every chunk (a fresh temporary per chunk is
    # page-faulted in again each time), viewed contiguously per chunk
    buf = np.empty(n * chunk, dtype=np.float64)
    for e0 in range(0, t_idx.size, chunk):
        e1 = min(e0 + chunk, t_idx.size)
        through = buf[: n * (e1 - e0)].reshape(n, e1 - e0)
        np.take(apsp, k_idx[e0:e1], axis=1, out=through, mode="clip")
        through += vals[e0:e1]
        ts = t_idx[e0:e1]
        starts = np.flatnonzero(np.diff(ts, prepend=-1))
        cand = np.minimum.reduceat(through, starts, axis=1)  # (n, g)
        cols = ts[starts]
        better = cand < dv[:, cols]
        if better.any():
            # np.nonzero walks row-major, matching cand[better]'s order
            r_idx, g_idx = np.nonzero(better)
            dv[r_idx, cols[g_idx]] = cand[better]
            improved_rows |= better.any(axis=1)
    return [int(r) for r in np.flatnonzero(improved_rows)]


def minplus_pull(apsp: FloatArray, dv: FloatArray, rose: BoolArray) -> List[int]:
    """Min-plus pull into the ``rose`` entries; returns the sorted rows improved.

    ``d(x,t) <- min_k apsp(x,k) + d(k,t)`` over every local source ``k``,
    for the entries ``(x, t)`` set in ``rose`` — the entries of ``dv``
    raised (by a deletion's witness test) since the last fold.  The dual
    of :func:`minplus_fold_changed`: that one pushes *from* the entries
    that fell, this one re-derives the entries that rose.  Followed by
    that push it equals :func:`minplus_fold` over the whole block provided
    nothing else fell: an entry outside both masks satisfied
    ``d(x,t) <= apsp(x,k) + d(k,t)`` before and neither term fell since.

    Entries are taken in column order; each chunk gathers the ``apsp``
    rows of its targets and the ``dv`` columns of its sources (together
    at most ``_ENTRY_CHUNK_ELEMS`` elements), adds them and takes the
    minimum per entry.  ``rose`` is only read.
    """
    n = apsp.shape[0]
    rows = np.flatnonzero(rose.any(axis=1))
    t_idx, x_idx = np.nonzero(rose[rows].T)
    if t_idx.size == 0:
        return []
    x_idx = rows[x_idx]
    # np.take gathers along axis 1 of a C-contiguous source: row x of apsp
    # is column x of this copy (apsp is symmetric only up to rounding)
    apsp_t = np.ascontiguousarray(apsp.T)
    improved_rows = np.zeros(n, dtype=np.bool_)
    chunk = min(t_idx.size, max(1, _ENTRY_CHUNK_ELEMS // (2 * n)))
    buf = np.empty((2, n * chunk), dtype=np.float64)
    for e0 in range(0, t_idx.size, chunk):
        xs = x_idx[e0:e0 + chunk]
        ts = t_idx[e0:e0 + chunk]
        through = buf[0, : n * xs.size].reshape(n, xs.size)
        src = buf[1, : n * xs.size].reshape(n, xs.size)
        np.take(apsp_t, xs, axis=1, out=through, mode="clip")
        np.take(dv, ts, axis=1, out=src, mode="clip")
        through += src
        cand = through.min(axis=0)
        better = cand < dv[xs, ts]
        if better.any():
            dv[xs[better], ts[better]] = cand[better]
            improved_rows[xs[better]] = True
    return [int(r) for r in np.flatnonzero(improved_rows)]


def minplus_fold_pairs(
    apsp: FloatArray, dv: FloatArray, fell: BoolArray, src: FloatArray
) -> List[int]:
    """Min-plus fold over the ``fell`` pairs; returns the sorted rows improved.

    ``d(x,t) <- min(d(x,t), apsp(x,k) + src(k,t))`` for every target ``t``
    and every pair ``(x, k)`` set in ``fell`` — the ``apsp`` entries lowered
    (by a local edge) since the last fold.  A pair outside the mask was
    folded at a value no higher than its current one, so together with
    :func:`minplus_fold_changed` over the entries that fell (and
    :func:`minplus_pull` over those that rose) this equals
    :func:`minplus_fold` over the whole block.  ``src`` is ``dv`` as it
    was when the fold began: every source is read at that value, like the
    entry fold's, whatever was lowered since.

    Pairs are taken in row order; each chunk gathers the ``src`` rows of
    its sources (at most ``_ENTRY_CHUNK_ELEMS`` elements), adds the pair
    lengths, takes the minimum per row ``x`` with ``np.minimum.reduceat``
    and scatters what improved.  ``fell`` is only read.
    """
    n_cols = dv.shape[1]
    x_idx, k_idx = np.nonzero(fell)  # row-major: grouped by x
    if x_idx.size == 0:
        return []
    lengths = apsp[x_idx, k_idx][:, None]
    improved_rows = np.zeros(apsp.shape[0], dtype=np.bool_)
    chunk = min(x_idx.size, max(1, _ENTRY_CHUNK_ELEMS // n_cols))
    buf = np.empty(chunk * n_cols, dtype=np.float64)
    for e0 in range(0, x_idx.size, chunk):
        xs = x_idx[e0:e0 + chunk]
        through = buf[: xs.size * n_cols].reshape(xs.size, n_cols)
        np.take(src, k_idx[e0:e0 + chunk], axis=0, out=through, mode="clip")
        through += lengths[e0:e0 + chunk]
        starts = np.flatnonzero(np.diff(xs, prepend=-1))
        cand = np.minimum.reduceat(through, starts, axis=0)  # (g, n_cols)
        rows = xs[starts]
        better = cand < dv[rows]
        if better.any():
            g_idx, t_idx = np.nonzero(better)
            dv[rows[g_idx], t_idx] = cand[better]
            improved_rows[rows[better.any(axis=1)]] = True
    return [int(r) for r in np.flatnonzero(improved_rows)]


def relax_edge_kernel(
    dv: FloatArray,
    changed: BoolArray,
    dirty_cols: BoolArray,
    col_a: int,
    row_a: FloatArray,
    col_b: int,
    row_b: FloatArray,
    w: float,
) -> IndexArray:
    """Edge-addition relaxation through the new edge ``(a, b, w)`` [paper 9].

    ``d(x,t) <- min(d(x,t), d(x,a) + w + d(b,t), d(x,b) + w + d(a,t))``
    for every local row ``x`` and every target ``t`` (Fig. 3 lines 26-34),
    as two sequential orientations: through ``a`` with the broadcast
    ``row_b``, then through ``b`` (column ``b`` re-read after the first
    orientation relaxed it) with ``row_a``.  Mutates ``dv``, ``changed``
    (the entries lowered) and ``dirty_cols`` in place; returns the sorted
    local rows that improved.

    +inf rows/columns need no filter: ``inf + x`` is ``inf``, ``inf < y``
    is false, and weights are positive and finite so no NaN arises — a
    dense orientation is relaxed over the whole block with no gather or
    scatter, and ``through < dv`` masks exactly the entries a gathered
    relaxation improves.
    """
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

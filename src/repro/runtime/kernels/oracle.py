"""The per-rank compute kernels: plain NumPy module functions.

:class:`~repro.runtime.kernels.KernelTier` delegates to these, and
:func:`fold` is the one entry point of the min-plus propagation fold.
The serial backend and the process backend run the same statements, so
their results are bitwise-identical to these statements executed in
serial order.  Every CSR argument is a :class:`~repro.graph.graph.CSR`.
Only :func:`dijkstra_rows` needs scipy, and imports it when first called.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ...graph.graph import CSR
from ...types import BoolArray, FloatArray
from .base import IATask, IndexArray, RelaxItems

__all__ = [
    "dijkstra_rows",
    "dijkstra_weights",
    "ia_kernel",
    "local_apsp_rows",
    "relax_cut_kernel",
    "fold",
    "minplus_fold",
    "minplus_fold_changed",
    "minplus_closure",
    "closure_applies",
    "closure_exact",
    "relax_edge_batch_kernel",
]

#: Cap on the float64 element count of the batched min-plus broadcast
#: temporary (``n_rows x block x n_cols``); 2**21 elements = 16 MB.
_MINPLUS_BLOCK_ELEMS = 1 << 21

#: Max sources folded per ``np.minimum`` call in the batched kernel.
_MINPLUS_MAX_BLOCK = 64

#: Cap on the float64 element count of the entry folds' gather temporaries
#: (``n_rows x chunk entries``); 2**21 elements = 16 MB, the size of the
#: rectangle fold's broadcast temporary.
_ENTRY_CHUNK_ELEMS = 1 << 21

#: Closure fold cost rule: the sweep runs when a fold marks more entries
#: per touched column than this.  The push costs ``n`` sums per entry, the
#: sweep about ``n`` per column and tick plus a fixed 0.2-0.3 ms; on the
#: captured folds it wins from 3-6 entries per column (EXPERIMENTS.md).
_CLOSURE_MIN_ENTRIES = 8

#: Rows x columns of one tile of the edge-batch relaxation's candidate
#: buffer: every endpoint's candidates meet a tile while it sits in cache,
#: and no temporary spans the block (2**16 float64 = 512 KB; a third less
#: wall than one block-wide buffer on the captured ``batch-add`` batches,
#: EXPERIMENTS.md).
_EDGE_TILE_ELEMS = 1 << 16

#: :func:`_fold_sweep`'s arcs: per padded arc its gather index into the
#: tick ring, the rows' starts, and the ring's slot count (:func:`_ring_arcs`)
RingArcs = Tuple[IndexArray, IndexArray, int]

#: The last level (IA) or tick (closure fold) a bit sweep may reach: its
#: uint8 level counts run one past it.
_LEVEL_CAP = 254

#: Fixed cost of one level of the IA sweep (its numpy calls, 6 us on the
#: EXPERIMENTS.md host) in the units of :func:`_sweep_budget`.
_SWEEP_FIXED = 24_000

#: Work a sweep may always spend before it gives a block to Dijkstra, in
#: the units of :func:`_sweep_budget`: 0.5 ms on the EXPERIMENTS.md host,
#: four times the deepest sweep of a small rank on the benchmark inputs.
_SWEEP_FLOOR = 2_000_000


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
    budget has spent about half of Dijkstra's time.  Whatever the model
    says, a sweep may spend ``_SWEEP_FLOOR``: on a small rank that costs
    at most 0.7 ms more than Dijkstra, and it spares a unit- or
    integer-weight run the import of scipy (0.3 s) that Dijkstra's first
    call in a process pays.
    """
    words = -(-s // 64)
    dijkstra = 5 * _SWEEP_FIXED + s * (450 + 28 * n + 6 * nnz)
    return min(
        _LEVEL_CAP,
        max(dijkstra, _SWEEP_FLOOR)
        // (n * s + (n + nnz) * (8 + 5 * words) + _SWEEP_FIXED),
    )


def ia_kernel(task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
    """Local APSP (the paper's multithreaded Dijkstra) + DV column fold.

    Writes into the caller-allocated ``apsp`` (shape ``(n, n)``) and
    folds it into the owned columns of ``dv`` in place: source ``s``
    folds ``apsp[s, j]`` into ``dv[s, cols[j]]``.
    """
    local_apsp_rows(task.matrix, 0, task.n, apsp)
    cols = task.cols
    # one 1-D gather and scatter per row: the 2-D fancy-index write took
    # twice as long.  Fancy indexing yields a copy, so an out= write would
    # be lost; assign the minimum back explicitly
    for row, local in zip(dv, apsp):
        row[cols] = np.minimum(row[cols], local)


def local_apsp_rows(matrix: CSR, lo: int, hi: int, out: FloatArray) -> None:
    """Shortest-path rows of sources ``[lo, hi)`` into ``out`` (``(hi - lo, n)``).

    Bitwise :func:`dijkstra_rows` for the symmetric CSR of an undirected
    sub-graph (what ``Graph.to_csr`` exports), by one of three paths:

    * every stored weight one value ``w > 0``: shortest paths are BFS
      levels, and the rows come from a level-synchronous sweep over all
      sources at once (:func:`_level_sweep`).  An entry reached at level
      ``k`` is ``((0.0 + w) + w) ... + w`` with ``k`` additions, the
      left-to-right sum Dijkstra forms along any ``k``-hop path — rounding
      is monotone, so no longer path sums lower;
    * positive-integer weights where :func:`closure_exact` holds: Dial's
      buckets, the fold's :func:`_fold_sweep` seeded at the diagonal.
      Every path sum is an integer below 2**53, exact in any order;
    * anything else, and blocks whose sweep outruns Dijkstra's cost (long
      paths, rings) or the tick cap: :func:`dijkstra_rows`.

    Sources are swept in blocks whose temporaries stay under
    ``_ENTRY_CHUNK_ELEMS`` elements; the first block that bails out hands
    it and every later source to Dijkstra.
    """
    n = matrix.shape[0]
    data = matrix.data
    w = float(data[0]) if data.size else 1.0
    done = lo
    if w > 0 and (data == w).all():
        indices, starts, _ = _padded_rows(matrix)
        # level counts (n bytes per source) and the gathered frontier words
        # (nnz / 8 bytes per source) stay under the element cap
        block = max(64, _ENTRY_CHUNK_ELEMS // (n + data.size // 8) // 64 * 64)
        done = _sweep_blocks(
            lambda b0, b1, rows: _level_sweep(indices, starts, w, b0, b1, rows),
            block, lo, hi, out,
        )
    elif closure_exact(matrix, np.zeros(1)):
        arcs = _ring_arcs(matrix)
        if arcs is not None:
            ring = arcs
            done = _sweep_blocks(
                lambda b0, b1, rows: _dial_rows(ring, b0, b1, rows),
                _closure_block(n, ring), lo, hi, out,
            )
    if done < hi:
        out[done - lo:] = dijkstra_rows(matrix, done, hi)


def dijkstra_rows(matrix: CSR, lo: int, hi: int) -> FloatArray:
    """``csgraph.dijkstra(matrix, directed=False, indices=range(lo, hi))``:
    the IA path for non-integer weights and sweeps over budget, and the
    only one that imports scipy."""
    from scipy.sparse import csgraph

    rows: FloatArray = csgraph.dijkstra(
        matrix.to_scipy(), directed=False, indices=np.arange(lo, hi)
    )
    return rows


def dijkstra_weights(matrix: CSR) -> bool:
    """Whether :func:`local_apsp_rows` gives every row of ``matrix`` to
    :func:`dijkstra_rows` for its weights alone: they are neither one
    positive value nor positive integers whose ring fits the tick cap."""
    data = matrix.data
    if data.size == 0 or (data[0] > 0 and (data == data[0]).all()):
        return False
    return not closure_exact(matrix, np.zeros(1)) or data.max() >= _LEVEL_CAP


def _sweep_blocks(
    sweep: Callable[[int, int, FloatArray], bool],
    block: int,
    lo: int,
    hi: int,
    out: FloatArray,
) -> int:
    """Run ``sweep(b0, b1, rows)`` over ``[lo, hi)`` a block of sources at a
    time; the first source left undone (``hi`` when every block finished)."""
    for b0 in range(lo, hi, block):
        b1 = min(b0 + block, hi)
        if not sweep(b0, b1, out[b0 - lo:b1 - lo]):
            return b0
    return hi


def _dial_rows(arcs: RingArcs, lo: int, hi: int, out: FloatArray) -> bool:
    """Integer-weight shortest paths from sources ``[lo, hi)``: one
    :func:`_fold_sweep` seeded at ``d(s,s) = 0``, one column per source,
    stopped at :func:`_sweep_budget` ticks; ``False`` = over budget."""
    n, s = out.shape[1], hi - lo
    budget = _sweep_budget(n, s, arcs[0].size)
    if budget < 1:
        return False
    d = np.full((n, s), np.inf)
    d[np.arange(lo, hi), np.arange(s)] = 0.0
    dist = _fold_sweep(arcs, d, d == 0.0, budget)
    if dist is None:
        return False
    out[:] = dist.T  # undirected: dist(x, s) is row s's entry x
    return True


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
        reached = _expand(frontier, indices, starts)
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


def _padded_rows(matrix: CSR) -> Tuple[IndexArray, IndexArray, FloatArray]:
    """``(indices, starts, weights)`` of a CSR with every row non-empty,
    for :func:`_expand`.

    ``np.bitwise_or.reduceat`` reads an empty row as the next row's first
    element (and fails on a trailing one), so an empty row gathers its own
    vertex instead, at weight 1: a vertex's bit is in a frontier only once
    it is visited, so what it gathers from itself is never new.
    """
    indices, weights, indptr = matrix.indices, matrix.data, matrix.indptr
    starts = indptr[:-1]
    empty = indptr[1:] == starts
    if empty.any():
        indices = np.insert(indices, starts[empty], np.flatnonzero(empty))
        weights = np.insert(weights, starts[empty], 1.0)
        starts = starts + np.cumsum(empty) - empty
    return indices, starts, weights


def _expand(frontier: Any, indices: IndexArray, starts: IndexArray) -> Any:
    """One hop of a bit sweep: per vertex, the OR of the ``frontier`` words
    its arcs gather (rows from :func:`_padded_rows`)."""
    return np.bitwise_or.reduceat(frontier[indices], starts, axis=0)


def relax_cut_kernel(
    dv: FloatArray,
    changed: BoolArray,
    dirty_cols: BoolArray,
    ext: FloatArray,
    items: RelaxItems,
) -> List[int]:
    """Cut-edge relaxation: ``d(u,t) <- min(d(u,t), w(u,x) + d(x,t))``.

    ``d(x, .)`` is row ``slot`` of the external-row store ``ext``.
    Mutates ``dv``, ``changed`` (the entries lowered) and ``dirty_cols``
    in place; returns the sorted local rows that improved.

    The pairs are grouped by destination ``(row r, weight w)``: a group's
    stored rows are min-reduced into one candidate, ``w`` is added once,
    and the candidate meets ``dv[r]`` in one compare.  Bitwise the
    per-pair loop: rounding is monotone, so ``min(a + w, b + w)`` is
    ``min(a, b) + w``, and ``dv[r]`` ends at the min over itself and every
    candidate in any order.  Temporaries are two ``n_cols`` rows.
    """
    groups: Dict[Tuple[int, float], List[int]] = {}
    for slot, pairs in items:
        for key in pairs:
            groups.setdefault(key, []).append(slot)
    n_cols = dv.shape[1]
    cand = np.empty(n_cols, dtype=np.float64)
    mask = np.empty(n_cols, dtype=np.bool_)
    improved: Set[int] = set()
    for (r, w), slots in groups.items():
        if len(slots) == 1:
            np.add(ext[slots[0]], w, out=cand)
        else:
            np.minimum(ext[slots[0]], ext[slots[1]], out=cand)
            for slot in slots[2:]:
                np.minimum(cand, ext[slot], out=cand)
            cand += w
        row = dv[r]
        np.less(cand, row, out=mask)
        # count_nonzero costs half of any(), and the in-place minimum a
        # fifth of a masked copy; it writes exactly the masked entries, as
        # a candidate is positive (weights are) and so ties only its bits
        if np.count_nonzero(mask):
            np.minimum(row, cand, out=row)
            changed[r] |= mask
            dirty_cols |= mask
            improved.add(r)
    return sorted(improved)


def fold(
    apsp: FloatArray,
    dv: FloatArray,
    changed: Optional[BoolArray],
    graph: Optional[CSR] = None,
) -> List[int]:
    """Min-plus propagation fold; returns the sorted rows improved.

    Incremental, ``changed`` marks the entries of ``dv`` lowered since the
    last fold — the only sources that can improve anything — and the fold
    pushes them, as one seeded level sweep over ``graph`` (the CSR
    ``apsp`` is the closure of) where :func:`closure_applies`, else
    :func:`minplus_fold_changed`.  Full, ``changed`` is ``None`` and the
    fold re-derives the block: one sweep seeded from every finite entry
    where :func:`closure_exact` holds, else the rectangle
    :func:`minplus_fold`.
    """
    if changed is not None:
        if graph is not None and closure_applies(graph, dv, changed):
            return minplus_closure(graph, apsp, dv, changed)
        return minplus_fold_changed(apsp, dv, changed)
    if graph is not None and closure_exact(graph, dv):
        return minplus_closure(graph, apsp, dv, dv < np.inf)
    n, c = dv.shape
    return minplus_fold(apsp, dv, np.arange(n), np.arange(c))


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

    This is the full fold where the sweep is not exact (every row, every
    column) and the reference the entry fold
    (:func:`minplus_fold_changed`) and the sweep are tested against.

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


def closure_applies(graph: CSR, dv: FloatArray, changed: BoolArray) -> bool:
    """Whether :func:`minplus_closure` may stand in for
    :func:`minplus_fold_changed` on this fold: it pays, and it is exact.

    *Cost*: more than ``_CLOSURE_MIN_ENTRIES`` marked entries per touched
    column.  *Exactness*: :func:`closure_exact` over the marked entries.
    """
    entries = int(np.count_nonzero(changed))
    if not entries:
        return False
    cols = int(np.count_nonzero(changed.any(axis=0)))
    if entries <= _CLOSURE_MIN_ENTRIES * cols:
        return False
    return closure_exact(graph, dv[changed])


def closure_exact(graph: CSR, entries: FloatArray) -> bool:
    """Whether a sweep over ``graph`` from ``entries`` is bitwise the push:
    every stored weight is a positive integer, every finite entry a
    non-negative integer (the only zero is a diagonal ``d(v,v)``) and ``max
    entry + max weight * (n - 1) < 2**53``.  Then every shortest-path sum
    the push forms is an integer below 2**53, computed exactly, and so is
    every tick of the sweep, provided ``apsp == csgraph.dijkstra(graph)``
    (which the caller vouches for and check 10 audits).
    """
    weights = graph.data
    for x, low in ((weights, 1.0), (entries, 0.0)):
        # +inf passes the integer test (floor(inf) == inf); NaN fails it
        if not ((x >= low).all() and (x == np.floor(x)).all()):
            return False
    top_v = np.max(entries, where=entries < np.inf, initial=0.0)
    # float rounding is monotone and 2**53 representable: this is exact
    return top_v + weights.max(initial=0.0) * (graph.shape[0] - 1) < 2.0**53


def minplus_closure(
    graph: CSR, apsp: FloatArray, dv: FloatArray, changed: BoolArray
) -> List[int]:
    """:func:`minplus_fold_changed` as one seeded, bit-parallel level sweep.

    For each target ``t``, ``min_k apsp(x,k) + d(k,t)`` over the entries
    ``(k, t)`` set in ``changed`` is the time a search over ``graph`` (the
    CSR ``apsp`` is the closure of) reaches ``x`` when it starts from every
    such ``k`` at time ``d(k,t)``.  :func:`_fold_sweep` runs it in integer
    ticks for a block of touched columns at once, one bit each; bitwise the
    push where :func:`closure_exact` says so (with every finite entry of
    ``dv`` marked, the rectangle fold).  Weights, seeds or paths past
    the tick cap (``_LEVEL_CAP``) hand the fold, or the block, to the push
    before any of it is written.  ``changed`` is only read.
    """
    n = dv.shape[0]
    arcs = _ring_arcs(graph)
    if arcs is None:
        return minplus_fold_changed(apsp, dv, changed)
    cols = np.flatnonzero(changed.any(axis=0))
    block = _closure_block(n, arcs)
    improved_rows = np.zeros(n, dtype=np.bool_)
    for b0 in range(0, cols.size, block):
        block_cols = cols[b0:b0 + block]
        # rows stay contiguous for the bit packing (dv[:, cols]'s would not)
        cur = np.take(dv, block_cols, axis=1)
        mask = np.take(changed, block_cols, axis=1)
        cand = _fold_sweep(arcs, cur, mask)
        if cand is None:
            rows = minplus_fold_changed(apsp, cur, mask)
        else:
            better = cand < cur
            rows = np.flatnonzero(better.any(axis=1))
            np.copyto(cur, cand, where=better)
        if len(rows):
            dv[:, block_cols] = cur
            improved_rows[rows] = True
    return [int(r) for r in np.flatnonzero(improved_rows)]


def _ring_arcs(graph: CSR) -> Optional[RingArcs]:
    """:func:`_fold_sweep`'s arcs over the CSR ``graph``: the padded rows'
    starts, a ring of max weight + 1 slots, and per arc ``(y, w)`` its
    gather index ``y - w * n`` (tick ``j`` reads row ``y`` of ring slot
    ``(j - w) % size``); ``None`` when the ring passes the tick cap."""
    n = graph.shape[0]
    indices, starts, weights = _padded_rows(graph)
    size = int(weights.max(initial=1)) + 1
    if size > _LEVEL_CAP:
        return None
    return indices - weights.astype(np.intp) * n, starts, size


def _closure_block(n: int, arcs: RingArcs) -> int:
    """Columns :func:`_fold_sweep` takes at once on ``n`` rows: per column
    four n-entry float64 temporaries, then n / 64 words for each ring
    slot, unvisited and 8 level planes, 1 / 64 per gathered arc, under
    ``_ENTRY_CHUNK_ELEMS`` elements."""
    back, _starts, size = arcs
    per_col = 4 * n + ((size + 9) * n + back.size) // 64
    return max(64, _ENTRY_CHUNK_ELEMS // per_col // 64 * 64)


def _fold_sweep(
    arcs: RingArcs,
    d: FloatArray,
    seeds: BoolArray,
    cap: int = _LEVEL_CAP,
) -> Optional[FloatArray]:
    """``min_k dist(x,k) + d(k,t)`` over the finite ``seeds`` ``(k, t)`` of
    ``d``, for every row ``x`` and column ``t``; ``None`` when an entry is
    first reached past tick ``cap`` (at most the tick cap ``_LEVEL_CAP``),
    or with no finite seed: the push has nothing to do either.

    Dial's buckets with the columns as bits: entry ``(k, t)`` starts at
    tick ``d(k,t) - T0`` (``T0`` the smallest seed); the frontier of tick
    ``j`` is what is seeded at ``j`` or reached by an arc of weight ``w``
    from the frontier of tick ``j - w`` (kept in a ring of the last ``max w
    + 1``), minus what is visited.  An entry's ``uint8`` level is one more
    than the tick it was reached at (0: never), kept as bit planes, and is
    mapped to ``T0 + level - 1`` (+inf for 0).
    """
    back, starts, size = arcs
    n, c = d.shape
    seeds = seeds & (d < np.inf)
    if not seeds.any():
        return None
    t0 = np.min(d, where=seeds, initial=np.inf)
    span = np.max(d, where=seeds, initial=t0) - t0
    if span > _LEVEL_CAP:
        return None
    last = int(span)
    words = -(-c // 64)
    # each entry's seed tick, 255 for none, in rows of whole words
    tick = np.full((n, words * 64), 255, dtype=np.uint8)
    tick[:, :c] = np.where(seeds, d - t0, 255)
    ring = np.zeros((size, n, words), dtype=np.uint64)
    unvisited = ~ring[0]
    planes = np.zeros((8, n, words), dtype=np.uint64)
    j = 0
    while True:
        frontier = _expand(
            ring.reshape(-1, words), (back + j * n) % (size * n), starts
        )
        if j <= last:
            seeded = np.packbits(tick == j, axis=1, bitorder="little")
            frontier |= seeded.view(np.uint64)
        frontier &= unvisited
        ring[j % size] = frontier
        ring[(j + 1) % size] = 0  # tick j read tick j + 1 - size for the last time
        if frontier.any():
            if j > cap:
                return None
            unvisited ^= frontier
            for b in range((j + 1).bit_length()):
                if (j + 1) >> b & 1:
                    planes[b] |= frontier
        elif j >= last and not ring.any():
            break
        j += 1
    top = min(j, _LEVEL_CAP + 1)  # the highest level
    level = np.zeros((n, c), dtype=np.uint8)
    for b in range(top.bit_length()):
        bits = np.unpackbits(
            planes[b].view(np.uint8), axis=1, count=c, bitorder="little"
        )
        bits <<= b
        level |= bits
    return np.append(np.inf, t0 + np.arange(top, dtype=np.float64))[level]


def relax_edge_batch_kernel(
    dv: FloatArray,
    changed: BoolArray,
    dirty_cols: BoolArray,
    cols: IndexArray,
    closure: FloatArray,
    rows: FloatArray,
) -> IndexArray:
    """Edge-addition relaxation of a whole batch of new edges [paper 9].

    ``cols`` are the ``dv`` columns of the batch's endpoints ``H``,
    ``closure`` the closed ``|H| x |H|`` distances among them (through the
    new edges and the endpoint rows) and ``rows`` the endpoints' DV rows
    as broadcast at the start of the batch.  With ``Y = dv[:, H]``
    min-plus ``closure``:

        d(x,h) <- min(d(x,h), Y(x,h))
        d(x,t) <- min(d(x,t), min_h Y(x,h) + row_h(t))

    for every local row ``x`` and target ``t`` (Fig. 3 lines 26-34 for
    every edge of the batch at once).  A row tile at a time, the
    candidates of every endpoint whose row is finite beyond its own column
    are folded into one reused candidate buffer, which then meets the
    tile of ``dv`` with one compare and one write.  Mutates
    ``dv``, ``changed`` (the entries lowered) and ``dirty_cols`` in place;
    returns the sorted local rows that improved.  +inf needs no filter:
    ``inf + x`` is ``inf`` and weights are positive and finite, so no NaN
    arises.
    """
    n_local, n_cols = dv.shape
    if n_local == 0 or cols.size == 0:
        return np.zeros(0, dtype=np.intp)
    src = dv[:, cols]
    y = np.full((n_local, cols.size), np.inf)
    tmp = np.empty_like(y)
    for i in np.flatnonzero(np.isfinite(src).any(axis=0)):
        np.add(src[:, i, None], closure[i], out=tmp)
        np.minimum(y, tmp, out=y)
    through = np.flatnonzero(np.isfinite(rows).sum(axis=1) > 1)
    y_t = y[:, through].T.copy()  # one contiguous column per endpoint
    tile = max(1, _EDGE_TILE_ELEMS // n_cols)
    cand = np.empty((min(tile, n_local), n_cols))
    buf = np.empty_like(cand)
    improved = np.zeros(n_local, dtype=np.bool_)
    for lo in range(0, n_local, tile):
        hi = min(lo + tile, n_local)
        block, part = cand[:hi - lo], buf[:hi - lo]
        block.fill(np.inf)
        block[:, cols] = y[lo:hi]
        for k, h in enumerate(through):
            np.copyto(part, rows[h])
            np.add(part, y_t[k, lo:hi, None], out=part)
            np.minimum(block, part, out=block)
        mask = block < dv[lo:hi]
        lowered = mask.any(axis=1)
        if lowered.any():
            np.copyto(dv[lo:hi], block, where=mask)
            changed[lo:hi] |= mask
            dirty_cols |= mask.any(axis=0)
            improved[lo:hi] = lowered
    return np.flatnonzero(improved)

"""The ``numba`` tier: optional ``@njit``-compiled kernels.

Install with ``pip install repro[numba]``.  When numba is importable
the IA chunk kernel runs a compiled CSR Dijkstra (binary heap,
deterministic index tie-breaking) and the RC superstep runs a compiled
cut-edge relaxation (the min-plus fold is the oracle's, inherited — one
fold for every tier); when it is not, the tier silently degrades to :class:`~repro.runtime.kernels.scipy_tier.
ScipyTier` behavior so ``kernel_tier="numba"`` is always safe to
request.

Accuracy contract (asserted in the test suite when numba is present):

* relaxation is **bitwise-exact** — each candidate is a single
  float64 add and the min over exact candidates is order-independent,
  so the compiled loop reproduces the oracle's bits (and marks the
  same ``changed`` entries);
* Dijkstra is exact-or-bounded: equal-length shortest paths may be
  explored in a different order than scipy's implementation, and the
  per-edge partial sums of two same-length paths can round
  differently, so distances (and closeness) are only guaranteed to
  ``NUMBA_CLOSENESS_RTOL``-relative agreement with the oracle.

The modeled clock, traces and fault accounting are tier-invariant by
construction: charges are computed from task shape in the worker's
``*_apply`` methods, never inside kernels.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from ...types import BoolArray, FloatArray
from .base import IATask, RelaxItems
from .registry import register_tier
from .scipy_tier import ScipyTier

__all__ = ["HAS_NUMBA", "NUMBA_CLOSENESS_RTOL", "NumbaTier"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None  # type: ignore[assignment]
    HAS_NUMBA = False

#: Documented bound on closeness disagreement vs the ``numpy`` oracle:
#: tied shortest paths may accumulate in a different order, so each
#: distance can differ by a few ulps of rounding per path hop.
NUMBA_CLOSENESS_RTOL = 1e-9


if HAS_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)  # type: ignore[misc]
    def _nb_dijkstra_sources(
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        lo: int,
        hi: int,
        out: np.ndarray,
    ) -> None:
        """CSR Dijkstra for sources ``[lo, hi)`` into ``out`` rows.

        The adjacency is stored symmetrically, so directed traversal
        equals the undirected shortest paths scipy computes.  Lazy-
        deletion binary heap with (distance, node-index) ordering for
        deterministic tie handling.
        """
        n = indptr.shape[0] - 1
        cap = data.shape[0] + 1
        heap_d = np.empty(cap, dtype=np.float64)
        heap_v = np.empty(cap, dtype=np.int64)
        done = np.empty(n, dtype=np.bool_)
        for s in range(lo, hi):
            row = out[s - lo]
            for j in range(n):
                row[j] = np.inf
                done[j] = False
            row[s] = 0.0
            heap_d[0] = 0.0
            heap_v[0] = s
            size = 1
            while size > 0:
                # pop-min
                d = heap_d[0]
                u = heap_v[0]
                size -= 1
                heap_d[0] = heap_d[size]
                heap_v[0] = heap_v[size]
                i = 0
                while True:
                    left = 2 * i + 1
                    if left >= size:
                        break
                    child = left
                    right = left + 1
                    if right < size and (
                        heap_d[right] < heap_d[left]
                        or (
                            heap_d[right] == heap_d[left]
                            and heap_v[right] < heap_v[left]
                        )
                    ):
                        child = right
                    if heap_d[child] < heap_d[i] or (
                        heap_d[child] == heap_d[i]
                        and heap_v[child] < heap_v[i]
                    ):
                        heap_d[i], heap_d[child] = heap_d[child], heap_d[i]
                        heap_v[i], heap_v[child] = heap_v[child], heap_v[i]
                        i = child
                    else:
                        break
                if done[u] or d > row[u]:
                    continue
                done[u] = True
                for e in range(indptr[u], indptr[u + 1]):
                    v = indices[e]
                    nd = d + data[e]
                    if nd < row[v]:
                        row[v] = nd
                        heap_d[size] = nd
                        heap_v[size] = v
                        i = size
                        size += 1
                        while i > 0:
                            p = (i - 1) // 2
                            if heap_d[i] < heap_d[p] or (
                                heap_d[i] == heap_d[p]
                                and heap_v[i] < heap_v[p]
                            ):
                                heap_d[i], heap_d[p] = heap_d[p], heap_d[i]
                                heap_v[i], heap_v[p] = heap_v[p], heap_v[i]
                                i = p
                            else:
                                break

    @numba.njit(cache=True)  # type: ignore[misc]
    def _nb_relax_rows(
        dv: np.ndarray,
        changed: np.ndarray,
        dirty: np.ndarray,
        row_x: np.ndarray,
        rs: np.ndarray,
        ws: np.ndarray,
    ) -> np.ndarray:
        """Relax one external row against its cut edges; exact."""
        improved = np.zeros(rs.shape[0], dtype=np.bool_)
        n_cols = row_x.shape[0]
        for idx in range(rs.shape[0]):
            r = rs[idx]
            w = ws[idx]
            any_imp = False
            for t in range(n_cols):
                cand = row_x[t] + w
                if cand < dv[r, t]:
                    dv[r, t] = cand
                    changed[r, t] = True
                    dirty[t] = True
                    any_imp = True
            improved[idx] = any_imp
        return improved


@register_tier("numba")
class NumbaTier(ScipyTier):
    """Compiled kernels when numba is installed; scipy decomposition else.

    ``compiled`` reports whether the njit path is active — ``False``
    means every call degrades to the inherited (oracle-exact) scipy
    behavior.
    """

    name = "numba"

    #: True iff numba imported and the compiled kernels are in use
    compiled: bool = HAS_NUMBA

    def ia_chunk_kernel(
        self, task: IATask, lo: int, hi: int, dv: FloatArray, apsp: FloatArray
    ) -> None:
        if not HAS_NUMBA:
            super().ia_chunk_kernel(task, lo, hi, dv, apsp)
            return
        m = task.matrix  # pragma: no cover - numba-only path
        _nb_dijkstra_sources(m.indptr, m.indices, m.data, lo, hi, apsp[lo:hi])
        cols = task.cols
        dv[lo:hi, cols] = np.minimum(dv[lo:hi, cols], apsp[lo:hi, :])

    def ia_kernel(self, task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
        if not HAS_NUMBA:
            super().ia_kernel(task, dv, apsp)
            return
        self.ia_chunk_kernel(task, 0, task.n, dv, apsp)  # pragma: no cover

    def relax_cut(
        self,
        dv: FloatArray,
        changed: BoolArray,
        dirty_cols: BoolArray,
        items: RelaxItems,
    ) -> List[int]:
        if not HAS_NUMBA:
            return super().relax_cut(dv, changed, dirty_cols, items)
        improved: Set[int] = set()  # pragma: no cover - numba-only path
        for row_x, pairs in items:
            rs = np.array([r for r, _ in pairs], dtype=np.int64)
            ws = np.array([w for _, w in pairs], dtype=np.float64)
            flags = _nb_relax_rows(dv, changed, dirty_cols, row_x, rs, ws)
            for r, f in zip(rs, flags):
                if f:
                    improved.add(int(r))
        return sorted(improved)

"""Task shapes and the kernel-tier interface.

The per-rank compute of the two parallelizable phases travels as
picklable *task* dataclasses (built by the worker in the coordinating
process) plus the worker's large matrices — ``dv``, ``local_apsp`` and
the ``dv``-shaped changed-entry mask — passed in explicitly so a
subprocess can supply shared-memory views.

A :class:`KernelTier` is one implementation of the compute itself: the
``numpy`` tier is the bitwise oracle (the original NumPy/SciPy
statements) and the ``scipy`` tier splits one rank's IA into many
source-chunks that fan out across the process pool.
Every tier must keep closeness, traces and the modeled clock invariant:
the modeled charges are computed from task *shape* only (``n``,
``nnz``), in the worker's ``*_apply`` methods, so they cannot depend on
which tier executed the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from ...types import BoolArray, FloatArray

#: DV column indices as produced by ``np.flatnonzero`` / index building.
IndexArray = NDArray[np.intp]

#: Cut-edge relaxation inputs: per fresh external row, the received DV
#: row and the ``(local row, edge weight)`` pairs relaxed against it.
RelaxItems = List[Tuple[FloatArray, List[Tuple[int, float]]]]

#: Half-open ``[lo, hi)`` source ranges one rank's IA splits into.
ChunkList = List[Tuple[int, int]]

__all__ = [
    "ChunkList",
    "IATask",
    "IndexArray",
    "KernelTier",
    "RelaxItems",
    "SuperstepResult",
    "SuperstepTask",
]


@dataclass
class IATask:
    """One rank's IA-phase work: local APSP + fold into owned DV columns."""

    #: local adjacency in CSR form (scipy matrix; picklable)
    matrix: Any
    #: global DV column of each owned vertex, in row order
    cols: IndexArray
    #: number of owned vertices (== rows of ``local_apsp``)
    n: int
    #: directed stored-edge count of ``matrix`` (for the modeled charge)
    nnz: int
    #: kernel tier executing this task (resolved by name in pool children)
    tier: str = "numpy"


@dataclass
class SuperstepTask:
    """One rank's RC-superstep work (relaxation inputs + fold extent)."""

    n: int
    #: per fresh external row, in relaxation order: the received DV row
    #: and the ``(local row, cut-edge weight)`` pairs relaxed against it
    relax_items: RelaxItems
    #: rows already marked changed before this superstep, sorted
    changed_rows: List[int]
    #: private copy of the dirty-column mask (the kernel extends it with
    #: the columns the relaxation improves)
    dirty_cols: BoolArray
    full_repropagate: bool
    #: with ``full_repropagate``: the entries of ``dv`` raised since the
    #: last fold (read-only), or ``None`` when what rose is not known
    rose: Optional[BoolArray] = None
    #: the ``local_apsp`` pairs lowered since the last fold (read-only),
    #: or ``None`` when there are none
    fell: Optional[BoolArray] = None
    #: kernel tier executing this task (resolved by name in pool children)
    tier: str = "numpy"

    @property
    def n_relaxations(self) -> int:
        return sum(len(pairs) for _row, pairs in self.relax_items)


@dataclass
class SuperstepResult:
    """What the coordinating process needs back from a superstep kernel."""

    #: local rows the cut-edge relaxation improved, sorted
    relax_improved: List[int] = field(default_factory=list)
    #: True iff the propagation fold ran (and its compute must be charged)
    prop_charged: bool = False
    #: local rows the propagation fold improved, sorted
    prop_improved: List[int] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return bool(self.relax_improved) or bool(self.prop_improved)


class KernelTier:
    """One implementation of the per-rank compute kernels.

    Subclasses override the arithmetic; the superstep *structure* (which
    rows/columns fold, in what order outcomes are reported) is fixed
    here so every tier makes the same decisions as the serial oracle.

    Location transparency: tier methods receive ``dv`` / ``local_apsp``
    / ``changed`` as parameters and must never stash them — the backend
    decides whether they are private arrays or shared-memory views.
    """

    #: registry name, e.g. ``"numpy"`` / ``"scipy"``
    name: str = "base"

    # -- IA phase ------------------------------------------------------
    def ia_chunks(self, task: IATask, parallelism: int) -> ChunkList:
        """Split ``task``'s sources into independently runnable chunks.

        The default is one chunk (the whole task); tiers that support
        source-parallel IA return many so the backend can fan one
        rank's Dijkstra out across the pool.  ``parallelism`` is the
        number of pool slots available.
        """
        return [(0, task.n)]

    def ia_kernel(self, task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
        """Full IA task: local APSP into ``apsp`` + owned-column DV fold."""
        raise NotImplementedError

    def ia_chunk_kernel(
        self, task: IATask, lo: int, hi: int, dv: FloatArray, apsp: FloatArray
    ) -> None:
        """IA sources ``[lo, hi)`` only: disjoint ``apsp`` / ``dv`` rows.

        Chunks write disjoint row ranges of both matrices, so chunks of
        one task may run concurrently against the same shared memory.
        """
        raise NotImplementedError

    # -- RC superstep --------------------------------------------------
    def relax_cut(
        self,
        dv: FloatArray,
        changed: BoolArray,
        dirty_cols: BoolArray,
        items: RelaxItems,
    ) -> List[int]:
        """Cut-edge relaxation; returns the sorted local rows improved.

        Every entry lowered is also set in ``changed``.
        """
        raise NotImplementedError

    def minplus_fold(
        self,
        apsp: FloatArray,
        dv: FloatArray,
        changed: Optional[BoolArray],
        rose: Optional[BoolArray] = None,
        fell: Optional[BoolArray] = None,
    ) -> List[int]:
        """Min-plus propagation fold; returns the sorted rows improved.

        ``changed`` marks the entries of ``dv`` lowered since the last
        fold — the only sources that can improve anything while nothing
        rose and no ``apsp`` pair fell; ``None`` folds every entry
        (nothing is known about what rose).  ``rose`` marks the entries a
        deletion raised: they are pulled from every source before
        ``changed`` is pushed.  ``fell`` marks the ``apsp`` pairs a local
        edge lowered: every target is folded over them, from the sources
        as they stood after the pull.
        """
        raise NotImplementedError

    def run_superstep(
        self,
        task: SuperstepTask,
        dv: FloatArray,
        apsp: FloatArray,
        changed: BoolArray,
    ) -> SuperstepResult:
        """One rank's full RC superstep: relaxation then propagation.

        Change-tracking state arrives snapshotted inside ``task`` and
        the outcomes travel back in a :class:`SuperstepResult`; the
        worker itself is never touched, so the kernel can run anywhere.

        The task's flags decide *whether* the fold runs (and is
        charged); the ``changed`` mask decides *what* it pushes,
        ``task.fell`` the pairs it folds besides and, in a deletion
        repair, ``task.rose`` what it pulls first.
        Because ``local_apsp`` is transitively closed, a single fold
        from the entries lowered since the last propagation is complete:
        ``d(x,t) <- min_k apsp(x,k) + d(k,t)`` over the changed sources
        ``d(k,t)`` cannot be improved by chaining two local hops, and an
        unchanged ``d(k,t)`` was already folded.
        """
        dirty = task.dirty_cols
        relax_improved = self.relax_cut(dv, changed, dirty, task.relax_items)
        if task.n == 0:
            return SuperstepResult(relax_improved=relax_improved)
        if not task.full_repropagate and not (
            (task.changed_rows or relax_improved) and dirty.any()
        ):
            return SuperstepResult(relax_improved=relax_improved)
        unknown = task.full_repropagate and task.rose is None
        prop_improved = self.minplus_fold(
            apsp, dv, None if unknown else changed, task.rose, task.fell
        )
        return SuperstepResult(
            relax_improved=relax_improved,
            prop_charged=True,
            prop_improved=prop_improved,
        )

"""The per-rank compute kernels shared by the serial and process backends.

The heavy per-rank work of the two parallelizable phases — the IA-phase
local APSP (:func:`.oracle.local_apsp_rows`: a bit-parallel level sweep
when the edge weights are uniform, Dijkstra otherwise) and the RC-step
superstep (cut-edge relaxation + local min-plus propagation) — has one
implementation, the plain functions of :mod:`.oracle`, reached through
the one instance :data:`KERNELS` of :class:`KernelTier`.

Kernels touch only a picklable *task* (built by the worker in the
coordinating process) and the worker's large matrices — ``dv``,
``local_apsp``, the ``dv``-shaped changed-entry mask and the external-row
store — passed in explicitly so a subprocess can supply shared-memory
views.  Everything stateful (change tracking, subscriber queues, modeled
LogP charges, counters) stays in :class:`~repro.runtime.worker.Worker`,
which splits each phase into *prepare* (build the task), *kernel* (this
package, runnable anywhere), and *apply* (charges + bookkeeping).  Charges are
computed from task shape only, which is what keeps the modeled clock,
traces and fault accounting invariant across backends.

:func:`relax_cut_kernel` / :func:`fold` (the propagation fold's one
entry point) / :func:`minplus_fold` (the rectangle fold: a full fold
where the sweep is not exact) / :func:`minplus_fold_changed` (the entry
push of an incremental fold) / :func:`minplus_closure` (the same folds
as one seeded, bit-parallel level sweep over the local CSR, which
:func:`fold` takes where it is exact, and cheaper for a push) re-export
the oracle implementations for direct use and tests.
:func:`relax_edge_batch_kernel` (the edge-addition relaxation of a whole
batch of new edges) is called by the worker directly.
"""

from __future__ import annotations

from typing import List, Optional

from ...graph.graph import CSR
from ...types import BoolArray, FloatArray
from . import oracle
from .base import (
    IATask,
    IndexArray,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
)
from .oracle import (
    fold,
    minplus_closure,
    minplus_fold,
    minplus_fold_changed,
    relax_cut_kernel,
    relax_edge_batch_kernel,
)

# read only by benchmarks/e2e/run.py::_host, which this tree may not edit;
# goes with the next [benchmark] PR
HAS_NUMBA = False

__all__ = [
    "IATask",
    "IndexArray",
    "KERNELS",
    "KernelTier",
    "RelaxItems",
    "SuperstepResult",
    "SuperstepTask",
    "fold",
    "minplus_closure",
    "minplus_fold",
    "minplus_fold_changed",
    "relax_cut_kernel",
    "relax_edge_batch_kernel",
]


# the name is read by benchmarks/e2e/spans.py, which this tree may not
# edit and which times only the plain functions in this class's
# __dict__; goes with the next [benchmark] PR
class KernelTier:
    """The per-rank compute kernels, as methods that delegate to :mod:`.oracle`.

    The methods are plain functions of the class (the wall-clock
    harness times them by wrapping them there), and the one instance
    :data:`KERNELS` is what the worker, the backends and the pool
    children call.  Location transparency: the methods receive ``dv`` /
    ``local_apsp`` / ``changed`` / ``ext`` as parameters and never stash
    them — the backend decides whether they are private arrays or
    shared-memory views.
    """

    def ia_kernel(self, task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
        """Full IA task: local APSP into ``apsp`` + owned-column DV fold."""
        oracle.ia_kernel(task, dv, apsp)

    def relax_cut(
        self,
        dv: FloatArray,
        changed: BoolArray,
        dirty_cols: BoolArray,
        ext: FloatArray,
        items: RelaxItems,
    ) -> List[int]:
        """Cut-edge relaxation against the stored rows ``ext[slot]``;
        returns the sorted local rows improved.

        Every entry lowered is also set in ``changed``.
        """
        return oracle.relax_cut_kernel(dv, changed, dirty_cols, ext, items)

    def minplus_fold(
        self,
        apsp: FloatArray,
        dv: FloatArray,
        changed: Optional[BoolArray],
        graph: Optional[CSR] = None,
    ) -> List[int]:
        """Min-plus propagation fold (:func:`.oracle.fold`): ``changed``
        pushed, or the block re-derived when it is ``None``."""
        return oracle.fold(apsp, dv, changed, graph)

    def run_superstep(
        self,
        task: SuperstepTask,
        dv: FloatArray,
        apsp: FloatArray,
        changed: BoolArray,
        ext: FloatArray,
    ) -> SuperstepResult:
        """One rank's full RC superstep: relaxation then propagation.

        ``ext`` is the rank's external-row store, which the task's
        relaxation items index by slot.

        Change-tracking state arrives snapshotted inside ``task`` and
        the outcomes travel back in a :class:`SuperstepResult`; the
        worker itself is never touched, so the kernel can run anywhere.

        The task's flags decide *whether* the fold runs (and is
        charged), and ``task.full_repropagate`` which kind it is: a full
        fold re-derives the block from every entry; an incremental one
        pushes what the ``changed`` mask marks.  Because ``local_apsp``
        is transitively closed, a single push from the entries lowered
        since the last propagation is complete: ``d(x,t) <- min_k
        apsp(x,k) + d(k,t)`` over the changed sources ``d(k,t)`` cannot be
        improved by chaining two local hops, and an unchanged ``d(k,t)``
        was already folded.
        """
        dirty = task.dirty_cols
        relax_improved = self.relax_cut(dv, changed, dirty, ext, task.relax_items)
        if task.n == 0:
            return SuperstepResult(relax_improved=relax_improved)
        if not task.full_repropagate and not (
            (task.changed_rows or relax_improved) and dirty.any()
        ):
            return SuperstepResult(relax_improved=relax_improved)
        prop_improved = self.minplus_fold(
            apsp, dv, None if task.full_repropagate else changed, task.graph
        )
        return SuperstepResult(
            relax_improved=relax_improved,
            prop_charged=True,
            prop_improved=prop_improved,
        )


#: the one kernel set every backend runs
KERNELS = KernelTier()

"""The process backend: per-rank kernels on a persistent worker pool.

Between two BSP barriers every rank's kernels are independent, so each
superstep fans its :class:`~repro.runtime.kernels.IATask` /
:class:`~repro.runtime.kernels.SuperstepTask` out to a persistent
``ProcessPoolExecutor`` (one slot per rank).  The heavy matrices of each
rank's :class:`~repro.runtime.entries.EntryStore` — ``dv``,
``local_apsp``, the ``dv``-shaped changed-entry mask and the external
rows — live in ``multiprocessing.shared_memory`` (see
:mod:`repro.runtime.shm`) and travel as one tuple of segment descriptors
(``EntryStore.descriptors()``), which a child attaches once and caches.
What is pickled is the task and its
outcome: the relaxation's store slots, local rows and edge weights, the
dirty-column mask, the fold's kind (``full_repropagate``), the local
CSR, and the improved row indices back — no received or computed DV
row.  The matrices are mutated in place by the children and are
immediately visible to the coordinating process, which runs the
exchanges, modeled clock, chaos injection and checkpointing unchanged.
The speculative backup of a straggler is the exception: it runs on
pickled private copies of ``dv`` / ``local_apsp`` / the mask (and ships
``dv`` back), reading the store through its descriptor.

Determinism: the children execute the exact kernel functions the serial
backend runs, one rank per task, and the cluster applies the outcomes
in rank order whatever the backend — hence bitwise-identical results,
traces and modeled clocks.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import DTypeLike, NDArray

from ...errors import ConfigurationError
from ...types import BoolArray, FloatArray
from ..entries import KernelArrays
from ..kernels import KERNELS, IATask, SuperstepResult, SuperstepTask, oracle
from ..shm import (
    SharedMemoryAllocator,
    ShmDescriptor,
    attach_shm_array,
    detach_shm,
)
from ..worker import Worker
from .base import ExecutionBackend

__all__ = ["ProcessBackend"]

# ----------------------------------------------------------------------
# child-side: attachment cache + kernel entry points (module level so
# they pickle by reference)
# ----------------------------------------------------------------------

#: (rank, role) -> (segment name, attachment, mapped array): one mapping
#: per array of each rank.  A descriptor naming another segment (the
#: coordinator re-homed the array, or a new cluster took the rank)
#: replaces the entry and detaches the old mapping: an unlinked
#: segment's pages stay resident while any process still maps it.
_ATTACHED: Dict[Tuple[int, str], Tuple[str, SharedMemory, NDArray[Any]]] = {}


def _attached(
    key: Tuple[int, str], desc: ShmDescriptor, dtype: DTypeLike = np.float64
) -> NDArray[Any]:
    hit = _ATTACHED.pop(key, None)
    if hit is not None:
        name, shm, arr = hit
        if name == desc[0]:
            _ATTACHED[key] = hit
            return arr
        del arr, hit  # release the buffer so the mapping can close now
        detach_shm(shm)
    shm, arr = attach_shm_array(desc, dtype)
    _ATTACHED[key] = (desc[0], shm, arr)
    return arr


#: role and dtype of each kernel array, in ``KernelArrays`` order
_ROLES: Tuple[Tuple[str, DTypeLike], ...] = (
    ("dv", np.float64), ("apsp", np.float64), ("changed", np.bool_), ("ext", np.float64)
)


def _attach_all(rank: int, descs: Sequence[ShmDescriptor]) -> List[NDArray[Any]]:
    """A rank's arrays from (a prefix of) its ``EntryStore.descriptors()``."""
    return [_attached((rank, role), d, dt) for (role, dt), d in zip(_ROLES, descs)]


def _child_ia(rank: int, descs: Sequence[ShmDescriptor], task: IATask) -> None:
    KERNELS.ia_kernel(task, *_attach_all(rank, descs[:2]))


def _child_superstep(
    rank: int, descs: Sequence[ShmDescriptor], task: SuperstepTask
) -> SuperstepResult:
    return KERNELS.run_superstep(task, *_attach_all(rank, descs))


def _child_speculative(
    task: SuperstepTask,
    dv: FloatArray,
    apsp: FloatArray,
    changed: BoolArray,
    ext_desc: ShmDescriptor,
) -> Tuple[SuperstepResult, FloatArray]:
    """Speculative re-execution on plain (pickled) array copies.

    The arrays are private copies, not shared memory, so the mutated
    ``dv`` must travel back with the result for the coordinator-side
    bitwise-identity check.  The store is read in place, through a
    mapping held for this call only.
    """
    shm, ext = attach_shm_array(ext_desc)
    try:
        return KERNELS.run_superstep(task, dv, apsp, changed, ext), dv
    finally:
        del ext
        detach_shm(shm)


# ----------------------------------------------------------------------
# coordinator-side: persistent pool, grown on demand and shared by all
# ProcessBackend instances in this process
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_SIZE = 0


def _get_pool(n: int) -> ProcessPoolExecutor:
    """The shared pool, grown (never shrunk) to at least ``n`` slots.

    Pinned to the fork start method: forked children share the parent's
    shared-memory resource tracker, which is what makes segment
    attach/unlink accounting balance (see
    :func:`repro.runtime.shm.attach_shm_array`).
    """
    global _POOL, _POOL_SIZE
    if _POOL is None or _POOL_SIZE < n:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "backend='process' requires the fork start method"
                " (POSIX); use backend='serial' on this platform"
            )
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(
            max_workers=n, mp_context=multiprocessing.get_context("fork")
        )
        _POOL_SIZE = n
    return _POOL


class ProcessBackend(ExecutionBackend):
    """Fan per-rank kernels out to a persistent process pool."""

    name = "process"

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.allocator = SharedMemoryAllocator()

    def run_ia(
        self, workers: List[Worker], tasks: List[Optional[IATask]]
    ) -> None:
        if any(t is not None and oracle.dijkstra_weights(t.matrix) for t in tasks):
            # the children are forks of this process: loading scipy here
            # first lets them share it, not each import it at its first call
            import scipy.sparse.csgraph  # noqa: F401
        pool = _get_pool(max(self.nprocs, len(workers)))
        futures: List["Future[None]"] = []
        for w, task in zip(workers, tasks):
            if task is not None:
                futures.append(
                    pool.submit(_child_ia, w.rank, w.entries.descriptors(), task)
                )
        for fut in futures:
            fut.result()

    def relax_and_propagate(
        self, workers: List[Worker], tasks: List[SuperstepTask]
    ) -> List[SuperstepResult]:
        pool = _get_pool(max(self.nprocs, len(workers)))
        futures: List[Optional["Future[SuperstepResult]"]] = []
        for w, task in zip(workers, tasks):
            if task.n == 0 or (
                not task.relax_items
                and not task.changed_rows
                and not task.full_repropagate
            ):
                # nothing to relax and nothing to fold: the kernel would
                # return an empty result, so skip the round trip
                futures.append(None)
                continue
            futures.append(
                pool.submit(
                    _child_superstep, w.rank, w.entries.descriptors(), task
                )
            )
        return [
            fut.result() if fut is not None else SuperstepResult()
            for fut in futures
        ]

    def run_speculative(
        self, task: SuperstepTask, arrays: KernelArrays
    ) -> SuperstepResult:
        pool = _get_pool(max(self.nprocs, 1))
        result, out_dv = pool.submit(
            _child_speculative,
            task,
            arrays.dv,
            arrays.apsp,
            arrays.changed,
            self.allocator.descriptor(arrays.ext),
        ).result()
        # the child mutated its own pickled copy; mirror it into the
        # caller's array so the identity check sees the backup's outcome
        arrays.dv[:, :] = out_dv
        return result

    def close(self) -> None:
        self.allocator.release_all()

"""The process backend: per-rank kernels on a persistent worker pool.

Between two BSP barriers every rank's kernels are independent, so each
superstep fans its :class:`~repro.runtime.kernels.IATask` /
:class:`~repro.runtime.kernels.SuperstepTask` out to a persistent
``ProcessPoolExecutor`` (one slot per rank).  The heavy matrices —
``dv``, ``local_apsp`` and the ``dv``-shaped changed-entry mask — live
in ``multiprocessing.shared_memory``
(see :mod:`repro.runtime.shm`), so only the task descriptions and
row-index outcomes cross the process boundary; the matrices themselves
are mutated in place by the children and are immediately visible to the
coordinating process, which runs the exchanges, modeled clock, chaos
injection and checkpointing unchanged.

Determinism: the children execute the exact kernel functions the serial
backend runs, one rank per task, and the cluster applies the outcomes
in rank order whatever the backend — hence bitwise-identical results,
traces and modeled clocks.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike, NDArray

from ...errors import ConfigurationError
from ...types import BoolArray, FloatArray
from ..kernels import (
    IATask,
    SuperstepResult,
    SuperstepTask,
    ia_kernel,
    make_tier,
    run_superstep,
)
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

#: segment name -> (attachment, mapped array); names are never reused,
#: so a cached mapping can only go stale when the coordinator unlinks
#: the segment — and then no future task references that name again
_ATTACHED: Dict[str, Tuple[SharedMemory, NDArray[Any]]] = {}

#: cache cap; beyond it the oldest attachments are detached (FIFO)
_ATTACH_CACHE_MAX = 128


def _attached(
    desc: ShmDescriptor, dtype: DTypeLike = np.float64
) -> NDArray[Any]:
    name = desc[0]
    hit = _ATTACHED.get(name)
    if hit is not None:
        return hit[1]
    while len(_ATTACHED) >= _ATTACH_CACHE_MAX:
        oldest = next(iter(_ATTACHED))
        shm, _arr = _ATTACHED.pop(oldest)
        detach_shm(shm)
    shm, arr = attach_shm_array(desc, dtype)
    _ATTACHED[name] = (shm, arr)
    return arr


def _child_ia(
    dv_desc: ShmDescriptor, apsp_desc: ShmDescriptor, task: IATask
) -> None:
    ia_kernel(task, _attached(dv_desc), _attached(apsp_desc))


def _child_ia_chunk(
    dv_desc: ShmDescriptor,
    apsp_desc: ShmDescriptor,
    task: IATask,
    lo: int,
    hi: int,
) -> None:
    """One source-chunk of a rank's IA task (tiers with chunked IA).

    Chunks of the same task write disjoint ``[lo, hi)`` row ranges of
    both shared matrices, so any number of them may run concurrently.
    """
    make_tier(task.tier).ia_chunk_kernel(
        task, lo, hi, _attached(dv_desc), _attached(apsp_desc)
    )


def _child_superstep(
    dv_desc: ShmDescriptor,
    apsp_desc: ShmDescriptor,
    changed_desc: ShmDescriptor,
    task: SuperstepTask,
) -> SuperstepResult:
    return run_superstep(
        task,
        _attached(dv_desc),
        _attached(apsp_desc),
        _attached(changed_desc, np.bool_),
    )


def _child_speculative(
    task: SuperstepTask, dv: FloatArray, apsp: FloatArray, changed: BoolArray
) -> Tuple[SuperstepResult, FloatArray]:
    """Speculative re-execution on plain (pickled) array copies.

    The arrays are private copies, not shared memory, so the mutated
    ``dv`` must travel back with the result for the coordinator-side
    bitwise-identity check.
    """
    return run_superstep(task, dv, apsp, changed), dv


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

    def _descriptors(
        self, w: Worker
    ) -> Tuple[ShmDescriptor, ShmDescriptor]:
        return (
            self.allocator.descriptor(w.dv),
            self.allocator.descriptor(w.local_apsp),
        )

    def run_ia(
        self, workers: List[Worker], tasks: List[Optional[IATask]]
    ) -> None:
        slots = max(self.nprocs, len(workers))
        pool = _get_pool(slots)
        futures: List["Future[None]"] = []
        for w, task in zip(workers, tasks):
            if task is None:
                continue
            dv_desc, apsp_desc = self._descriptors(w)
            chunks = make_tier(task.tier).ia_chunks(task, slots)
            if len(chunks) == 1:
                # whole-rank task: the pre-tier fast path, one future
                futures.append(
                    pool.submit(_child_ia, dv_desc, apsp_desc, task)
                )
            else:
                # source-parallel IA: one rank's Dijkstra fans out across
                # the whole pool (chunks write disjoint rows, see
                # _child_ia_chunk), lifting the speedup cap beyond the
                # rank count
                futures.extend(
                    pool.submit(
                        _child_ia_chunk, dv_desc, apsp_desc, task, lo, hi
                    )
                    for lo, hi in chunks
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
            dv_desc, apsp_desc = self._descriptors(w)
            futures.append(
                pool.submit(
                    _child_superstep,
                    dv_desc,
                    apsp_desc,
                    self.allocator.descriptor(w.dv_changed),
                    task,
                )
            )
        return [
            fut.result() if fut is not None else SuperstepResult()
            for fut in futures
        ]

    def run_speculative(
        self,
        task: SuperstepTask,
        dv: FloatArray,
        apsp: FloatArray,
        changed: BoolArray,
    ) -> SuperstepResult:
        pool = _get_pool(max(self.nprocs, 1))
        result, out_dv = pool.submit(
            _child_speculative, task, dv, apsp, changed
        ).result()
        # the child mutated its own pickled copy; mirror it into the
        # caller's array so the identity check sees the backup's outcome
        dv[:, :] = out_dv
        return result

    def close(self) -> None:
        self.allocator.release_all()

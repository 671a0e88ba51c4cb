"""The in-process backend: every kernel runs in the coordinator."""

from __future__ import annotations

from typing import List, Optional

from ..kernels import KERNELS, IATask, SuperstepResult, SuperstepTask
from ..shm import ArrayAllocator
from ..worker import Worker
from .base import ExecutionBackend

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Run every rank's kernels sequentially in the coordinating process."""

    name = "serial"

    def __init__(self) -> None:
        self.allocator = ArrayAllocator()

    def run_ia(
        self, workers: List[Worker], tasks: List[Optional[IATask]]
    ) -> None:
        for w, task in zip(workers, tasks):
            if task is not None:
                KERNELS.ia_kernel(task, w.dv, w.local_apsp)

    def relax_and_propagate(
        self, workers: List[Worker], tasks: List[SuperstepTask]
    ) -> List[SuperstepResult]:
        return [
            KERNELS.run_superstep(task, *w.entries.kernel_arrays())
            for w, task in zip(workers, tasks)
        ]

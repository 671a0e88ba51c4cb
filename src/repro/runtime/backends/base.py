"""Execution-backend interface.

A backend decides *where* the per-rank compute kernels of the two
parallelizable phases run — the IA-phase local Dijkstra and the RC-step
superstep (cut-edge relaxation + local min-plus propagation) — and does
nothing else: the cluster prepares every rank's task
(``Worker.ia_prepare`` / ``superstep_prepare``), hands the list to the
backend, and applies the outcomes itself in rank order
(``Worker.ia_apply`` / ``superstep_apply``).  Exchanges, modeled clock,
tracing, fault injection, checkpointing and dynamic change strategies
all stay in the coordinating process and are backend-agnostic.

Why every backend is bitwise-identical: each rank's kernels between two
``sync_compute`` barriers are independent (they touch only that rank's
``dv`` / ``local_apsp``), so execution order across ranks cannot matter,
and every charge and queue update happens in the cluster's apply loop,
which no backend can reorder.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from ...types import BoolArray, FloatArray
from ..kernels import IATask, SuperstepResult, SuperstepTask, run_superstep
from ..shm import ArrayAllocator
from ..worker import Worker

__all__ = ["ExecutionBackend"]


class ExecutionBackend(ABC):
    """Runs per-rank compute kernels for :class:`~repro.runtime.cluster.Cluster`."""

    #: short identifier, e.g. ``"serial"`` / ``"process"``
    name: str = "base"

    #: allocator workers must use for ``dv`` / ``local_apsp`` / ``dv_changed``
    allocator: ArrayAllocator

    @abstractmethod
    def run_ia(
        self, workers: List[Worker], tasks: List[Optional[IATask]]
    ) -> None:
        """Execute each rank's IA kernel (local APSP + DV fold) against
        its worker's matrices; ``None`` marks a rank that owns nothing."""

    @abstractmethod
    def relax_and_propagate(
        self, workers: List[Worker], tasks: List[SuperstepTask]
    ) -> List[SuperstepResult]:
        """Execute each rank's RC-superstep kernel against its worker's
        matrices; returns the outcomes in rank order."""

    def run_speculative(
        self,
        task: SuperstepTask,
        dv: FloatArray,
        apsp: FloatArray,
        changed: BoolArray,
    ) -> SuperstepResult:
        """Re-execute one rank's superstep on private array copies.

        The straggler-mitigation backup: runs the exact superstep kernel
        against the caller's copies of ``dv`` / ``local_apsp`` /
        ``dv_changed`` so the
        result can be verified bitwise-identical against the straggling
        rank's own outcome.  Backends may run it anywhere (the process
        backend ships it to a pool child); the default runs in-process.
        """
        return run_superstep(task, dv, apsp, changed)

    def close(self) -> None:
        """Release backend resources (shared memory, pool slots)."""

"""Tiered compute kernels shared by the serial and process backends.

The heavy per-rank work of the two parallelizable phases — the IA-phase
local APSP (:func:`.oracle.local_apsp_rows`: a bit-parallel level sweep
when the edge weights are uniform, Dijkstra otherwise) and the RC-step
superstep (cut-edge relaxation + local min-plus propagation) — is
factored into *kernel tiers*: pluggable implementations selected via
``AnytimeConfig.kernel_tier`` / ``$REPRO_KERNEL_TIER`` /
``--kernel-tier`` and registered in :data:`KERNEL_TIERS` (mirroring
``STRATEGIES`` / ``POLICIES``):

``numpy``
    the original NumPy/SciPy statements (:mod:`.oracle`), kept as the
    bitwise oracle every other tier is pinned against;
``scipy``
    the same arithmetic with source-chunked IA (rows ``[lo, hi)`` per
    chunk), so one rank's all-pairs IA fans out across the whole
    process pool.

The two are bitwise-identical.  A further tier enters through
:func:`register_tier` with a measurement of what it buys; an unregistered
name is a :class:`~repro.errors.ConfigurationError`, never a substitute.

Kernels touch only a picklable *task* (built by the worker in the
coordinating process) and the worker's large matrices — ``dv``,
``local_apsp`` and the ``dv``-shaped changed-entry mask — passed in
explicitly so a subprocess can supply shared-memory views.  Everything stateful (change tracking, subscriber
queues, modeled LogP charges, counters) stays in
:class:`~repro.runtime.worker.Worker`, which splits each phase into
*prepare* (build the task), *kernel* (this package, runnable anywhere),
and *apply* (charges + bookkeeping).  Charges are computed from task
shape only, which is what keeps the modeled clock, traces and fault
accounting invariant across tiers.

The module-level :func:`ia_kernel` / :func:`run_superstep` dispatch on
the task's ``tier`` name (the process-pool entry points);
:func:`relax_cut_kernel` / :func:`minplus_fold` (the rectangle fold) /
:func:`minplus_fold_changed` (the entry fold every tier runs) /
:func:`minplus_closure` (the same fold as one seeded, bit-parallel level
sweep over the local CSR, which the tiers take where it is exact and
cheaper, and for every exact non-push fold) /
:func:`minplus_pull` (its dual, the deletion repair) /
:func:`minplus_fold_pairs` (the fold over fallen ``local_apsp`` pairs)
re-export the oracle implementations for direct use and tests.
:func:`relax_edge_kernel` (the per-edge relaxation of the dynamic-update
path) has one implementation, which the worker calls directly on every
tier.
"""

from __future__ import annotations

from ...types import BoolArray, FloatArray
from .base import (
    ChunkList,
    IATask,
    IndexArray,
    KernelTier,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
)
from .oracle import (
    ia_chunk_kernel,
    minplus_closure,
    minplus_fold,
    minplus_fold_changed,
    minplus_fold_pairs,
    minplus_pull,
    relax_cut_kernel,
    relax_edge_kernel,
)
from .registry import (
    KERNEL_TIERS,
    TierSpec,
    available_tiers,
    make_tier,
    register_tier,
)

# importing the tier modules registers them (in tier order)
from .numpy_tier import NumpyTier
from .scipy_tier import ScipyTier

# read only by benchmarks/e2e/run.py::_host, which this tree may not edit;
# goes with the next [benchmark] PR
HAS_NUMBA = False

__all__ = [
    "ChunkList",
    "IATask",
    "IndexArray",
    "KERNEL_TIERS",
    "KernelTier",
    "NumpyTier",
    "RelaxItems",
    "ScipyTier",
    "SuperstepResult",
    "SuperstepTask",
    "TierSpec",
    "available_tiers",
    "ia_chunk_kernel",
    "ia_kernel",
    "make_tier",
    "minplus_closure",
    "minplus_fold",
    "minplus_fold_changed",
    "minplus_fold_pairs",
    "minplus_pull",
    "register_tier",
    "relax_cut_kernel",
    "relax_edge_kernel",
    "run_superstep",
]


def ia_kernel(task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
    """Run one full IA task under the tier named by ``task.tier``."""
    make_tier(task.tier).ia_kernel(task, dv, apsp)


def run_superstep(
    task: SuperstepTask, dv: FloatArray, apsp: FloatArray, changed: BoolArray
) -> SuperstepResult:
    """Run one RC superstep under the tier named by ``task.tier``."""
    return make_tier(task.tier).run_superstep(task, dv, apsp, changed)

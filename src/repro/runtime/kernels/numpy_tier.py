"""The ``numpy`` tier: the oracle statements, one task per rank.

This tier is the reference every other tier is pinned against.  It
delegates straight to :mod:`repro.runtime.kernels.oracle` and never
splits IA tasks, so the process backend submits exactly one future per
rank — the pre-tier behavior, unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ...types import BoolArray, FloatArray
from . import oracle
from .base import IATask, KernelTier, RelaxItems
from .registry import register_tier

__all__ = ["NumpyTier"]


@register_tier("numpy")
class NumpyTier(KernelTier):
    """The bitwise oracle: pure NumPy/SciPy, whole-rank IA tasks."""

    name = "numpy"

    def ia_kernel(self, task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
        oracle.ia_kernel(task, dv, apsp)

    def ia_chunk_kernel(
        self, task: IATask, lo: int, hi: int, dv: FloatArray, apsp: FloatArray
    ) -> None:
        oracle.ia_chunk_kernel(task, lo, hi, dv, apsp)

    def relax_cut(
        self,
        dv: FloatArray,
        changed: BoolArray,
        dirty_cols: BoolArray,
        items: RelaxItems,
    ) -> List[int]:
        return oracle.relax_cut_kernel(dv, changed, dirty_cols, items)

    def minplus_fold(
        self,
        apsp: FloatArray,
        dv: FloatArray,
        changed: Optional[BoolArray],
        rose: Optional[BoolArray] = None,
        fell: Optional[BoolArray] = None,
    ) -> List[int]:
        if changed is None:
            n, c = dv.shape
            return oracle.minplus_fold(apsp, dv, np.arange(n), np.arange(c))
        rows: Set[int] = set()
        if rose is not None:
            rows.update(oracle.minplus_pull(apsp, dv, rose))
        # the pairs read every source as the push does: as the pull left it
        src = dv if fell is None else dv.copy()
        rows.update(oracle.minplus_fold_changed(apsp, dv, changed))
        if fell is not None:
            rows.update(oracle.minplus_fold_pairs(apsp, dv, fell, src))
        return sorted(rows)

"""Task shapes of the per-rank compute.

The per-rank compute of the two parallelizable phases travels as
picklable *task* dataclasses (built by the worker in the coordinating
process) plus the worker's large matrices — ``dv``, ``local_apsp``, the
``dv``-shaped changed-entry mask and the external-row store — passed in
explicitly so a subprocess can supply shared-memory views.  A task holds
no float row: the relaxation names stored rows by slot.  The modeled
charges are computed from task *shape* only (``n``, ``nnz``), in the
worker's ``*_apply`` methods, so they cannot depend on where the
arithmetic ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from ...types import BoolArray

#: DV column indices as produced by ``np.flatnonzero`` / index building.
IndexArray = NDArray[np.intp]

#: Cut-edge relaxation inputs: per fresh external row, its slot in the
#: rank's external-row store and the ``(local row, edge weight)`` pairs
#: relaxed against it.
RelaxItems = List[Tuple[int, List[Tuple[int, float]]]]

__all__ = [
    "IATask",
    "IndexArray",
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


@dataclass
class SuperstepTask:
    """One rank's RC-superstep work (relaxation inputs + fold extent)."""

    n: int
    #: per fresh external row, in relaxation order: its store slot and
    #: the ``(local row, cut-edge weight)`` pairs relaxed against it
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
    #: the local CSR ``local_apsp`` is the closure of (scipy matrix;
    #: picklable); ``None`` only while ``local_apsp`` is not square
    graph: Any = None

    @property
    def n_relaxations(self) -> int:
        return sum(len(pairs) for _slot, pairs in self.relax_items)


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


"""The entry store: one rank's matrices, and every change of their shape.

A new vertex adds a row and a column filled with +inf (paper Fig. 3,
lines 12-16), and these arrays change shape together:

* ``dv`` (``n_local x n_cols``: ``dv[row, col]`` bounds
  ``d(owned[row], ids[col])``) and ``dv_changed``, its shape: the entries
  lowered since the last fold; ``dirty_cols``, one bool per column: the
  columns the next fold is declared over (a plain vector, copied into
  every task);
* ``local_apsp`` (``n_local x n_local``), with ``local_csr``, the CSR it
  is the closure of: dropped whenever ``local_apsp`` is replaced, and
  re-exported by the next superstep;
* ``rows`` (``capacity x n_cols``): the last received row of every
  external boundary vertex, at ``rows[slot_of[x]]``.  A slot is taken on
  a first dense receive and freed when the row is dropped; slots at or
  above ``top`` were never handed out since the last clear, so a shape
  change copies and fills only ``rows[:top]``.

The matrices live where the backend's
:class:`~repro.runtime.shm.ArrayAllocator` puts them (shared memory on
the process backend); a method that replaces one re-homes it there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..types import BoolArray, FloatArray, VertexId
from .shm import ArrayAllocator, ShmDescriptor

__all__ = ["EntryStore", "KernelArrays"]


class KernelArrays(NamedTuple):
    """A rank's arrays in the order ``run_superstep`` takes them."""

    dv: FloatArray
    apsp: FloatArray
    changed: BoolArray
    ext: FloatArray


class EntryStore:
    """``dv``, its masks, ``local_apsp`` and the external rows of one rank."""

    def __init__(self, allocator: ArrayAllocator) -> None:
        self.allocator = allocator
        self.dv: FloatArray = allocator.adopt(np.zeros((0, 0)), None)
        self.local_apsp: FloatArray = allocator.adopt(np.zeros((0, 0)), None)
        self.dv_changed: BoolArray = allocator.zeros_bool((0, 0))
        self.dirty_cols: BoolArray = np.zeros(0, dtype=bool)
        #: never shm: it reaches the kernel inside the task
        self.local_csr: Any = None
        self.rows: FloatArray = allocator.adopt(np.zeros((0, 0)), None)
        self.slot_of: Dict[VertexId, int] = {}
        #: released slots below ``top``, reused before ``top`` advances
        self._free: List[int] = []
        self.top = 0

    @property
    def n_cols(self) -> int:
        return self.dv.shape[1]

    def kernel_arrays(self, *, private: bool = False) -> KernelArrays:
        """The kernel's arrays; ``private`` copies the three a superstep
        writes (a speculative backup's), never the rows it only reads."""
        if private:
            return KernelArrays(
                self.dv.copy(), self.local_apsp.copy(), self.dv_changed.copy(),
                self.rows,
            )
        return KernelArrays(self.dv, self.local_apsp, self.dv_changed, self.rows)

    def descriptors(self) -> Tuple[ShmDescriptor, ...]:
        """:meth:`kernel_arrays` as shared-memory descriptors."""
        return tuple(self.allocator.descriptor(a) for a in self.kernel_arrays())

    # ------------------------------------------------------------------
    # shape changes
    # ------------------------------------------------------------------
    def _reshape(self, op: Callable[[Any, Any], Any]) -> None:
        """Reshape ``dv`` and ``dv_changed`` alike: ``op(array, fill)``
        returns the new array, new cells holding ``fill`` (+inf; False)."""
        self.dv = self.allocator.adopt(op(self.dv, np.inf), self.dv)
        self.dv_changed = self.allocator.adopt(
            op(self.dv_changed, False), self.dv_changed
        )

    def reset(self, n_local: int, n_cols: int) -> None:
        """A fresh ``n_local x n_cols`` block (a load, a crash wipe): ``dv``
        all +inf, nothing marked, no local APSP, no external row."""
        shape = (n_local, n_cols)
        # np.zeros, not np.full(False): calloc'd pages cost nothing unwritten
        self._reshape(
            lambda a, fill: np.full(shape, fill) if fill else np.zeros(shape, a.dtype)
        )
        self.dirty_cols = np.zeros(n_cols, dtype=bool)
        self.adopt_apsp(np.zeros((0, 0), dtype=np.float64))
        self.clear_rows(n_cols)

    def add_columns(self, added: int) -> None:
        """Append ``added`` +inf columns to ``dv`` and every stored row."""
        n = self.n_cols
        shape = (self.dv.shape[0], added)
        self._reshape(
            lambda a, fill: np.hstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        self.dirty_cols = np.concatenate([self.dirty_cols, np.zeros(added, dtype=bool)])

        def fill(new: FloatArray, old: FloatArray) -> None:
            new[: self.top, :n] = old[: self.top]
            new[: self.top, n:] = np.inf

        self._rehome_rows(self.rows.shape[0], n + added, fill)

    def drop_column(self, col: int) -> None:
        """Compact column ``col`` out of ``dv`` and every stored row."""
        self._reshape(lambda a, _fill: np.delete(a, col, axis=1))
        self.dirty_cols = np.delete(self.dirty_cols, col)

        def fill(new: FloatArray, old: FloatArray) -> None:
            new[: self.top, :col] = old[: self.top, :col]
            new[: self.top, col:] = old[: self.top, col + 1:]

        self._rehome_rows(self.rows.shape[0], self.rows.shape[1] - 1, fill)

    def add_row(self) -> int:
        """Append an all-+inf ``dv`` row and an isolated vertex to
        ``local_apsp``; returns the new row."""
        r = self.dv.shape[0]
        shape = (1, self.n_cols)
        self._reshape(
            lambda a, fill: np.vstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        apsp = np.full((r + 1, r + 1), np.inf, dtype=np.float64)
        if r:
            apsp[:r, :r] = self.local_apsp
        np.fill_diagonal(apsp, 0.0)
        self.adopt_apsp(apsp)
        return r

    def drop_row(self, r: int) -> None:
        """Remove row ``r`` from ``dv`` and row and column ``r`` from
        ``local_apsp``."""
        self._reshape(lambda a, _fill: np.delete(a, r, axis=0))
        self.adopt_apsp(np.delete(np.delete(self.local_apsp, r, axis=0), r, axis=1))

    def adopt_apsp(self, apsp: FloatArray, csr: Any = None) -> None:
        """Make ``apsp`` the local APSP (an array no one else holds) and
        ``csr`` the CSR it is the closure of (``None``: not exported yet)."""
        self.local_apsp = self.allocator.adopt(apsp, self.local_apsp)
        self.local_csr = csr

    # ------------------------------------------------------------------
    # external rows
    # ------------------------------------------------------------------
    def row(self, x: VertexId) -> Optional[FloatArray]:
        """The stored row of ``x`` (a view into ``rows``), or ``None``."""
        slot = self.slot_of.get(x)
        return None if slot is None else self.rows[slot]

    def reserve(self, k: int) -> None:
        """Make room for ``k`` more rows with one reallocation at most."""
        need = self.top + max(0, k - len(self._free))
        cap = self.rows.shape[0]
        if need > cap:
            self._rehome_rows(max(need, 2 * cap), self.rows.shape[1], self._copy_rows)

    def put(self, x: VertexId, row: FloatArray) -> None:
        """Store a copy of ``row`` as ``x``'s row, taking a slot if needed."""
        slot = self.slot_of.get(x)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                self.reserve(1)
                slot = self.top
                self.top += 1
            self.slot_of[x] = slot
        self.rows[slot] = row

    def drop(self, x: VertexId) -> None:
        """Forget ``x``'s row and free its slot (no-op when absent)."""
        slot = self.slot_of.pop(x, None)
        if slot is not None:
            self._free.append(slot)

    def clear_rows(self, n_cols: Optional[int] = None) -> None:
        """Forget every stored row; with ``n_cols``, also re-shape their
        columns (a reset)."""
        self.slot_of.clear()
        self._free.clear()
        self.top = 0
        if n_cols is not None and n_cols != self.rows.shape[1]:
            self._rehome_rows(self.rows.shape[0], n_cols, lambda new, old: None)

    def _copy_rows(self, new: FloatArray, old: FloatArray) -> None:
        new[: self.top] = old[: self.top]

    def _rehome_rows(
        self, cap: int, n_cols: int, fill: Callable[[FloatArray, FloatArray], None]
    ) -> None:
        """Re-home the rows in a ``cap x n_cols`` matrix ``fill`` populates."""
        new = self.allocator.empty((cap, n_cols))
        fill(new, self.rows)
        self.rows = self.allocator.adopt(new, self.rows)

"""The external-row store: one matrix per rank for received boundary rows.

Each rank keeps the last received DV row of every external boundary
vertex and relaxes its cut edges against it in place (paper Fig. 3).
Those rows live in one ``capacity x n_cols`` matrix obtained through the
worker's :class:`~repro.runtime.shm.ArrayAllocator` — a plain array on
the serial backend, a shared-memory segment on the process backend, so a
pool child reads them through its own mapping and a superstep task names
rows by *slot*, never carries them.

An ``id -> slot`` dict and a free-slot list index the matrix.  A slot is
taken on a vertex's first dense receive and freed when its row is
dropped; slots at or above the high-water mark ``top`` were never handed
out since the last :meth:`ExternalRowStore.clear`, so every shape change
copies and fills only ``rows[:top]`` and pages beyond it stay untouched.
Row capacity grows geometrically; columns track ``dv``'s and change as
one matrix op per shape change.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..types import FloatArray, VertexId
from .shm import ArrayAllocator

__all__ = ["ExternalRowStore"]


class ExternalRowStore:
    """Received DV rows of external boundary vertices, one matrix per rank."""

    def __init__(self, allocator: ArrayAllocator, n_cols: int = 0) -> None:
        self.allocator = allocator
        #: ``rows[slot_of[x]]`` is the stored row of external vertex ``x``
        self.rows: FloatArray = allocator.adopt(
            np.zeros((0, n_cols), dtype=np.float64), None
        )
        self.slot_of: Dict[VertexId, int] = {}
        #: released slots below ``top``, reused before ``top`` advances
        self._free: List[int] = []
        #: high-water mark: slots ``>= top`` have never been handed out
        self.top = 0

    def __len__(self) -> int:
        return len(self.slot_of)

    def __contains__(self, x: object) -> bool:
        return x in self.slot_of

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    def row(self, x: VertexId) -> Optional[FloatArray]:
        """The stored row of ``x`` (a view into the store), or ``None``."""
        slot = self.slot_of.get(x)
        return None if slot is None else self.rows[slot]

    def reserve(self, k: int) -> None:
        """Make room for ``k`` more rows with one reallocation at most."""
        need = self.top + max(0, k - len(self._free))
        cap = self.rows.shape[0]
        if need > cap:
            self._reshape(max(need, 2 * cap), self.n_cols, self._copy_rows)

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

    def clear(self, n_cols: Optional[int] = None) -> None:
        """Forget every row; with ``n_cols``, also re-shape the columns
        (a reload or a crash wipe, which reset ``dv`` with them)."""
        self.slot_of.clear()
        self._free.clear()
        self.top = 0
        if n_cols is not None and n_cols != self.n_cols:
            self._reshape(self.rows.shape[0], n_cols, lambda new, old: None)

    def grow_columns(self, added: int) -> None:
        """Append ``added`` +inf columns to every stored row."""
        n = self.n_cols

        def fill(new: FloatArray, old: FloatArray) -> None:
            new[: self.top, :n] = old[: self.top]
            new[: self.top, n:] = np.inf

        self._reshape(self.rows.shape[0], n + added, fill)

    def remove_column(self, col: int) -> None:
        """Compact column ``col`` out of every stored row."""

        def fill(new: FloatArray, old: FloatArray) -> None:
            new[: self.top, :col] = old[: self.top, :col]
            new[: self.top, col:] = old[: self.top, col + 1:]

        self._reshape(self.rows.shape[0], self.n_cols - 1, fill)

    def _copy_rows(self, new: FloatArray, old: FloatArray) -> None:
        new[: self.top] = old[: self.top]

    def _reshape(
        self, cap: int, n_cols: int, fill: Callable[[FloatArray, FloatArray], None]
    ) -> None:
        """Re-home the rows in a ``cap x n_cols`` matrix ``fill`` populates."""
        new = self.allocator.empty((cap, n_cols))
        fill(new, self.rows)
        self.rows = self.allocator.adopt(new, self.rows)

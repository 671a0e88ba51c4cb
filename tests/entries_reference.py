"""The entry reshapes as ``Worker`` and ``ExternalRowStore`` once wrote
them: the reference for :class:`repro.runtime.entries.EntryStore`.

Before the entry store, a rank's shapes changed in two classes: the
worker's ``dv`` / ``local_apsp`` / ``dv_changed`` property setters, its
``_reshape_entries`` / ``wipe_entries`` and the reshapes inside
``load_subgraph``, ``grow_columns``, ``add_local_vertex``,
``remove_column``, ``remove_local_vertex`` and ``crash_wipe``; and
``ExternalRowStore`` (``runtime/ext_rows.py``), which reshaped its own
copy of the columns.  :class:`ReferenceEntries` keeps those statements,
verbatim, with the worker's ``n_local`` passed in where the worker read
its owned list, and nothing else of the worker.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.runtime.shm import ArrayAllocator


class ExternalRowStore:
    """Received DV rows of external boundary vertices, one matrix per rank."""

    def __init__(self, allocator: ArrayAllocator, n_cols: int = 0) -> None:
        self.allocator = allocator
        #: ``rows[slot_of[x]]`` is the stored row of external vertex ``x``
        self.rows = allocator.adopt(np.zeros((0, n_cols), dtype=np.float64), None)
        self.slot_of: Dict[int, int] = {}
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

    def row(self, x: int) -> Optional[np.ndarray]:
        slot = self.slot_of.get(x)
        return None if slot is None else self.rows[slot]

    def reserve(self, k: int) -> None:
        need = self.top + max(0, k - len(self._free))
        cap = self.rows.shape[0]
        if need > cap:
            self._reshape(max(need, 2 * cap), self.n_cols, self._copy_rows)

    def put(self, x: int, row: np.ndarray) -> None:
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

    def drop(self, x: int) -> None:
        slot = self.slot_of.pop(x, None)
        if slot is not None:
            self._free.append(slot)

    def clear(self, n_cols: Optional[int] = None) -> None:
        self.slot_of.clear()
        self._free.clear()
        self.top = 0
        if n_cols is not None and n_cols != self.n_cols:
            self._reshape(self.rows.shape[0], n_cols, lambda new, old: None)

    def grow_columns(self, added: int) -> None:
        n = self.n_cols

        def fill(new: np.ndarray, old: np.ndarray) -> None:
            new[: self.top, :n] = old[: self.top]
            new[: self.top, n:] = np.inf

        self._reshape(self.rows.shape[0], n + added, fill)

    def remove_column(self, col: int) -> None:
        def fill(new: np.ndarray, old: np.ndarray) -> None:
            new[: self.top, :col] = old[: self.top, :col]
            new[: self.top, col:] = old[: self.top, col + 1:]

        self._reshape(self.rows.shape[0], self.n_cols - 1, fill)

    def _copy_rows(self, new: np.ndarray, old: np.ndarray) -> None:
        new[: self.top] = old[: self.top]

    def _reshape(
        self, cap: int, n_cols: int, fill: Callable[[np.ndarray, np.ndarray], None]
    ) -> None:
        new = self.allocator.empty((cap, n_cols))
        fill(new, self.rows)
        self.rows = self.allocator.adopt(new, self.rows)


class ReferenceEntries:
    """The worker's side: its three matrix setters, the dirty-column mask
    and the reshapes of its load, resize and crash paths."""

    def __init__(self) -> None:
        self.allocator = ArrayAllocator()
        self._dv = self.allocator.adopt(np.zeros((0, 0), dtype=np.float64), None)
        self._local_apsp = self.allocator.adopt(
            np.zeros((0, 0), dtype=np.float64), None
        )
        self._dv_changed = self.allocator.zeros_bool((0, 0))
        self.local_csr: Any = None
        self.ext_store = ExternalRowStore(self.allocator)
        self._dirty_cols = np.zeros(0, dtype=bool)
        self.n_local = 0

    @property
    def dv(self) -> np.ndarray:
        return self._dv

    @dv.setter
    def dv(self, value: np.ndarray) -> None:
        self._dv = self.allocator.adopt(value, self._dv)

    @property
    def local_apsp(self) -> np.ndarray:
        return self._local_apsp

    @local_apsp.setter
    def local_apsp(self, value: np.ndarray) -> None:
        self._local_apsp = self.allocator.adopt(value, self._local_apsp)
        self.local_csr = None

    @property
    def dv_changed(self) -> np.ndarray:
        return self._dv_changed

    @dv_changed.setter
    def dv_changed(self, value: np.ndarray) -> None:
        self._dv_changed = self.allocator.adopt(value, self._dv_changed)

    @property
    def n_cols(self) -> int:
        return self.dv.shape[1]

    def _reshape_entries(self, op: Callable[[Any, float], Any]) -> None:
        self.dv = op(self.dv, np.inf)
        self.dv_changed = op(self.dv_changed, False)

    def wipe_entries(self, n_cols: int) -> None:
        shape = (self.n_local, n_cols)
        self._reshape_entries(
            lambda a, fill: np.full(shape, fill) if fill else np.zeros(shape, a.dtype)
        )

    def crash_wipe(self, n_local: int, n_cols: int) -> None:
        """``load_subgraph`` and ``crash_wipe`` reset the same four things."""
        self.n_local = n_local
        self.wipe_entries(n_cols)
        self.local_apsp = np.zeros((0, 0), dtype=np.float64)
        self.ext_store.clear(n_cols)
        self._dirty_cols = np.zeros(n_cols, dtype=bool)

    def grow_columns(self, added: int) -> None:
        shape = (self.n_local, added)
        self._reshape_entries(
            lambda a, fill: np.hstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        self._dirty_cols = np.concatenate(
            [self._dirty_cols, np.zeros(added, dtype=bool)]
        )
        self.ext_store.grow_columns(added)

    def add_local_vertex(self) -> int:
        r = self.n_local
        self.n_local += 1
        shape = (1, self.n_cols)
        self._reshape_entries(
            lambda a, fill: np.vstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        n = r + 1
        apsp = np.full((n, n), np.inf, dtype=np.float64)
        if r:
            apsp[:r, :r] = self.local_apsp
        np.fill_diagonal(apsp, 0.0)
        self.local_apsp = apsp
        return r

    def remove_column(self, col: int) -> None:
        self._reshape_entries(lambda a, _fill: np.delete(a, col, axis=1))
        self._dirty_cols = np.delete(self._dirty_cols, col)
        self.ext_store.remove_column(col)

    def remove_local_vertex(self, r: int) -> None:
        self.n_local -= 1
        self._reshape_entries(lambda a, _fill: np.delete(a, r, axis=0))
        self.local_apsp = np.delete(
            np.delete(self.local_apsp, r, axis=0), r, axis=1
        )

    def receive_row(self, v: int, row: np.ndarray) -> None:
        """``receive_rows`` for one dense row."""
        store = self.ext_store
        store.reserve(sum(1 for x in (v,) if x not in store))
        store.put(v, row)

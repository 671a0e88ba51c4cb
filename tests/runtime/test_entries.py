"""The entry store against the reshapes it replaced.

Random sequences of every shape change — reset, add columns, drop a
column, add a row, drop a row, put and drop an external row, adopt an
APSP — run on an :class:`EntryStore` and on :class:`ReferenceEntries`
(``tests/entries_reference.py``: the ``Worker`` / ``ExternalRowStore``
statements the store replaced), on the plain and on the shared-memory
allocator.  After every step the contents agree bit for bit, the four
shapes agree with each other, and new cells hold +inf or False; a put
reuses the slot a drop freed; on shared memory the store holds exactly
its four segments and ``release_all`` leaves none behind.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory
from typing import Any, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.runtime.entries import EntryStore
from repro.runtime.shm import ArrayAllocator, SharedMemoryAllocator

from ..entries_reference import ReferenceEntries

Op = Tuple[Any, ...]

SEED = st.integers(0, 2**32 - 1)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("reset"), st.integers(0, 5), st.integers(0, 7)),
        st.tuples(st.just("add_columns"), st.integers(1, 3)),
        st.tuples(st.just("drop_column"), st.integers(0, 9)),
        st.tuples(st.just("add_row")),
        st.tuples(st.just("drop_row"), st.integers(0, 9)),
        st.tuples(st.just("put"), st.integers(0, 6), SEED),
        st.tuples(st.just("drop"), st.integers(0, 6)),
        st.tuples(st.just("adopt_apsp"), SEED),
        st.tuples(st.just("scribble"), SEED),
    ),
    max_size=30,
)


class RecordingAllocator(SharedMemoryAllocator):
    """Shared memory that remembers the name of every segment it made."""

    def __init__(self) -> None:
        super().__init__()
        self.created: List[str] = []

    def empty(self, shape, dtype=np.float64):  # type: ignore[no-untyped-def]
        arr = super().empty(shape, dtype)
        self.created.append(self._blocks[id(arr)][0].name)
        return arr


def segment_exists(name: str) -> bool:
    try:
        SharedMemory(name=name).close()
    except FileNotFoundError:
        return False
    return True


def values(seed: int, shape: Tuple[int, ...]) -> np.ndarray:
    """Small integer distances with some +inf."""
    rng = np.random.default_rng(seed)
    out = rng.integers(0, 9, size=shape).astype(np.float64)
    out[rng.random(shape) < 0.3] = np.inf
    return out


def square(store: EntryStore) -> bool:
    n = store.dv.shape[0]
    return store.local_apsp.shape == (n, n)


def apply(store: EntryStore, ref: ReferenceEntries, op: Op) -> None:
    """Run ``op`` on both (nothing when its precondition fails), and check
    what it promises about new cells and slots."""
    kind, args = op[0], op[1:]
    n, c = store.dv.shape
    if kind == "reset":
        store.reset(*args)
        ref.crash_wipe(*args)
        assert np.isinf(store.dv).all() and not store.dv_changed.any()
        assert not store.dirty_cols.any() and store.local_apsp.size == 0
        assert not store.slot_of and store.top == 0
    elif kind == "add_columns":
        (k,) = args
        store.add_columns(k)
        ref.grow_columns(k)
        assert np.isinf(store.dv[:, c:]).all() and not store.dv_changed[:, c:].any()
        assert not store.dirty_cols[c:].any()
        assert np.isinf(store.rows[: store.top, c:]).all()
    elif kind == "drop_column" and c:
        store.drop_column(args[0] % c)
        ref.remove_column(args[0] % c)
    elif kind == "add_row" and square(store):
        assert store.add_row() == ref.add_local_vertex() == n
        assert np.isinf(store.dv[n]).all() and not store.dv_changed[n].any()
        assert np.isinf(store.local_apsp[n, :n]).all()
        assert np.isinf(store.local_apsp[:n, n]).all()
        assert store.local_apsp[n, n] == 0.0
    elif kind == "drop_row" and n and square(store):
        store.drop_row(args[0] % n)
        ref.remove_local_vertex(args[0] % n)
    elif kind == "put":
        x, seed = args
        row = values(seed, (c,))
        free, top, new = list(store._free), store.top, x not in store.slot_of
        store.reserve(int(new))
        store.put(x, row)
        ref.receive_row(x, row)
        if new and free:  # the last freed slot, and no new one
            assert store.slot_of[x] == free[-1] and store.top == top
        assert np.array_equal(store.row(x), row)
    elif kind == "drop":
        store.drop(args[0])
        ref.ext_store.drop(args[0])
        assert store.row(args[0]) is None
    elif kind == "adopt_apsp":
        apsp = values(args[0], (n, n))
        store.adopt_apsp(apsp.copy())
        ref.local_apsp = apsp.copy()
    elif kind == "scribble":  # existing cells take values a reshape must keep
        rng = np.random.default_rng(args[0])
        for a, b in ((store.dv, ref.dv), (store.local_apsp, ref.local_apsp)):
            a[...] = b[...] = values(args[0], a.shape)
        for a, b in ((store.dv_changed, ref.dv_changed),
                     (store.dirty_cols, ref._dirty_cols)):
            a[...] = b[...] = rng.random(a.shape) < 0.5
        store.local_csr = ref.local_csr = object()


def assert_same(store: EntryStore, ref: ReferenceEntries) -> None:
    """Bit for bit the reference, and the four shapes in lockstep."""
    ext = ref.ext_store
    pairs = [
        (store.dv, ref.dv), (store.dv_changed, ref.dv_changed),
        (store.dirty_cols, ref._dirty_cols), (store.local_apsp, ref.local_apsp),
        (store.rows[: store.top], ext.rows[: ext.top]),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert (store.slot_of, store._free, store.top) == (ext.slot_of, ext._free, ext.top)
    assert store.rows.shape == ext.rows.shape
    assert (store.local_csr is None) == (ref.local_csr is None)
    n, c = store.dv.shape
    assert store.dv_changed.shape == (n, c) and store.dirty_cols.shape == (c,)
    assert store.local_apsp.shape in {(0, 0), (n, n)}
    assert store.rows.shape[1] == c


def run(allocator: ArrayAllocator, ops: List[Op]) -> None:
    store, ref = EntryStore(allocator), ReferenceEntries()
    try:
        for op in ops:
            apply(store, ref, op)
            assert_same(store, ref)
            if allocator.shared:  # dv, local_apsp, dv_changed and the rows
                assert len(allocator._blocks) == 4  # type: ignore[attr-defined]
                assert all(len(d) == 2 for d in store.descriptors())
    finally:
        allocator.release_all()


ALLOCATORS = {"plain": ArrayAllocator, "shm": RecordingAllocator}

# a load, IA, a vertex with a received row, one of its columns dropped and
# a slot freed and reused, then a crash wipe and a reload
LIFE = [
    ("reset", 3, 5), ("adopt_apsp", 1), ("scribble", 2), ("put", 4, 3),
    ("put", 5, 4), ("add_columns", 1), ("add_row",), ("scribble", 5),
    ("drop", 4), ("put", 6, 6), ("drop_column", 2), ("drop_row", 1),
    ("reset", 2, 4), ("put", 1, 7), ("add_columns", 2),
]


@pytest.mark.parametrize("kind", sorted(ALLOCATORS))
@settings(
    max_examples=80, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(ops=LIFE)
@given(ops=OPS)
def test_the_store_reshapes_as_the_worker_did(kind: str, ops: List[Op]) -> None:
    run(ALLOCATORS[kind](), ops)


def test_release_all_leaves_no_segment() -> None:
    allocator = RecordingAllocator()
    run(allocator, LIFE)
    assert len(allocator.created) > 4  # every reshape made new segments
    assert not [n for n in allocator.created if segment_exists(n)]

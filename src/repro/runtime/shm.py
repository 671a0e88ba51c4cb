"""Array allocation plumbing for the execution backends.

Workers route every (re)allocation of their large matrices — ``dv``,
``local_apsp`` and the ``dv``-shaped changed-entry mask — through an
:class:`ArrayAllocator`.  The default
allocator hands out ordinary NumPy arrays, which keeps the serial
backend byte-for-byte what it always was.  The process backend installs
a :class:`SharedMemoryAllocator` instead, so all three live in
``multiprocessing.shared_memory`` segments that kernel subprocesses can
attach by name and mutate in place — BSP barriers then move only row
indices and :class:`~repro.runtime.message.DeltaRows`, never matrices.

Lifecycle rules:

* The allocator owns the segments.  ``adopt`` is called by the worker's
  ``dv`` / ``local_apsp`` / ``dv_changed`` property setters: an array the
  allocator already owns is kept as-is, anything else (``np.hstack`` results,
  checkpoint restores, crash wipes) is copied into a fresh segment.
  The replaced segment is unlinked immediately.
* Unlinking only removes the name; existing NumPy views (e.g. rows a
  recovery path saved before a repartition) stay readable until they
  are garbage collected, exactly like plain arrays.
* Segments are unlinked when the allocator is garbage collected or
  :meth:`SharedMemoryAllocator.release_all` is called, so abandoned
  clusters do not leak ``/dev/shm`` space for the life of the process.
"""

from __future__ import annotations

import sys
import weakref
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, Optional, Tuple

import numpy as np
from numpy.typing import DTypeLike, NDArray

from ..types import BoolArray

__all__ = [
    "ArrayAllocator",
    "SharedMemoryAllocator",
    "ShmDescriptor",
    "attach_shm_array",
    "detach_shm",
]

#: (segment name, array shape) — what a subprocess needs to attach (the
#: dtype is fixed by the role: float64 matrices, one bool mask).
ShmDescriptor = Tuple[str, Tuple[int, ...]]


class ArrayAllocator:
    """Default allocator: plain NumPy arrays, no shared residency."""

    #: True when arrays handed out are shared-memory resident
    shared = False

    def empty(
        self, shape: Tuple[int, ...], dtype: DTypeLike = np.float64
    ) -> NDArray[Any]:
        """An uninitialized array the allocator owns."""
        return np.empty(shape, dtype=dtype)

    def zeros_bool(self, shape: Tuple[int, ...]) -> BoolArray:
        """An all-False bool array the allocator owns.

        Zero-filled by the OS on first touch (``calloc`` / a fresh
        segment), so a mask nobody writes costs no resident page.
        """
        return np.zeros(shape, dtype=np.bool_)

    def adopt(
        self, new: NDArray[Any], old: Optional[NDArray[Any]]
    ) -> NDArray[Any]:
        """Take ownership of ``new``, replacing ``old``.

        The plain allocator is a pass-through; the shared-memory
        allocator copies foreign arrays into fresh segments.
        """
        return new

    def descriptor(self, arr: NDArray[Any]) -> ShmDescriptor:
        """The attachment descriptor of an owned array (shm only)."""
        raise TypeError("plain numpy arrays have no shm descriptor")

    def release_all(self) -> None:
        """Free every owned segment (no-op for plain arrays)."""


class SharedMemoryAllocator(ArrayAllocator):
    """Allocator backing arrays with ``multiprocessing.shared_memory``."""

    shared = True

    def __init__(self) -> None:
        #: id(array) -> (segment, the exact array object handed out);
        #: the strong array reference keeps the id stable while owned
        self._blocks: Dict[int, Tuple[SharedMemory, NDArray[Any]]] = {}
        # unlink leftover segments when the allocator itself is collected
        self._finalizer = weakref.finalize(
            self, _unlink_blocks, self._blocks
        )

    def empty(
        self, shape: Tuple[int, ...], dtype: DTypeLike = np.float64
    ) -> NDArray[Any]:
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        shm = SharedMemory(create=True, size=max(1, nbytes))
        arr: NDArray[Any] = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._blocks[id(arr)] = (shm, arr)
        return arr

    def zeros_bool(self, shape: Tuple[int, ...]) -> BoolArray:
        # a new POSIX segment is all zero bytes, paged in on first touch
        return self.empty(shape, np.bool_)

    def owns(self, arr: NDArray[Any]) -> bool:
        entry = self._blocks.get(id(arr))
        return entry is not None and entry[1] is arr

    def adopt(
        self, new: NDArray[Any], old: Optional[NDArray[Any]]
    ) -> NDArray[Any]:
        if self.owns(new):
            if old is not None and new is not old:
                self._release(old)
            return new
        out = self.empty(new.shape, new.dtype)
        out[...] = new
        if old is not None:
            self._release(old)
        return out

    def descriptor(self, arr: NDArray[Any]) -> ShmDescriptor:
        entry = self._blocks.get(id(arr))
        if entry is None or entry[1] is not arr:
            raise TypeError(
                "array is not resident in this allocator's shared memory"
            )
        return entry[0].name, tuple(arr.shape)

    def _release(self, arr: NDArray[Any]) -> None:
        entry = self._blocks.pop(id(arr), None)
        if entry is None or entry[1] is not arr:
            return  # not ours (e.g. a plain temporary): nothing to free
        _unlink(entry[0])

    def release_all(self) -> None:
        _unlink_blocks(self._blocks)


def _unlink(shm: SharedMemory) -> None:
    """Unlink a segment; live NumPy views keep their mapping valid."""
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked (double release)
        pass
    try:
        shm.close()
    except BufferError:
        # a NumPy view still references the buffer; the mapping is
        # reclaimed when the view is garbage collected
        pass


def _unlink_blocks(
    blocks: Dict[int, Tuple[SharedMemory, NDArray[Any]]]
) -> None:
    for shm, _arr in list(blocks.values()):
        _unlink(shm)
    blocks.clear()


def attach_shm_array(
    desc: ShmDescriptor, dtype: DTypeLike = np.float64
) -> Tuple[SharedMemory, NDArray[Any]]:
    """Attach to a segment by descriptor (subprocess side).

    On 3.13+ the attachment opts out of resource tracking entirely
    (``track=False``): only the creating allocator may unlink.  On older
    Pythons the attach re-registers the name — harmless *under the fork
    start method*, which the process backend pins: the forked child
    shares the parent's resource tracker, whose cache keys names in a
    set, so the duplicate register is a no-op and the creator's unlink
    performs the single matching unregister.  (Explicitly unregistering
    here instead would erase the creator's registration from the shared
    cache and make the eventual unlink crash the tracker.)
    """
    name, shape = desc
    if sys.version_info >= (3, 13):
        shm = SharedMemory(name=name, track=False)
    else:
        shm = SharedMemory(name=name)
    arr: NDArray[Any] = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    return shm, arr


def detach_shm(shm: SharedMemory) -> None:
    """Close a subprocess-side attachment without unlinking the segment."""
    try:
        shm.close()
    except BufferError:
        pass  # a view outlived the task; dropped with the cache entry

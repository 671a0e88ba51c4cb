"""A simulated processor: local sub-graph, distance vectors, kernels.

Each worker owns a block of vertices and maintains:

* ``local_graph`` — the induced graph on its owned vertices,
* ``cut_adj`` — cut edges to *external boundary* vertices owned elsewhere,
* ``local_apsp`` — all-pairs shortest paths **within** the local sub-graph
  (the IA-phase partial result, kept exact under incremental additions),
* ``dv`` — the distance-vector matrix: ``dv[row_of[v], index.col[t]]`` is
  the current upper bound on ``d(v, t)`` for every global target ``t``,
* ``dv_changed`` — a bool mask of ``dv``'s shape: the entries lowered
  since the last propagation fold, which are all that fold has to push,
* ``dv_rose`` — its dual: the entries a deletion's witness test raised
  since the last fold, which are all a deletion repair has to pull,
* ``apsp_fell`` — a bool mask of ``local_apsp``'s shape: the pairs a
  local edge lowered since the last fold, over which it folds every target,
* ``local_csr`` — the local CSR ``local_apsp`` is the closure of, over
  which an exact fold runs as a seeded bit-parallel level sweep; every
  writer of ``local_apsp`` but IA drops it and the next superstep exports
  ``local_graph``'s afresh, so every fold sees a current one,
* ``ext_store`` — the last received DV row of every external boundary
  vertex, one allocator-owned matrix indexed by slot
  (:class:`~repro.runtime.ext_rows.ExternalRowStore`), which the cut-edge
  relaxation reads in place,
* ``channels`` — one :class:`~repro.runtime.channel.Channel` per peer
  rank: subscriptions, the pending queue, delta baselines, and the
  sequence / ack / dedup state of the boundary exchange.

All kernels are vectorized NumPy and meter their operation counts into the
:class:`~repro.model.cost.CostModel`, which is how modeled per-step compute
time is obtained.

Monotonicity invariant: every ``dv`` entry only ever decreases (except for
the explicit deletion-invalidation path), which is what gives the algorithm
its *anytime* property — interrupted results are valid upper bounds whose
error shrinks monotonically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from ..errors import WorkerError
from ..graph.graph import Graph
from ..graph.views import LocalSubgraph
from ..model.cost import CostModel
from ..types import BoolArray, FloatArray, Rank, VertexId
from .channel import Channel
from .ext_rows import ExternalRowStore
from .index import GlobalIndex
from .kernels import (
    KERNELS,
    IATask,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
    relax_edge_kernel,
)
from .message import DeltaRows, delta_row_words, dense_row_words
from .shm import ArrayAllocator

__all__ = ["Worker"]


class Worker:
    """One simulated processor of the anytime-anywhere cluster."""

    def __init__(
        self,
        rank: Rank,
        nprocs: int,
        index: GlobalIndex,
        cost: CostModel,
        *,
        wire_format: str = "delta",
        allocator: Optional[ArrayAllocator] = None,
    ) -> None:
        if wire_format not in ("dense", "delta"):
            raise WorkerError(f"unknown wire format {wire_format!r}")
        #: where ``dv`` / ``local_apsp`` / ``dv_changed`` / the external-row
        #: store live; the process backend passes a shared-memory allocator
        #: so kernel subprocesses can attach
        self.allocator = allocator if allocator is not None else ArrayAllocator()
        self.rank = rank
        self.nprocs = nprocs
        self.index = index
        self.cost = cost
        #: boundary-row encoding: "delta" sends only improved columns
        #: (with dense fallback); "dense" is the reference oracle
        self.wire_format = wire_format
        #: relative processor speed (2.0 = twice the reference core);
        #: modeled compute charges divide by it — the heterogeneous-cloud
        #: extension of the paper's load-balance analysis
        self.speed = 1.0

        self.owned: List[VertexId] = []
        self.row_of: Dict[VertexId, int] = {}
        self.local_graph = Graph()
        #: local vertex -> {external vertex: weight}
        self.cut_adj: Dict[VertexId, Dict[VertexId, float]] = {}
        #: external vertex -> [(local vertex, weight), ...]
        self.cut_by_ext: Dict[VertexId, List[Tuple[VertexId, float]]] = {}
        #: the boundary channel to each peer rank, indexed by rank
        self.channels: List[Channel] = [Channel() for _ in range(nprocs)]

        self._dv: FloatArray = self.allocator.adopt(
            np.zeros((0, 0), dtype=np.float64), None
        )
        self._local_apsp: FloatArray = self.allocator.adopt(
            np.zeros((0, 0), dtype=np.float64), None
        )
        self._dv_changed: BoolArray = self.allocator.zeros_bool((0, 0))
        #: entries of ``dv`` *raised* since the last fold (by a deletion's
        #: witness test).  Never shm: it reaches the kernel inside the task
        self.dv_rose: BoolArray = np.zeros((0, 0), dtype=np.bool_)
        #: what :attr:`apsp_fell` holds, ``None`` while no pair is set
        self._apsp_fell: Optional[BoolArray] = None
        #: the CSR ``local_apsp`` is the closure of (check 10), or ``None``
        #: until :meth:`superstep_prepare` re-exports it.  Never shm: it
        #: reaches the kernel inside the task
        self.local_csr: Any = None
        #: last received DV rows of external boundary vertices
        self.ext_store = ExternalRowStore(self.allocator)

        # --- per-step change tracking ---------------------------------
        # ``_changed_rows`` / ``_dirty_cols`` / ``_full_repropagate``
        # decide *whether* the next superstep folds (and is charged);
        # ``dv_changed`` decides *what* that fold pushes, ``apsp_fell``
        # the pairs it folds besides and, unless ``_rises_unknown``,
        # ``dv_rose`` what a full re-propagation pulls
        self._changed_rows: Set[int] = set()
        self._dirty_cols = np.zeros(0, dtype=bool)
        self._fresh_ext: Set[VertexId] = set()
        self._full_repropagate = False
        self._rises_unknown = False

        # --- metering --------------------------------------------------
        self._seconds = 0.0
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # metering helpers
    # ------------------------------------------------------------------
    def _charge(self, seconds: float, counter: Optional[str] = None, n: int = 1) -> None:
        self._seconds += seconds / self.speed
        if counter:
            self.counters[counter] = self.counters.get(counter, 0) + n

    def take_compute_seconds(self) -> float:
        """Drain and return modeled compute seconds accrued since last call."""
        s = self._seconds
        self._seconds = 0.0
        return s

    @property
    def n_local(self) -> int:
        return len(self.owned)

    @property
    def n_cols(self) -> int:
        return self.dv.shape[1]

    # ------------------------------------------------------------------
    # matrix residency (routed through the backend's allocator)
    # ------------------------------------------------------------------
    @property
    def dv(self) -> FloatArray:
        """Distance-vector matrix; assignment re-homes it via the allocator."""
        return self._dv

    @dv.setter
    def dv(self, value: FloatArray) -> None:
        self._dv = self.allocator.adopt(value, self._dv)

    @property
    def local_apsp(self) -> FloatArray:
        """Local all-pairs matrix; assignment re-homes it via the allocator
        and, on a new shape (a reload, a crash wipe, a restore), clears
        ``apsp_fell`` — a same-shape recomputation keeps the marks: a
        deletion may leave a pair below the value it was last folded at.
        It drops ``local_csr``, which :meth:`superstep_prepare` exports
        afresh from ``local_graph``."""
        return self._local_apsp

    @local_apsp.setter
    def local_apsp(self, value: FloatArray) -> None:
        self._local_apsp = self.allocator.adopt(value, self._local_apsp)
        self.local_csr = None
        if self._apsp_fell is not None and self._apsp_fell.shape != value.shape:
            self._apsp_fell = None

    @property
    def apsp_fell(self) -> BoolArray:
        """Pairs of ``local_apsp`` *lowered* since the last fold (by a local
        edge); ``local_apsp``'s shape, never shm — it reaches the kernel
        inside the task.  While no pair is set it is a read-only all-False
        view: a rank that adds no local edge never allocates the mask."""
        if self._apsp_fell is None:
            return np.broadcast_to(np.False_, self._local_apsp.shape)
        return self._apsp_fell

    @property
    def dv_changed(self) -> BoolArray:
        """Entries of ``dv`` lowered since the last propagation fold.

        Same shape as ``dv`` on every path that reshapes it; assignment
        re-homes it via the allocator.  Every writer that lowers a
        ``dv`` entry outside a kernel fold sets it here, unless it also
        requests a full re-propagation (which ignores the mask).
        """
        return self._dv_changed

    @dv_changed.setter
    def dv_changed(self, value: BoolArray) -> None:
        self._dv_changed = self.allocator.adopt(value, self._dv_changed)

    def _reshape_entries(self, op: Callable[[Any, float], Any]) -> None:
        """Reshape ``dv`` and its two masks together — the only place any
        of the three changes shape.  ``op(array, fill)`` returns the new
        array, new cells holding ``fill`` (+inf; not lowered; not risen)."""
        self.dv = op(self.dv, np.inf)
        self.dv_changed = op(self.dv_changed, False)
        self.dv_rose = op(self.dv_rose, False)

    def wipe_entries(self, n_cols: int) -> None:
        """A fresh ``n_local x n_cols`` block: ``dv`` all +inf, masks clear."""
        shape = (self.n_local, n_cols)
        # np.zeros, not np.full(False): calloc'd pages cost nothing unwritten
        self._reshape_entries(
            lambda a, fill: np.full(shape, fill) if fill else np.zeros(shape, a.dtype)
        )

    # ------------------------------------------------------------------
    # loading / domain decomposition
    # ------------------------------------------------------------------
    def load_subgraph(
        self,
        sub: LocalSubgraph,
        *,
        seed_rows: Optional[Dict[VertexId, FloatArray]] = None,
    ) -> None:
        """Install a local sub-graph (DD phase, or Repartition-S rebuild).

        ``seed_rows`` carries migrated partial results: DV rows computed by
        previous owners, reused thanks to the anytime property.
        """
        self.owned = list(sub.owned)
        self.row_of = {v: i for i, v in enumerate(self.owned)}
        self.local_graph = sub.local_graph.copy()
        self.cut_adj = {}
        self.cut_by_ext = {}
        for u, x, w in sub.cut_edges:
            self.cut_adj.setdefault(u, {})[x] = w
            self.cut_by_ext.setdefault(x, []).append((u, w))
        self.channels = [Channel() for _ in range(self.nprocs)]
        n_cols = len(self.index)
        self.wipe_entries(n_cols)
        self.zero_own_distances()
        if seed_rows:
            for v, row in seed_rows.items():
                r = self.row_of.get(v)
                if r is None:
                    raise WorkerError(f"seed row for non-owned vertex {v}")
                if row.size != n_cols:
                    raise WorkerError(
                        f"seed row for {v} has {row.size} cols, expected {n_cols}"
                    )
                np.minimum(self.dv[r], row, out=self.dv[r])
        self.ext_store.clear(n_cols)
        self.local_apsp = np.zeros((0, 0), dtype=np.float64)
        self._changed_rows = set()
        self._dirty_cols = np.zeros(n_cols, dtype=bool)
        self._fresh_ext = set()
        self._full_repropagate = False
        self._rises_unknown = False

    def zero_own_distances(self) -> None:
        """``d(v, v) = 0`` for every owned ``v`` — the one DV fact that
        needs no computation."""
        self.dv[np.arange(self.n_local), self.index.columns(self.owned)] = 0.0

    def restore_state(
        self, saved_apsp: Optional[FloatArray], saved_dv: Optional[FloatArray] = None
    ) -> None:
        """Re-enter saved state into a freshly loaded block.

        ``saved_dv`` (rows in ``owned`` order, over a column prefix of
        ``dv``) is merged with ``np.minimum`` — saved entries are upper
        bounds.  ``saved_apsp`` — an array no one else holds — is adopted
        when it still fits the block and its local baseline re-applied;
        otherwise IA reruns.  Either way a full re-propagation is due, and
        every subscribed row is queued for a dense refresh.
        """
        if saved_dv is not None:
            prefix = self.dv[:, : saved_dv.shape[1]]
            np.minimum(prefix, saved_dv, out=prefix)
        n = self.n_local
        if saved_apsp is not None and saved_apsp.shape == (n, n):
            self.local_apsp = saved_apsp
            self.restore_local_baseline()
        else:
            self.recompute_local_apsp()
        self.queue_all_boundary_rows()

    # ------------------------------------------------------------------
    # IA phase
    # ------------------------------------------------------------------
    def run_initial_approximation(self) -> None:
        """Local APSP (multithreaded Dijkstra in the paper) on the sub-graph."""
        self._local_apsp_fold(repropagate=False)

    def recompute_local_apsp(self, *, rises_known: bool = False) -> None:
        """Full local APSP recomputation (deletions, repartition rebuilds);
        ``rises_known`` as in :meth:`request_full_repropagate`."""
        self._local_apsp_fold(repropagate=True, rises_known=rises_known)

    def _local_apsp_fold(
        self, *, repropagate: bool, rises_known: bool = False
    ) -> None:
        """Shared IA body: CSR build, local APSP, fold into ``dv``.

        ``repropagate=False`` is the IA phase proper (seed the change
        tracking and queue every boundary row); ``repropagate=True`` is
        the recomputation flavor (local structure changed, so schedule a
        full re-propagation with dense channel resets).
        """
        task = self.ia_prepare()
        if task is None:
            return
        KERNELS.ia_kernel(task, self.dv, self.local_apsp)
        self.ia_apply(task, repropagate=repropagate, rises_known=rises_known)

    def ia_prepare(self) -> Optional[IATask]:
        """Snapshot this rank's IA work; ``None`` when nothing is owned.

        Pre-allocates ``local_apsp`` at its final ``(n, n)`` shape so a
        kernel subprocess can write the local APSP rows straight into
        the (possibly shared-memory) destination.
        """
        n = self.n_local
        if n == 0:
            self.local_apsp = np.zeros((0, 0), dtype=np.float64)
            return None
        view = self.local_graph.to_csr(self.owned)
        cols = np.fromiter(
            (self.index.column(v) for v in self.owned), dtype=np.intp, count=n
        )
        self.local_apsp = self.allocator.empty((n, n))
        self.local_csr = view.matrix
        return IATask(
            matrix=view.matrix,
            cols=cols,
            n=n,
            nnz=int(view.matrix.nnz),
        )

    def ia_apply(
        self, task: IATask, *, repropagate: bool = False, rises_known: bool = False
    ) -> None:
        """Post-kernel charges and bookkeeping for one IA task."""
        n = task.n
        self._charge(
            self.cost.dijkstra_time(n, n, task.nnz), "dijkstra_sources", n
        )
        self._charge(self.cost.relax_time(n * n))
        if repropagate:
            self.request_full_repropagate(rises_known=rises_known)
            return
        # everything we own changed: queue full boundary DVs for neighbors.
        # The first fold is declared over every row and column, but no
        # entry is marked in ``dv_changed``: Dijkstra's block is already
        # closed under ``local_apsp``, so that fold visits only what the
        # first cut-edge relaxation lowers.
        self._changed_rows = set(range(n))
        self._dirty_cols[:] = True
        self._queue_rows(range(n))

    # ------------------------------------------------------------------
    # change tracking / messaging
    # ------------------------------------------------------------------
    def _queue_rows(self, rows: Iterable[int]) -> None:
        """Queue the DV rows at ``rows`` on every channel subscribed to
        them (sets: the payload is built in sorted vertex order)."""
        vertices = {self.owned[r] for r in rows}
        for ch in self.channels:
            ch.queue(vertices)

    def _mark_rows_changed(self, rows: List[int]) -> None:
        self._changed_rows.update(rows)
        self._queue_rows(rows)

    def subscribe(self, v: VertexId, dst: Rank) -> None:
        """Rank ``dst`` wants updates of ``v``'s DV row from now on."""
        if v not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own vertex {v}")
        self.channels[dst].subscribe(v)

    def has_work(self) -> bool:
        """True while this worker still has work that could change results:
        rows queued to peers, unacknowledged in-flight rows, unprocessed
        received rows, or unpropagated local changes."""
        return (
            any(ch.pending or ch.unacked for ch in self.channels)
            or bool(self._changed_rows)
            or bool(self._fresh_ext)
            or self._full_repropagate
        )

    def pending_row_count(self) -> int:
        """Rows queued for the next boundary exchange (over all peers)."""
        return sum(len(ch.pending) for ch in self.channels)

    def unacked_row_count(self) -> int:
        """Rows in flight awaiting acknowledgement."""
        return sum(
            len(ids) for ch in self.channels for ids, _ in ch.unacked.values()
        )

    def _encode_row(self, ch: Channel, v: VertexId, out: DeltaRows) -> bool:
        """Encode ``v``'s current row for channel ``ch`` into ``out``.

        Dense on first publication (no baseline) and whenever the delta
        would not be strictly cheaper on the wire; otherwise the columns
        strictly below the channel baseline.  Advances the baseline to the
        encoded values.  Returns False when nothing needs sending (the
        row did not improve since the last send).  A dense row goes out as
        a view of ``dv`` (see :class:`~repro.runtime.message.DeltaRows`).
        """
        row = self.dv[self.row_of[v]]
        if self.wire_format != "delta":
            out.dense[v] = row
            return True
        baselines = ch.sent_rows
        base = baselines.get(v)
        if base is None or base.size != row.size:
            out.dense[v] = row
            baselines[v] = row.copy()
            return True
        self._charge(self.cost.encode_time(row.size), "delta_encodes")
        cols = np.flatnonzero(row < base).astype(np.int64)
        if cols.size == 0:
            return False
        if delta_row_words(int(cols.size)) >= dense_row_words(row.size):
            out.dense[v] = row
            baselines[v] = row.copy()
            return True
        vals = row[cols].copy()
        out.sparse[v] = (cols, vals)
        base[cols] = vals  # baseline == row again on every column
        return True

    def _reset_baselines(self) -> None:
        """Invalidate every channel baseline: the next sends are dense.

        Called whenever incremental deltas stop being trustworthy — a full
        refresh/re-propagation, a deletion pass that *raised* DV entries
        (breaking the monotone premise of the delta encoding), or a column
        remap.
        """
        for ch in self.channels:
            ch.sent_rows.clear()

    def build_payload(self, dst: Rank) -> DeltaRows:
        """Encoded DV rows queued for ``dst``; clears the queue.

        A queued vertex that migrated away since it was queued is
        skipped: its new owner re-sends it.
        """
        out = DeltaRows()
        ch = self.channels[dst]
        for v in sorted(ch.pending):
            if v in self.row_of:
                self._encode_row(ch, v, out)
        ch.pending.clear()
        return out

    def receive_rows(
        self, rows: Union[Dict[VertexId, FloatArray], DeltaRows]
    ) -> None:
        """Store freshly received external boundary DV rows.

        Dense rows are copied over the stored row, into a slot taken on
        the vertex's first dense receive (deletion flows rely on the
        replacement to *raise* stale entries); sparse deltas scatter-merge
        into it with ``np.minimum``.  A delta for a vertex without a
        stored row is dropped: the row is only absent when this worker no
        longer tracks it, and every path that re-creates the need
        (re-subscription, recovery, full refresh) forces a dense resend.
        """
        dense = rows.dense if isinstance(rows, DeltaRows) else rows
        store = self.ext_store
        store.reserve(sum(1 for v in dense if v not in store))
        for v, row in dense.items():
            if row.size != self.n_cols:
                raise WorkerError(
                    f"received row of {row.size} cols, expected {self.n_cols}"
                )
            store.put(v, row)
            self._fresh_ext.add(v)
        if not isinstance(rows, DeltaRows):
            return
        for v, (cols, vals) in rows.sparse.items():
            stored = store.row(v)
            if stored is None:
                continue
            if cols.size and int(cols[-1]) >= stored.size:
                raise WorkerError(
                    f"delta for vertex {v} addresses column {int(cols[-1])}"
                    f" beyond {stored.size} stored columns"
                )
            stored[cols] = np.minimum(stored[cols], vals)
            self._fresh_ext.add(v)

    # ------------------------------------------------------------------
    # sequenced channels (every boundary exchange; see
    # Cluster.exchange_boundary)
    # ------------------------------------------------------------------
    def outbound_packets(
        self, dst: Rank, max_retries: int
    ) -> List[Tuple[int, DeltaRows, int]]:
        """Sequenced packets to send to ``dst`` this exchange.

        Returns ``(seq, payload, attempt)`` triples: first every
        unacknowledged packet (a *retry*, attempt > 1 — rows are rebuilt
        **dense** from the current DV, which only sharpens the delivered
        upper bounds and stays correct even when the original delta was
        lost or the retransmission is deduplicated at the receiver), then
        at most one fresh packet draining the pending queue through
        :meth:`build_payload`.  The delta baseline advances at build
        time, which is safe because retries are dense and the baseline
        is never advanced past values the receiver could permanently
        miss.  The pending set moves into the unacked buffer, so the
        convergence vote cannot pass until delivery is acknowledged.

        Raises :class:`~repro.errors.WorkerError` once a packet exhausts
        ``max_retries`` — a partition, not a transient fault.
        """
        packets: List[Tuple[int, DeltaRows, int]] = []
        unacked = self.channels[dst].unacked
        for seq in sorted(unacked):
            sent, attempts = unacked[seq]
            ids = [v for v in sent if v in self.row_of]
            if not ids:
                # every vertex migrated away; its new owner re-sends
                del unacked[seq]
                continue
            n = attempts + 1
            unacked[seq] = (ids, n)
            if n > max_retries + 1:
                raise WorkerError(
                    f"rank {self.rank} packet seq={seq} to rank {dst}"
                    f" exceeded {max_retries} retries (network partition?)"
                )
            payload = DeltaRows(dense={v: self.dv[self.row_of[v]] for v in ids})
            packets.append((seq, payload, n))
        payload = self.build_payload(dst)
        if payload:
            seq = self.channels[dst].open_packet(payload.vertices())
            packets.append((seq, payload, 1))
        return packets

    def receive_packet(
        self,
        src: Rank,
        seq: int,
        rows: Union[Dict[VertexId, FloatArray], DeltaRows],
        floor: int = 0,
    ) -> bool:
        """Deliver a sequenced packet; returns False for a duplicate.

        ``floor`` is the sender's :attr:`Channel.send_floor` riding on
        the packet (see :meth:`Channel.accept`).
        """
        if not self.channels[src].accept(seq, floor):
            return False
        self.receive_rows(rows)
        return True

    def reset_channel(self, peer: Rank) -> None:
        """Forget all channel state with ``peer`` but the subscriptions:
        called when either endpoint crashes.  The connection re-forms from
        sequence 0, and the post-recovery refresh re-queues whatever was in
        flight."""
        self.channels[peer] = Channel(self.channels[peer].subscribed)

    def requeue_in_flight(self) -> None:
        """Move unacknowledged rows back to the pending queues.

        Used when a fault plan detaches mid-computation (e.g. an anytime
        budget interrupt): the next exchange delivers whatever was still
        in flight as one fresh packet instead of per-packet retries.
        """
        for ch in self.channels:
            ch.requeue_in_flight(self.row_of)

    # ------------------------------------------------------------------
    # RC superstep: prepare -> kernel (any backend) -> apply
    # ------------------------------------------------------------------
    def superstep_prepare(self) -> SuperstepTask:
        """Snapshot one RC superstep's inputs for the kernel.

        Consumes the fresh-external set but leaves the change-tracking
        flags in place; :meth:`superstep_apply` clears them once the
        kernel's outcome is known.  Re-exports a dropped ``local_csr``
        (``Graph.to_csr`` splices the rows that changed), so the task
        carries a current CSR wherever ``local_apsp`` is square.

        Relaxation order over fresh external rows must not depend on set
        hash order: min() is order-independent per entry, but the compute
        charges are traced per relaxation in loop order.
        """
        n = self.n_local
        if self.local_csr is None and n and self.local_apsp.shape == (n, n):
            self.local_csr = self.local_graph.to_csr(self.owned).matrix
        fresh = self._fresh_ext
        self._fresh_ext = set()
        items: RelaxItems = []
        slot_of = self.ext_store.slot_of
        for x in sorted(fresh):
            pairs = self.cut_by_ext.get(x)
            slot = slot_of.get(x)
            if pairs and slot is not None:
                items.append((slot, [(self.row_of[u], w) for u, w in pairs]))
        return SuperstepTask(
            n=n,
            relax_items=items,
            changed_rows=sorted(self._changed_rows),
            dirty_cols=self._dirty_cols.copy(),
            full_repropagate=self._full_repropagate,
            rose=self.dv_rose
            if self._full_repropagate and not self._rises_unknown
            else None,
            fell=self._apsp_fell,
            graph=self.local_csr,
        )

    def superstep_apply(
        self, task: SuperstepTask, result: SuperstepResult
    ) -> bool:
        """Charges + bookkeeping for a completed superstep kernel.

        One relax charge per cut-edge relaxation
        (``d(u, t) <- min(d(u, t), w(u, x) + d(x, t))`` for each cut edge
        ``(u, x)`` whose external row arrived), then the min-plus charge
        iff the local propagation fold ran; improved rows are queued to
        their subscribers.
        """
        for _ in range(task.n_relaxations):
            self._charge(self.cost.relax_time(self.n_cols))
        self._mark_rows_changed(result.relax_improved)
        # a superstep always ends with clean tracking state — the fold
        # either consumed it or had nothing to do — or an empty worker
        # would block the convergence vote forever
        if self._full_repropagate:
            # a fresh mask, not an in-place clear: ``task.rose`` is this
            # array, and a speculative backup re-reads the task after this
            self.dv_rose = np.zeros(self.dv.shape, dtype=np.bool_)
        self._apsp_fell = None  # dropped, not cleared, for the same reason
        self._full_repropagate = False
        self._rises_unknown = False
        self._changed_rows.clear()
        if self._dirty_cols.size:
            self._dirty_cols[:] = False
        if self._dv_changed.size:
            self._dv_changed[...] = False
        if result.prop_charged:
            # The paper's recombination strategy performs the full local
            # Floyd–Warshall-style DV update each active RC step, and the
            # modeled cost charges that dense fold whenever the flags
            # above declared one.  What the kernel visits is narrower and
            # decided by ``dv_changed`` alone: an entry d(k,t) not lowered
            # since it was last a fold source already satisfies
            # d(x,t) <= apsp(x,k) + d(k,t) for every x (local_apsp is
            # transitively closed) unless the pair (x,k) fell since, so only
            # the lowered entries are pushed and the fallen pairs folded
            # (and, in a deletion repair, the risen entries pulled).
            self._charge(self.cost.minplus_time(task.n, task.n, self.n_cols))
        # Improved rows need only be *sent* to subscribers, not re-used as
        # local sources: local_apsp is transitively closed, so chaining two
        # local hops can never beat the single-hop fold just performed.
        self._queue_rows(result.prop_improved)
        return result.improved

    def request_full_repropagate(self, *, rises_known: bool = False) -> None:
        """Force the next superstep's fold to run, charged over all
        rows/columns (called after local structural changes invalidate the
        incremental change tracking).  The delta baselines are invalidated
        with it: a full re-propagation pairs with a dense boundary refresh.

        ``rises_known`` is the deletion paths' promise that ``dv`` rose
        only where ``dv_rose`` says and ``local_apsp`` did not fall: the
        fold then pulls the risen entries and pushes the lowered ones
        instead of re-deriving the block.  Callers that cannot promise it
        (recovery, restore, rebuilds) leave it False, and unknown
        dominates until the fold: a later deletion does not narrow it.
        """
        self._rises_unknown |= not rises_known
        self._full_repropagate = True
        self._reset_baselines()

    def _declare_full_fold(self) -> None:
        """Declare the next fold over all rows and columns — flags only:
        it runs and is charged like :meth:`request_full_repropagate`'s, but
        visits what the masks hold and keeps the delta channels.  For
        **monotone** changes (a local edge), where every DV entry only
        decreases and deltas stay valid; paths that can *raise* entries
        must use :meth:`request_full_repropagate` instead.
        """
        self._changed_rows.update(range(self.n_local))
        if self._dirty_cols.size:
            self._dirty_cols[:] = True

    # ------------------------------------------------------------------
    # dynamic changes: columns and vertices
    # ------------------------------------------------------------------
    def grow_columns(self, new_n_cols: int) -> None:
        """Extend DV (and stored external rows) to ``new_n_cols`` columns.

        Mirrors paper Fig. 3 lines 14/16: "ADD new column to DV and
        initialize to infinity".
        """
        added = new_n_cols - self.n_cols
        if added < 0:
            raise WorkerError("columns cannot shrink via grow_columns")
        if added == 0:
            return
        shape = (self.n_local, added)
        self._reshape_entries(
            lambda a, fill: np.hstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        self._dirty_cols = np.concatenate(
            [self._dirty_cols, np.zeros(added, dtype=bool)]
        )
        self.ext_store.grow_columns(added)
        pad = np.full(added, np.inf, dtype=np.float64)
        # channel baselines grow in lockstep: the new columns are +inf on
        # both endpoints, so they enter future deltas only once they improve
        for ch in self.channels:
            ch.sent_rows = {
                v: np.concatenate([base, pad]) for v, base in ch.sent_rows.items()
            }
        self._charge(
            self.cost.resize_time(self.n_local + len(self.ext_store), added),
            "dv_resizes",
        )

    def add_local_vertex(self, v: VertexId) -> int:
        """Add an owned vertex (paper Fig. 3 lines 12-14); returns its row."""
        if v in self.row_of:
            raise WorkerError(f"vertex {v} already owned by rank {self.rank}")
        if v not in self.index.col:
            raise WorkerError(f"vertex {v} missing from global index")
        r = self.n_local
        self.owned.append(v)
        self.row_of[v] = r
        self.local_graph.add_vertex(v)
        shape = (1, self.n_cols)
        self._reshape_entries(
            lambda a, fill: np.vstack([a, np.full(shape, fill, dtype=a.dtype)])
        )
        # the new row's one finite entry, d(v,v) = 0, is a new source
        col = self.index.column(v)
        self.dv[r, col] = 0.0
        self.dv_changed[r, col] = True
        # extend local APSP with an isolated vertex
        n = r + 1
        apsp = np.full((n, n), np.inf, dtype=np.float64)
        if r:
            apsp[:r, :r] = self.local_apsp
        np.fill_diagonal(apsp, 0.0)
        fell = self._apsp_fell
        self.local_apsp = apsp  # a new shape clears the marks: carry them
        if fell is not None:
            self._apsp_fell = np.pad(fell, ((0, 1), (0, 1)))
        self._charge(self.cost.vertex_time(1) + self.cost.resize_time(1, n))
        self._mark_rows_changed([r])
        return r

    def add_local_edge(self, u: VertexId, v: VertexId, w: float) -> None:
        """Add an intra-partition edge; incrementally repair ``local_apsp``.

        The classic incremental-APSP relaxation: paths may now route
        through the new edge in either direction.
        """
        self.local_graph.add_edge(u, v, w)
        self.local_csr = None  # stale: the next superstep re-exports it
        ru, rv = self.row_of[u], self.row_of[v]
        a = self.local_apsp
        n = a.shape[0]
        cand = np.minimum(
            a[:, ru][:, None] + w + a[rv][None, :],
            a[:, rv][:, None] + w + a[ru][None, :],
        )
        self._charge(self.cost.minplus_time(n, 2, n))
        improved = cand < a
        if improved.any():
            a[improved] = cand[improved]
            # the pairs that fell are all the next fold must re-fold
            self._apsp_fell = self.apsp_fell | improved
            self._declare_full_fold()
        # the new edge also immediately improves DV rows through it
        self._relax_dv_with_local_edge(ru, rv, w)

    def _relax_dv_with_local_edge(self, ru: int, rv: int, w: float) -> None:
        for src, dst in ((ru, rv), (rv, ru)):
            cand = self.dv[src] + w
            mask = cand < self.dv[dst]
            self._charge(self.cost.relax_time(self.n_cols))
            if mask.any():
                self.dv[dst][mask] = cand[mask]
                self.dv_changed[dst] |= mask
                self._dirty_cols |= mask
                self._mark_rows_changed([dst])

    def add_cut_edge(self, u: VertexId, x: VertexId, w: float) -> None:
        """Register a new cut edge from owned ``u`` to external ``x``."""
        if u not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own {u}")
        self.cut_adj.setdefault(u, {})[x] = w
        lst = self.cut_by_ext.setdefault(x, [])
        lst[:] = [(a, ww) for a, ww in lst if a != u]  # re-add replaces
        lst.append((u, w))
        self._charge(self.cost.vertex_time(1))
        if x in self.ext_store:
            self._fresh_ext.add(x)  # relax against the stored row next step

    def remove_cut_edge(self, u: VertexId, x: VertexId) -> None:
        nbrs = self.cut_adj.get(u, {})
        nbrs.pop(x, None)
        if not nbrs:
            self.cut_adj.pop(u, None)
        lst = self.cut_by_ext.get(x)
        if lst is not None:
            self.cut_by_ext[x] = [(a, w) for a, w in lst if a != u]
            if not self.cut_by_ext[x]:
                del self.cut_by_ext[x]
                self.ext_store.drop(x)
                self._fresh_ext.discard(x)

    # ------------------------------------------------------------------
    # edge-addition / deletion relaxations (distributed, row broadcasts)
    # ------------------------------------------------------------------
    def relax_with_edge_rows(
        self,
        a: VertexId,
        row_a: FloatArray,
        b: VertexId,
        row_b: FloatArray,
        w: float,
    ) -> bool:
        """Edge-addition relaxation from broadcast endpoint rows [paper 9].

        ``d(x,t) <- min(d(x,t), d(x,a) + w + d(b,t), d(x,b) + w + d(a,t))``
        for every owned ``x`` and every target ``t`` (Fig. 3 lines 26-34).
        """
        if self.n_local == 0:
            return False
        # The paper's relaxation is dense (every owned row x every target),
        # and the modeled cost charges that once per orientation whatever
        # the kernel skips — two additions, because the modeled clock is
        # pinned bitwise.
        self._charge(self.cost.relax_time(self.n_local * self.n_cols))
        self._charge(self.cost.relax_time(self.n_local * self.n_cols))
        rows = relax_edge_kernel(
            self.dv,
            self.dv_changed,
            self._dirty_cols,
            self.index.column(a),
            row_a,
            self.index.column(b),
            row_b,
            w,
        )
        self._mark_rows_changed(rows.tolist())
        return bool(rows.size)

    def invalidate_for_deleted_edge(
        self,
        u: VertexId,
        row_u: FloatArray,
        v: VertexId,
        row_v: FloatArray,
        w: float,
    ) -> int:
        """Reset DV entries whose shortest path may have used edge (u, v).

        An entry ``d(x,t)`` is *suspect* iff ``d(x,u) + w + d(v,t) == d(x,t)``
        (either orientation): some shortest path crossed the deleted edge.
        Suspect entries are reset to +inf (except exact local distances and
        the diagonal, which are restored by the caller's local-APSP
        recomputation), marked in ``dv_rose`` and rebuilt by the next fold
        and the RC steps after it.  Entries that are not suspect are
        untouched — their witnessing paths avoid the edge.
        """
        if self.n_local == 0:
            return 0
        to_u = self.dv[:, self.index.column(u)][:, None]
        to_v = self.dv[:, self.index.column(v)][:, None]
        self._charge(self.cost.relax_time(2 * self.n_local * self.n_cols))
        return self._invalidate(
            np.minimum(to_u + (w + row_v)[None, :], to_v + (w + row_u)[None, :])
        )

    def _invalidate(self, through: FloatArray) -> int:
        """Raise to +inf, and mark in ``dv_rose`` (its one writer on the
        deletion paths), every finite off-diagonal entry witnessed by a
        through-path of length ``through``; returns how many."""
        # witnessed == the through-path length matches the stored distance.
        # Compare with a relative tolerance: float sums accumulate in
        # different orders on different workers, so exact equality can miss
        # a genuine witness by one ulp and leave a stale (too small)
        # distance alive.  `<=` also catches not-yet-relaxed entries, and
        # over-invalidating is always safe (the entry is just recomputed).
        suspect = through <= self.dv * (1.0 + 1e-12) + 1e-12
        suspect &= np.isfinite(self.dv)
        suspect[np.arange(self.n_local), self.index.columns(self.owned)] = False
        count = int(suspect.sum())
        if count:
            self.dv[suspect] = np.inf
            self.dv_rose |= suspect
            # entries just *rose*: deltas assume monotone decrease, so every
            # channel restarts dense (the deletion flows queue a full
            # boundary refresh right after this pass)
            self._reset_baselines()
        return count

    def restore_local_baseline(self, *, rises_known: bool = False) -> None:
        """Re-apply ``local_apsp`` to the owned columns of ``dv``.

        Used after an invalidation pass that may have wiped entries that
        are exact within the local sub-graph; also forces the next
        propagation to be full (``rises_known`` as in
        :meth:`request_full_repropagate`).  Unlike :meth:`recompute_local_apsp`
        it does not re-run Dijkstra — the local structure did not change.
        """
        n = self.n_local
        if n == 0:
            return
        cols = np.fromiter(
            (self.index.column(v) for v in self.owned), dtype=np.intp, count=n
        )
        # fancy indexing yields a copy, so an out= write would be lost;
        # assign the minimum back explicitly
        self.dv[:, cols] = np.minimum(self.dv[:, cols], self.local_apsp)
        self._charge(self.cost.relax_time(n * n))
        self.request_full_repropagate(rises_known=rises_known)

    def invalidate_through_vertex(self, x: VertexId, row_x: FloatArray) -> int:
        """Reset DV entries whose shortest path may route through ``x``.

        Used by vertex deletion: ``d(a,b)`` is suspect iff
        ``d(a,x) + d(x,b) == d(a,b)``.  Entries *to* and *from* ``x`` itself
        are left alone — the caller removes that row/column entirely.
        """
        if self.n_local == 0:
            return 0
        col_x = self.index.column(x)
        through = self.dv[:, col_x][:, None] + row_x[None, :]
        self._charge(self.cost.relax_time(self.n_local * self.n_cols))
        through[:, col_x] = np.inf  # never a witness
        if x in self.row_of:
            through[self.row_of[x], :] = np.inf  # the row disappears anyway
        return self._invalidate(through)

    def crash_wipe(self, n_cols: int) -> None:
        """Destroy every piece of derived state, as a process crash does:
        ``dv`` all +inf over ``n_cols`` columns, no local APSP, no stored
        external row (their slots freed), no change tracking, no channel
        state (subscriptions included) and no un-synced metering.  The
        caller resets the peers' side of each channel."""
        self.wipe_entries(n_cols)
        self.local_apsp = np.zeros((0, 0), dtype=np.float64)
        self.ext_store.clear(n_cols)
        self._fresh_ext.clear()
        self._changed_rows.clear()
        self._dirty_cols = np.zeros(n_cols, dtype=bool)
        self.channels = [Channel() for _ in range(self.nprocs)]
        self.take_compute_seconds()

    def clear_external_rows(self) -> None:
        """Drop all stored external boundary rows (stale after deletions)."""
        self.ext_store.clear()
        self._fresh_ext.clear()

    def queue_all_boundary_rows(self) -> None:
        """Queue every subscribed row for a full (dense) refresh.

        Deletion repairs and recovery paths call this after receivers may
        have dropped or invalidated their stored copies, so the refresh
        must not be delta-encoded against a pre-refresh baseline.
        """
        self._reset_baselines()
        for ch in self.channels:
            ch.pending |= ch.subscribed

    # ------------------------------------------------------------------
    # vertex deletion support
    # ------------------------------------------------------------------
    def remove_column(self, col: int) -> None:
        """Compact away a deleted vertex's DV column."""
        self._reshape_entries(lambda a, _fill: np.delete(a, col, axis=1))
        self._dirty_cols = np.delete(self._dirty_cols, col)
        self.ext_store.remove_column(col)
        # column indices shifted under the baselines: start channels dense
        self._reset_baselines()
        self._charge(self.cost.resize_time(self.n_local + len(self.ext_store), 1))

    def remove_local_vertex(self, v: VertexId) -> None:
        """Remove an owned vertex's row and local structure."""
        r = self.row_of.pop(v)
        self.owned.pop(r)
        for vv in self.owned[r:]:
            self.row_of[vv] -= 1
        self._reshape_entries(lambda a, _fill: np.delete(a, r, axis=0))
        fell = self._apsp_fell
        self.local_apsp = np.delete(
            np.delete(self.local_apsp, r, axis=0), r, axis=1
        )
        if fell is not None:  # the new shape cleared the marks: carry them
            self._apsp_fell = np.delete(np.delete(fell, r, axis=0), r, axis=1)
        self.local_graph.remove_vertex(v)
        self.cut_adj.pop(v, None)
        for x in list(self.cut_by_ext):
            self.cut_by_ext[x] = [(a, w) for a, w in self.cut_by_ext[x] if a != v]
            if not self.cut_by_ext[x]:
                del self.cut_by_ext[x]
                self.ext_store.drop(x)
                self._fresh_ext.discard(x)
        for ch in self.channels:
            ch.forget(v)
        # row indices shifted; the masks moved with dv: the rises stay known
        self._changed_rows = set()
        self.request_full_repropagate(rises_known=True)
        self._charge(self.cost.vertex_time(1))

    def drop_external_vertex(self, x: VertexId) -> None:
        """Forget a deleted external vertex entirely."""
        self.ext_store.drop(x)
        self._fresh_ext.discard(x)
        self.cut_by_ext.pop(x, None)
        for u in list(self.cut_adj):
            self.cut_adj[u].pop(x, None)
            if not self.cut_adj[u]:
                del self.cut_adj[u]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def ext_row(self, x: VertexId) -> Optional[FloatArray]:
        """The stored DV row of external vertex ``x`` (a view into the
        store), or ``None`` when no row of ``x`` is held."""
        return self.ext_store.row(x)

    def dv_row(self, v: VertexId) -> FloatArray:
        """A copy of the authoritative DV row of owned vertex ``v``."""
        return self.dv[self.row_of[v]].copy()

    def extract_rows(self, vertices: Iterable[VertexId]) -> Dict[VertexId, FloatArray]:
        """Copies of DV rows for migration (Repartition-S)."""
        return {v: self.dv[self.row_of[v]].copy() for v in vertices}

    def local_boundary_vertices(self) -> List[VertexId]:
        """Owned vertices incident to at least one cut edge."""
        return sorted(self.cut_adj)

    def __repr__(self) -> str:
        return (
            f"Worker(rank={self.rank}, owned={self.n_local},"
            f" cut={sum(len(d) for d in self.cut_adj.values())})"
        )

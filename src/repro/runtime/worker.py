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
  local edge lowered since the last fold, over which it folds every target.

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
from .index import GlobalIndex
from .kernels import (
    IATask,
    IndexArray,
    KernelTier,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
    make_tier,
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
        tier: Optional[KernelTier] = None,
    ) -> None:
        if wire_format not in ("dense", "delta"):
            raise WorkerError(f"unknown wire format {wire_format!r}")
        #: kernel tier executing this worker's compute (see
        #: :mod:`repro.runtime.kernels`); the oracle tier by default
        self.tier = tier if tier is not None else make_tier("numpy")
        #: where ``dv`` / ``local_apsp`` / ``dv_changed`` live; the process
        #: backend passes a shared-memory allocator so kernel subprocesses
        #: can attach
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
        #: ranks that need each owned vertex's DV row (it is in their
        #: external boundary)
        self._subscribers: Dict[VertexId, Set[Rank]] = {}
        #: per-vertex memo of the subscriber set in sorted rank order;
        #: invalidated on (un)subscription so the hot queueing paths
        #: stop re-sorting per row per superstep
        self._subs_sorted: Dict[VertexId, List[Rank]] = {}

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
        #: last received DV rows of external boundary vertices
        self.ext_dvs: Dict[VertexId, FloatArray] = {}

        # --- per-step change tracking ---------------------------------
        self._pending: List[Set[VertexId]] = [set() for _ in range(nprocs)]
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

        # --- loss-tolerant channels (sequence numbers + ack/retry) ----
        #: next sequence number per destination rank
        self._send_seq: List[int] = [0] * nprocs
        #: per destination: seq -> vertex ids awaiting acknowledgement
        self._unacked: List[Dict[int, List[VertexId]]] = [
            {} for _ in range(nprocs)
        ]
        #: per destination: seq -> send attempts so far
        self._attempts: List[Dict[int, int]] = [{} for _ in range(nprocs)]
        #: per source: the dedup filter.  ``_seen_floor`` is the watermark
        #: — the sender has settled every sequence number below it and
        #: will never resend one — and ``_seen_seq`` holds the numbers at
        #: or above it already delivered (at most the sender's in-flight
        #: retries, so O(1) on a lossless channel)
        self._seen_floor: List[int] = [0] * nprocs
        self._seen_seq: List[Set[int]] = [set() for _ in range(nprocs)]

        # --- delta-exchange baselines ---------------------------------
        #: per destination: vertex -> snapshot of the row as of the last
        #: payload built for that rank.  A row's delta is the columns
        #: strictly below this baseline; no baseline forces a dense send.
        self._sent_rows: List[Dict[VertexId, FloatArray]] = [
            {} for _ in range(nprocs)
        ]

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

    # ------------------------------------------------------------------
    # subscription records (with a sorted-order memo for the hot paths)
    # ------------------------------------------------------------------
    @property
    def subscribers(self) -> Dict[VertexId, Set[Rank]]:
        """Subscription records: owned vertex -> ranks needing its row.

        Mutate only through :meth:`subscribe` / :meth:`unsubscribe_rank`
        / :meth:`record_subscriber` (or wholesale assignment), so the
        sorted-order memo stays coherent.
        """
        return self._subscribers

    @subscribers.setter
    def subscribers(self, value: Dict[VertexId, Set[Rank]]) -> None:
        self._subscribers = value
        self._subs_sorted = {}

    def _sorted_subscribers(self, v: VertexId) -> List[Rank]:
        """Subscribers of ``v`` in sorted rank order (memoized)."""
        cached = self._subs_sorted.get(v)
        if cached is None:
            subs = self._subscribers.get(v)
            if not subs:
                return []
            cached = self._subs_sorted[v] = sorted(subs)
        return cached

    def record_subscriber(self, v: VertexId, dst: Rank) -> None:
        """Add a subscription record only — no row queueing, no channel
        baseline reset.  Used by recovery paths that restore who *would*
        receive each boundary row without scheduling any sends."""
        self._subscribers.setdefault(v, set()).add(dst)
        self._subs_sorted.pop(v, None)

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
        deletion may leave a pair below the value it was last folded at."""
        return self._local_apsp

    @local_apsp.setter
    def local_apsp(self, value: FloatArray) -> None:
        self._local_apsp = self.allocator.adopt(value, self._local_apsp)
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
        self.subscribers = {}
        n_cols = len(self.index)
        self.wipe_entries(n_cols)
        for v, r in self.row_of.items():
            self.dv[r, self.index.column(v)] = 0.0
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
        self.ext_dvs = {}
        self.local_apsp = np.zeros((0, 0), dtype=np.float64)
        self._pending = [set() for _ in range(self.nprocs)]
        self._changed_rows = set()
        self._dirty_cols = np.zeros(n_cols, dtype=bool)
        self._fresh_ext = set()
        self._full_repropagate = False
        self._rises_unknown = False
        self._send_seq = [0] * self.nprocs
        self._unacked = [{} for _ in range(self.nprocs)]
        self._attempts = [{} for _ in range(self.nprocs)]
        self._seen_floor = [0] * self.nprocs
        self._seen_seq = [set() for _ in range(self.nprocs)]
        self._sent_rows = [{} for _ in range(self.nprocs)]

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
        self.tier.ia_kernel(task, self.dv, self.local_apsp)
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
        return IATask(
            matrix=view.matrix,
            cols=cols,
            n=n,
            nnz=int(view.matrix.nnz),
            tier=self.tier.name,
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
        for v in self.owned:
            self._queue_row(v)

    # ------------------------------------------------------------------
    # change tracking / messaging
    # ------------------------------------------------------------------
    def _queue_row(self, v: VertexId) -> None:
        """Queue ``v``'s DV row for every subscriber rank.

        Subscribers are a set; iterate in sorted rank order so queueing
        (and the trace events it later produces) is run-to-run stable.
        The sorted order is memoized per vertex — this runs per row per
        superstep, and re-sorting an unchanged set dominated the apply
        path.
        """
        for dst in self._sorted_subscribers(v):
            self._pending[dst].add(v)

    def _mark_row_changed(self, row: int) -> None:
        self._changed_rows.add(row)
        self._queue_row(self.owned[row])

    def _mark_rows_changed(self, rows: IndexArray) -> None:
        """Bulk version of :meth:`_mark_row_changed` for vectorized kernels."""
        idx = rows.tolist()
        self._changed_rows.update(idx)
        if not self._subscribers:
            return
        for r in idx:
            v = self.owned[r]
            for dst in self._sorted_subscribers(v):
                self._pending[dst].add(v)

    def subscribe(self, v: VertexId, dst: Rank) -> None:
        """Rank ``dst`` wants updates of ``v``'s DV row from now on."""
        if v not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own vertex {v}")
        self._subscribers.setdefault(v, set()).add(dst)
        self._subs_sorted.pop(v, None)
        self._pending[dst].add(v)  # send the current row at the next exchange
        # a (re-)subscription always starts from a dense row: the receiver
        # may have dropped (or never held) its copy
        self._sent_rows[dst].pop(v, None)

    def unsubscribe_rank(self, dst: Rank) -> None:
        """Drop all subscriptions from ``dst`` (used on repartition)."""
        for subs in self._subscribers.values():
            subs.discard(dst)
        self._subs_sorted = {}
        self._pending[dst].clear()
        self._sent_rows[dst].clear()

    def has_pending(self) -> bool:
        """True while this worker still has work that could change results:
        rows queued to peers, unacknowledged in-flight rows, unprocessed
        received rows, or unpropagated local changes."""
        return (
            any(self._pending)
            or any(self._unacked)
            or bool(self._changed_rows)
            or bool(self._fresh_ext)
            or self._full_repropagate
        )

    def pending_row_count(self) -> int:
        """Rows queued for the next boundary exchange (over all peers)."""
        return sum(len(q) for q in self._pending)

    def unacked_row_count(self) -> int:
        """Rows in flight awaiting acknowledgement."""
        return sum(
            len(ids) for chan in self._unacked for ids in chan.values()
        )

    def _encode_row(self, dst: Rank, v: VertexId, out: DeltaRows) -> bool:
        """Encode ``v``'s current row for ``dst`` into ``out``.

        Dense on first publication (no baseline) and whenever the delta
        would not be strictly cheaper on the wire; otherwise the columns
        strictly below the channel baseline.  Advances the baseline to the
        encoded values.  Returns False when nothing needs sending (the
        row did not improve since the last send).
        """
        row = self.dv[self.row_of[v]]
        if self.wire_format != "delta":
            out.dense[v] = row.copy()
            return True
        baselines = self._sent_rows[dst]
        base = baselines.get(v)
        if base is None or base.size != row.size:
            out.dense[v] = row.copy()
            baselines[v] = row.copy()
            return True
        self._charge(self.cost.encode_time(row.size), "delta_encodes")
        cols = np.flatnonzero(row < base).astype(np.int64)
        if cols.size == 0:
            return False
        if delta_row_words(int(cols.size)) >= dense_row_words(row.size):
            out.dense[v] = row.copy()
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
        for baselines in self._sent_rows:
            baselines.clear()

    def build_payload(self, dst: Rank) -> DeltaRows:
        """Encoded DV rows queued for ``dst``; clears the queue.

        A queued vertex that migrated away since it was queued is
        skipped: its new owner re-sends it.
        """
        out = DeltaRows()
        for v in sorted(self._pending[dst]):
            if v in self.row_of:
                self._encode_row(dst, v, out)
        self._pending[dst].clear()
        return out

    def receive_rows(
        self, rows: Union[Dict[VertexId, FloatArray], DeltaRows]
    ) -> None:
        """Store freshly received external boundary DV rows.

        Dense rows replace the stored copy (deletion flows rely on the
        replacement to *raise* stale entries); sparse deltas scatter-merge
        into it with ``np.minimum``.  A delta for a vertex without a
        stored row is dropped: the row is only absent when this worker no
        longer tracks it, and every path that re-creates the need
        (re-subscription, recovery, full refresh) forces a dense resend.
        """
        dense = rows.dense if isinstance(rows, DeltaRows) else rows
        for v, row in dense.items():
            if row.size != self.n_cols:
                raise WorkerError(
                    f"received row of {row.size} cols, expected {self.n_cols}"
                )
            self.ext_dvs[v] = row
            self._fresh_ext.add(v)
        if not isinstance(rows, DeltaRows):
            return
        for v, (cols, vals) in rows.sparse.items():
            stored = self.ext_dvs.get(v)
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
    ) -> List[Tuple[int, DeltaRows, bool]]:
        """Sequenced packets to send to ``dst`` this exchange.

        Returns ``(seq, payload, is_retry)`` triples: first every
        unacknowledged packet (a *retry* — rows are rebuilt **dense** from
        the current DV, which only sharpens the delivered upper bounds and
        stays correct even when the original delta was lost or the
        retransmission is deduplicated at the receiver), then at most one
        fresh packet draining the pending queue through
        :meth:`build_payload`.  The delta baseline advances at build
        time, which is safe because retries are dense and the baseline
        is never advanced past values the receiver could permanently
        miss.  The pending set moves into the unacked buffer, so the
        convergence vote cannot pass until delivery is acknowledged.

        Raises :class:`~repro.errors.WorkerError` once a packet exhausts
        ``max_retries`` — a partition, not a transient fault.
        """
        packets: List[Tuple[int, DeltaRows, bool]] = []
        unacked = self._unacked[dst]
        attempts = self._attempts[dst]
        for seq in sorted(unacked):
            ids = [v for v in unacked[seq] if v in self.row_of]
            if not ids:
                # every vertex migrated away; its new owner re-sends
                del unacked[seq]
                attempts.pop(seq, None)
                continue
            unacked[seq] = ids
            n = attempts[seq] = attempts.get(seq, 0) + 1
            if n > max_retries + 1:
                raise WorkerError(
                    f"rank {self.rank} packet seq={seq} to rank {dst}"
                    f" exceeded {max_retries} retries (network partition?)"
                )
            payload = DeltaRows(
                dense={v: self.dv[self.row_of[v]].copy() for v in ids}
            )
            packets.append((seq, payload, n > 1))
        payload = self.build_payload(dst)
        if payload:
            seq = self._send_seq[dst]
            self._send_seq[dst] += 1
            unacked[seq] = payload.vertices()
            attempts[seq] = 1
            packets.append((seq, payload, False))
        return packets

    def ack_packet(self, dst: Rank, seq: int) -> None:
        """Destination acknowledged packet ``seq``; stop retrying it."""
        self._unacked[dst].pop(seq, None)
        self._attempts[dst].pop(seq, None)

    def attempt_count(self, dst: Rank, seq: int) -> int:
        """Send attempts so far for packet ``(dst, seq)`` (>= 1).

        Read by the cluster right after :meth:`outbound_packets` marks a
        retry, to size the health monitor's modeled backoff delay.
        """
        return self._attempts[dst].get(seq, 1)

    def send_floor(self, dst: Rank) -> int:
        """Lowest sequence number this rank may still (re)send to ``dst``.

        Everything below it was acknowledged or abandoned
        (:meth:`flush_unacked`, rows that migrated away), so the
        receiver may forget it — the header field that keeps the dedup
        filter bounded (cf. SCTP's forward-TSN).
        """
        unacked = self._unacked[dst]
        return min(unacked) if unacked else self._send_seq[dst]

    def receive_packet(
        self,
        src: Rank,
        seq: int,
        rows: Union[Dict[VertexId, FloatArray], DeltaRows],
        floor: int = 0,
    ) -> bool:
        """Deliver a sequenced packet; returns False for a duplicate.

        ``floor`` is the sender's :meth:`send_floor` riding on the
        packet: the watermark rises to it and delivered numbers below
        it are forgotten.
        """
        seen = self._seen_seq[src]
        if floor > self._seen_floor[src]:
            seen.difference_update(range(self._seen_floor[src], floor))
            self._seen_floor[src] = floor
        if seq < self._seen_floor[src] or seq in seen:
            return False
        seen.add(seq)
        self.receive_rows(rows)
        return True

    def reset_channel(self, peer: Rank) -> None:
        """Forget all channel state with ``peer`` in both directions.

        Called when either endpoint crashes: the connection is
        re-established from sequence 0 and the post-recovery subscription
        refresh re-queues whatever was in flight.
        """
        self._send_seq[peer] = 0
        self._unacked[peer].clear()
        self._attempts[peer].clear()
        self._seen_floor[peer] = 0
        self._seen_seq[peer].clear()
        self._pending[peer].clear()
        self._sent_rows[peer].clear()

    def flush_unacked(self) -> None:
        """Move unacknowledged rows back to the pending queues.

        Used when a fault plan detaches mid-computation (e.g. an anytime
        budget interrupt): the next exchange delivers whatever was still
        in flight as one fresh packet instead of per-packet retries.
        """
        for dst in range(self.nprocs):
            for ids in self._unacked[dst].values():
                for v in ids:
                    if v in self.row_of:
                        self._pending[dst].add(v)
                        # delivery was never confirmed, so the baseline may
                        # be ahead of the receiver: force a dense resend
                        self._sent_rows[dst].pop(v, None)
            self._unacked[dst].clear()
            self._attempts[dst].clear()

    # ------------------------------------------------------------------
    # RC superstep: prepare -> kernel (any backend) -> apply
    # ------------------------------------------------------------------
    def superstep_prepare(self) -> SuperstepTask:
        """Snapshot one RC superstep's inputs for the kernel.

        Consumes the fresh-external set but leaves the change-tracking
        flags in place; :meth:`superstep_apply` clears them once the
        kernel's outcome is known.

        Relaxation order over fresh external rows must not depend on set
        hash order: min() is order-independent per entry, but the compute
        charges are traced per relaxation in loop order.
        """
        fresh = self._fresh_ext
        self._fresh_ext = set()
        items: RelaxItems = []
        for x in sorted(fresh):
            pairs = self.cut_by_ext.get(x)
            row_x = self.ext_dvs.get(x)
            if pairs and row_x is not None:
                items.append((row_x, [(self.row_of[u], w) for u, w in pairs]))
        return SuperstepTask(
            n=self.n_local,
            relax_items=items,
            changed_rows=sorted(self._changed_rows),
            dirty_cols=self._dirty_cols.copy(),
            full_repropagate=self._full_repropagate,
            rose=self.dv_rose
            if self._full_repropagate and not self._rises_unknown
            else None,
            fell=self._apsp_fell,
            tier=self.tier.name,
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
        for r in result.relax_improved:
            self._mark_row_changed(r)
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
        for r in result.prop_improved:
            self._queue_row(self.owned[r])
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
        pad = np.full(added, np.inf, dtype=np.float64)
        for x, row in list(self.ext_dvs.items()):
            self.ext_dvs[x] = np.concatenate([row, pad])
        # channel baselines grow in lockstep: the new columns are +inf on
        # both endpoints, so they enter future deltas only once they improve
        for baselines in self._sent_rows:
            for v, base in list(baselines.items()):
                baselines[v] = np.concatenate([base, pad])
        self._charge(
            self.cost.resize_time(self.n_local + len(self.ext_dvs), added),
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
        self._mark_row_changed(r)
        return r

    def add_local_edge(self, u: VertexId, v: VertexId, w: float) -> None:
        """Add an intra-partition edge; incrementally repair ``local_apsp``.

        The classic incremental-APSP relaxation: paths may now route
        through the new edge in either direction.
        """
        self.local_graph.add_edge(u, v, w)
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
                self._mark_row_changed(dst)

    def add_cut_edge(self, u: VertexId, x: VertexId, w: float) -> None:
        """Register a new cut edge from owned ``u`` to external ``x``."""
        if u not in self.row_of:
            raise WorkerError(f"rank {self.rank} does not own {u}")
        self.cut_adj.setdefault(u, {})[x] = w
        lst = self.cut_by_ext.setdefault(x, [])
        lst[:] = [(a, ww) for a, ww in lst if a != u]  # re-add replaces
        lst.append((u, w))
        self._charge(self.cost.vertex_time(1))
        if x in self.ext_dvs:
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
                self.ext_dvs.pop(x, None)
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
        self._mark_rows_changed(rows)
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

    def clear_external_rows(self) -> None:
        """Drop all stored external boundary rows (stale after deletions)."""
        self.ext_dvs.clear()
        self._fresh_ext.clear()

    def queue_all_boundary_rows(self) -> None:
        """Queue every subscribed row for a full (dense) refresh.

        Deletion repairs and recovery paths call this after receivers may
        have dropped or invalidated their stored copies, so the refresh
        must not be delta-encoded against a pre-refresh baseline.
        """
        self._reset_baselines()
        for v in self.subscribers:
            self._queue_row(v)

    # ------------------------------------------------------------------
    # vertex deletion support
    # ------------------------------------------------------------------
    def remove_column(self, col: int) -> None:
        """Compact away a deleted vertex's DV column."""
        self._reshape_entries(lambda a, _fill: np.delete(a, col, axis=1))
        self._dirty_cols = np.delete(self._dirty_cols, col)
        for x, row in list(self.ext_dvs.items()):
            self.ext_dvs[x] = np.delete(row, col)
        # column indices shifted under the baselines: start channels dense
        self._reset_baselines()
        self._charge(self.cost.resize_time(self.n_local + len(self.ext_dvs), 1))

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
                self.ext_dvs.pop(x, None)
                self._fresh_ext.discard(x)
        self._subscribers.pop(v, None)
        self._subs_sorted.pop(v, None)
        for pend in self._pending:
            pend.discard(v)
        for baselines in self._sent_rows:
            baselines.pop(v, None)
        # row indices shifted; the masks moved with dv: the rises stay known
        self._changed_rows = set()
        self.request_full_repropagate(rises_known=True)
        self._charge(self.cost.vertex_time(1))

    def drop_external_vertex(self, x: VertexId) -> None:
        """Forget a deleted external vertex entirely."""
        self.ext_dvs.pop(x, None)
        self._fresh_ext.discard(x)
        self.cut_by_ext.pop(x, None)
        for u in list(self.cut_adj):
            self.cut_adj[u].pop(x, None)
            if not self.cut_adj[u]:
                del self.cut_adj[u]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
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
